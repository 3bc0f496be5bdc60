/**
 * @file
 * Host fingerprint stamped on every benchmark result record: a number
 * is only a baseline for another number carrying the same fingerprint.
 */

#ifndef HNOC_PERFBENCH_FINGERPRINT_HH
#define HNOC_PERFBENCH_FINGERPRINT_HH

#include <string>

namespace hnoc
{
class JsonWriter;
}

namespace perfbench
{

/** What produced a result: host, toolchain, build and source. */
struct Fingerprint
{
    std::string cpuModel;
    unsigned cores = 0;
    long l1dBytes = 0; ///< 0 when the C library cannot tell
    long l2Bytes = 0;
    long l3Bytes = 0;
    std::string compiler;
    std::string buildType;
    std::string cxxFlags;
    int threads = 0;
    std::string commit;       ///< as given by the caller ("unknown" if none)
    std::string sourceDigest; ///< hash of the sources, as given by the caller
};

/** Probe this host and build; @p threads, @p commit and
 *  @p source_digest are recorded as given. */
Fingerprint probeFingerprint(int threads, const std::string &commit,
                             const std::string &source_digest);

/** Emit @p fp as a JSON object value. */
void writeFingerprint(hnoc::JsonWriter &w, const Fingerprint &fp);

} // namespace perfbench

#endif // HNOC_PERFBENCH_FINGERPRINT_HH
