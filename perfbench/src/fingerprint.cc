/**
 * @file
 * Host fingerprint probe (see fingerprint.hh). The CPU model comes from
 * the CPUID brand string and the cache sizes from sysconf, so the probe
 * reads no file.
 */

#include "fingerprint.hh"

#include <unistd.h>

#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "telemetry/json_writer.hh"

namespace perfbench
{

namespace
{

std::string
cpuBrand()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; ++leaf)
            __get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                        &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                        &regs[4 * leaf + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        std::size_t b = s.find_first_not_of(' ');
        std::size_t e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

long
cacheBytes(int name)
{
    long v = sysconf(name);
    return v > 0 ? v : 0;
}

} // namespace

Fingerprint
probeFingerprint(int threads, const std::string &commit,
                 const std::string &source_digest)
{
    Fingerprint fp;
    fp.cpuModel = cpuBrand();
    fp.cores = std::thread::hardware_concurrency();
#ifdef _SC_LEVEL1_DCACHE_SIZE
    fp.l1dBytes = cacheBytes(_SC_LEVEL1_DCACHE_SIZE);
    fp.l2Bytes = cacheBytes(_SC_LEVEL2_CACHE_SIZE);
    fp.l3Bytes = cacheBytes(_SC_LEVEL3_CACHE_SIZE);
#endif
    fp.compiler = PERFBENCH_COMPILER;
    fp.buildType = PERFBENCH_BUILD_TYPE;
    fp.cxxFlags = PERFBENCH_CXX_FLAGS;
    fp.threads = threads;
    fp.commit = commit.empty() ? "unknown" : commit;
    fp.sourceDigest = source_digest.empty() ? "unknown" : source_digest;
    return fp;
}

void
writeFingerprint(hnoc::JsonWriter &w, const Fingerprint &fp)
{
    w.beginObject();
    w.keyValue("cpu_model", fp.cpuModel);
    w.keyValue("cores", static_cast<std::uint64_t>(fp.cores));
    w.keyValue("l1d_bytes", static_cast<std::int64_t>(fp.l1dBytes));
    w.keyValue("l2_bytes", static_cast<std::int64_t>(fp.l2Bytes));
    w.keyValue("l3_bytes", static_cast<std::int64_t>(fp.l3Bytes));
    w.keyValue("compiler", fp.compiler);
    w.keyValue("build_type", fp.buildType);
    w.keyValue("cxx_flags", fp.cxxFlags);
    w.keyValue("threads", fp.threads);
    w.keyValue("commit", fp.commit);
    w.keyValue("source_digest", fp.sourceDigest);
    w.endObject();
}

} // namespace perfbench
