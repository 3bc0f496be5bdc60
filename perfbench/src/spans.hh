/**
 * @file
 * Host-time spans recorded by the benchmark around each public call it
 * makes into the simulator, plus the per-layer self-time arithmetic.
 *
 * A span's layer is the prefix of its name before the first '.', named
 * after the src/ module whose call it wraps ("sys.warmCaches" belongs
 * to the sys layer). Spans live in memory for the whole run and are
 * written out once at the end.
 */

#ifndef HNOC_PERFBENCH_SPANS_HH
#define HNOC_PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Host nanoseconds since the first call in this process. */
std::int64_t nowNs();

/** One timed call: [startNs, endNs) on the host steady clock. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< index in the same list, -1 for a root
    int point = -1;  ///< point index within the pass, -1 for pass-level
    int pass = 0;

    double seconds() const { return 1e-9 * double(endNs - startNs); }
};

/**
 * Span list of one thread of work (a pass prologue or one sim point).
 * Spans nest by a stack: open() makes the new span a child of the
 * innermost open one. Not thread-safe; every job owns its own log.
 */
class SpanLog
{
  public:
    SpanLog(int pass, int point) : pass_(pass), point_(point) {}

    /** Open a span; @return its index. */
    int open(std::string name);

    /** Close the innermost open span; @return its duration in s. */
    double close();

    /** Run @p fn inside a span named @p name; @return its seconds. */
    template <typename Fn>
    double
    timed(const char *name, Fn &&fn)
    {
        open(name);
        fn();
        return close();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    int pass_;
    int point_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * Append @p part to @p all, shifting its parent indices, and hang its
 * roots under @p parent (an index into @p all, or -1).
 */
void appendSpans(std::vector<Span> &all, const std::vector<Span> &part,
                 int parent);

/**
 * Sum of self time per layer (name prefix before the first '.'). A
 * span's self time is its duration minus the part of its interval that
 * the union of its children covers (children of a fan-out run on other
 * threads and overlap, hence the union).
 */
std::map<std::string, double> layerSelfSeconds(const std::vector<Span> &spans);

/**
 * Share of span @p i's interval covered by its children; 1 for a span
 * of zero length.
 */
double childCoverage(const std::vector<Span> &spans, int i);

/** Write @p spans as one JSON document to @p path. @return success. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace perfbench

#endif // HNOC_PERFBENCH_SPANS_HH
