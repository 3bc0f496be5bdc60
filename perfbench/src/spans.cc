/**
 * @file
 * Span recording and self-time arithmetic (see spans.hh).
 */

#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "telemetry/json_writer.hh"

namespace perfbench
{

std::int64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock::now() - epoch)
        .count();
}

int
SpanLog::open(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.point = point_;
    s.pass = pass_;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    return idx;
}

double
SpanLog::close()
{
    Span &s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.endNs = nowNs();
    return s.seconds();
}

void
appendSpans(std::vector<Span> &all, const std::vector<Span> &part,
            int parent)
{
    int base = static_cast<int>(all.size());
    for (Span s : part) {
        s.parent = s.parent < 0 ? parent : s.parent + base;
        all.push_back(std::move(s));
    }
}

namespace
{

std::vector<std::vector<int>>
childrenOf(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> kids(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            kids[static_cast<std::size_t>(spans[i].parent)].push_back(
                static_cast<int>(i));
    return kids;
}

/** Nanoseconds of [lo, hi) covered by the union of @p kids. */
std::int64_t
coveredNs(const std::vector<Span> &spans, const std::vector<int> &kids,
          std::int64_t lo, std::int64_t hi)
{
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    iv.reserve(kids.size());
    for (int k : kids) {
        const Span &c = spans[static_cast<std::size_t>(k)];
        std::int64_t a = std::max(lo, c.startNs);
        std::int64_t b = std::min(hi, c.endNs);
        if (b > a)
            iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (auto [a, b] : iv) {
        a = std::max(a, reach);
        if (b > a) {
            covered += b - a;
            reach = b;
        }
    }
    return covered;
}

std::vector<double>
selfSeconds(const std::vector<Span> &spans)
{
    auto kids = childrenOf(spans);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::int64_t own =
            (s.endNs - s.startNs) -
            coveredNs(spans, kids[i], s.startNs, s.endNs);
        self[i] = 1e-9 * static_cast<double>(own);
    }
    return self;
}

} // namespace

std::map<std::string, double>
layerSelfSeconds(const std::vector<Span> &spans)
{
    std::vector<double> self = selfSeconds(spans);
    std::map<std::string, double> layers;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string &n = spans[i].name;
        layers[n.substr(0, n.find('.'))] += self[i];
    }
    return layers;
}

double
childCoverage(const std::vector<Span> &spans, int i)
{
    const Span &s = spans[static_cast<std::size_t>(i)];
    std::int64_t len = s.endNs - s.startNs;
    if (len <= 0)
        return 1.0;
    std::vector<int> kids;
    for (std::size_t k = 0; k < spans.size(); ++k)
        if (spans[k].parent == i)
            kids.push_back(static_cast<int>(k));
    return static_cast<double>(coveredNs(spans, kids, s.startNs, s.endNs)) /
           static_cast<double>(len);
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    hnoc::JsonWriter w;
    w.beginObject();
    w.keyValue("schema", "hnoc-perfbench-spans-v1");
    w.key("spans").beginArray();
    for (const Span &s : spans) {
        w.beginObject();
        w.keyValue("name", s.name);
        w.keyValue("start_ns", s.startNs);
        w.keyValue("end_ns", s.endNs);
        w.keyValue("parent", s.parent);
        w.keyValue("point", s.point);
        w.keyValue("pass", s.pass);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = std::fputs(w.str().c_str(), f) >= 0;
    ok = std::fputc('\n', f) != EOF && ok;
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
