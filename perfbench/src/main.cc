/**
 * @file
 * hnoc_perfbench: host-speed benchmark program for the HeteroNoC
 * simulator. perfbench/run.py builds it and runs it; README.md in this
 * directory describes the workloads, metrics and output.
 *
 *   hnoc_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --threads T --reference FILE [--passes P]
 *                  [--out-dir DIR] [--commit C] [--source-digest D]
 *
 * Each pass runs the workload's fixed simulated work once; passes
 * repeat until S seconds are used (or exactly P passes). The last
 * stdout line is the result: end-to-end metrics with --trace 0,
 * per-layer metrics with --trace 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/job_pool.hh"
#include "fingerprint.hh"
#include "noc/network.hh"
#include "noc/sim_harness.hh"
#include "spans.hh"
#include "telemetry/json_writer.hh"
#include "workloads.hh"

using namespace perfbench;
using hnoc::ProfPhase;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int threads = 1;
    int passes = 0; ///< 0 = as many as fit in `seconds`
    std::string reference;
    std::string outDir;
    std::string commit;
    std::string sourceDigest;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hnoc_perfbench: %s\n"
                 "usage: hnoc_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --threads T --reference FILE\n"
                 "       [--passes P] [--out-dir DIR] [--commit C] "
                 "[--source-digest D]\n",
                 msg);
    std::exit(2);
}

long long
parseInt(const std::string &s, long long lo, long long hi, const char *flag)
{
    char *end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0' || v < lo || v > hi)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = static_cast<std::uint64_t>(
                parseInt(v, 0, (1LL << 62), "--seed"));
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(
                parseInt(v, 1, 600, "--seconds"));
        else if (flag == "--trace") {
            a.trace = parseInt(v, 0, 1, "--trace") == 1;
            have_trace = true;
        } else if (flag == "--threads")
            a.threads = static_cast<int>(parseInt(v, 1, 256, "--threads"));
        else if (flag == "--passes")
            a.passes = static_cast<int>(parseInt(v, 1, 1000, "--passes"));
        else if (flag == "--reference")
            a.reference = v;
        else if (flag == "--out-dir")
            a.outDir = v;
        else if (flag == "--commit")
            a.commit = v;
        else if (flag == "--source-digest")
            a.sourceDigest = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload.empty() || !have_trace || a.reference.empty())
        usage("--workload, --trace and --reference are required");
    return a;
}

/** Reference digests: "digest <workload> <seed> <point> <hex>" lines;
 *  any other line is ignored. @return false if unreadable. */
bool
loadReference(const std::string &path, const std::string &workload,
              std::uint64_t seed, std::map<std::string, std::string> &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        std::string tag, w, id, hex;
        std::uint64_t s = 0;
        if (ss >> tag >> w >> s >> id >> hex && tag == "digest" &&
            w == workload && s == seed)
            out[id] = hex;
    }
    return true;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One pass of a workload: its points' outcomes and its host times. */
struct PassResult
{
    bool profiled = false;
    std::vector<PointOutcome> points;
    std::vector<Span> spans; ///< prologue + every point, re-parented
    double wallS = 0.0;
    double cpuS = 0.0;
    double setupS = 0.0;
    double fanoutS = 0.0;  ///< runPointsParallel call
    double poolWaitS = 0.0; ///< sum over points of submit -> start

    double
    spanSeconds(const std::string &name) const
    {
        double s = 0.0;
        for (const Span &sp : spans)
            if (sp.name == name)
                s += sp.seconds();
        return s;
    }

    double
    nsPerTileCycle() const
    {
        double ns = 0.0, tile_cycles = 0.0;
        for (const PointOutcome &p : points) {
            ns += 1e9 * p.timedS;
            tile_cycles += static_cast<double>(p.cycles) * p.tiles;
        }
        return tile_cycles > 0.0 ? ns / tile_cycles : 0.0;
    }
};

PassResult
runPass(const WorkloadSpec &w, std::uint64_t seed, hnoc::JobPool &pool,
        int pass, bool profiled)
{
    PassResult pr;
    pr.profiled = profiled;
    double cpu0 = cpuSeconds();
    SpanLog log(pass, -1);
    log.open("common.pass");

    // Prologue: each layout's config and network, audited for memory
    // and static power, before the first simulated cycle.
    std::vector<hnoc::NetworkConfig> configs(w.layouts.size());
    for (std::size_t l = 0; l < w.layouts.size(); ++l) {
        log.timed("heteronoc.makeLayoutConfig", [&] {
            configs[l] = hnoc::makeLayoutConfig(w.layouts[l], w.radix);
        });
        std::unique_ptr<hnoc::Network> net;
        log.timed("noc.Network", [&] {
            net = std::make_unique<hnoc::Network>(configs[l]);
        });
        log.timed("noc.memoryAudit", [&] { (void)net->memoryAudit(); });
        log.timed("power.powerReport", [&] { (void)net->powerReport(); });
        log.timed("noc.destroyNetwork", [&] { net.reset(); });
    }

    std::vector<std::size_t> idx(w.points.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    int fan = log.open("common.runPointsParallel");
    std::int64_t submit = log.spans()[static_cast<std::size_t>(fan)].startNs;
    pr.points = hnoc::runPointsParallel(
        idx,
        [&](std::size_t i) {
            return runPoint(w, i, configs[w.points[i].layout], seed, pass,
                            profiled);
        },
        &pool);
    pr.fanoutS = log.close();
    pr.wallS = log.close();
    pr.cpuS = cpuSeconds() - cpu0;

    pr.spans = log.spans();
    const Span &fspan = pr.spans[static_cast<std::size_t>(fan)];
    pr.setupS = 1e-9 * static_cast<double>(fspan.startNs -
                                           pr.spans.front().startNs);
    for (const PointOutcome &p : pr.points) {
        pr.setupS += p.setupS;
        pr.poolWaitS += 1e-9 * static_cast<double>(p.startNs - submit);
        appendSpans(pr.spans, p.spans, fan);
    }
    return pr;
}

/** Name/value/unit triples in output order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::vector<Metric>
endToEndMetrics(const std::vector<PassResult> &passes)
{
    std::vector<double> wall, cpu, setup, nspt;
    for (const PassResult &p : passes) {
        wall.push_back(p.wallS);
        cpu.push_back(p.cpuS);
        setup.push_back(p.setupS);
        nspt.push_back(p.nsPerTileCycle());
    }
    return {{"wall_s", median(wall), "s"},
            {"cpu_s", median(cpu), "s"},
            {"setup_s", median(setup), "s"},
            {"ns_per_tile_cycle", median(nspt), "ns"},
            {"peak_rss_mb", peakRssMb(), "MB"}};
}

/** Phase ns per simulated cycle of a merged profile. */
double
perCycle(const hnoc::Profiler &p, std::uint64_t ns)
{
    return p.cycles() ? static_cast<double>(ns) /
                            static_cast<double>(p.cycles())
                      : 0.0;
}

/** Lowest share of a point's host time that its child spans cover. */
double
minPointCoverage(const std::vector<PassResult> &passes)
{
    double lo = 1.0;
    for (const PassResult &p : passes)
        for (std::size_t i = 0; i < p.spans.size(); ++i)
            if (p.spans[i].name == "common.point")
                lo = std::min(lo,
                              childCoverage(p.spans, static_cast<int>(i)));
    return lo;
}

/** Profiler totals over the profiled passes of a run. */
struct ProfileSums
{
    hnoc::Profiler merged;
    double routerCycles = 0.0; ///< cycles x routers
    double hotBytes = 0.0;     ///< bytes streamed, cycle-weighted
    double cycles = 0.0;
    double bytesPerTile = 0.0; ///< largest network audit
    double cmpRunNs = 0.0;     ///< CmpSystem::run host ns
    double cmpStepNs = 0.0;    ///< Network::step ns inside those runs
    double cmpCycles = 0.0;

    explicit ProfileSums(const std::vector<PassResult> &prof)
    {
        for (const PassResult &p : prof) {
            for (const PointOutcome &o : p.points) {
                bytesPerTile = std::max(bytesPerTile, o.bytesPerTile);
                if (!o.profile)
                    continue;
                merged.merge(*o.profile);
                double c = static_cast<double>(o.profile->cycles());
                routerCycles += c * o.routers;
                hotBytes += o.profile->bytesStreamedPerCycle() * c;
                cycles += c;
                if (o.runS > 0.0) {
                    cmpRunNs += 1e9 * o.runS;
                    cmpStepNs += static_cast<double>(
                        o.profile->ns(ProfPhase::StepTotal));
                    cmpCycles += c;
                }
            }
        }
    }
};

/**
 * Per-layer self time of the profiled passes. Span self times give the
 * layers the benchmark calls into; inside CmpSystem::run the profiler's
 * Network::step total is moved from sys to noc, and the NoC phase
 * split follows.
 */
void
printSelfTimeTable(const std::string &workload,
                   const std::vector<PassResult> &prof,
                   const ProfileSums &ps)
{
    std::vector<Span> all;
    double wall = 0.0;
    for (const PassResult &p : prof) {
        appendSpans(all, p.spans, -1);
        wall += p.wallS;
    }
    auto layers = layerSelfSeconds(all);
    layers["sys"] -= 1e-9 * ps.cmpStepNs;
    layers["noc"] += 1e-9 * ps.cmpStepNs;
    double n = static_cast<double>(prof.size());
    double total = 0.0;
    for (const auto &[layer, sec] : layers)
        total += sec;
    std::printf("self time per layer, %s (mean of %zu profiled passes, "
                "summed over threads):\n",
                workload.c_str(), prof.size());
    for (const auto &[layer, sec] : layers)
        std::printf("  %-10s %10.4f s %6.2f%%\n", layer.c_str(), sec / n,
                    total > 0.0 ? 100.0 * sec / total : 0.0);
    double step = static_cast<double>(ps.merged.ns(ProfPhase::StepTotal));
    std::printf("  noc phases (%% of Network::step):\n");
    for (int i = 0; i < static_cast<int>(ProfPhase::StepTotal); ++i) {
        auto ph = static_cast<ProfPhase>(i);
        std::printf("    %-18s %6.2f%%\n", hnoc::profPhaseName(ph),
                    step > 0.0 ? 100.0 * ps.merged.ns(ph) / step : 0.0);
    }
    std::printf("    %-18s %6.2f%%\n", "unattributed",
                step > 0.0 ? 100.0 * ps.merged.unattributedNs() / step
                           : 0.0);
    std::printf("  pass wall %.4f s\n", wall / n);
}

std::vector<Metric>
perLayerMetrics(const std::vector<PassResult> &plain,
                const std::vector<PassResult> &prof, const ProfileSums &ps,
                int threads)
{
    // Profiler-derived NoC numbers come from the profiled passes;
    // host times measured from outside come from the plain ones, which
    // carry no profiler overhead.
    const hnoc::Profiler &merged = ps.merged;
    auto pass_median = [&](auto per_pass) {
        std::vector<double> v;
        for (const PassResult &p : plain)
            v.push_back(per_pass(p));
        return median(v);
    };
    auto span_median = [&](const char *name) {
        return pass_median(
            [&](const PassResult &p) { return p.spanSeconds(name); });
    };
    auto sum_points = [&](auto field) {
        double s = 0.0;
        for (const PointOutcome &o : plain.front().points)
            s += field(o);
        return s;
    };

    double instr = 0.0, measure_s = 0.0;
    std::vector<double> point_s;
    for (const PassResult &p : plain) {
        for (const PointOutcome &o : p.points) {
            instr += o.instructions;
            measure_s += o.measureRunS;
            point_s.push_back(o.totalS);
        }
    }
    std::vector<double> walls_plain, walls_prof;
    for (const PassResult &p : plain)
        walls_plain.push_back(p.wallS);
    for (const PassResult &p : prof)
        walls_prof.push_back(p.wallS);
    double wp = median(walls_plain);

    double n_points = static_cast<double>(plain.front().points.size());
    auto max_bytes = [&](auto field) {
        double m = 0.0;
        for (const PointOutcome &o : plain.front().points)
            m = std::max(m, static_cast<double>(field(o)));
        return m;
    };

    auto phase = [&](ProfPhase ph) { return perCycle(merged, merged.ns(ph)); };
    return {
        {"noc.step_ns", phase(ProfPhase::StepTotal), "ns"},
        {"noc.channel_delivery_ns", phase(ProfPhase::ChannelDelivery), "ns"},
        {"noc.route_compute_ns", phase(ProfPhase::RouteCompute), "ns"},
        {"noc.vc_allocate_ns", phase(ProfPhase::VcAllocate), "ns"},
        {"noc.switch_allocate_ns", phase(ProfPhase::SwitchAllocate), "ns"},
        {"noc.ni_inject_ns", phase(ProfPhase::NiInject), "ns"},
        {"noc.ni_eject_ns", phase(ProfPhase::NiEject), "ns"},
        {"noc.scan_ns", perCycle(merged, merged.unattributedNs()), "ns"},
        {"noc.active_router_frac",
         ps.routerCycles > 0.0
             ? static_cast<double>(merged.visits(ProfPhase::RouteCompute)) /
                   ps.routerCycles
             : 0.0,
         "frac"},
        {"noc.router_cycles", ps.routerCycles, "count"},
        {"noc.hot_bytes_per_cycle",
         ps.cycles > 0.0 ? ps.hotBytes / ps.cycles : 0.0, "bytes"},
        {"noc.bytes_per_tile", ps.bytesPerTile, "bytes"},
        {"noc.construct_s", span_median("noc.Network"), "s"},
        {"noc.combine_rate",
         sum_points([](const PointOutcome &o) { return o.combineRate; }) /
             n_points,
         "frac"},
        {"noc.flits_delivered",
         sum_points([](const PointOutcome &o) {
             return static_cast<double>(o.flitsDelivered);
         }),
         "count"},
        {"sys.construct_s", span_median("sys.CmpSystem"), "s"},
        {"sys.warm_caches_s", span_median("sys.warmCaches"), "s"},
        {"sys.run_self_ns_per_cycle",
         ps.cmpCycles > 0.0 ? (ps.cmpRunNs - ps.cmpStepNs) / ps.cmpCycles
                            : 0.0,
         "ns"},
        {"sys.kips", measure_s > 0.0 ? 1e-3 * instr / measure_s : 0.0,
         "kinstr/s"},
        {"sys.packets_sent",
         sum_points([](const PointOutcome &o) {
             return static_cast<double>(o.packetsSent);
         }),
         "count"},
        {"sys.l1_misses",
         sum_points([](const PointOutcome &o) {
             return static_cast<double>(o.l1Misses);
         }),
         "count"},
        {"sys.memory_bytes.directory",
         max_bytes([](const PointOutcome &o) { return o.directoryBytes; }),
         "bytes"},
        {"sys.memory_bytes.caches",
         max_bytes([](const PointOutcome &o) { return o.cacheBytes; }),
         "bytes"},
        {"sys.memory_bytes.msg_arena",
         max_bytes([](const PointOutcome &o) { return o.msgArenaBytes; }),
         "bytes"},
        {"common.pool_busy_frac", pass_median([&](const PassResult &p) {
             double busy = 0.0;
             for (const PointOutcome &o : p.points)
                 busy += o.totalS;
             return p.fanoutS > 0.0 ? busy / (threads * p.fanoutS) : 0.0;
         }),
         "frac"},
        {"common.pool_wait_s",
         pass_median([](const PassResult &p) { return p.poolWaitS; }), "s"},
        {"common.point_s.p50", median(point_s), "s"},
        {"common.point_s.max",
         *std::max_element(point_s.begin(), point_s.end()), "s"},
        {"common.point_s.n", static_cast<double>(point_s.size()), "count"},
        {"power.report_s", span_median("power.powerReport"), "s"},
        {"heteronoc.make_layout_s",
         span_median("heteronoc.makeLayoutConfig"), "s"},
        {"telemetry.trace_overhead_pct",
         wp > 0.0 ? 100.0 * (median(walls_prof) - wp) / wp : 0.0, "%"},
        {"telemetry.span_coverage_min", minPointCoverage(plain), "frac"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const WorkloadSpec *w = findWorkload(args.workload);
    if (!w)
        usage(("unknown workload " + args.workload).c_str());
    std::map<std::string, std::string> reference;
    if (!loadReference(args.reference, w->name, args.seed, reference))
        usage(("cannot read " + args.reference).c_str());

    Fingerprint fp =
        probeFingerprint(args.threads, args.commit, args.sourceDigest);
    hnoc::JobPool pool(args.threads);

    // Passes: plain ones only, or alternating plain/profiled when
    // tracing. A pass starts only if it should end within the budget.
    std::vector<PassResult> plain, prof;
    std::int64_t t0 = nowNs();
    std::vector<double> pass_walls;
    for (int pass = 0;; ++pass) {
        bool profiled = args.trace && pass % 2 == 1;
        PassResult pr = runPass(*w, args.seed, pool, pass, profiled);
        pass_walls.push_back(pr.wallS);
        (profiled ? prof : plain).push_back(std::move(pr));
        int done = pass + 1;
        if (args.passes > 0) {
            if (done >= args.passes && (!args.trace || done >= 2))
                break;
            continue;
        }
        double elapsed = 1e-9 * static_cast<double>(nowNs() - t0);
        bool enough = !args.trace || done >= 2;
        if (enough && elapsed + median(pass_walls) > args.seconds)
            break;
    }

    // Correctness: every point's digest must repeat across passes and,
    // when this seed has reference digests, match them.
    std::uint64_t attempted = 0, failed = 0;
    std::map<std::string, std::string> first;
    for (const auto *group : {&plain, &prof}) {
        for (const PassResult &p : *group) {
            for (std::size_t i = 0; i < p.points.size(); ++i) {
                const std::string &id = w->points[i].id;
                const PointOutcome &o = p.points[i];
                std::vector<std::string> why = o.failures;
                auto [it, fresh] = first.emplace(id, o.digest);
                if (!fresh && it->second != o.digest)
                    why.push_back("digest differs between passes");
                if (!reference.empty()) {
                    auto r = reference.find(id);
                    if (r == reference.end())
                        why.push_back("no reference digest");
                    else if (r->second != o.digest)
                        why.push_back("digest " + o.digest +
                                      " != reference " + r->second);
                }
                ++attempted;
                if (!why.empty()) {
                    ++failed;
                    for (const std::string &s : why)
                        std::printf("FAIL %s %s: %s\n", w->name.c_str(),
                                    id.c_str(), s.c_str());
                }
            }
        }
    }
    for (const PointSpec &p : w->points)
        std::printf("digest %s %llu %s %s\n", w->name.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    p.id.c_str(), first[p.id].c_str());

    std::vector<Metric> metrics;
    if (args.trace) {
        ProfileSums ps(prof);
        printSelfTimeTable(w->name, prof, ps);
        double cover = minPointCoverage(plain);
        std::printf("span coverage of point host time: min %.4f, "
                    "residual %.4f\n",
                    cover, 1.0 - cover);
        metrics = perLayerMetrics(plain, prof, ps, args.threads);
    } else {
        metrics = endToEndMetrics(plain);
    }

    auto write_metrics = [&](hnoc::JsonWriter &j) {
        j.key("metrics").beginObject();
        for (const Metric &m : metrics)
            j.key(m.name)
                .beginObject()
                .keyValue("value", m.value)
                .keyValue("unit", m.unit)
                .endObject();
        j.endObject();
    };

    hnoc::JsonWriter rec;
    rec.beginObject();
    rec.keyValue("record", "hnoc-perfbench-result-v1");
    rec.keyValue("workload", w->name);
    rec.keyValue("seed", args.seed);
    rec.keyValue("trace", args.trace);
    rec.key("fingerprint");
    writeFingerprint(rec, fp);
    rec.key("passes").beginArray();
    for (const auto *group : {&plain, &prof}) {
        for (const PassResult &p : *group) {
            rec.beginObject();
            rec.keyValue("profiled", p.profiled);
            rec.keyValue("wall_s", p.wallS);
            rec.keyValue("cpu_s", p.cpuS);
            rec.keyValue("setup_s", p.setupS);
            rec.keyValue("ns_per_tile_cycle", p.nsPerTileCycle());
            rec.endObject();
        }
    }
    rec.endArray();
    rec.keyValue("attempted", attempted);
    rec.keyValue("failed", failed);
    write_metrics(rec);
    rec.endObject();
    std::printf("%s\n", rec.str().c_str());

    if (!args.outDir.empty()) {
        std::string stem = args.outDir + "/" + w->name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
        std::FILE *f = std::fopen((stem + ".json").c_str(), "w");
        bool ok = f && std::fprintf(f, "%s\n", rec.str().c_str()) > 0;
        ok = f && std::fclose(f) == 0 && ok;
        if (args.trace) {
            std::vector<Span> all;
            for (const auto *group : {&plain, &prof})
                for (const PassResult &p : *group)
                    appendSpans(all, p.spans, -1);
            ok = writeSpans(stem + "-spans.json", all) && ok;
        }
        if (!ok) {
            std::fprintf(stderr, "hnoc_perfbench: cannot write %s.*\n",
                         stem.c_str());
            return 1;
        }
    }

    hnoc::JsonWriter out;
    out.beginObject();
    out.keyValue("correct", failed == 0);
    out.keyValue("attempted", attempted);
    out.keyValue("failed", failed);
    write_metrics(out);
    out.endObject();
    std::printf("%s\n", out.str().c_str());
    return 0;
}
