/**
 * @file
 * Workload definitions and the per-point runners (see workloads.hh).
 */

#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "noc/sim_harness.hh"
#include "noc/watchdog.hh"
#include "sys/cmp_system.hh"
#include "sys/workloads.hh"

namespace perfbench
{

using hnoc::LayoutKind;
using hnoc::TrafficPattern;

namespace
{

/** @name CMP point windows: the fig11/12/13 experiment path
 *  (runCmpExperiment) at half its lengths, so a pass stays short
 *  enough to repeat several times within one run. */
///@{
constexpr int kWarmMemopsPerCore = 20000;
constexpr hnoc::Cycle kCmpWarmCycles = 1500;
constexpr hnoc::Cycle kCmpMeasureCycles = 6000;
/** CMP runs advance in chunks so the watchdog sees the network
 *  between them; run(a) + run(b) == run(a + b), so chunking leaves the
 *  simulation unchanged. */
constexpr hnoc::Cycle kCmpChunkCycles = 1000;
///@}

/** Cycles without a delivery, with packets in flight, that count as a
 *  stall (the harness default). */
constexpr hnoc::Cycle kWatchdogWindow = 50000;

/** FNV-1a over the exact bytes of each value, so any bit that changes
 *  in a simulated statistic changes the digest. */
class Digest
{
  public:
    template <typename T>
    void
    add(T v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
pointId(LayoutKind kind, const char *what, double rate)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s/%s@%.4f",
                  hnoc::layoutName(kind).c_str(), what, rate);
    return buf;
}

/** Open-loop points: every (layout, load) pair, seeded per load. */
void
addOpenLoop(WorkloadSpec &w, TrafficPattern pattern, const char *what,
            const std::vector<double> &rates,
            const std::vector<std::vector<bool>> &must_drain)
{
    for (std::size_t l = 0; l < w.layouts.size(); ++l) {
        for (std::size_t r = 0; r < rates.size(); ++r) {
            PointSpec p;
            p.id = pointId(w.layouts[l], what, rates[r]);
            p.layout = l;
            p.pattern = pattern;
            p.rate = rates[r];
            p.mustDrain = must_drain[l][r];
            p.seedIndex =
                r + (pattern == TrafficPattern::UniformRandom ? 0 : 100);
            w.points.push_back(p);
        }
    }
}

std::vector<WorkloadSpec>
makeWorkloads()
{
    const std::vector<LayoutKind> layouts = {LayoutKind::Baseline,
                                             LayoutKind::DiagonalBL};
    std::vector<WorkloadSpec> all;

    // Dense 8x8: mid load to just past saturation (Baseline saturates
    // near 0.064 and Diagonal+BL near 0.046 pkt/node/cycle, per
    // EXPERIMENTS.md). Fixed (reference-mode) windows, shorter than
    // fig07's because a saturated point always runs its whole drain.
    WorkloadSpec sweep;
    sweep.name = "noc8_sweep";
    sweep.layouts = layouts;
    sweep.warmupCycles = 2000;
    sweep.measureCycles = 5000;
    sweep.drainCycles = 8000;
    addOpenLoop(sweep, TrafficPattern::UniformRandom, "UR",
                {0.028, 0.044, 0.060, 0.068},
                {{true, true, false, false}, {true, false, false, false}});
    all.push_back(sweep);

    // Light 8x8: low UR load plus nearest-neighbour (fig09), where
    // most routers idle on most cycles; fig07/09's windows.
    WorkloadSpec light;
    light.name = "noc8_light";
    light.layouts = layouts;
    light.warmupCycles = 6000;
    light.measureCycles = 15000;
    light.drainCycles = 30000;
    addOpenLoop(light, TrafficPattern::UniformRandom, "UR",
                {0.004, 0.012}, {{true, true}, {true, true}});
    addOpenLoop(light, TrafficPattern::NearestNeighbor, "NN",
                {0.0125, 0.025}, {{true, true}, {true, true}});
    all.push_back(light);

    // 32x32 at scaling_curve's constant fraction of saturation:
    // 0.2 * 8/radix flits/node/cycle on data packets.
    WorkloadSpec big;
    big.name = "noc32_mid";
    big.radix = 32;
    big.layouts = layouts;
    big.warmupCycles = 1000;
    big.measureCycles = 1500;
    big.drainCycles = 5000;
    for (std::size_t l = 0; l < layouts.size(); ++l) {
        int flits = hnoc::makeLayoutConfig(layouts[l], big.radix)
                        .dataPacketFlits();
        PointSpec p;
        p.rate = 0.2 * (8.0 / big.radix) / flits;
        p.id = pointId(layouts[l], "UR", p.rate);
        p.layout = l;
        p.mustDrain = true;
        big.points.push_back(p);
    }
    all.push_back(big);

    // 64-tile CMP: shared-data SAP, streaming libquantum and PARSEC
    // canneal ("canl").
    WorkloadSpec cmp;
    cmp.name = "cmp64_apps";
    cmp.layouts = layouts;
    const char *apps[] = {"SAP", "libquantum", "canl"};
    for (std::size_t l = 0; l < layouts.size(); ++l) {
        for (std::size_t a = 0; a < 3; ++a) {
            PointSpec p;
            p.id = hnoc::layoutName(layouts[l]) + "/" + apps[a];
            p.layout = l;
            p.cmp = true;
            p.app = apps[a];
            p.seedIndex = a;
            cmp.points.push_back(p);
        }
    }
    all.push_back(cmp);
    return all;
}

void
check(PointOutcome &out, bool ok, const char *what)
{
    if (!ok)
        out.failures.emplace_back(what);
}

void
runOpenLoopPoint(const WorkloadSpec &w, const PointSpec &p,
                 const hnoc::NetworkConfig &config, std::uint64_t seed,
                 bool profiled, SpanLog &log, PointOutcome &out)
{
    hnoc::SimPointOptions o;
    o.injectionRate = p.rate;
    o.warmupCycles = w.warmupCycles;
    o.measureCycles = w.measureCycles;
    o.drainCycles = w.drainCycles;
    o.seed = hnoc::derivePointSeed(seed, p.seedIndex);
    o.watchdogWindow = kWatchdogWindow;
    o.profile = profiled;

    log.open("noc.runOpenLoop");
    hnoc::SimPointResult r = hnoc::runOpenLoop(config, p.pattern, o);
    out.timedS = log.close();

    Digest d;
    d.add(r.avgLatencyNs);
    d.add(r.p95LatencyNs);
    d.add(r.acceptedRate);
    d.add(r.trackedDelivered);
    d.add(r.trackedCreated);
    d.add(r.networkPowerW);
    d.add(r.combineRate);
    d.add(r.simulatedCycles);
    out.digest = d.hex();

    check(out, r.watchdogTrips == 0, "watchdog tripped");
    check(out, r.trackedCreated > 0, "no packets created");
    check(out, r.networkPowerW > 0.0, "no network power");
    if (p.mustDrain)
        check(out, !r.saturated && r.trackedDelivered == r.trackedCreated,
              "unsaturated point left packets undelivered");

    out.cycles = r.simulatedCycles;
    out.profile = r.profile;
    if (r.memory)
        out.bytesPerTile = r.memory->bytesPerTile();
    out.combineRate = r.combineRate;
    out.flitsDelivered = r.trackedDelivered *
                         static_cast<std::uint64_t>(config.dataPacketFlits());
}

void
runCmpPoint(const PointSpec &p, const hnoc::NetworkConfig &config,
            std::uint64_t seed, bool profiled, SpanLog &log,
            PointOutcome &out)
{
    hnoc::CmpConfig cc;
    cc.seed = hnoc::derivePointSeed(seed, p.seedIndex);

    std::unique_ptr<hnoc::CmpSystem> owner;
    log.open("sys.CmpSystem");
    owner = std::make_unique<hnoc::CmpSystem>(config, cc);
    out.setupS += log.close();
    hnoc::CmpSystem &sys = *owner;
    out.setupS += log.timed("sys.assignWorkloadAll", [&] {
        sys.assignWorkloadAll(hnoc::workloadByName(p.app));
    });
    out.setupS += log.timed("sys.warmCaches", [&] {
        sys.warmCaches(kWarmMemopsPerCore);
    });

    hnoc::Network &net = sys.network();
    if (profiled) {
        out.profile = std::make_shared<hnoc::Profiler>();
        net.attachProfiler(out.profile.get());
    }
    hnoc::ProgressWatchdog dog(kWatchdogWindow);
    auto run = [&](hnoc::Cycle cycles) {
        log.open("sys.run");
        for (hnoc::Cycle done = 0; done < cycles; done += kCmpChunkCycles) {
            sys.run(std::min(kCmpChunkCycles, cycles - done));
            dog.check(net);
        }
        return log.close();
    };

    out.runS += run(kCmpWarmCycles);
    log.timed("sys.resetStats", [&] { sys.resetStats(); });
    std::uint64_t flits0 = net.flitsDelivered();
    hnoc::Cycle start = net.now();
    out.measureRunS = run(kCmpMeasureCycles);
    out.runS += out.measureRunS;
    out.timedS = out.runS;
    net.attachProfiler(nullptr);

    hnoc::PowerBreakdown power;
    log.timed("power.powerReport", [&] { power = sys.networkPower(); });
    hnoc::MemoryAudit sys_mem;
    log.timed("sys.memoryAudit", [&] { sys_mem = sys.memoryAudit(); });
    hnoc::MemoryAudit net_mem;
    log.timed("noc.memoryAudit", [&] { net_mem = net.memoryAudit(); });
    bool credits_ok = false;
    log.timed("noc.auditCreditConservation",
              [&] { credits_ok = net.auditCreditConservation(); });

    double ipc = sys.avgIpc();
    double lat = sys.netLatency().totalNs.mean();
    Digest d;
    d.add(ipc);
    d.add(sys.packetsSent());
    d.add(sys.l1Misses());
    d.add(lat);
    d.add(power.total());
    out.digest = d.hex();

    check(out, dog.trips() == 0, "watchdog tripped");
    check(out, credits_ok, "credit conservation violated");
    check(out, ipc > 0.0, "no instructions retired");
    check(out, sys.packetsSent() > 0, "no packets sent");

    hnoc::Cycle measured = net.now() - start;
    out.cycles = net.now();
    out.bytesPerTile = net_mem.bytesPerTile();
    out.combineRate = net.combineRate();
    out.flitsDelivered = net.flitsDelivered() - flits0;
    out.instructions = ipc * config.numNodes() *
                       static_cast<double>(measured) *
                       (cc.coreClockGHz / net.clockGHz());
    out.packetsSent = sys.packetsSent();
    out.l1Misses = sys.l1Misses();
    for (const auto &c : sys_mem.components) {
        if (c.name == "mesi_directory" || c.name == "directory_txns")
            out.directoryBytes += c.bytes;
        else if (c.name == "l1_caches" || c.name == "l2_banks")
            out.cacheBytes += c.bytes;
        else if (c.name == "msg_arena")
            out.msgArenaBytes += c.bytes;
    }
    log.timed("sys.destroyCmpSystem", [&] { owner.reset(); });
}

} // namespace

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> all = makeWorkloads();
    return all;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : allWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

PointOutcome
runPoint(const WorkloadSpec &w, std::size_t index,
         const hnoc::NetworkConfig &config, std::uint64_t seed, int pass,
         bool profiled)
{
    const PointSpec &p = w.points[index];
    PointOutcome out;
    SpanLog log(pass, static_cast<int>(index));
    log.open("common.point");
    out.startNs = log.spans().front().startNs;
    if (p.cmp)
        runCmpPoint(p, config, seed, profiled, log, out);
    else
        runOpenLoopPoint(w, p, config, seed, profiled, log, out);
    out.totalS = log.close();
    out.tiles = config.numNodes();
    out.routers = config.numRouters();
    out.spans = log.spans();
    return out;
}

} // namespace perfbench
