/**
 * @file
 * The benchmark's workloads and the code that runs one sim point of
 * one of them through the simulator's public calls, timing each call.
 *
 * A pass is one workload's fixed simulated work: a prologue that
 * builds each layout's config and network, then every point fanned out
 * over a JobPool with runPointsParallel. Points are deterministic
 * functions of (workload, point, seed), so their statistics digest is
 * identical across passes and thread counts.
 */

#ifndef HNOC_PERFBENCH_WORKLOADS_HH
#define HNOC_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "heteronoc/layout.hh"
#include "noc/network_config.hh"
#include "noc/traffic.hh"
#include "spans.hh"
#include "telemetry/profiler.hh"

namespace perfbench
{

/** One sim point: an open-loop NoC point or a CMP application run. */
struct PointSpec
{
    std::string id;         ///< stable label, e.g. "Baseline/UR@0.0280"
    std::size_t layout = 0; ///< index into WorkloadSpec::layouts
    bool cmp = false;
    /** @name Open-loop point */
    ///@{
    hnoc::TrafficPattern pattern = hnoc::TrafficPattern::UniformRandom;
    double rate = 0.0; ///< packets/node/cycle
    /** Below saturation on every seed: every tracked packet must
     *  drain, so a saturated result is a failure. */
    bool mustDrain = false;
    ///@}
    std::string app; ///< CMP workload profile name
    /** Index of the point's seed stream: paired points on different
     *  layouts share it, so layouts see the same traffic draw. */
    std::uint64_t seedIndex = 0;
};

/** One named workload. */
struct WorkloadSpec
{
    std::string name;
    int radix = 8;
    std::vector<hnoc::LayoutKind> layouts;
    std::vector<PointSpec> points;
    /** @name Open-loop windows (cycles) */
    ///@{
    std::uint64_t warmupCycles = 0;
    std::uint64_t measureCycles = 0;
    std::uint64_t drainCycles = 0;
    ///@}
};

/** The four benchmark workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &allWorkloads();

/** @return the workload called @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Everything one point run produced: checks, host times, layer data. */
struct PointOutcome
{
    std::string digest; ///< hex digest of the simulated statistics
    std::vector<std::string> failures; ///< broken invariants
    std::vector<Span> spans;           ///< root = "common.point"
    std::int64_t startNs = 0;          ///< job start (pool wait ends)
    double totalS = 0.0;               ///< the whole point
    double setupS = 0.0;               ///< before its first sim cycle
    double timedS = 0.0;               ///< simulation calls
    std::uint64_t cycles = 0;          ///< simulated network cycles
    int tiles = 0;
    int routers = 0;

    /** @name NoC layer */
    ///@{
    std::shared_ptr<hnoc::Profiler> profile; ///< profiled passes only
    double bytesPerTile = 0.0; ///< end-of-run Network::memoryAudit
    double combineRate = 0.0;
    std::uint64_t flitsDelivered = 0; ///< measurement window
    ///@}

    /** @name sys layer (CMP points) */
    ///@{
    double runS = 0.0;        ///< all CmpSystem::run calls
    double measureRunS = 0.0; ///< run calls of the measured window
    double instructions = 0.0; ///< retired in the measured window
    std::uint64_t packetsSent = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t directoryBytes = 0;
    std::uint64_t cacheBytes = 0;
    std::uint64_t msgArenaBytes = 0;
    ///@}
};

/**
 * Run point @p index of @p w on @p config (its layout's config from the
 * pass prologue). @p seed is the benchmark seed; @p profiled attaches a
 * Profiler to the network.
 */
PointOutcome runPoint(const WorkloadSpec &w, std::size_t index,
                      const hnoc::NetworkConfig &config,
                      std::uint64_t seed, int pass, bool profiled);

} // namespace perfbench

#endif // HNOC_PERFBENCH_WORKLOADS_HH
