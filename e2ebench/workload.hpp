/**
 * @file
 * Workload definitions and the two phases every workload runs: the
 * clinician-facing serving phase (QueryServer over a QueryEngine) and
 * the designer-facing fabric phase (ScaloSystem::deploy, then
 * SystemSim under a fault plan). Each workload sizes both phases and
 * puts its weight on one of them; see NOTES.md for why.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace e2e {

/** Serving-phase shape of one workload. */
struct ServeSpec
{
    std::size_t nodes = 16;
    std::size_t clusters = 4;
    /** Windows ingested per node (the store ring keeps 8192). */
    std::size_t windowsPerNode = 4096;
    /** false: a small catalog of repeated plans; true: every query
     *  distinct. */
    bool unique = false;
    /** Fixed open-loop offered rate (well below capacity). */
    double rateQps = 100.0;
    /** Open-loop and saturation phase lengths, as shares of the run
     *  length (--seconds). */
    double openShare = 0.5;
    double saturationShare = 0.2;
    /** Arrival rate of the traced run's manual-stepping replay
     *  (serve.batch_size.mean, app.dedup_frac): above the open-loop
     *  rate where batches should form. */
    double stepRateQps = 100.0;
};

/** Fabric-phase shape of one workload. */
struct FabricSpec
{
    std::size_t nodes = 16;
    std::size_t clusters = 4;
    /** Modeled streaming duration of one simulate call. */
    double durationMs = 500.0;
    /** Record the Chrome trace and export it in memory. */
    bool traced = false;
    /** Parallel engine (multi-cluster fabrics only). */
    bool parallel = true;
    /** Also inject relay crash and backbone BER spike faults. */
    bool clusterFaults = false;
    /** Deploys and simulations each run at least once per round and
     *  until each has used half of this share of --seconds (medians
     *  are reported). */
    double share = 0.1;
};

struct Workload
{
    std::string name;
    ServeSpec serve;
    FabricSpec fabric;
};

/** The named workloads; nullptr when @p name is unknown. */
const Workload *findWorkload(const std::string &name);

/** Everything one run shares across its phases. */
struct Context
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Threads the run may keep busy (nproc - 1, at most 3). */
    std::size_t threadBudget = 3;
    SpanLog spans{false};
    Report report;
    Outcomes outcomes;
    /** Correctness failures (each also printed as a "# FAIL" line). */
    std::vector<std::string> failures;

    void fail(const std::string &what);
    /** A "# name: text" line on stdout (never the last line). */
    void note(const std::string &name, const std::string &text) const;
};

/** Host-side numbers the serving phase hands back to main. */
struct ServeTotals
{
    double setupS = 0.0;
};

/** Host-side numbers the fabric phase hands back to main. */
struct FabricTotals
{
    double setupS = 0.0;
    std::size_t reps = 0;
};

/**
 * Rounds a run is cut into. The serving and fabric phases alternate,
 * each spending an equal share of its budget in every round, so that
 * every metric samples the whole run rather than one stretch of it:
 * the host's speed drifts over seconds.
 */
inline constexpr std::size_t kRounds = 4;

/** The serving phase: setup on construction, then rounds, then the
 *  correctness checks and metrics. */
class ServePhase
{
  public:
    ServePhase(const ServeSpec &spec, Context &ctx);
    ~ServePhase();
    /** Open-loop segment and saturation segment @p k of kRounds. */
    void round(std::size_t k);
    ServeTotals finish();

  private:
    struct State;
    std::unique_ptr<State> state;
};

/** The fabric phase: deploy and simulate repetitions in rounds, then
 *  the checks and metrics. */
class FabricPhase
{
  public:
    FabricPhase(const FabricSpec &spec, Context &ctx);
    ~FabricPhase();
    /** Deploys and simulations for round @p k of kRounds. */
    void round(std::size_t k);
    FabricTotals finish();

  private:
    struct State;
    std::unique_ptr<State> state;
};

} // namespace e2e
