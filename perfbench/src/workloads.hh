/**
 * @file
 * The benchmark's workloads: one generated FleetConfig per name and
 * seed, plus what the run must verify about its outcome. The seed is
 * the only input that varies between runs of one workload; every
 * size below is fixed so that a run's work is the same whatever the
 * seed (see README.md for why each workload exists).
 */

#ifndef RSSD_PERFBENCH_WORKLOADS_HH
#define RSSD_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/scheduler.hh"

namespace pb {

struct Workload
{
    std::string name;
    rssd::fleet::FleetConfig config;

    /** Patient zero and infection order must match the campaign's
     *  ground truth, and the campaign class must be an outbreak's
     *  (round.cc, checkRound). */
    bool scoreTruth = false;

    /** Repair must converge and catch every injected rot. */
    bool expectHealed = false;

    /** Device FTL GC and remote retention GC must both have run. */
    bool expectGc = false;

    /** Fleets one run cycles over (makeFleets). Where fleet seeds
     *  move the per-command cost (scrub passes, repair copies,
     *  restore sizes: about 10 % on the outbreak workloads), pooling
     *  four fleets evens that out; where they barely do (gc-flood,
     *  about 2 %), fewer fleets give each one more rounds. */
    std::size_t fleetsPerRun = 1;
};

/** The workload @p name at @p seed; nullptr-like (empty name) when
 *  the name is unknown. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** The fleets of a run of workload @p name at run seed @p seed: with
 *  n = fleetsPerRun, the workload at fleet seeds n * seed + 0, 1, ...,
 *  n - 1; empty when the name is unknown. */
std::vector<Workload> makeFleets(const std::string &name,
                                 std::uint64_t seed);

/** Names of every workload, for the usage line. */
const char *workloadNames();

} // namespace pb

#endif // RSSD_PERFBENCH_WORKLOADS_HH
