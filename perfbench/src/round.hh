/**
 * @file
 * One benchmark round — campaign (FleetScheduler::run) then
 * post-attack analysis and recovery (runForensics) on a freshly
 * built fleet — and the checks every run applies to its outcome.
 * Every round of a run uses the same config and seed, so every round
 * does the same work and must render the same FleetReport.
 */

#ifndef RSSD_PERFBENCH_ROUND_HH
#define RSSD_PERFBENCH_ROUND_HH

#include <cstdint>
#include <string>

#include "fleet/scheduler.hh"
#include "obs/trace.hh"
#include "workloads.hh"

namespace pb {

struct RoundResult
{
    rssd::fleet::FleetReport report;
    rssd::forensics::ForensicsReport forensics;
    double campaignSeconds = 0.0;
    double forensicsSeconds = 0.0;
};

/** Campaign then analysis on @p sched, timed separately. */
RoundResult runRound(rssd::fleet::FleetScheduler &sched);

/** Host NVMe commands the campaign simulated (benign + attack). */
std::uint64_t hostCommands(const rssd::fleet::FleetReport &report);

/** Operations a round attempts: host commands plus restores. */
std::uint64_t attemptedOps(const RoundResult &round);

/** Of those, the ones that failed: refused or errored host writes
 *  and restores that left a victim short of 100% intact. */
std::uint64_t failedOps(const RoundResult &round);

/** The workload's outcome checks on one round (pb::fail on each
 *  miss). @p first_json is the first round's report: every later
 *  round must render it byte for byte. */
void checkRound(const Workload &w, const RoundResult &round,
                const std::string &first_json);

/**
 * The checks made once per run on its last round, after the timed
 * sections: a warm rescan verifies nothing new, every stored copy
 * passes the independent checks, and every chain walks.
 */
void checkAfterRun(const Workload &w, rssd::fleet::FleetScheduler &sched);

/** The modeled end-to-end figures of one round (pure functions of
 *  config and seed). */
struct SimFigures
{
    double restoreMakespanMs = 0.0; ///< best recovery plan
    /** Remote wire bytes ingested (stored + pruned) per host byte. */
    double evidencePerHostByte = 0.0;
};

SimFigures simFigures(const Workload &w, const RoundResult &round);

/**
 * Exact seal -> quorum-ack p99 in ms, from the capsule flows of a
 * campaign run with @p sink attached (flowBegin at the device seal,
 * flowEnd at the quorum ack). The report's own offloadAckP99Ns is a
 * half-octave histogram bucket, too coarse to compare runs by.
 */
double ackP99Ms(const rssd::obs::TraceSink &sink);

} // namespace pb

#endif // RSSD_PERFBENCH_ROUND_HH
