/**
 * @file
 * The traced run (--trace 1): spans around the benchmark's own calls
 * into the fleet, per-layer replays of the run's own inputs through
 * each layer's public functions, and the split of the measured
 * campaign and analysis walls into per-layer costs (count x per-call
 * cost), with the remainder reported as unattributed.
 */

#ifndef RSSD_PERFBENCH_LEDGER_HH
#define RSSD_PERFBENCH_LEDGER_HH

#include <memory>

#include "fleet/scheduler.hh"
#include "util.hh"
#include "workloads.hh"

namespace pb {

/** Run the traced benchmark on the cold fleet @p sched (built
 *  @p setup_s after @p origin); @return the process exit code. */
int runTraced(const Workload &w,
              std::unique_ptr<rssd::fleet::FleetScheduler> sched,
              double setup_s, WallClock::time_point origin,
              double seconds);

} // namespace pb

#endif // RSSD_PERFBENCH_LEDGER_HH
