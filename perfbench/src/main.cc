/**
 * @file
 * rssd_perfbench: the fleet campaign -> forensics benchmark.
 *
 *   rssd_perfbench --workload outbreak-wide|replicated-heal|gc-flood
 *                  --seed N --seconds S --trace 0|1
 *
 * One single-threaded process builds the fleet from a generated
 * FleetConfig, runs the campaign (FleetScheduler::run) and the
 * post-attack analysis and recovery (runForensics) in rounds until S
 * seconds have passed, checks the outputs, and prints one JSON
 * result as its last line. The rounds cycle over the workload's
 * fleets (two or four, Workload::fleetsPerRun), whose seeds derive
 * from N (pb::makeFleets). Only public functions of the project's
 * libraries are called, so every layer is measured from outside.
 *
 * --trace 0 reports the end-to-end metrics (see README.md); --trace 1
 * is the traced run: spans around the benchmark's calls, the
 * per-layer replays and the split of the campaign and analysis walls
 * (ledger.cc). A failed check exits 1 without a result line.
 */

#include <openssl/crypto.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hh"
#include "round.hh"
#include "util.hh"
#include "workloads.hh"

using namespace rssd;

namespace {

/** Taken during static initialization: set-up is timed from here. */
const pb::WallClock::time_point kProcessStart = pb::WallClock::now();

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: rssd_perfbench --workload %s --seed N "
                 "--seconds S --trace 0|1\n",
                 pb::workloadNames());
    std::exit(2);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = value;
            continue;
        }
        const unsigned long long n = std::strtoull(value, &end, 10);
        if (end == value || *end != '\0')
            usage();
        if (key == "--seed")
            a.seed = n;
        else if (key == "--seconds")
            a.seconds = static_cast<double>(n);
        else if (key == "--trace" && n <= 1)
            a.trace = static_cast<int>(n);
        else
            usage();
    }
    if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0.0 ||
        a.trace < 0)
        usage();
    return a;
}

/** What a run keeps of one of its fleets. */
struct PerFleet
{
    std::vector<double> campaignS;  ///< measured rounds' run() walls
    std::vector<double> forensicsS; ///< and runForensics() walls
    std::string json;               ///< first round's FleetReport
    std::uint64_t hostCmds = 0;
    std::size_t restores = 0;
    pb::SimFigures sim;
    std::string campaignClass;
    std::string truth;
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<pb::Workload> fleets =
        pb::makeFleets(args.workload, args.seed);
    if (fleets.empty())
        usage();

    // The cold set-up: process start to a fleet ready for its first
    // op (devices with FTL/NAND, victims populated, cluster attached).
    auto sched = std::make_unique<fleet::FleetScheduler>(fleets[0].config);
    const double setup_s = pb::secondsSince(kProcessStart);

    // The independent checks use libcrypto's built-in algorithms only;
    // skipping its configuration file keeps every read in the checkout.
    OPENSSL_init_crypto(OPENSSL_INIT_NO_LOAD_CONFIG, nullptr);

    std::printf("rssd_perfbench: workload %s, seed %llu, %g s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace);
    std::printf("host: %s\n", pb::hostFingerprint().c_str());

    if (args.trace == 1)
        return pb::runTraced(fleets[0], std::move(sched), setup_s,
                             kProcessStart, args.seconds);

    // Rounds of campaign + analysis until the time is up, cycling over
    // the run's fleets; each round gets a fresh fleet (the previous
    // one is freed first, so peak memory is one fleet's). Round 0, on
    // the cold fleet, warms the allocator and is left out of the
    // figures; the run ends once every fleet has a measured round.
    std::vector<PerFleet> per(fleets.size());
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::size_t k = 0;
    const pb::WallClock::time_point start = pb::WallClock::now();
    for (std::size_t n = 0;; n++) {
        k = n == 0 ? 0 : (n - 1) % fleets.size();
        const pb::Workload &w = fleets[k];
        PerFleet &f = per[k];
        if (!sched)
            sched = std::make_unique<fleet::FleetScheduler>(w.config);
        const pb::RoundResult round = pb::runRound(*sched);
        if (n > 0) {
            f.campaignS.push_back(round.campaignSeconds);
            f.forensicsS.push_back(round.forensicsSeconds);
        }
        attempted += pb::attemptedOps(round);
        failed += pb::failedOps(round);
        pb::checkRound(w, round, f.json);
        if (f.json.empty()) {
            f.json = round.report.toJson();
            f.hostCmds = pb::hostCommands(round.report);
            f.restores = round.forensics.recovery.size();
            f.sim = pb::simFigures(w, round);
            f.campaignClass = forensics::campaignClassName(
                round.forensics.correlation.campaignClass);
            f.truth = round.forensics.truth.scenario;
        }
        if (n >= fleets.size() && pb::secondsSince(start) >= args.seconds)
            break;
        sched.reset();
    }
    const double peak_rss = pb::peakRssMiB();

    pb::checkAfterRun(fleets[k], *sched);
    sched.reset();

    // Per fleet, its fastest measured round: the rounds of a fleet do
    // identical work (byte-identical reports), so what slows one is
    // the host, whose slow phases last tens of seconds and would
    // otherwise set a run's figures. Where a run has several fleets,
    // its figures pool them, so no single fleet seed sets them.
    std::uint64_t cmds = 0;
    double campaign_s = 0.0;
    double forensics_s = 0.0;
    pb::SimFigures sim;
    std::size_t class_matches = 0;
    for (std::size_t i = 0; i < fleets.size(); i++) {
        const PerFleet &f = per[i];
        std::printf("fleet seed %llu: %llu host commands and %zu restores "
                    "per round; campaign class %s (truth %s)\n",
                    static_cast<unsigned long long>(fleets[i].config.seed),
                    static_cast<unsigned long long>(f.hostCmds), f.restores,
                    f.campaignClass.c_str(), f.truth.c_str());
        std::printf("  campaign cmd/s per round:");
        for (const double v : f.campaignS)
            std::printf(" %.1f", static_cast<double>(f.hostCmds) / v);
        std::printf("\n  forensics s per round:");
        for (const double v : f.forensicsS)
            std::printf(" %.4f", v);
        std::printf("\n");
        cmds += f.hostCmds;
        campaign_s +=
            *std::min_element(f.campaignS.begin(), f.campaignS.end());
        forensics_s +=
            *std::min_element(f.forensicsS.begin(), f.forensicsS.end());
        sim.restoreMakespanMs += f.sim.restoreMakespanMs;
        sim.evidencePerHostByte += f.sim.evidencePerHostByte;
        class_matches += f.campaignClass == f.truth ? 1 : 0;
    }
    const double nfleets = static_cast<double>(fleets.size());
    if (fleets[0].scoreTruth)
        std::printf("campaign class matched the ground truth on %zu of %zu "
                    "fleets\n",
                    class_matches, fleets.size());
    if (pb::failures() != 0)
        return 1;

    const double devices = static_cast<double>(fleets[0].config.devices);
    std::printf(
        "%s\n",
        pb::resultLine(
            attempted, failed,
            {{"setup_s", setup_s, "s"},
             {"campaign_cmds_per_s", static_cast<double>(cmds) / campaign_s,
              "cmd/s"},
             {"forensics_wall_s", forensics_s / nfleets, "s"},
             {"peak_rss_mib_per_device", peak_rss / devices, "MiB"},
             {"restore_makespan_sim_ms", sim.restoreMakespanMs / nfleets,
              "ms"},
             {"evidence_bytes_per_host_byte",
              sim.evidencePerHostByte / nfleets, "B/B"}})
            .c_str());
    return 0;
}
