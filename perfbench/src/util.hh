/**
 * @file
 * Small host-side helpers for the benchmark: wall-clock timing,
 * order statistics, peak resident memory, the host fingerprint every
 * result is stamped with, and the in-memory span recorder the traced
 * run prints at exit.
 *
 * Wall-clock time lives only here and in the benchmark's own files;
 * the program under test stays on virtual time.
 */

#ifndef RSSD_PERFBENCH_UTIL_HH
#define RSSD_PERFBENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using WallClock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(WallClock::time_point start);

/** Median of @p values (0 for an empty list). */
double median(std::vector<double> values);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMiB();

/**
 * One line describing the host and the build: CPU model, the ISA
 * flags the kernels could use (sha_ni, avx2, sse4_2), cores this
 * process may run on, build type and whether RSSD_NATIVE was
 * compiled in. Figures from two hosts with different lines are not
 * comparable.
 */
std::string hostFingerprint();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** The result line: {"correct": true, "attempted": .., "failed": ..,
 *  "metrics": {name: {"value": .., "unit": ..}, ...}}, every value
 *  with all its digits. */
std::string resultLine(std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric> &metrics);

/** Print a failed check to stderr and remember it. */
void fail(const std::string &what);

/** Checks failed so far. */
std::uint64_t failures();

/**
 * Spans recorded around the benchmark's own calls into the program
 * (set-up, campaign, analysis, report rendering, layer replays).
 * Kept in memory; printed once at exit so recording costs nothing
 * but a clock read.
 */
class SpanLog
{
  public:
    explicit SpanLog(WallClock::time_point origin) : origin_(origin) {}

    /** Open a span; @return its id (the parent of later spans). */
    std::size_t begin(const std::string &name, std::size_t parent);

    /** Close span @p id; @return its duration in seconds. */
    double end(std::size_t id);

    /** Root pseudo-parent. */
    static constexpr std::size_t kRoot = ~std::size_t{0};

    /** Every span as "id parent name start_s dur_s self_s" lines. */
    std::string render() const;

  private:
    struct Span
    {
        std::string name;
        std::size_t parent = kRoot;
        double start = 0.0;
        double end = -1.0;
    };

    WallClock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace pb

#endif // RSSD_PERFBENCH_UTIL_HH
