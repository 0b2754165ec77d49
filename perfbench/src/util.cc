#include "util.hh"

#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

namespace pb {

double
secondsSince(WallClock::time_point start)
{
    return std::chrono::duration<double>(WallClock::now() - start)
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hostFingerprint()
{
    // From the CPU itself (cpuid) and the scheduler, so the run reads
    // no file outside its checkout.
    std::string model = "unknown";
    std::string isa;
#if defined(__x86_64__) || defined(__i386__)
    unsigned int r[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned int leaf = 0; leaf < 3; leaf++) {
            __get_cpuid(0x80000002u + leaf, &r[4 * leaf], &r[4 * leaf + 1],
                        &r[4 * leaf + 2], &r[4 * leaf + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, r, 48);
        model = brand;
        model.erase(0, model.find_first_not_of(' '));
    }
    unsigned int a = 0, b = 0, c = 0, d = 0;
    const bool sse42 = __get_cpuid(1, &a, &b, &c, &d) && (c & (1u << 20));
    unsigned int b7 = 0;
    if (__get_cpuid_max(0, nullptr) >= 7)
        __cpuid_count(7, 0, a, b7, c, d);
    const bool sha = b7 & (1u << 29);
    const bool avx2 = b7 & (1u << 5);
    for (const auto &[on, flag] : {std::pair{sha, "sha_ni"},
                                   std::pair{avx2, "avx2"},
                                   std::pair{sse42, "sse4_2"}}) {
        if (on)
            isa += (isa.empty() ? "" : ",") + std::string(flag);
    }
#endif
    cpu_set_t set;
    CPU_ZERO(&set);
    const int cores =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
#ifdef RSSD_NATIVE
    const char *native = "ON";
#else
    const char *native = "OFF";
#endif
    std::ostringstream out;
    out << "cpu=\"" << model << "\" isa=" << (isa.empty() ? "-" : isa)
        << " cores=" << cores << " build=" << RSSD_BUILD_TYPE_NAME
        << " RSSD_NATIVE=" << native;
    return out.str();
}

std::string
resultLine(std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": true, \"attempted\": " +
                      std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); i++) {
        char value[40];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + value + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    return out + "}}";
}

namespace {
std::uint64_t failCount = 0;
} // namespace

void
fail(const std::string &what)
{
    failCount++;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::uint64_t
failures()
{
    return failCount;
}

std::size_t
SpanLog::begin(const std::string &name, std::size_t parent)
{
    spans_.push_back({name, parent, secondsSince(origin_), -1.0});
    return spans_.size() - 1;
}

double
SpanLog::end(std::size_t id)
{
    Span &s = spans_.at(id);
    s.end = secondsSince(origin_);
    return s.end - s.start;
}

std::string
SpanLog::render() const
{
    // Self time: a span's duration minus what its direct children
    // cover (children never overlap: the benchmark is one thread).
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent != kRoot && s.end >= 0.0)
            child[s.parent] += s.end - s.start;
    }
    std::ostringstream out;
    char line[256];
    std::snprintf(line, sizeof(line), "%-5s %-6s %-34s %10s %10s %10s\n",
                  "span", "parent", "name", "start_s", "dur_s",
                  "self_s");
    out << line;
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        const double dur = s.end >= 0.0 ? s.end - s.start : 0.0;
        const std::string parent =
            s.parent == kRoot ? "-" : std::to_string(s.parent);
        std::snprintf(line, sizeof(line),
                      "%-5zu %-6s %-34s %10.4f %10.4f %10.4f\n", i,
                      parent.c_str(), s.name.c_str(), s.start, dur,
                      dur - child[i]);
        out << line;
    }
    return out.str();
}

} // namespace pb
