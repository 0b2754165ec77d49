#include "round.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "checks.hh"
#include "util.hh"

namespace pb {

using namespace rssd;

RoundResult
runRound(fleet::FleetScheduler &sched)
{
    RoundResult r;
    WallClock::time_point t = WallClock::now();
    r.report = sched.run();
    r.campaignSeconds = secondsSince(t);
    t = WallClock::now();
    r.forensics = sched.runForensics();
    r.forensicsSeconds = secondsSince(t);
    return r;
}

std::uint64_t
hostCommands(const fleet::FleetReport &report)
{
    std::uint64_t n = 0;
    for (const fleet::DeviceReport &d : report.deviceReports) {
        // An encryption step is a read then a write of one page.
        n += d.benignOps + 2 * d.attack.pagesEncrypted +
             d.attack.junkPagesWritten + d.attack.writeErrors;
    }
    return n;
}

std::uint64_t
attemptedOps(const RoundResult &round)
{
    return hostCommands(round.report) + round.forensics.recovery.size();
}

std::uint64_t
failedOps(const RoundResult &round)
{
    std::uint64_t n = 0;
    for (const fleet::DeviceReport &d : round.report.deviceReports)
        n += d.attack.writeErrors + d.rssd.deviceFullErrors;
    for (const forensics::RecoveryOutcome &r : round.forensics.recovery) {
        if (r.victimIntactAfter != 1.0 || r.unresolved != 0 ||
            r.beforePrunedHorizon)
            n++;
    }
    return n;
}

void
checkRound(const Workload &w, const RoundResult &round,
           const std::string &first_json)
{
    const fleet::FleetReport &rep = round.report;
    const forensics::ForensicsReport &fr = round.forensics;
    if (!first_json.empty() && rep.toJson() != first_json)
        fail("a repeated round rendered a different FleetReport");
    if (!rep.allChainsOk)
        fail("FleetReport: a shard chain does not verify");

    if (w.scoreTruth) {
        if (!fr.patientZeroMatch)
            fail("patient zero does not match the ground truth");
        if (!fr.infectionOrderMatch)
            fail("infection order does not match the ground truth");
        // Every device detonates at the same tick, so the class must
        // be an outbreak's: correlate() may only call it "staggered"
        // when the first implicated ops really spread past
        // outbreakSpanMax. Whether it matches the truth is printed,
        // not gated: on some seeds the spread does exceed it
        // (CHANGES.md, FOUND), and a verdict that depends on the seed
        // would make the benchmark pass or fail by the seed drawn.
        const forensics::Correlation &c = fr.correlation;
        Tick span = 0;
        for (const forensics::SpreadEdge &e : c.spread)
            span += e.lag;
        const forensics::CampaignClass expected =
            span <= forensics::CorrelationConfig{}.outbreakSpanMax
                ? forensics::CampaignClass::Outbreak
                : forensics::CampaignClass::Staggered;
        if (c.campaignClass != expected)
            fail(std::string("campaign class ") +
                 forensics::campaignClassName(c.campaignClass) +
                 " does not follow the " + std::to_string(span) +
                 " ns spread of first implicated ops");
        for (const forensics::RecoveryOutcome &r : fr.recovery) {
            if (r.victimIntactAfter != 1.0 || r.unresolved != 0)
                fail("device " + std::to_string(r.device) +
                     " restored short of 100% intact");
        }
    }
    if (fr.recovery.empty())
        fail("no victim was detected and restored");

    if (w.expectHealed) {
        if (rep.degradedAtEnd != 0 || rep.quarantinedAtEnd != 0)
            fail("repair left degraded or quarantined copies");
        if (rep.repairStats.scrubCorruptions < w.config.bitRot.size())
            fail("a scrub missed an injected rot (" +
                 std::to_string(rep.repairStats.scrubCorruptions) +
                 " caught of " + std::to_string(w.config.bitRot.size()) +
                 ")");
    }

    if (w.expectGc) {
        if (rep.totalSegmentsPruned == 0)
            fail("remote retention GC pruned nothing");
        for (const forensics::RecoveryOutcome &r : fr.recovery) {
            const fleet::DeviceReport &d =
                rep.deviceReports.at(static_cast<std::size_t>(r.device));
            if (d.role == "encryptor" &&
                (r.victimIntactAfter != 1.0 || r.unresolved != 0 ||
                 r.beforePrunedHorizon))
                fail("encryptor " + std::to_string(r.device) +
                     " restored short of 100% intact");
        }
    }
}

void
checkAfterRun(const Workload &w, fleet::FleetScheduler &sched)
{
    if (w.expectGc) {
        std::uint64_t erases = 0;
        for (std::uint32_t i = 0; i < sched.deviceCount(); i++)
            erases += sched.device(i).ftl().stats().gcErases;
        if (erases == 0)
            fail("the flood never ran device FTL GC (0 erases)");
    }

    // Restores write through the devices, which offload what they
    // log; one pass picks that up, and the next must verify nothing.
    forensics::EvidenceScanner *scanner = sched.evidenceScanner();
    if (scanner == nullptr) {
        fail("runForensics left no evidence scanner");
    } else {
        scanner->scan();
        if (scanner->scan().segmentsVerified != 0)
            fail("a warm rescan verified segments again");
    }

    checkCrcSelfTest();
    CheckCoverage cov;
    checkStoredCopies(sched, w.config, cov);
    checkChainWalk(sched, cov);
    std::printf("checked: %llu stored copies (%.1f MiB) with OpenSSL "
                "HMAC/ChaCha20, bitwise CRC32C and reseal; walked %llu "
                "streams, %llu segments, %llu entries\n",
                static_cast<unsigned long long>(cov.copiesChecked),
                static_cast<double>(cov.bytesChecked) / (1 << 20),
                static_cast<unsigned long long>(cov.streamsWalked),
                static_cast<unsigned long long>(cov.segmentsWalked),
                static_cast<unsigned long long>(cov.entriesWalked));
}

namespace {

/** Value of integer field @p key in one JSONL trace line. */
bool
field(const std::string &line, const char *key, std::uint64_t &out)
{
    const std::string k = std::string("\"") + key + "\":";
    const std::size_t at = line.find(k);
    if (at == std::string::npos)
        return false;
    out = std::strtoull(line.c_str() + at + k.size(), nullptr, 10);
    return true;
}

/** Seal -> quorum-ack latency of every capsule, from its flow pair
 *  (flowBegin at the device seal, flowEnd at the quorum ack). */
std::vector<std::uint64_t>
capsuleLatencies(const obs::TraceSink &sink)
{
    std::map<std::uint64_t, std::uint64_t> sealed_at;
    std::vector<std::uint64_t> out;
    std::istringstream in(sink.toJsonl());
    for (std::string line; std::getline(in, line);) {
        const bool begin = line.find("\"ph\":\"s\"") != std::string::npos;
        const bool end = line.find("\"ph\":\"f\"") != std::string::npos;
        std::uint64_t id = 0;
        std::uint64_t ts = 0;
        if ((!begin && !end) || !field(line, "id", id) ||
            !field(line, "ts", ts))
            continue;
        if (begin) {
            sealed_at.emplace(id, ts);
            continue;
        }
        const auto it = sealed_at.find(id);
        if (it != sealed_at.end()) {
            out.push_back(ts - it->second);
            sealed_at.erase(it);
        }
    }
    return out;
}

} // namespace

double
ackP99Ms(const obs::TraceSink &sink)
{
    std::vector<std::uint64_t> lat = capsuleLatencies(sink);
    if (lat.empty()) {
        fail("no capsule reached a quorum ack");
        return 0.0;
    }
    // Nearest-rank p99, the convention LatencyHistogram uses.
    const std::size_t rank =
        static_cast<std::size_t>((99 * lat.size() + 99) / 100);
    std::sort(lat.begin(), lat.end());
    std::printf("seal->quorum-ack: %zu capsules, p50 %.3f ms, p90 %.3f ms, "
                "p99 %.3f ms, max %.3f ms\n",
                lat.size(), static_cast<double>(lat[lat.size() / 2]) / 1e6,
                static_cast<double>(lat[lat.size() * 9 / 10]) / 1e6,
                static_cast<double>(lat[rank - 1]) / 1e6,
                static_cast<double>(lat.back()) / 1e6);
    return static_cast<double>(lat[rank - 1]) / 1e6;
}

SimFigures
simFigures(const Workload &w, const RoundResult &round)
{
    SimFigures f;
    Tick best = 0;
    for (const forensics::RestorePlan &p : round.forensics.plans) {
        if (best == 0 || (p.makespan != 0 && p.makespan < best))
            best = p.makespan;
    }
    f.restoreMakespanMs = static_cast<double>(best) / 1e6;

    std::uint64_t host_pages = 0;
    for (const fleet::DeviceReport &d : round.report.deviceReports)
        host_pages += d.rssd.loggedWrites;
    const double host_bytes =
        static_cast<double>(host_pages) *
        static_cast<double>(w.config.device.ftl.geometry.pageSize);
    f.evidencePerHostByte =
        static_cast<double>(round.report.totalBytesStored +
                            round.report.totalBytesPruned) /
        host_bytes;
    return f;
}

} // namespace pb
