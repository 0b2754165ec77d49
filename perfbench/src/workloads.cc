#include "workloads.hh"

namespace pb {

using namespace rssd;

namespace {

/** Physical pages of one device's flash (the flood must exceed it
 *  for the device FTL's GC to run). */
std::uint64_t
physicalPages(const core::RssdConfig &device)
{
    const flash::Geometry &g = device.ftl.geometry;
    return g.totalPages();
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    fleet::FleetConfig &c = w.config;
    c.seed = seed;

    if (name == "outbreak-wide") {
        // Wide, unreplicated, one simultaneous detonation: wall time
        // is the device write path (op generation, FTL, entry chain
        // digest, seal), memory is per-device state.
        c.devices = 32;
        c.shards = 8;
        c.replication = 1;
        c.campaign.scenario = fleet::Scenario::Outbreak;
        w.scoreTruth = true;
        w.fleetsPerRun = 4;
    } else if (name == "replicated-heal") {
        // R=3 with a shard crash mid-outbreak, silent bit-rot on three
        // streams, anti-entropy repair and 10 ms scrubbing: each
        // segment is sealed once and verified many times. Four devices
        // keep a round near 1.5 s, so each fleet of a run gets several
        // rounds and its fastest one is rarely in a slow host phase.
        c.devices = 4;
        c.shards = 4;
        c.replication = 3;
        c.campaign.scenario = fleet::Scenario::Outbreak;
        c.membership.push_back(
            {100 * units::MS, fleet::MembershipKind::CrashShard, 1});
        c.repair.enabled = true;
        c.repair.bandwidthBytesPerSec = 200 * units::MiB;
        c.repair.scrubInterval = 10 * units::MS;
        for (const remote::DeviceId dev : {1u, 2u, 3u}) {
            // A non-primary copy a few segments in, so only the scrub
            // can notice the rot.
            c.bitRot.push_back({(110 + 10 * dev) * units::MS, dev, 1, 2});
        }
        w.scoreTruth = true;
        w.expectHealed = true;
        w.fleetsPerRun = 4;
    } else if (name == "gc-flood") {
        // The paper's GC attack at fleet scale: each flooder writes
        // 1.25x its physical flash of incompressible junk into a
        // tight LBA span (device FTL GC runs), against shards whose
        // budget is small enough that retention GC prunes. The flood
        // sets a round's cost whatever the seed, so two fleets (for
        // the modeled figures, which do vary by seed) suffice and each
        // gets twice the rounds it would among four.
        c.devices = 8;
        c.shards = 4;
        c.replication = 1;
        c.campaign.scenario = fleet::Scenario::ShardFlood;
        c.campaign.floodPages = physicalPages(c.device) * 5 / 4;
        c.cluster.shard.capacityBytes = 8 * units::MiB;
        c.cluster.shard.retention.gcEnabled = true;
        w.expectGc = true;
        w.fleetsPerRun = 2;
    } else {
        w.name.clear();
    }
    return w;
}

std::vector<Workload>
makeFleets(const std::string &name, std::uint64_t seed)
{
    const std::size_t n = makeWorkload(name, 0).fleetsPerRun;
    std::vector<Workload> fleets;
    for (std::uint64_t k = 0; k < n; k++) {
        Workload w = makeWorkload(name, n * seed + k);
        if (w.name.empty())
            return {};
        fleets.push_back(std::move(w));
    }
    return fleets;
}

const char *
workloadNames()
{
    return "outbreak-wide|replicated-heal|gc-flood";
}

} // namespace pb
