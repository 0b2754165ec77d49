#include "ledger.hh"

#include <openssl/evp.h>
#include <openssl/sha.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "compress/datagen.hh"
#include "compress/lz.hh"
#include "core/history.hh"
#include "attack/victim.hh"
#include "core/recovery.hh"
#include "core/rssd_device.hh"
#include "crypto/chacha20.hh"
#include "crypto/crc32.hh"
#include "crypto/entropy.hh"
#include "crypto/sha256.hh"
#include "detect/detector.hh"
#include "forensics/correlate.hh"
#include "forensics/evidence.hh"
#include "ftl/ftl.hh"
#include "log/chain_verify.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "remote/backup_cluster.hh"
#include "round.hh"
#include "workload/generator.hh"

namespace pb {

using namespace rssd;

namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr double kMiB = 1024.0 * 1024.0;

/** Timed work per layer replay before its rate is taken. */
constexpr double kMinTimedSeconds = 0.25;

/** Time one call. */
template <typename Fn>
double
timed(Fn &&fn)
{
    const WallClock::time_point t = WallClock::now();
    fn();
    return secondsSince(t);
}

/**
 * Repeat @p pass (which returns the seconds it spent inside the timed
 * calls) until kMinTimedSeconds of timed work has accumulated, then
 * return the mean timed seconds per pass. Untimed preparation inside
 * a pass (decrypting an input, building a command) is not counted.
 */
double
perPass(const std::function<double()> &pass)
{
    double timed_total = 0.0;
    int passes = 0;
    do {
        timed_total += pass();
        passes++;
    } while (timed_total < kMinTimedSeconds && passes < 64);
    return timed_total / passes;
}

/** One sealed copy per stream, in chain order: the run's evidence. */
struct Evidence
{
    struct Item
    {
        remote::DeviceId device = 0;
        const log::SealedSegment *sealed = nullptr;
        const log::SegmentCodec *codec = nullptr;
    };
    std::vector<Item> items;
    /** Streams whose copy starts at a prune record. */
    std::vector<std::pair<remote::DeviceId, log::PruneRecord>> pruned;
    std::vector<log::Segment> opened; ///< parallel to items
    double rawBytes = 0.0;
    double wireBytes = 0.0;
    double payloadBytes = 0.0;
    double pageBytes = 0.0;
    double entries = 0.0;
};

Evidence
collectEvidence(const remote::BackupCluster &cluster)
{
    Evidence ev;
    for (const remote::DeviceId dev : cluster.attachedDevices()) {
        const remote::ShardId shard = cluster.chainVerifyingReplicaOf(dev);
        if (shard == remote::kNoShard)
            continue;
        const remote::BackupStore &store = cluster.shardStore(shard);
        if (const log::PruneRecord *rec = store.pruneRecordOf(dev))
            ev.pruned.push_back({dev, *rec});
        for (const std::uint32_t idx : store.streamSegments(dev)) {
            const log::SealedSegment &s = store.sealedSegment(idx);
            ev.items.push_back({dev, &s, &store.streamCodec(dev)});
            ev.opened.push_back(store.streamCodec(dev).open(s));
            ev.rawBytes += static_cast<double>(s.rawSize);
            ev.wireBytes += static_cast<double>(s.wireSize());
            ev.payloadBytes += static_cast<double>(s.payload.size());
            ev.entries += static_cast<double>(ev.opened.back().entries.size());
            for (const log::PageRecord &p : ev.opened.back().pages)
                ev.pageBytes += static_cast<double>(p.content.size());
        }
    }
    return ev;
}

crypto::Key256
deviceKey(const fleet::FleetConfig &config, remote::DeviceId dev)
{
    return crypto::ChaCha20::deriveKey(config.device.keySeed + "#fleet-" +
                                       std::to_string(dev));
}

/** A far end that acknowledges every segment at once, so a
 *  standalone device's submit cost is its own side of the wire. */
class AckingTarget : public net::CapsuleTarget
{
  public:
    bool
    ingestSegment(const log::SealedSegment &, Tick arrive_at,
                  Tick &ack_ready_at) override
    {
        ack_ready_at = arrive_at;
        return true;
    }
};

/** Per-command submit cost of one standalone device, by class. */
struct SubmitCosts
{
    double benignUs = 0.0;
    double encryptUs = 0.0;
    double floodUs = 0.0;
    double drainUs = 0.0; ///< per device, at the end of the campaign
    double genUsPerOp = 0.0;
    double encryptGenUs = 0.0; ///< attacker's ChaCha20, per page
    double floodGenUs = 0.0;   ///< junk page generation, per page
    double ftlUsPerPage = 0.0;
};

/**
 * Replay one device's op stream — the workload's benign trace, then
 * (when the campaign has them) encryption steps over a populated
 * victim and junk flood writes over the flood span — through a
 * standalone RssdDevice with the fleet's RssdConfig and detectors,
 * timing submit() alone. The same page writes then go through a
 * bare FTL. Benign content generation is timed apart as the workload
 * layer, the attacker's page encryption and junk apart as the attack
 * layer.
 */
SubmitCosts
replayDevice(const Workload &w, bool encryptors, bool flooders)
{
    const fleet::FleetConfig &c = w.config;
    SubmitCosts out;
    core::RssdConfig cfg = c.device;
    cfg.keySeed = c.device.keySeed + "#replay";
    VirtualClock clock;
    AckingTarget target;
    core::RssdDevice dev(cfg, clock, target);
    detect::EntropyOverwriteDetector::Config ec;
    ec.windowOps = 256;
    ec.alarmRatio = 0.08;
    ec.minFlagged = 12;
    detect::EntropyOverwriteDetector entropy_det(ec);
    detect::WriteBurstDetector burst_det;
    dev.attachDetector(&entropy_det);
    dev.attachDetector(&burst_det);

    workload::TraceGenerator gen(c.profile, dev.capacityPages(), c.seed);
    compress::DataGenerator content(c.seed + 1, c.profile.compressibility);
    const std::uint32_t page = dev.pageSize();
    std::vector<flash::Lpa> written;

    double gen_s = 0.0;
    double submit_s = 0.0;
    for (std::uint64_t i = 0; i < c.opsPerDevice; i++) {
        nvme::Command cmd;
        gen_s += timed([&] {
            const workload::Request r = gen.next();
            cmd.op = r.op;
            cmd.lpa = r.lpa;
            cmd.npages = r.npages;
            if (r.op == nvme::Opcode::Write) {
                cmd.data.reserve(std::size_t(r.npages) * page);
                for (std::uint32_t p = 0; p < r.npages; p++) {
                    const Bytes b = content.page(page);
                    cmd.data.insert(cmd.data.end(), b.begin(), b.end());
                }
            }
        });
        if (cmd.op == nvme::Opcode::Write) {
            for (std::uint32_t p = 0; p < cmd.npages; p++)
                written.push_back(cmd.lpa + p);
        }
        submit_s += timed([&] {
            dev.submit(cmd);
            // The fleet scheduler's offload tick between host commands.
            if ((i + 1) % 8 == 0)
                dev.pumpOffload();
        });
    }
    out.genUsPerOp = gen_s * 1e6 / static_cast<double>(c.opsPerDevice);
    out.benignUs = submit_s * 1e6 / static_cast<double>(c.opsPerDevice);

    compress::DataGenerator junk(c.seed + 2, 0.0);
    if (encryptors) {
        attack::VictimDataset victim(0, c.campaign.victimPages, 0.7,
                                     c.seed + 3);
        victim.populate(dev);
        // The attacker's step: read, ChaCha20 under its own key with
        // the LPA as nonce, overwrite.
        const crypto::Key256 attacker_key =
            crypto::ChaCha20::deriveKey("r4ns0m-replay");
        double s = 0.0;
        double gen = 0.0;
        for (std::uint32_t i = 0; i < c.campaign.victimPages; i++) {
            const flash::Lpa lpa = victim.firstLpa() + i;
            nvme::Completion rd;
            s += timed([&] { rd = dev.readPage(lpa); });
            Bytes ct;
            gen += timed([&] {
                ct = rd.data;
                crypto::ChaCha20 cipher(
                    attacker_key, crypto::ChaCha20::nonceFromSequence(lpa));
                cipher.apply(ct);
            });
            s += timed([&] { dev.writePage(lpa, ct); });
            written.push_back(lpa);
        }
        out.encryptUs = s * 1e6 / (2.0 * c.campaign.victimPages);
        out.encryptGenUs = gen * 1e6 / c.campaign.victimPages;
    }
    if (flooders) {
        const std::uint64_t cap = dev.capacityPages();
        const auto span = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(static_cast<double>(cap) *
                                          c.campaign.floodSpanFraction));
        double s = 0.0;
        double gen = 0.0;
        for (std::uint64_t i = 0; i < c.campaign.floodPages; i++) {
            Bytes b;
            gen += timed([&] { b = junk.page(page); });
            const flash::Lpa lpa = cap - span + (i % span);
            s += timed([&] { dev.writePage(lpa, b); });
            written.push_back(lpa);
        }
        const auto n = static_cast<double>(c.campaign.floodPages);
        out.floodUs = s * 1e6 / n;
        out.floodGenUs = gen * 1e6 / n;
    }

    // What the campaign's final drain ships for one device.
    out.drainUs = timed([&] { dev.drainOffload(); }) * 1e6;

    // The same page writes against a bare FTL (no retention policy).
    VirtualClock ftl_clock;
    ftl::PageMappedFtl bare(c.device.ftl, ftl_clock, nullptr);
    const Bytes b = content.page(page);
    double ftl_s = 0.0;
    for (const flash::Lpa lpa : written) {
        ftl_s += timed([&] { bare.write(lpa, b, ftl_clock.now()); });
    }
    out.ftlUsPerPage = written.empty()
        ? 0.0
        : ftl_s * 1e6 / static_cast<double>(written.size());
    return out;
}

/** Replay the evidence into a fresh cluster at the workload's
 *  replication; @return microseconds per segment ingested. */
double
replayIngest(const Workload &w, const Evidence &ev)
{
    remote::BackupClusterConfig cc = w.config.cluster;
    cc.shards = w.config.shards;
    cc.replication = w.config.replication;
    // No retention GC: the replay measures the ingest path, not the
    // replay order's (different) eviction decisions.
    cc.shard = remote::BackupStoreConfig();
    remote::BackupCluster cluster(cc);
    std::vector<remote::DeviceId> devs;
    for (const Evidence::Item &it : ev.items) {
        if (devs.empty() || devs.back() != it.device) {
            devs.push_back(it.device);
            cluster.attachDevice(it.device, *it.codec);
        }
    }
    for (const auto &[dev, rec] : ev.pruned) {
        for (const remote::ShardId s : cluster.replicaSetOf(dev))
            cluster.adoptPruneRecordOn(s, dev, rec);
    }
    // Arrivals far apart in virtual time: no backpressure, so every
    // call is one admission, verify, batch and store per replica.
    double s = 0.0;
    Tick at = 0;
    for (const Evidence::Item &it : ev.items) {
        at += units::MS;
        Tick ack = 0;
        bool ok = false;
        s += timed([&] { ok = cluster.ingest(it.device, *it.sealed, at, ack); });
        if (!ok)
            fail("ingest replay: segment refused");
    }
    return ev.items.empty() ? 0.0
                            : s * 1e6 / static_cast<double>(ev.items.size());
}

/** OpenSSL rates on the same bytes (hardware-headroom reference). */
void
printReference(const Evidence &ev, const fleet::FleetConfig &config)
{
    double sha_s = perPass([&] {
        double s = 0.0;
        for (const log::Segment &seg : ev.opened) {
            const Bytes raw = seg.serialize();
            unsigned char d[32];
            s += timed([&] { SHA256(raw.data(), raw.size(), d); });
        }
        return s;
    });
    double chacha_s = perPass([&] {
        double s = 0.0;
        EVP_CIPHER_CTX *ctx = EVP_CIPHER_CTX_new();
        Bytes out;
        for (const Evidence::Item &it : ev.items) {
            const crypto::Key256 key = deviceKey(config, it.device);
            unsigned char iv[16] = {};
            out.resize(it.sealed->payload.size());
            int len = 0;
            s += timed([&] {
                EVP_EncryptInit_ex(ctx, EVP_chacha20(), nullptr, key.data(),
                                   iv);
                EVP_EncryptUpdate(ctx, out.data(), &len,
                                  it.sealed->payload.data(),
                                  static_cast<int>(out.size()));
            });
        }
        EVP_CIPHER_CTX_free(ctx);
        return s;
    });
    std::printf("reference: OpenSSL libcrypto on the same bytes: SHA-256 "
                "%.1f MiB/s, ChaCha20 %.1f MiB/s\n",
                ev.rawBytes / kMiB / sha_s, ev.payloadBytes / kMiB / chacha_s);
}

/** One line of a wall split: count x per-call cost. */
struct Share
{
    std::string layer;
    double count;
    const char *countUnit;
    double costUs;
    bool partOf; ///< an "of which" line inside the previous one
};

void
printSplit(const char *title, double measured,
           const std::vector<Share> &shares, double &unattributed)
{
    std::printf("\n%s: measured %.4f s\n", title, measured);
    std::printf("  %-26s %14s %-8s %12s %10s %7s\n", "layer", "count", "",
                "cost_us", "est_s", "share");
    double sum = 0.0;
    for (const Share &s : shares) {
        const double est = s.count * s.costUs / 1e6;
        if (!s.partOf)
            sum += est;
        std::printf("  %-26s %14.0f %-8s %12.4f %10.4f %6.1f%%\n",
                    (s.partOf ? "  of which " + s.layer : s.layer).c_str(),
                    s.count, s.countUnit, s.costUs, est,
                    100.0 * est / measured);
    }
    unattributed = measured - sum;
    std::printf("  %-26s %14s %-8s %12s %10.4f %6.1f%%\n", "unattributed", "",
                "", "", unattributed, 100.0 * unattributed / measured);
}

} // namespace

int
runTraced(const Workload &w, std::unique_ptr<fleet::FleetScheduler> sched,
          double setup_s, WallClock::time_point origin, double seconds)
{
    SpanLog spans(origin);
    const std::size_t root = spans.begin("traced-run", SpanLog::kRoot);
    std::printf("span setup (process start -> fleet ready): %.4f s\n",
                setup_s);
    const WallClock::time_point start = WallClock::now();

    // -- Round 1 on the cold fleet, spans around each call ---------------
    RoundResult round;
    std::size_t sp = spans.begin("campaign", root);
    round.report = sched->run();
    round.campaignSeconds = spans.end(sp);
    sp = spans.begin("analysis", root);
    round.forensics = sched->runForensics();
    round.forensicsSeconds = spans.end(sp);
    sp = spans.begin("report", root);
    const std::string first_json = round.report.toJson();
    const std::string forensics_json = round.forensics.toJson();
    const double report_s = spans.end(sp);
    std::printf("reports: FleetReport %zu B, ForensicsReport %zu B\n",
                first_json.size(), forensics_json.size());
    checkRound(w, round, "");
    const double device_rss_mib =
        (peakRssMiB() -
         static_cast<double>(round.report.totalBytesStored) / kMiB) /
        static_cast<double>(w.config.devices);
    std::uint64_t attempted = attemptedOps(round);
    std::uint64_t failed = failedOps(round);

    // -- Campaigns with and without observation, alternating (the cold
    // round above is left out, as in the end-to-end medians) ------------
    std::vector<double> plain;
    std::vector<double> observed;
    double ack_p99_ms = 0.0;
    while (observed.empty() || secondsSince(start) < seconds / 2) {
        {
            fleet::FleetScheduler s(w.config);
            obs::TraceSink sink;
            obs::MetricsRegistry registry;
            s.attachTrace(&sink);
            s.registerMetrics(registry);
            sp = spans.begin("campaign+trace+metrics", root);
            const fleet::FleetReport rep = s.run();
            observed.push_back(spans.end(sp));
            attempted += hostCommands(rep);
            if (rep.toJson() != first_json)
                fail("the traced FleetReport differs from the untraced one");
            if (observed.size() == 1)
                ack_p99_ms = ackP99Ms(sink);
        }
        {
            fleet::FleetScheduler s(w.config);
            sp = spans.begin("campaign", root);
            const fleet::FleetReport rep = s.run();
            plain.push_back(spans.end(sp));
            attempted += hostCommands(rep);
            if (rep.toJson() != first_json)
                fail("a repeated campaign rendered a different FleetReport");
        }
    }

    sp = spans.begin("checks", root);
    checkAfterRun(w, *sched);
    spans.end(sp);

    // -- Layer replays on the run's own inputs ---------------------------
    const std::size_t replay = spans.begin("replays", root);
    fleet::FleetScheduler &fs = *sched;
    const remote::BackupCluster &cluster = fs.cluster();
    sp = spans.begin("collect evidence", replay);
    const Evidence ev = collectEvidence(cluster);
    spans.end(sp);
    const double raw_mib = ev.rawBytes / kMiB;
    const double wire_mib = ev.wireBytes / kMiB;
    const double payload_mib = ev.payloadBytes / kMiB;

    sp = spans.begin("log.seal", replay);
    const double seal_s = perPass([&] {
        double s = 0.0;
        for (std::size_t i = 0; i < ev.items.size(); i++)
            s += timed([&] { ev.items[i].codec->seal(ev.opened[i]); });
        return s;
    });
    spans.end(sp);
    sp = spans.begin("log.verify", replay);
    const double verify_s = perPass([&] {
        bool ok = true;
        const double s = timed([&] {
            for (const Evidence::Item &it : ev.items)
                ok = it.codec->verify(*it.sealed) && ok;
        });
        if (!ok)
            fail("verify replay: a stored copy does not verify");
        return s;
    });
    spans.end(sp);
    sp = spans.begin("log.open", replay);
    const double open_s = perPass([&] {
        return timed([&] {
            for (const Evidence::Item &it : ev.items)
                it.codec->open(*it.sealed);
        });
    });
    spans.end(sp);
    sp = spans.begin("log.chain_verify", replay);
    const double chain_s = perPass([&] {
        return timed([&] {
            std::size_t i = 0;
            while (i < ev.items.size()) {
                const remote::DeviceId dev = ev.items[i].device;
                log::SegmentChainVerifier v;
                for (const auto &[pdev, rec] : ev.pruned) {
                    if (pdev == dev)
                        v.resumeFrom(rec, *ev.items[i].codec);
                }
                for (; i < ev.items.size() && ev.items[i].device == dev; i++) {
                    log::Segment seg;
                    if (!v.verifyNext(*ev.items[i].sealed, *ev.items[i].codec,
                                      &seg))
                        fail("chain replay: a stream does not verify");
                }
            }
        });
    });
    spans.end(sp);
    sp = spans.begin("log.entry_digest", replay);
    const double digest_s = perPass([&] {
        return timed([&] {
            for (const log::Segment &seg : ev.opened) {
                if (!log::OperationLog::verifyRun(seg.chainAnchor,
                                                  seg.entries))
                    fail("entry digest replay: a run does not verify");
            }
        });
    });
    spans.end(sp);

    sp = spans.begin("crypto", replay);
    const double sha_s = perPass([&] {
        double s = 0.0;
        for (const log::Segment &seg : ev.opened) {
            const Bytes raw = seg.serialize();
            s += timed([&] { crypto::Sha256::hash(raw); });
        }
        return s;
    });
    const double hmac_s = perPass([&] {
        double s = 0.0;
        for (const Evidence::Item &it : ev.items) {
            const crypto::Key256 key = deviceKey(w.config, it.device);
            crypto::HmacSha256 mac(key.data(), key.size());
            s += timed([&] {
                mac.update(it.sealed->payload);
                mac.finish();
            });
        }
        return s;
    });
    const double chacha_s = perPass([&] {
        double s = 0.0;
        Bytes out;
        for (const Evidence::Item &it : ev.items) {
            crypto::ChaCha20 cipher(deviceKey(w.config, it.device),
                                    crypto::ChaCha20::nonceFromSequence(
                                        it.sealed->id));
            out.resize(it.sealed->payload.size());
            s += timed([&] {
                cipher.apply(it.sealed->payload.data(), out.data(),
                             out.size());
            });
        }
        return s;
    });
    const double crc_s = perPass([&] {
        return timed([&] {
            for (const Evidence::Item &it : ev.items)
                crypto::crc32c(it.sealed->payload);
        });
    });
    const double entropy_s = perPass([&] {
        return timed([&] {
            for (const log::Segment &seg : ev.opened) {
                for (const log::PageRecord &p : seg.pages)
                    crypto::shannonEntropy(p.content);
            }
        });
    });
    spans.end(sp);

    sp = spans.begin("compress", replay);
    double lz_in = 0.0;
    double lz_out = 0.0;
    const double lz_s = perPass([&] {
        double s = 0.0;
        lz_in = lz_out = 0.0;
        for (const log::Segment &seg : ev.opened) {
            const Bytes raw = seg.serialize();
            Bytes packed;
            s += timed([&] { packed = compress::lzCompress(raw); });
            lz_in += static_cast<double>(raw.size());
            lz_out += static_cast<double>(packed.size());
            if (compress::lzDecompress(packed, raw.size()) != raw)
                fail("lzDecompress(lzCompress(x)) != x on a replayed "
                     "segment");
        }
        return s;
    });
    const double unlz_s = perPass([&] {
        double s = 0.0;
        Bytes plain;
        for (const Evidence::Item &it : ev.items) {
            crypto::ChaCha20 cipher(deviceKey(w.config, it.device),
                                    crypto::ChaCha20::nonceFromSequence(
                                        it.sealed->id));
            plain.resize(it.sealed->payload.size());
            cipher.apply(it.sealed->payload.data(), plain.data(),
                         plain.size());
            s += timed([&] {
                compress::lzDecompress(plain, it.sealed->rawSize);
            });
        }
        return s;
    });
    spans.end(sp);

    sp = spans.begin("remote", replay);
    const double ingest_us = replayIngest(w, ev);
    const double verify_all_s =
        perPass([&] { return timed([&] { cluster.verifyAll(); }); });
    double live_bytes = 0.0;
    for (remote::ShardId sh = 0; sh < cluster.shardCount(); sh++) {
        if (cluster.shardAlive(sh))
            live_bytes += static_cast<double>(cluster.shardStore(sh).usedBytes());
    }
    spans.end(sp);

    sp = spans.begin("forensics", replay);
    forensics::EvidenceScanner scanner(cluster);
    const double scan_s = timed([&] { scanner.scan(); });
    const double scan_bytes =
        static_cast<double>(scanner.total().bytesVerified);
    const double correlate_s = perPass([&] {
        return timed([&] {
            forensics::correlate(scanner, forensics::CorrelationConfig());
        });
    });
    spans.end(sp);

    sp = spans.begin("workload+core.submit+ftl", replay);
    bool encryptors = false;
    bool flooders = false;
    for (const fleet::DeviceReport &d : round.report.deviceReports) {
        encryptors = encryptors || d.attack.pagesEncrypted > 0;
        flooders = flooders || d.attack.junkPagesWritten > 0;
    }
    const SubmitCosts dev_cost = replayDevice(w, encryptors, flooders);
    spans.end(sp);

    sp = spans.begin("openssl reference", replay);
    printReference(ev, w.config);
    spans.end(sp);

    // Restores write through the devices, whose offload appends to the
    // cluster (moving the stored copies ev points at): last.
    sp = spans.begin("core.history+restore", replay);
    double history_s = 0.0;
    double history_bytes = 0.0;
    double restore_s = 0.0;
    double restored_pages = 0.0;
    for (const forensics::RecoveryOutcome &r : round.forensics.recovery) {
        core::RssdDevice &dev =
            fs.device(static_cast<std::uint32_t>(r.device));
        std::unique_ptr<core::DeviceHistory> history;
        history_s += timed([&] {
            history = std::make_unique<core::DeviceHistory>(dev, cluster,
                                                            r.device);
        });
        history_bytes += static_cast<double>(history->cost().bytesFetched);
        core::RecoveryEngine engine(*history);
        core::RecoveryReport rec;
        restore_s += timed([&] { rec = engine.recoverToLogSeq(r.recoverySeq); });
        restored_pages += static_cast<double>(rec.pagesRestored);
    }
    spans.end(sp);
    spans.end(replay);
    spans.end(root);

    // -- Work counts from the run's reports ------------------------------
    const fleet::FleetReport &rep = round.report;
    double benign_ops = 0.0;
    double encrypt_cmds = 0.0;
    double flood_cmds = 0.0;
    double sealed_raw = 0.0;
    double sealed_wire = 0.0;
    double segments_sealed = 0.0;
    double segments_accepted = 0.0;
    double entries_offloaded = 0.0;
    double host_pages = 0.0;
    for (const fleet::DeviceReport &d : rep.deviceReports) {
        benign_ops += static_cast<double>(d.benignOps);
        encrypt_cmds += 2.0 * static_cast<double>(d.attack.pagesEncrypted);
        flood_cmds += static_cast<double>(d.attack.junkPagesWritten);
        sealed_raw += static_cast<double>(d.offload.bytesRaw);
        sealed_wire += static_cast<double>(d.offload.bytesSealed);
        segments_sealed += static_cast<double>(d.offload.segmentsSealed);
        segments_accepted += static_cast<double>(d.offload.segmentsAccepted);
        entries_offloaded += static_cast<double>(d.offload.entriesOffloaded);
        host_pages += static_cast<double>(d.rssd.loggedWrites);
    }
    double gc_erases = 0.0;
    double ftl_host = 0.0;
    double ftl_moves = 0.0;
    for (std::uint32_t i = 0; i < fs.deviceCount(); i++) {
        const ftl::FtlStats &st = fs.device(i).ftl().stats();
        gc_erases += static_cast<double>(st.gcErases);
        ftl_host += static_cast<double>(st.hostWrites);
        ftl_moves += static_cast<double>(st.gcValidMoves + st.gcHeldMoves);
    }
    const double host_cmds = static_cast<double>(hostCommands(rep));
    const double submit_us =
        (benign_ops * dev_cost.benignUs + encrypt_cmds * dev_cost.encryptUs +
         flood_cmds * dev_cost.floodUs +
         static_cast<double>(w.config.devices) * dev_cost.drainUs) /
        host_cmds;

    const double seal_rate = raw_mib / seal_s;
    const double verify_rate = wire_mib / verify_s;
    const double chain_rate = wire_mib / chain_s;
    const double open_rate = raw_mib / open_s;
    const double digest_ns = digest_s * 1e9 / ev.entries;
    const double sha_rate = raw_mib / sha_s;
    const double entropy_rate = ev.pageBytes / kMiB / entropy_s;
    const double campaign_s = median(plain);
    const double verify_us_per_segment =
        ev.items.empty() ? 0.0
                         : verify_s * 1e6 / static_cast<double>(ev.items.size());
    double live_bytes_at_report = 0.0;
    for (const fleet::ShardReport &sh : rep.shardReports) {
        if (sh.status == "live")
            live_bytes_at_report += static_cast<double>(sh.usedBytes);
    }

    double campaign_unattributed = 0.0;
    printSplit(
        "ledger, campaign wall (median of the warm untraced campaigns)",
        campaign_s,
        {{"workload.gen", benign_ops, "ops", dev_cost.genUsPerOp, false},
         {"attack.encrypt_page", encrypt_cmds / 2, "pages",
          dev_cost.encryptGenUs, false},
         {"attack.junk_page", flood_cmds, "pages", dev_cost.floodGenUs,
          false},
         {"core.submit", host_cmds, "cmds", submit_us, false},
         {"log.seal", sealed_raw, "raw B", 1e6 / (seal_rate * kMiB), true},
         {"log.entry_digest", entries_offloaded, "entries", digest_ns / 1e3,
          true},
         {"ftl.write", ftl_host, "pages", dev_cost.ftlUsPerPage, true},
         {"crypto.entropy", host_pages * w.config.device.ftl.geometry.pageSize,
          "B", 1e6 / (entropy_rate * kMiB), true},
         {"remote.ingest", segments_accepted, "segs", ingest_us, false},
         {"remote.repair_copy",
          static_cast<double>(rep.repairStats.segmentsCopied), "segs",
          ingest_us / w.config.replication, false},
         {"remote.scrub_verify",
          static_cast<double>(rep.repairStats.scrubbedSegments), "segs",
          verify_us_per_segment, false},
         // run() ends by verifying every live shard's full chain for the
         // report's chainOk verdicts (the cost of verifyAll()).
         {"remote.report_chain_verify", live_bytes_at_report, "B",
          live_bytes > 0 ? verify_all_s * 1e6 / live_bytes : 0.0, false}},
        campaign_unattributed);

    // The replays read the cluster after the analysis' own restores
    // added evidence, so their costs are taken per byte or page and
    // scaled by what the analysis itself verified, fetched and wrote.
    const forensics::ForensicsReport &fr = round.forensics;
    double fetched_at_analysis = 0.0;
    double pages_at_analysis = 0.0;
    for (const forensics::ScheduledRestore &r : fr.plans.front().restores)
        fetched_at_analysis += static_cast<double>(r.bytes);
    for (const forensics::RecoveryOutcome &r : fr.recovery)
        pages_at_analysis += static_cast<double>(r.pagesRestored);
    double analysis_unattributed = 0.0;
    printSplit(
        "ledger, analysis wall (runForensics on the cold fleet)",
        round.forensicsSeconds,
        {{"forensics.scan", static_cast<double>(fr.totalCost.bytesVerified),
          "B", scan_bytes > 0 ? scan_s * 1e6 / scan_bytes : 0.0, false},
         {"forensics.correlate", 1, "pass", correlate_s * 1e6, false},
         {"core.history_open", fetched_at_analysis, "B",
          history_bytes > 0 ? history_s * 1e6 / history_bytes : 0.0, false},
         {"core.restore", pages_at_analysis, "pages",
          restored_pages > 0 ? restore_s * 1e6 / restored_pages : 0.0,
          false}},
        analysis_unattributed);

    std::printf("\nspans (seconds since process start):\n%s",
                spans.render().c_str());
    if (failures() != 0)
        return 1;

    const std::vector<Metric> metrics = {
        {"fleet.campaign_s", campaign_s, "s"},
        {"fleet.unattributed_s", campaign_unattributed, "s"},
        {"fleet.host_cmds", host_cmds, "count"},
        {"fleet.report_s", report_s, "s"},
        {"workload.gen_us_per_op", dev_cost.genUsPerOp, "us"},
        {"core.submit_us_per_cmd", submit_us, "us"},
        {"core.history_open_s", history_s, "s"},
        {"core.restore_pages_per_s",
         restore_s > 0 ? restored_pages / restore_s : 0.0, "page/s"},
        {"ftl.write_us_per_page", dev_cost.ftlUsPerPage, "us"},
        {"ftl.gc_erases", gc_erases, "count"},
        {"ftl.waf", ftl_host > 0 ? (ftl_host + ftl_moves) / ftl_host : 1.0,
         "ratio"},
        {"flash.device_rss_mib_per_device", device_rss_mib, "MiB"},
        {"log.seal_mib_per_s", seal_rate, "MiB/s"},
        {"log.verify_mib_per_s", verify_rate, "MiB/s"},
        {"log.chain_verify_mib_per_s", chain_rate, "MiB/s"},
        {"log.open_mib_per_s", open_rate, "MiB/s"},
        {"log.entry_digest_ns_per_entry", digest_ns, "ns"},
        {"log.segments_sealed", segments_sealed, "count"},
        {"log.raw_mib", sealed_raw / kMiB, "MiB"},
        {"log.wire_mib", sealed_wire / kMiB, "MiB"},
        {"crypto.sha256_mib_per_s", sha_rate, "MiB/s"},
        {"crypto.hmac_mib_per_s", payload_mib / hmac_s, "MiB/s"},
        {"crypto.chacha20_mib_per_s", payload_mib / chacha_s, "MiB/s"},
        {"crypto.crc32c_mib_per_s", payload_mib / crc_s, "MiB/s"},
        {"crypto.entropy_mib_per_s", entropy_rate, "MiB/s"},
        {"compress.lz_compress_mib_per_s", lz_in / kMiB / lz_s, "MiB/s"},
        {"compress.lz_decompress_mib_per_s", raw_mib / unlz_s, "MiB/s"},
        {"compress.ratio", lz_out > 0 ? lz_in / lz_out : 1.0, "ratio"},
        {"remote.ingest_us_per_segment", ingest_us, "us"},
        {"remote.ack_p99_sim_ms", ack_p99_ms, "ms"},
        {"remote.verify_all_s", verify_all_s, "s"},
        {"remote.stored_mib",
         static_cast<double>(rep.totalBytesStored) / kMiB, "MiB"},
        {"remote.segments_pruned",
         static_cast<double>(rep.totalSegmentsPruned), "count"},
        {"remote.scrub_segments",
         static_cast<double>(rep.repairStats.scrubbedSegments), "count"},
        {"forensics.scan_s", scan_s, "s"},
        {"forensics.correlate_s", correlate_s, "s"},
        {"forensics.unattributed_s", analysis_unattributed, "s"},
        {"obs.trace_overhead_s", median(observed) - campaign_s, "s"},
    };
    std::printf("%s\n", resultLine(attempted, failed, metrics).c_str());
    return 0;
}

} // namespace pb
