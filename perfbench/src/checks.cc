#include "checks.hh"

#include <openssl/evp.h>
#include <openssl/hmac.h>
#include <openssl/sha.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "compress/lz.hh"
#include "log/segment.hh"
#include "util.hh"

namespace pb {

using namespace rssd;

namespace {

using Bytes = std::vector<std::uint8_t>;

void
putLe64(Bytes &out, std::uint64_t v)
{
    for (int i = 0; i < 8; i++)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putDigest(Bytes &out, const crypto::Digest &d)
{
    out.insert(out.end(), d.begin(), d.end());
}

/** CRC32C (Castagnoli, reflected 0x82F63B78), one bit at a time. */
std::uint32_t
crc32cBitwise(const std::uint8_t *p, std::size_t n)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; i++) {
        crc ^= p[i];
        for (int b = 0; b < 8; b++)
            crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
    return ~crc;
}

crypto::Digest
sha256(const std::uint8_t *p, std::size_t n)
{
    crypto::Digest d{};
    SHA256(p, n, d.data());
    return d;
}

/** The device key: SHA-256 of the per-device key seed the fleet
 *  assigns (FleetScheduler: keySeed + "#fleet-" + id). */
crypto::Digest
deviceKey(const fleet::FleetConfig &config, remote::StreamId stream)
{
    const std::string seed =
        config.device.keySeed + "#fleet-" + std::to_string(stream);
    return sha256(reinterpret_cast<const std::uint8_t *>(seed.data()),
                  seed.size());
}

/** HMAC-SHA256 over the documented sealed header (id, prevId,
 *  chainAnchor, chainTail, rawSize, payload size; integers
 *  little-endian) followed by the payload. */
crypto::Digest
opensslMac(const crypto::Digest &key, const log::SealedSegment &s)
{
    Bytes msg;
    msg.reserve(96 + s.payload.size());
    putLe64(msg, s.id);
    putLe64(msg, s.prevId);
    putDigest(msg, s.chainAnchor);
    putDigest(msg, s.chainTail);
    putLe64(msg, s.rawSize);
    putLe64(msg, s.payload.size());
    msg.insert(msg.end(), s.payload.begin(), s.payload.end());
    crypto::Digest mac{};
    unsigned int len = 0;
    HMAC(EVP_sha256(), key.data(), static_cast<int>(key.size()),
         msg.data(), msg.size(), mac.data(), &len);
    return mac;
}

/** RFC 8439 ChaCha20, block counter 0, nonce = segment id as 8
 *  little-endian bytes then 4 zero bytes. */
Bytes
opensslDecrypt(const crypto::Digest &key, const log::SealedSegment &s)
{
    std::array<std::uint8_t, 16> iv{}; // 4-byte counter, 12-byte nonce
    for (int i = 0; i < 8; i++)
        iv[4 + i] = static_cast<std::uint8_t>(s.id >> (8 * i));
    Bytes out(s.payload.size());
    EVP_CIPHER_CTX *ctx = EVP_CIPHER_CTX_new();
    int len = 0;
    const bool ok =
        ctx != nullptr &&
        EVP_EncryptInit_ex(ctx, EVP_chacha20(), nullptr, key.data(),
                           iv.data()) == 1 &&
        EVP_EncryptUpdate(ctx, out.data(), &len, s.payload.data(),
                          static_cast<int>(s.payload.size())) == 1 &&
        static_cast<std::size_t>(len) == out.size();
    EVP_CIPHER_CTX_free(ctx);
    if (!ok)
        fail("OpenSSL ChaCha20 failed");
    return out;
}

bool
sameSealed(const log::SealedSegment &a, const log::SealedSegment &b)
{
    return a.id == b.id && a.prevId == b.prevId &&
           a.chainTail == b.chainTail && a.chainAnchor == b.chainAnchor &&
           a.rawSize == b.rawSize && a.payload == b.payload &&
           a.hmac == b.hmac && a.crc == b.crc;
}

/** The documented 45-byte entry body the chain digest covers. */
std::array<std::uint8_t, 45>
entryBody(const log::LogEntry &e)
{
    std::array<std::uint8_t, 45> b{};
    const auto le64 = [&b](std::size_t at, std::uint64_t v) {
        for (int i = 0; i < 8; i++)
            b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    le64(0, e.logSeq);
    b[8] = static_cast<std::uint8_t>(e.op);
    le64(9, e.lpa);
    le64(17, e.dataSeq);
    le64(25, e.prevDataSeq);
    le64(33, e.timestamp);
    const auto q = static_cast<std::uint32_t>(e.entropy * 1000.0f);
    for (int i = 0; i < 4; i++)
        b[41 + i] = static_cast<std::uint8_t>(q >> (8 * i));
    return b;
}

std::string
where(remote::ShardId shard, remote::StreamId stream, std::uint64_t id)
{
    return "shard " + std::to_string(shard) + " stream " +
           std::to_string(stream) + " segment " + std::to_string(id);
}

} // namespace

void
checkCrcSelfTest()
{
    const char *v = "123456789";
    if (crc32cBitwise(reinterpret_cast<const std::uint8_t *>(v), 9) !=
        0xE3069283u)
        fail("bitwise CRC32C check value");
}

void
checkStoredCopies(const fleet::FleetScheduler &sched,
                  const fleet::FleetConfig &config,
                  CheckCoverage &coverage)
{
    const remote::BackupCluster &cluster = sched.cluster();
    for (remote::ShardId s = 0; s < cluster.shardCount(); s++) {
        if (!cluster.shardAlive(s))
            continue; // a crashed shard's copies are lost by design
        const remote::BackupStore &store = cluster.shardStore(s);
        for (const remote::StreamId stream : store.streamIds()) {
            const crypto::Digest key = deviceKey(config, stream);
            const log::SegmentCodec &codec = store.streamCodec(stream);
            for (const std::uint32_t idx : store.streamSegments(stream)) {
                const log::SealedSegment &sealed =
                    store.sealedSegment(idx);
                const std::string at = where(s, stream, sealed.id);
                coverage.copiesChecked++;
                coverage.bytesChecked += sealed.wireSize();

                if (opensslMac(key, sealed) != sealed.hmac)
                    fail("OpenSSL HMAC mismatch at " + at);
                if (crc32cBitwise(sealed.payload.data(),
                                  sealed.payload.size()) != sealed.crc)
                    fail("bitwise CRC32C mismatch at " + at);
                if (!codec.verify(sealed)) {
                    fail("codec rejects stored copy at " + at);
                    continue; // open() would panic
                }

                const log::Segment opened = codec.open(sealed);
                if (opensslDecrypt(key, sealed) !=
                    compress::lzCompress(opened.serialize()))
                    fail("OpenSSL-decrypted payload differs at " + at);
                if (!sameSealed(codec.seal(opened), sealed))
                    fail("seal(open(s)) differs from stored copy at " +
                         at);
            }
        }
    }
}

void
checkChainWalk(fleet::FleetScheduler &sched, CheckCoverage &coverage)
{
    const remote::BackupCluster &cluster = sched.cluster();
    const char *tag = "rssd-oplog-genesis-v1";
    const crypto::Digest genesis = sha256(
        reinterpret_cast<const std::uint8_t *>(tag), std::strlen(tag));

    std::uint64_t expect_segments = 0;
    std::uint64_t expect_entries = 0;
    for (std::uint32_t i = 0; i < sched.deviceCount(); i++) {
        const core::OffloadStats &st = sched.device(i).offload().stats();
        expect_segments += st.segmentsAccepted;
        expect_entries += st.entriesOffloaded;
    }

    std::uint64_t walked_segments = 0;
    std::uint64_t walked_entries = 0;
    for (const remote::DeviceId dev : cluster.attachedDevices()) {
        const remote::ShardId shard = cluster.chainVerifyingReplicaOf(dev);
        if (shard == remote::kNoShard) {
            fail("stream " + std::to_string(dev) + " has no live copy");
            continue;
        }
        const remote::BackupStore &store = cluster.shardStore(shard);
        const log::SegmentCodec &codec = store.streamCodec(dev);
        log::SegmentChainVerifier verifier;
        crypto::Digest prev = genesis;
        std::uint64_t prev_id = log::kNoSegment;
        std::uint64_t next_seq = 0;
        if (const log::PruneRecord *rec = store.pruneRecordOf(dev)) {
            if (!verifier.resumeFrom(*rec, codec))
                fail("prune record of stream " + std::to_string(dev) +
                     " does not verify");
            prev = rec->anchor;
            prev_id = rec->upToId;
            next_seq = rec->entriesPruned;
            expect_segments -= rec->segmentsPruned;
            expect_entries -= rec->entriesPruned;
        }
        coverage.streamsWalked++;
        for (const std::uint32_t idx : store.streamSegments(dev)) {
            const log::SealedSegment &sealed = store.sealedSegment(idx);
            const std::string at = where(shard, dev, sealed.id);
            log::Segment seg;
            if (!verifier.verifyNext(sealed, codec, &seg)) {
                fail(std::string("chain verifier: ") +
                     log::chainFaultName(verifier.fault()) + " at " + at);
                break;
            }
            if (sealed.prevId != prev_id || seg.chainAnchor != prev)
                fail("chain discontinuity at " + at);
            for (const log::LogEntry &e : seg.entries) {
                std::array<std::uint8_t, 45 + 32> msg{};
                const auto body = entryBody(e);
                std::memcpy(msg.data(), body.data(), body.size());
                std::memcpy(msg.data() + body.size(), prev.data(), 32);
                if (e.logSeq != next_seq ||
                    sha256(msg.data(), msg.size()) != e.chain) {
                    fail("entry digest does not re-derive at " + at);
                    break;
                }
                prev = e.chain;
                next_seq++;
            }
            if (!seg.entries.empty() && prev != seg.chainTail)
                fail("advertised chain tail mismatch at " + at);
            prev_id = sealed.id;
            walked_segments++;
            walked_entries += seg.entries.size();
        }
    }
    coverage.segmentsWalked = walked_segments;
    coverage.entriesWalked = walked_entries;
    if (walked_segments != expect_segments ||
        walked_entries != expect_entries) {
        fail("chain walk found " + std::to_string(walked_segments) +
             " segments / " + std::to_string(walked_entries) +
             " entries; devices offloaded " +
             std::to_string(expect_segments) + " / " +
             std::to_string(expect_entries) + " less pruned");
    }
}

} // namespace pb
