/**
 * @file
 * Output checks made apart from the program under test. They run
 * after the timed sections and fail the run (pb::fail) on any
 * mismatch:
 *
 *  - every live stored copy: OpenSSL's HMAC-SHA256 over the
 *    documented header + payload, OpenSSL's ChaCha20 decryption of
 *    the payload (which must equal the program's LZ compression of
 *    the opened segment's bytes), a bitwise CRC32C written here, and
 *    a byte-for-byte reseal (seal(open(s)) == s) under the stream's
 *    codec;
 *  - every stream's chain, walked here: each entry digest re-derived
 *    with OpenSSL SHA-256 from the documented entry body, anchors
 *    continuous from genesis or the signed prune record, and the
 *    walked segment and entry totals equal to what the devices say
 *    they offloaded less what retention GC pruned.
 */

#ifndef RSSD_PERFBENCH_CHECKS_HH
#define RSSD_PERFBENCH_CHECKS_HH

#include <cstdint>

#include "fleet/scheduler.hh"

namespace pb {

/** Work the checks covered (printed beside the result). */
struct CheckCoverage
{
    std::uint64_t copiesChecked = 0;
    std::uint64_t bytesChecked = 0;
    std::uint64_t streamsWalked = 0;
    std::uint64_t segmentsWalked = 0;
    std::uint64_t entriesWalked = 0;
};

/** The bitwise CRC32C must match the standard check value. */
void checkCrcSelfTest();

/** Independent checks of every live stored copy. */
void checkStoredCopies(const rssd::fleet::FleetScheduler &sched,
                       const rssd::fleet::FleetConfig &config,
                       CheckCoverage &coverage);

/** The benchmark's own walk of every stream's chain, against the
 *  devices' offload counters as they stand now. */
void checkChainWalk(rssd::fleet::FleetScheduler &sched,
                    CheckCoverage &coverage);

} // namespace pb

#endif // RSSD_PERFBENCH_CHECKS_HH
