// End-to-end page integrity: per-page checksums, arrival verification, and
// the checked write-back primitive.
//
// The cleaner computes a 64-bit checksum for every full page it writes back
// and installs it next to the page on the memory node (PageStore keeps the
// checksum map the way a real node keeps per-block CRCs in a metadata region
// of the same registration). Three properties follow:
//
//  * Write-side ("ICRC analog"): WritePageChecked verifies the *stored*
//    bytes against the checksum right after the write lands — the way an
//    RNIC validates the ICRC trailer before committing a packet — and
//    re-posts the write on mismatch. A payload bit flipped in flight on the
//    write path therefore never becomes durable silently.
//  * Read-side: every full-page arrival (demand fetch, prefetch, EC survivor
//    read, repair source read, scrub read) re-hashes the received bytes and
//    compares against the stored checksum. Computing the hash costs zero
//    simulated time: NICs do CRC at line rate, so verification adds no
//    latency and no wire ops on healthy runs.
//  * Pages without a checksum verify trivially. Only full-page write-backs
//    install one; a vectored (guided) write-back drops it, because the bytes
//    between live segments are indeterminate by design. That gap is
//    documented in DESIGN.md §9 — guided paging trades it for bandwidth.
//
// The checksum runs in kChecksumLanes independent lanes: word i (8 bytes)
// feeds lane i % kChecksumLanes through the step h ^= w; h *= P; h ^= h >> 29,
// and the lanes are folded in fixed order with the same step at the end. The
// step is a bijection in h (xor, odd multiply, xorshift) and in w, so a
// change to any single 8-byte word changes its lane and hence the sum, and
// the lanes have no data dependence on each other, so they run at the
// multiplier's throughput instead of its latency. A write-back round hashes
// its page once (callers pass the sum to WritePageChecked), plus once per
// landed copy.
#ifndef DILOS_SRC_RECOVERY_INTEGRITY_H_
#define DILOS_SRC_RECOVERY_INTEGRITY_H_

#include <cstdint>
#include <cstring>

#include "src/memnode/page_store.h"
#include "src/rdma/queue_pair.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace dilos {

// Independent hash chains in PageChecksum; kPageSize / 8 is a multiple.
inline constexpr uint32_t kChecksumLanes = 8;

// One FNV-1a-style step; a bijection in both `h` and `w`.
inline uint64_t ChecksumStep(uint64_t h, uint64_t w) {
  h ^= w;
  h *= 0x100000001B3ULL;
  return h ^ (h >> 29);
}

// 64-bit checksum of a full page, hashed a word at a time over
// kChecksumLanes lanes — the stand-in for the CRC an RNIC computes at line
// rate.
inline uint64_t PageChecksum(const uint8_t* data) {
  uint64_t lane[kChecksumLanes];
  for (uint32_t l = 0; l < kChecksumLanes; ++l) {
    lane[l] = 0xCBF29CE484222325ULL + l;
  }
  for (uint32_t i = 0; i < kPageSize; i += 8 * kChecksumLanes) {
    // Unrolled so the lanes stay in registers at -O2 as well as -O3.
#pragma GCC unroll 8
    for (uint32_t l = 0; l < kChecksumLanes; ++l) {
      uint64_t w;
      std::memcpy(&w, data + i + 8 * l, 8);
      lane[l] = ChecksumStep(lane[l], w);
    }
  }
  uint64_t h = 0xCBF29CE484222325ULL;
  for (uint32_t l = 0; l < kChecksumLanes; ++l) {
    h = ChecksumStep(h, lane[l]);
  }
  return h;
}

// Verifies a full page `bytes` against `sum`, the checksum installed for it
// (PageStore::FindChecksum). True when there is none — nothing to verify
// against (the page was never fully written back).
inline bool VerifyPageBytes(const uint64_t* sum, const uint8_t* bytes) {
  return sum == nullptr || *sum == PageChecksum(bytes);
}

// Verifies `bytes` (a full page received for `page_va`) against the checksum
// installed on `store`.
inline bool VerifyPageBytes(const PageStore& store, uint64_t page_va, const uint8_t* bytes) {
  return VerifyPageBytes(store.FindChecksum(page_va >> kPageShift), bytes);
}

// Freshness check beside the content check: true when the copy on `store`
// lags the expected write generation — it verified against its (old)
// checksum but missed at least one later full-page write-back (the
// partitioned-replica gap: stale-but-verified bytes). expected_gen == 0
// (page never generation-tagged by a cleaner) verifies trivially.
inline bool PageIsStale(const PageStore& store, uint64_t page_va, uint32_t expected_gen) {
  if (expected_gen == 0) {
    return false;
  }
  return store.Generation(page_va >> kPageShift) < expected_gen;
}

// Full-page write with target-side integrity: posts the write at `issue_ns`,
// installs `sum` — PageChecksum(data), computed once by the caller for the
// whole write-back round — (and, when `generation` is nonzero, the write
// generation — freshness metadata travelling with the payload), and
// verifies the bytes that actually landed — re-posting on mismatch (a wire
// flip on the write path), up to `max_retries` times. Returns the final
// completion; liveness failures (kTimeout etc.) are returned untouched for
// the caller's failover logic — a dropped write installs neither checksum
// nor generation, which is exactly what lets readers detect the laggard.
// If retries exhaust with the stored copy still corrupt, the (correct)
// checksum stays installed, so every later read detects the rot and heals
// from redundancy — metadata is never made to agree with bad bytes.
inline Completion WritePageChecked(QueuePair* qp, PageStore& store, uint64_t page_va,
                                   const uint8_t* data, uint64_t sum, uint64_t issue_ns,
                                   uint64_t* wr_id, RuntimeStats& stats, Tracer* tracer,
                                   uint32_t generation = 0, int max_retries = 3) {
  uint64_t page = page_va >> kPageShift;
  Completion c{};
  for (int attempt = 0;; ++attempt) {
    c = qp->PostWrite(++*wr_id, reinterpret_cast<uint64_t>(data), page_va, kPageSize, issue_ns);
    if (c.status != WcStatus::kSuccess) {
      return c;
    }
    store.SetChecksum(page, sum);
    if (generation != 0) {
      store.SetGeneration(page, generation);
    }
    if (PageChecksum(store.PageData(page)) == sum) {
      return c;
    }
    stats.checksum_mismatches++;
    stats.checksum_write_retries++;
    if (tracer != nullptr) {
      tracer->Record(c.completion_time_ns, TraceEvent::kChecksumMismatch, page_va,
                     /*detail=*/1);  // 1 = write side.
    }
    if (attempt >= max_retries) {
      return c;
    }
    issue_ns = c.completion_time_ns;
  }
}

}  // namespace dilos

#endif  // DILOS_SRC_RECOVERY_INTEGRITY_H_
