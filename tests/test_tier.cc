// Tests for the compressed local cold tier (src/tier): codec round-trips
// (random + pathological payloads), slab pool accounting, admission/eviction
// policy, the runtime's tier fault path, durability of tier-resident dirty
// pages (the tier is a cache, never the only copy of written-back content),
// and a 32-seed chaos soak with the tier enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/memnode/fault_injector.h"
#include "src/tier/comp_pool.h"
#include "src/tier/compress.h"
#include "src/tier/tier.h"

namespace dilos {
namespace {

constexpr uint64_t kMs = 1'000'000;

uint64_t Rng(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

// -- Codec --------------------------------------------------------------------

void ExpectRoundTrip(const std::vector<uint8_t>& src, const char* label) {
  std::vector<uint8_t> comp(TierCompressBound(src.size()));
  size_t csize = TierCompress(src.data(), src.size(), comp.data(), comp.size());
  ASSERT_GT(csize, 0u) << label << ": compress failed under the worst-case bound";
  ASSERT_LE(csize, TierCompressBound(src.size())) << label;
  std::vector<uint8_t> out(src.size(), 0xA5);
  ASSERT_EQ(TierDecompress(comp.data(), csize, out.data(), out.size()), src.size()) << label;
  EXPECT_EQ(std::memcmp(out.data(), src.data(), src.size()), 0) << label;
}

TEST(TierCompress, RoundTripsPathologicalPayloads) {
  ExpectRoundTrip(std::vector<uint8_t>(kPageSize, 0x00), "all-zero");
  ExpectRoundTrip(std::vector<uint8_t>(kPageSize, 0xFF), "all-ones");
  ExpectRoundTrip(std::vector<uint8_t>(1, 0x42), "single byte");
  ExpectRoundTrip(std::vector<uint8_t>(3, 0x42), "below min match");

  std::vector<uint8_t> alt(kPageSize);
  for (size_t i = 0; i < alt.size(); ++i) {
    alt[i] = (i & 1) ? 0xAA : 0x55;
  }
  ExpectRoundTrip(alt, "alternating");

  std::vector<uint8_t> ramp(kPageSize);
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<uint8_t>(i);  // Period 256: long-distance matches.
  }
  ExpectRoundTrip(ramp, "byte ramp");

  std::vector<uint8_t> odd(kPageSize);
  for (size_t i = 0; i < odd.size(); ++i) {
    odd[i] = static_cast<uint8_t>("\x01\x80\x7F\xFE\x33"[i % 5]);  // Odd period,
  }                                                                // overlap copies.
  ExpectRoundTrip(odd, "period-5 motif");

  std::vector<uint8_t> tags(kPageSize, 0x80);  // Bytes that look like match tags.
  ExpectRoundTrip(tags, "tag-like bytes");

  // Far match: a motif at the start repeated at the end of the page, with
  // unique filler between — exercises the 2-byte distance encoding.
  std::vector<uint8_t> far(kPageSize);
  uint64_t s = 7;
  for (size_t i = 0; i < far.size(); ++i) {
    far[i] = static_cast<uint8_t>(Rng(&s));
  }
  std::memcpy(far.data() + kPageSize - 64, far.data(), 64);
  ExpectRoundTrip(far, "page-spanning match");

  std::vector<uint8_t> rnd(kPageSize);
  for (size_t i = 0; i < rnd.size(); ++i) {
    rnd[i] = static_cast<uint8_t>(Rng(&s));
  }
  ExpectRoundTrip(rnd, "incompressible random");
}

TEST(TierCompress, RoundTripsRandomStructuredPages) {
  // Property sweep: pages assembled from zero runs, repeated motifs, and
  // random spans in seed-derived order — the shapes real heaps take.
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    uint64_t s = seed * 0x9E3779B97F4A7C15ULL + 1;
    std::vector<uint8_t> page;
    page.reserve(kPageSize);
    uint8_t motif[16];
    for (uint8_t& b : motif) {
      b = static_cast<uint8_t>(Rng(&s));
    }
    while (page.size() < kPageSize) {
      size_t run = 1 + Rng(&s) % 512;
      if (run > kPageSize - page.size()) {
        run = kPageSize - page.size();
      }
      switch (Rng(&s) % 3) {
        case 0:
          page.insert(page.end(), run, 0);
          break;
        case 1:
          for (size_t i = 0; i < run; ++i) {
            page.push_back(motif[i % sizeof(motif)]);
          }
          break;
        default:
          for (size_t i = 0; i < run; ++i) {
            page.push_back(static_cast<uint8_t>(Rng(&s)));
          }
          break;
      }
    }
    ExpectRoundTrip(page, "structured page");
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "seed=" << seed;
      break;
    }
  }
}

TEST(TierCompress, ZeroPageCompressesToNearNothing) {
  std::vector<uint8_t> page(kPageSize, 0);
  std::vector<uint8_t> comp(TierCompressBound(kPageSize));
  size_t csize = TierCompress(page.data(), page.size(), comp.data(), comp.size());
  ASSERT_GT(csize, 0u);
  EXPECT_LT(csize, 128u) << "an all-zero page should collapse to a run of max-length matches";
}

TEST(TierCompress, RespectsTheOutputCap) {
  uint64_t s = 99;
  std::vector<uint8_t> rnd(kPageSize);
  for (uint8_t& b : rnd) {
    b = static_cast<uint8_t>(Rng(&s));
  }
  std::vector<uint8_t> comp(kPageSize);
  EXPECT_EQ(TierCompress(rnd.data(), rnd.size(), comp.data(), kPageSize / 2), 0u)
      << "random bytes cannot fit half a page; the cap must reject, not overrun";
}

TEST(TierCompress, RejectsMalformedStreams) {
  uint8_t out[kPageSize];
  // Literal run of 1 with no literal byte following.
  const uint8_t trunc_lit[] = {0x00};
  EXPECT_EQ(TierDecompress(trunc_lit, sizeof(trunc_lit), out, sizeof(out)), 0u);
  // Match tag with a truncated distance field.
  const uint8_t trunc_dist[] = {0x80, 0x01};
  EXPECT_EQ(TierDecompress(trunc_dist, sizeof(trunc_dist), out, sizeof(out)), 0u);
  // Match with distance 0.
  const uint8_t zero_dist[] = {0x01, 0x41, 0x42, 0x80, 0x00, 0x00};
  EXPECT_EQ(TierDecompress(zero_dist, sizeof(zero_dist), out, sizeof(out)), 0u);
  // Match reaching before the start of the output.
  const uint8_t far_dist[] = {0x00, 0x41, 0x80, 0x10, 0x00};
  EXPECT_EQ(TierDecompress(far_dist, sizeof(far_dist), out, sizeof(out)), 0u);
  // Literal run overflowing the destination capacity.
  std::vector<uint8_t> big(1 + 128, 0x42);
  big[0] = 0x7F;  // 128 literals...
  EXPECT_EQ(TierDecompress(big.data(), big.size(), out, 64), 0u);  // ...into 64 bytes.
}

// -- Slab pool ----------------------------------------------------------------

TEST(TierCompPool, StoresAndRecyclesBlobs) {
  CompPool pool;
  uint64_t s = 3;
  std::vector<CompHandle> handles;
  std::vector<std::vector<uint8_t>> blobs;
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> blob(1 + Rng(&s) % 2800);
    for (uint8_t& b : blob) {
      b = static_cast<uint8_t>(Rng(&s));
    }
    handles.push_back(pool.Alloc(blob.data(), blob.size()));
    blobs.push_back(std::move(blob));
  }
  EXPECT_EQ(pool.blob_count(), 200u);
  EXPECT_GE(pool.block_bytes(), pool.payload_bytes());
  EXPECT_GE(pool.slab_bytes(), pool.block_bytes());
  for (size_t i = 0; i < handles.size(); ++i) {
    ASSERT_EQ(std::memcmp(pool.Data(handles[i]), blobs[i].data(), blobs[i].size()), 0)
        << "blob " << i << " corrupted in the pool";
  }
  // Free everything; the slabs stay resident (recycled, not returned).
  for (size_t i = 0; i < handles.size(); ++i) {
    pool.Free(handles[i], blobs[i].size());
  }
  EXPECT_EQ(pool.blob_count(), 0u);
  EXPECT_EQ(pool.payload_bytes(), 0u);
  EXPECT_EQ(pool.block_bytes(), 0u);
  uint64_t resident = pool.slab_bytes();
  EXPECT_GT(resident, 0u);
  // A fresh allocation round of a *different* size class reuses the freed
  // slabs instead of growing the footprint.
  std::vector<uint8_t> blob(2000, 0xEE);
  CompHandle h = pool.Alloc(blob.data(), blob.size());
  EXPECT_EQ(pool.slab_bytes(), resident) << "freed slabs must be repurposed, not leaked";
  EXPECT_EQ(std::memcmp(pool.Data(h), blob.data(), blob.size()), 0);
}

TEST(TierCompPool, RoundsBlockSizeUpToTheClassStep) {
  CompPool pool;
  uint8_t byte = 0x7;
  pool.Alloc(&byte, 1);
  EXPECT_EQ(pool.block_bytes(), kTierClassStep);
  EXPECT_EQ(pool.payload_bytes(), 1u);
}

// -- Tier policy --------------------------------------------------------------

std::vector<uint8_t> CompressiblePage(uint8_t tag) {
  std::vector<uint8_t> page(kPageSize, 0);
  for (size_t i = 0; i < 64; ++i) {
    page[i] = static_cast<uint8_t>(tag + i);  // Unique head, zero tail: the
  }                                           // blob fits the smallest class.
  return page;
}

TEST(TierPolicy, AdmitTakeIsExclusiveAndKeepsContentAndDirtyBit) {
  CompressedTier tier(TierConfig{});
  auto page = CompressiblePage(1);
  uint32_t csize = 0;
  ASSERT_EQ(tier.AdmitPage(0x1000, page.data(), /*dirty=*/true, &csize),
            CompressedTier::Admit::kStored);
  EXPECT_GT(csize, 0u);
  EXPECT_LT(csize, kPageSize);
  EXPECT_TRUE(tier.Contains(0x1000));
  EXPECT_EQ(tier.stored_pages(), 1u);

  uint8_t out[kPageSize];
  bool dirty = false;
  ASSERT_TRUE(tier.Take(0x1000, out, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_EQ(std::memcmp(out, page.data(), kPageSize), 0);
  EXPECT_FALSE(tier.Contains(0x1000)) << "Take is the exclusive promotion path";
  EXPECT_EQ(tier.stored_pages(), 0u);
  EXPECT_FALSE(tier.Take(0x1000, out, &dirty));
}

TEST(TierPolicy, IncompressiblePagesAreRejected) {
  CompressedTier tier(TierConfig{});
  uint64_t s = 11;
  std::vector<uint8_t> rnd(kPageSize);
  for (uint8_t& b : rnd) {
    b = static_cast<uint8_t>(Rng(&s));
  }
  uint32_t csize = 0;
  EXPECT_EQ(tier.AdmitPage(0x1000, rnd.data(), false, &csize),
            CompressedTier::Admit::kIncompressible);
  EXPECT_FALSE(tier.Contains(0x1000));
}

TEST(TierPolicy, OldestFollowsAdmissionOrderAndRequeueDefers) {
  CompressedTier tier(TierConfig{});
  auto page = CompressiblePage(2);
  uint32_t csize = 0;
  tier.AdmitPage(0xA000, page.data(), true, &csize);
  tier.AdmitPage(0xB000, page.data(), false, &csize);
  tier.AdmitPage(0xC000, page.data(), true, &csize);

  uint64_t va = 0;
  bool dirty = false;
  ASSERT_TRUE(tier.Oldest(&va, &dirty));
  EXPECT_EQ(va, 0xA000u);
  EXPECT_TRUE(dirty);

  std::vector<uint64_t> dirty_batch;
  tier.CollectDirty(8, &dirty_batch);
  ASSERT_EQ(dirty_batch.size(), 2u);
  EXPECT_EQ(dirty_batch[0], 0xA000u) << "drain order must be oldest first";
  EXPECT_EQ(dirty_batch[1], 0xC000u);

  tier.Requeue(0xA000);  // Failed write-back: defer, don't spin.
  ASSERT_TRUE(tier.Oldest(&va, &dirty));
  EXPECT_EQ(va, 0xB000u);

  tier.MarkClean(0xC000);
  dirty_batch.clear();
  tier.CollectDirty(8, &dirty_batch);
  ASSERT_EQ(dirty_batch.size(), 1u);
  EXPECT_EQ(dirty_batch[0], 0xA000u);
}

TEST(TierPolicy, ReadmittingAPageReplacesItsContent) {
  CompressedTier tier(TierConfig{});
  auto a = CompressiblePage(3);
  auto b = CompressiblePage(77);
  uint32_t csize = 0;
  tier.AdmitPage(0x1000, a.data(), false, &csize);
  tier.AdmitPage(0x1000, b.data(), true, &csize);
  EXPECT_EQ(tier.stored_pages(), 1u);
  uint8_t out[kPageSize];
  bool dirty = false;
  ASSERT_TRUE(tier.Take(0x1000, out, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_EQ(std::memcmp(out, b.data(), kPageSize), 0);
}

TEST(TierPolicy, CorruptBlobIsDroppedOnTakeNotLeaked) {
  CompressedTier tier(TierConfig{});
  auto page = CompressiblePage(9);
  uint32_t csize = 0;
  ASSERT_EQ(tier.AdmitPage(0x1000, page.data(), /*dirty=*/true, &csize),
            CompressedTier::Admit::kStored);
  uint32_t n = 0;
  const uint8_t* blob = tier.BlobData(0x1000, &n);
  ASSERT_NE(blob, nullptr);
  // Simulate in-DRAM rot: a run of match tags whose distances reach before
  // the start of the output can never decompress to a full page.
  std::memset(const_cast<uint8_t*>(blob), 0x80, n);

  uint8_t out[kPageSize];
  bool dirty = false;
  EXPECT_FALSE(tier.Take(0x1000, out, &dirty));
  EXPECT_FALSE(tier.Contains(0x1000)) << "a corrupt entry must be dropped, not kept";
  EXPECT_EQ(tier.stored_pages(), 0u);
  EXPECT_EQ(tier.block_bytes(), 0u) << "the corrupt blob's pool blocks leaked";
  // The slot is reusable afterwards.
  ASSERT_EQ(tier.AdmitPage(0x1000, page.data(), false, &csize),
            CompressedTier::Admit::kStored);
  EXPECT_TRUE(tier.Take(0x1000, out, &dirty));
  EXPECT_EQ(std::memcmp(out, page.data(), kPageSize), 0);
}

TEST(TierPolicy, CollectDirtyMatchesAReferenceFilterOverAdmissionOrder) {
  // A random interleaving of every operation that changes an entry's place
  // or dirty flag. The reference keeps (va, dirty) in eviction order —
  // admissions and requeues append, everything else removes or flips — and
  // CollectDirty must return its dirty entries, oldest first, after each op.
  CompressedTier tier(TierConfig{});
  auto page = CompressiblePage(5);
  std::vector<std::pair<uint64_t, bool>> ref;
  auto find = [&](uint64_t va) {
    return std::find_if(ref.begin(), ref.end(), [va](const auto& p) { return p.first == va; });
  };
  uint64_t s = 29;
  uint8_t out[kPageSize];
  uint32_t csize = 0;
  int corrupt_takes = 0;
  for (int op = 0; op < 4000; ++op) {
    uint64_t va = 0x10000 + (Rng(&s) % 48) * kPageSize;
    auto it = find(va);
    switch (Rng(&s) % 6) {
      case 0: {  // Admit, dirty or clean (re-admission replaces and re-queues).
        bool dirty = Rng(&s) % 2 == 0;
        ASSERT_EQ(tier.AdmitPage(va, page.data(), dirty, &csize),
                  CompressedTier::Admit::kStored);
        if (it != ref.end()) {
          ref.erase(it);
        }
        ref.emplace_back(va, dirty);
        break;
      }
      case 1:
        tier.Requeue(va);
        if (it != ref.end()) {
          auto entry = *it;
          ref.erase(it);
          ref.push_back(entry);
        }
        break;
      case 2:
        tier.MarkClean(va);
        if (it != ref.end()) {
          it->second = false;
        }
        break;
      case 3: {
        bool dirty = false;
        EXPECT_EQ(tier.Take(va, out, &dirty), it != ref.end());
        if (it != ref.end()) {
          EXPECT_EQ(dirty, it->second);
          ref.erase(it);
        }
        break;
      }
      case 4:
        tier.Drop(va);
        if (it != ref.end()) {
          ref.erase(it);
        }
        break;
      case 5: {  // In-DRAM rot, then a Take that must drop the entry.
        uint32_t n = 0;
        const uint8_t* blob = tier.BlobData(va, &n);
        if (blob == nullptr) {
          break;
        }
        std::memset(const_cast<uint8_t*>(blob), 0x80, n);
        bool dirty = false;
        EXPECT_FALSE(tier.Take(va, out, &dirty));
        ref.erase(it);
        ++corrupt_takes;
        break;
      }
    }
    std::vector<uint64_t> want;
    for (const auto& [ref_va, dirty] : ref) {
      if (dirty) {
        want.push_back(ref_va);
      }
    }
    std::vector<uint64_t> got;
    tier.CollectDirty(SIZE_MAX, &got);
    ASSERT_EQ(got, want) << "op " << op;
    got.clear();
    tier.CollectDirty(3, &got);
    want.resize(std::min<size_t>(want.size(), 3));
    ASSERT_EQ(got, want) << "op " << op << " (batch of 3)";
    ASSERT_EQ(tier.stored_pages(), ref.size());
  }
  EXPECT_GT(corrupt_takes, 0);
}

TEST(TierPolicy, CapacityBudgetTracksBlockBytes) {
  TierConfig cfg;
  cfg.capacity_bytes = 2 * kTierClassStep;
  CompressedTier tier(cfg);
  auto page = CompressiblePage(4);
  uint32_t csize = 0;
  tier.AdmitPage(0x1000, page.data(), false, &csize);
  ASSERT_LE(csize, kTierClassStep) << "test page should land in the smallest class";
  EXPECT_FALSE(tier.OverCapacity());
  tier.AdmitPage(0x2000, page.data(), false, &csize);
  EXPECT_FALSE(tier.OverCapacity());
  tier.AdmitPage(0x3000, page.data(), false, &csize);
  EXPECT_TRUE(tier.OverCapacity());
  tier.Drop(0x1000);
  EXPECT_FALSE(tier.OverCapacity());
}

// -- Runtime integration ------------------------------------------------------

DilosConfig TierConfigured(uint64_t capacity_bytes = 32ULL << 20) {
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.tier.enabled = true;
  cfg.tier.capacity_bytes = capacity_bytes;
  return cfg;
}

void Populate(DilosRuntime& rt, uint64_t region, uint64_t pages, uint64_t salt = 0xD15C0) {
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p ^ salt);
  }
}

uint64_t VerifySweep(DilosRuntime& rt, uint64_t region, uint64_t pages,
                     uint64_t salt = 0xD15C0) {
  uint64_t errors = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ salt)) {
      ++errors;
    }
  }
  return errors;
}

TEST(TierRuntime, EvictionsLandInTheTierAndFaultsDecompressLocally) {
  Fabric fabric(CostModel::Default(), 1);
  DilosConfig cfg = TierConfigured();
  cfg.trace_capacity = 1 << 16;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  EXPECT_GT(rt.stats().tier_stored_pages, 0u) << "evictions should compress into the tier";
  bool saw_tier_pte = false;
  for (uint64_t p = 0; p < pages && !saw_tier_pte; ++p) {
    saw_tier_pte = PteTagOf(rt.page_table().Get(region + p * kPageSize)) == PteTag::kTier;
  }
  EXPECT_TRUE(saw_tier_pte);

  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_GT(rt.stats().tier_hits, 0u) << "the sweep must refault through the tier";
  EXPECT_GT(rt.tracer().Count(TraceEvent::kTierHit), 0u);
  EXPECT_GT(rt.tracer().Count(TraceEvent::kTierAdmit), 0u);
  EXPECT_GT(rt.stats().fault_breakdown.total_ns(LatComp::kDecompress), 0u);
}

TEST(TierRuntime, TierHitResolvesFasterThanARemoteFetch) {
  Fabric fabric(CostModel::Default(), 1);
  // Capacity for only a few compressed pages: old victims spill remote, so
  // the same run holds both tier-resident and remote cold pages to compare.
  DilosConfig cfg = TierConfigured(/*capacity_bytes=*/8 * kTierClassStep);
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_GT(rt.stats().tier_evictions, 0u) << "tier pressure should spill pages remote";

  uint64_t tier_va = 0, remote_va = 0;
  for (uint64_t p = 0; p < pages && (tier_va == 0 || remote_va == 0); ++p) {
    uint64_t va = region + p * kPageSize;
    PteTag tag = PteTagOf(rt.page_table().Get(va));
    if (tag == PteTag::kTier && tier_va == 0) {
      tier_va = va;
    } else if (tag == PteTag::kRemote && remote_va == 0) {
      remote_va = va;
    }
  }
  ASSERT_NE(tier_va, 0u);
  ASSERT_NE(remote_va, 0u);

  uint64_t t0 = rt.clock(0).now();
  rt.Read<uint64_t>(tier_va);
  uint64_t tier_ns = rt.clock(0).now() - t0;
  t0 = rt.clock(0).now();
  rt.Read<uint64_t>(remote_va);
  uint64_t remote_ns = rt.clock(0).now() - t0;
  EXPECT_LT(2 * tier_ns, remote_ns)
      << "tier hit " << tier_ns << " ns vs remote fetch " << remote_ns << " ns";
}

TEST(TierRuntime, IncompressibleVictimsBypassToTheRemotePath) {
  Fabric fabric(CostModel::Default(), 1);
  DilosRuntime rt(fabric, TierConfigured(), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  // Fill every byte of every page with pseudo-random content.
  uint64_t s = 5;
  for (uint64_t p = 0; p < pages; ++p) {
    for (uint64_t off = 0; off < kPageSize; off += 8) {
      rt.Write<uint64_t>(region + p * kPageSize + off, Rng(&s));
    }
  }
  EXPECT_GT(rt.stats().tier_bypass_incompressible, 0u);
  // And the content still round-trips through the remote path.
  s = 5;
  uint64_t errors = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    for (uint64_t off = 0; off < kPageSize; off += 8) {
      if (rt.Read<uint64_t>(region + p * kPageSize + off) != Rng(&s)) {
        ++errors;
      }
    }
  }
  EXPECT_EQ(errors, 0u);
}

TEST(TierRuntime, TierPressureEvictionsReachRemoteRedundancyBeforeDropping) {
  // Tiny tier: every admitted page is soon pushed remote. Crashing a replica
  // afterwards proves the write-backs really landed — the tier was never the
  // only copy of anything it dropped.
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg = TierConfigured(/*capacity_bytes=*/8 * kTierClassStep);
  cfg.replication = 2;
  cfg.recovery.enabled = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_GT(rt.stats().tier_evictions, 0u);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);

  fabric.CrashNode(0);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u)
      << "dropped tier entries must already sit on every replica";
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(TierRuntime, PartitionedWriteBacksKeepDirtyPagesInTheTier) {
  // Every write toward the (only) memory node is dropped: the deferred
  // write-backs can never land, so the tier must hold on to its dirty
  // entries (Requeue) instead of dropping its only copy.
  Fabric fabric(CostModel::Default(), 1);
  FaultPlan plan;
  plan.specs.push_back({0, FaultKind::kPartitionIn, 1.0, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  DilosConfig cfg = TierConfigured(/*capacity_bytes=*/8 * kTierClassStep);
  cfg.fault_seed = 21;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 96;  // Fits in frames + tier, nothing *must* go remote.
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u)
      << "content must survive in the tier when no write-back can land";
  EXPECT_GT(rt.tier()->stored_pages(), 0u);
  EXPECT_TRUE(rt.tier()->OverCapacity())
      << "with every write-back dropped, trimming must stall rather than drop data";
}

TEST(TierRuntime, CorruptBlobFallsBackToRemoteAndCountsTheDrop) {
  Fabric fabric(CostModel::Default(), 1);
  DilosConfig cfg = TierConfigured();
  cfg.trace_capacity = 1 << 16;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  // Pick a tier-resident page whose deferred write-back already drained:
  // its remote copy is current, so the fault must still read correct bytes
  // after the blob rots in DRAM.
  std::vector<uint64_t> dirty_vas;
  rt.tier()->CollectDirty(rt.tier()->stored_pages(), &dirty_vas);
  uint64_t victim = 0;
  for (uint64_t p = 0; p < pages && victim == 0; ++p) {
    uint64_t va = region + p * kPageSize;
    if (PteTagOf(rt.page_table().Get(va)) == PteTag::kTier &&
        std::find(dirty_vas.begin(), dirty_vas.end(), va) == dirty_vas.end()) {
      victim = va;
    }
  }
  ASSERT_NE(victim, 0u) << "expected a clean tier-resident page after populate";
  uint32_t n = 0;
  const uint8_t* blob = rt.tier()->BlobData(victim, &n);
  ASSERT_NE(blob, nullptr);
  std::memset(const_cast<uint8_t*>(blob), 0x80, n);  // In-DRAM rot.

  uint64_t p = (victim - region) / kPageSize;
  EXPECT_EQ(rt.Read<uint64_t>(victim), p ^ 0xD15C0)
      << "the remote copy must serve the fault once the blob is corrupt";
  EXPECT_EQ(rt.stats().tier_corrupt_drops, 1u);
  EXPECT_FALSE(rt.tier()->Contains(victim)) << "the corrupt entry must not linger";
  EXPECT_GT(rt.tracer().Count(TraceEvent::kTierCorrupt), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(TierRuntime, FreeRegionDropsTierEntries) {
  Fabric fabric(CostModel::Default(), 1);
  DilosRuntime rt(fabric, TierConfigured(), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  ASSERT_GT(rt.tier()->stored_pages(), 0u);
  rt.FreeRegion(region, pages * kPageSize);
  EXPECT_EQ(rt.tier()->stored_pages(), 0u) << "freed pages must not linger compressed";
}

TEST(TierRuntime, CapacityGainExceedsCompressionFootprint) {
  // Accounting sanity for the headline claim: stored payload is what the
  // tier holds uncompressed; block bytes is the DRAM it actually burns.
  Fabric fabric(CostModel::Default(), 1);
  DilosRuntime rt(fabric, TierConfigured(), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  ASSERT_GT(rt.tier()->stored_pages(), 0u);
  uint64_t logical = rt.tier()->stored_pages() * kPageSize;
  EXPECT_GE(logical, 2 * rt.tier()->block_bytes())
      << "mostly-zero pages should compress at least 2x even after class rounding";
}

// -- Chaos soak with the tier enabled -----------------------------------------

uint64_t SeedBase() {
  const char* env = std::getenv("DILOS_CHAOS_SEED_BASE");
  if (env != nullptr && env[0] != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

// The replication chaos soak from test_chaos.cc with the tier switched on and
// sized to stay under pressure (admissions, deferred write-backs, and
// tier-pressure evictions all run continuously through the fault windows).
// Asserts no read ever returns wrong bytes and no write is ever lost.
void TierChaosSoak(uint64_t seed) {
  Fabric fabric(CostModel::Default(), 3);
  FaultPlan plan;
  plan.specs.push_back({1, FaultKind::kCrash, 1.0, 1.0, 2 * kMs, 11 * kMs});
  plan.specs.push_back({2, FaultKind::kDelay, 1.0, 8.0, 4 * kMs, 14 * kMs});
  plan.specs.push_back({2, FaultKind::kTransient, 0.02, 1.0, 14'500'000, 17 * kMs});
  plan.specs.push_back({0, FaultKind::kPartitionOut, 1.0, 1.0, 18 * kMs, 20'500'000});
  plan.specs.push_back({-1, FaultKind::kBitFlip, 0.01, 1.0, 0, UINT64_MAX});
  plan.specs.push_back({-1, FaultKind::kStorageRot, 0.0005, 1.0, 12 * kMs, 14'500'000});
  fabric.set_fault_plan(plan);

  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.replication = 2;
  cfg.recovery.enabled = true;
  cfg.fault_seed = seed;
  cfg.pm.scrub_pages_per_tick = 64;
  cfg.tier.enabled = true;
  cfg.tier.capacity_bytes = 24 * kTierClassStep;  // Small: constant tier pressure.
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  uint64_t rng = seed * 0x9E3779B97F4A7C15ULL + 1;
  uint64_t wrong_reads = 0;
  uint64_t ops = 0;
  while (rt.clock(0).now() < 22 * kMs && ops < 600'000) {
    uint64_t p = Rng(&rng) % pages;
    if (Rng(&rng) % 4 == 0) {
      rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xD15C0);
    } else if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ 0xD15C0)) {
      ++wrong_reads;
    }
    ++ops;
  }
  for (uint64_t i = 0; i < 10; ++i) {
    rt.DriveRecovery(1'000'000);
  }
  for (uint64_t i = 0; i < 100 && !rt.RecoveryIdle(); ++i) {
    rt.DriveRecovery(1'000'000);
  }

  EXPECT_EQ(wrong_reads, 0u) << "fault_seed=" << seed << " (tier)";
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u) << "fault_seed=" << seed << " (tier)";
  EXPECT_EQ(rt.stats().failed_fetches, 0u) << "fault_seed=" << seed << " (tier)";
  EXPECT_GT(rt.stats().tier_hits, 0u) << "fault_seed=" << seed;
  EXPECT_GT(rt.stats().tier_evictions, 0u) << "fault_seed=" << seed;
}

TEST(TierChaosSoak, Survives32SeedsOfMixedFaultsWithZeroLostWrites) {
  uint64_t base = SeedBase();
  for (uint64_t s = base; s < base + 32; ++s) {
    TierChaosSoak(s);
    if (::testing::Test::HasFailure()) {
      break;  // First failing seed is the repro; don't bury it.
    }
  }
}

}  // namespace
}  // namespace dilos
