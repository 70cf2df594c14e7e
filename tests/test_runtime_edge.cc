// Edge-case tests for the DiLOS runtime: region teardown with in-flight
// IO, guide/replication interplay, shared-queue mode correctness, zero-byte
// and boundary accesses, and stats consistency after mixed activity.
#include <gtest/gtest.h>

#include <memory>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/guides/allocator_guide.h"
#include "src/sim/rng.h"

namespace dilos {
namespace {

TEST(RuntimeEdge, FreeRegionWithInFlightPrefetches) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint8_t>(region + p * kPageSize, 1);
  }
  // Touch the head so readahead has pages in flight, then free everything.
  rt.Read<uint8_t>(region);
  rt.FreeRegion(region, pages * kPageSize);
  // All frames are recoverable and the region reads as zero afterwards.
  for (uint64_t p = 0; p < pages; p += 17) {
    ASSERT_EQ(rt.Read<uint8_t>(region + p * kPageSize), 0u);
  }
}

TEST(RuntimeEdge, FreeRegionReleasesAllFrames) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 128 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(64 * kPageSize);
  for (uint64_t p = 0; p < 64; ++p) {
    rt.Write<uint8_t>(region + p * kPageSize, 1);
  }
  size_t used_before = rt.frame_pool().used();
  EXPECT_GE(used_before, 64u);
  rt.FreeRegion(region, 64 * kPageSize);
  EXPECT_EQ(rt.frame_pool().used(), used_before - 64);
}

TEST(RuntimeEdge, SharedQueueModeIsCorrectJustSlower) {
  // The HoL ablation config must still produce exact data.
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 32 * 4096;
  cfg.shared_queue = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p * 11);
  }
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p * 11);
  }
}

TEST(RuntimeEdge, GuidedPagingWithReplicationStaysConsistent) {
  // Vectorized cleaning must reach every replica; after failover the live
  // chunks still read back through action PTEs.
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg;
  cfg.local_mem_bytes = 96 * 4096;
  cfg.replication = 2;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  FarHeap heap(rt);
  AllocatorGuide guide(heap);
  rt.set_guide(&guide);

  std::vector<uint64_t> addrs;
  for (int i = 0; i < 8000; ++i) {
    uint64_t a = heap.Malloc(128);
    rt.Write<uint64_t>(a, static_cast<uint64_t>(i) * 5 + 1);
    addrs.push_back(a);
  }
  for (size_t i = 0; i < addrs.size(); ++i) {
    if (i % 4 != 0) {
      heap.Free(addrs[i]);
      addrs[i] = 0;
    }
  }
  // Spill, fail a node, verify the survivors through vectorized re-fetch.
  uint64_t filler = rt.AllocRegion(256 * kPageSize);
  for (int p = 0; p < 256; ++p) {
    rt.Write<uint8_t>(filler + static_cast<uint64_t>(p) * kPageSize, 1);
  }
  rt.router().FailNode(1);
  for (size_t i = 0; i < addrs.size(); ++i) {
    if (addrs[i] != 0) {
      ASSERT_EQ(rt.Read<uint64_t>(addrs[i]), static_cast<uint64_t>(i) * 5 + 1) << i;
    }
  }
}

TEST(RuntimeEdge, FreeRegionReleasesVectorCleanedActionSlots) {
  // A resident page the cleaner wrote back with a vectored (live-segment)
  // write owns an action-log slot until it is evicted; freeing the page
  // instead must hand that slot back, or every free leaks one.
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  FarHeap heap(rt);
  AllocatorGuide guide(heap);
  rt.set_guide(&guide);
  PageManager& pm = rt.page_manager();
  for (int i = 0; i < 200; ++i) {
    uint64_t a = heap.Malloc(128);  // One live chunk: a partial page.
    rt.Write<uint64_t>(a, static_cast<uint64_t>(i));
    uint64_t page = a & ~static_cast<uint64_t>(kPageSize - 1);
    *rt.page_table().Entry(page, /*create=*/false) &= ~kPteAccessed;  // Cold.
    uint64_t vectored0 = rt.stats().vectored_ops;
    pm.BackgroundTick(rt.clock(0).now());
    ASSERT_GT(rt.stats().vectored_ops, vectored0) << "round " << i << ": no vectored clean";
    rt.FreeRegion(page, kPageSize);
    heap.Free(a);
    ASSERT_LE(pm.action_slots_in_use(), 1u) << "round " << i;
  }
}

TEST(RuntimeEdge, SingleByteAndFullPagePins) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 16 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(4 * kPageSize);
  // A full-page write/read through the byte interface.
  std::vector<uint8_t> page(kPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i * 7);
  }
  rt.WriteBytes(region, page.data(), kPageSize);
  std::vector<uint8_t> back(kPageSize);
  rt.ReadBytes(region, back.data(), kPageSize);
  EXPECT_EQ(back, page);
  // Single bytes at the extreme offsets of a page.
  rt.Write<uint8_t>(region + kPageSize, 0xA5);
  rt.Write<uint8_t>(region + 2 * kPageSize - 1, 0x5A);
  EXPECT_EQ(rt.Read<uint8_t>(region + kPageSize), 0xA5);
  EXPECT_EQ(rt.Read<uint8_t>(region + 2 * kPageSize - 1), 0x5A);
}

TEST(RuntimeEdge, StatsConsistentAfterMixedActivity) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 48 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    uint64_t p = rng.NextBelow(pages);
    if (rng.NextDouble() < 0.5) {
      rt.Write<uint32_t>(region + p * kPageSize, static_cast<uint32_t>(i));
    } else {
      rt.Read<uint32_t>(region + p * kPageSize);
    }
  }
  const RuntimeStats& st = rt.stats();
  // Bytes fetched must cover all majors; evictions can't exceed the pages
  // that ever became resident.
  EXPECT_GE(st.bytes_fetched / kPageSize, st.major_faults);
  EXPECT_LE(st.evictions, st.total_faults() + st.prefetch_issued);
  EXPECT_EQ(st.bytes_written % kPageSize, 0u);  // No guide: page-granular.
  // The breakdown's event count equals the major faults recorded.
  EXPECT_EQ(st.fault_breakdown.events(), st.major_faults);
}

TEST(RuntimeEdge, ManyRegionsInterleaved) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 32 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  std::vector<uint64_t> regions;
  for (int r = 0; r < 16; ++r) {
    regions.push_back(rt.AllocRegion(16 * kPageSize));
  }
  for (int round = 0; round < 4; ++round) {
    for (size_t r = 0; r < regions.size(); ++r) {
      for (uint64_t p = 0; p < 16; ++p) {
        rt.Write<uint64_t>(regions[r] + p * kPageSize, (r << 8) | p | (round << 16));
      }
    }
  }
  for (size_t r = 0; r < regions.size(); ++r) {
    for (uint64_t p = 0; p < 16; ++p) {
      ASSERT_EQ(rt.Read<uint64_t>(regions[r] + p * kPageSize), (r << 8) | p | (3u << 16));
    }
  }
}

}  // namespace
}  // namespace dilos
