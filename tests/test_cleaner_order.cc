// Pins the page manager's victim order: which pages the background cleaner,
// the reclaimer and the compressed tier's write-back drain pick, and when.
//
// Each scenario runs a seeded workload and folds the ordered stream of
// kWriteback and kTierAdmit trace records (event, simulated time, page) into
// one FNV-1a hash. The expected values were recorded from a build whose
// cleaner found its victims by scanning the LRU list from the head on every
// tick, and whose tier drain walked the whole tier LRU; any change to the
// order in which dirty pages are cleaned, admitted or drained moves a hash.
//
// Together the scenarios turn local PTEs dirty through the Pin fast path,
// zero-fill, major faults (pipeline depth 1 and 4), action-PTE fetches, tier
// hits of dirty entries and quota reclaim's re-dirty — plus a total
// partition, under which dirty victims fail their write-back and are
// requeued.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/ddc_alloc/far_heap.h"
#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/guides/allocator_guide.h"
#include "src/memnode/fault_injector.h"

namespace dilos {
namespace {

// Folds the writeback / tier-admit stream into a hash, in record order.
class VictimHash : public TraceSink {
 public:
  void OnTrace(const TraceRecord& r) override {
    if (r.event != TraceEvent::kWriteback && r.event != TraceEvent::kTierAdmit) {
      return;
    }
    Mix(static_cast<uint64_t>(r.event));
    Mix(r.time_ns);
    Mix(r.page_va);
    ++events_;
    times_.push_back(r.time_ns);
  }

  uint64_t hash() const { return hash_; }
  uint64_t events() const { return events_; }
  uint64_t events_between(uint64_t begin_ns, uint64_t end_ns) const {
    return static_cast<uint64_t>(std::count_if(times_.begin(), times_.end(), [&](uint64_t t) {
      return t >= begin_ns && t < end_ns;
    }));
  }

 private:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }

  uint64_t hash_ = 0xCBF29CE484222325ULL;
  uint64_t events_ = 0;
  std::vector<uint64_t> times_;
};

uint64_t NextRand(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

// Populates `pages` pages with writes (zero-fill faults), then runs `ops`
// random accesses over them, about `write_pct` percent of them writes.
void RandomMix(DilosRuntime& rt, uint64_t region, uint64_t pages, uint64_t ops,
               uint64_t write_pct, uint64_t seed) {
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  uint64_t s = seed;
  for (uint64_t i = 0; i < ops; ++i) {
    uint64_t va = region + (NextRand(&s) % pages) * kPageSize + (NextRand(&s) % 64) * 8;
    if (NextRand(&s) % 100 < write_pct) {
      rt.Write<uint64_t>(va, i);
    } else {
      rt.Read<uint64_t>(va);
    }
  }
}

struct Outcome {
  uint64_t hash = 0;
  uint64_t events = 0;
};

Outcome Observe(DilosRuntime& rt, VictimHash& sink) {
  rt.Quiesce();
  rt.tracer().set_sink(nullptr);
  return Outcome{sink.hash(), sink.events()};
}

TEST(CleanerOrder, ReadaheadRandomMix) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 96 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  VictimHash sink;
  rt.tracer().set_sink(&sink);
  uint64_t region = rt.AllocRegion(320 * kPageSize);
  RandomMix(rt, region, 320, 20000, 30, 11);
  Outcome o = Observe(rt, sink);
  EXPECT_GT(o.events, 1000u);
  EXPECT_EQ(o.hash, 2131103738898211566ULL) << o.events << " events";
}

TEST(CleanerOrder, TierWithDirtyHitsAndDrains) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.tier.enabled = true;
  cfg.tier.capacity_bytes = 24 * kTierClassStep;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  VictimHash sink;
  rt.tracer().set_sink(&sink);
  uint64_t region = rt.AllocRegion(256 * kPageSize);
  RandomMix(rt, region, 256, 20000, 40, 23);
  Outcome o = Observe(rt, sink);
  EXPECT_GT(rt.stats().tier_hits, 0u);
  EXPECT_GT(rt.stats().tier_evictions, 0u);
  EXPECT_EQ(o.hash, 2025116882382617621ULL) << o.events << " events";
}

TEST(CleanerOrder, PipelinedFaults) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 80 * kPageSize;
  cfg.fault_pipeline.depth = 4;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  VictimHash sink;
  rt.tracer().set_sink(&sink);
  uint64_t region = rt.AllocRegion(288 * kPageSize);
  RandomMix(rt, region, 288, 20000, 35, 37);
  Outcome o = Observe(rt, sink);
  EXPECT_GT(rt.stats().fault_parks, 0u);
  EXPECT_EQ(o.hash, 4833321302789335644ULL) << o.events << " events";
}

TEST(CleanerOrder, GuidedActionFetches) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  FarHeap heap(rt);
  AllocatorGuide guide(heap);
  rt.set_guide(&guide);
  VictimHash sink;
  rt.tracer().set_sink(&sink);
  std::vector<uint64_t> chunks;
  for (uint64_t i = 0; i < 12000; ++i) {
    uint64_t a = heap.Malloc(128);
    rt.Write<uint64_t>(a, i);
    chunks.push_back(a);
  }
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (i % 4 != 0) {
      heap.Free(chunks[i]);
      chunks[i] = 0;
    }
  }
  uint64_t s = 41;
  for (uint64_t i = 0; i < 12000; ++i) {
    uint64_t a = chunks[(NextRand(&s) % (chunks.size() / 4)) * 4];
    if (NextRand(&s) % 2 == 0) {
      rt.Write<uint64_t>(a, i);
    } else {
      rt.Read<uint64_t>(a);
    }
  }
  Outcome o = Observe(rt, sink);
  EXPECT_GT(rt.stats().vectored_ops, 0u);
  EXPECT_EQ(o.hash, 10919134755713924556ULL) << o.events << " events";
}

TEST(CleanerOrder, QuotaReclaimRedirties) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 128 * kPageSize;
  cfg.tenants.enabled = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  TenantSpec spec;
  spec.name = "reclaimer";
  spec.quota_pages = 32;
  spec.policy = QuotaPolicy::kReclaimOwnColdest;
  int t = rt.CreateTenant(spec);
  VictimHash sink;
  rt.tracer().set_sink(&sink);
  const uint64_t pages = 140;  // Fits in local frames + quota.
  uint64_t region = rt.AllocRegion(pages * kPageSize, t);
  uint64_t s = 53;
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  uint64_t now = rt.clock(0).now();
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 40; ++i) {
      uint64_t va = region + (NextRand(&s) % pages) * kPageSize;
      if (NextRand(&s) % 3 == 0) {
        rt.Write<uint64_t>(va, static_cast<uint64_t>(i));
      } else {
        rt.Read<uint64_t>(va);
      }
    }
    now = std::max(now, rt.clock(0).now()) + 100'000;
    rt.page_manager().BackgroundTick(now);
  }
  Outcome o = Observe(rt, sink);
  EXPECT_GT(rt.stats().tenant_quota_reclaims, 0u);
  EXPECT_EQ(o.hash, 10171080519819981830ULL) << o.events << " events";
  rt.FreeRegion(region, pages * kPageSize);
  rt.RetireTenant(t);
}

TEST(CleanerOrder, TotalPartitionRequeuesDirtyVictims) {
  // Every write toward the only memory node is dropped for a window in the
  // middle of the run: dirty victims fail their write-back, keep their dirty
  // bit and go back to the LRU tail until the partition heals. Writes are
  // rare enough that clean victims remain for the reads meanwhile.
  constexpr uint64_t kCutNs = 2'000'000;
  constexpr uint64_t kHealNs = 3'000'000;
  Fabric fabric(CostModel::Default(), 1);
  FaultPlan plan;
  plan.specs.push_back({0, FaultKind::kPartitionIn, 1.0, 1.0, kCutNs, kHealNs});
  fabric.set_fault_plan(plan);
  DilosConfig cfg;
  cfg.local_mem_bytes = 96 * kPageSize;
  cfg.fault_seed = 7;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  VictimHash sink;
  rt.tracer().set_sink(&sink);
  uint64_t region = rt.AllocRegion(192 * kPageSize);
  RandomMix(rt, region, 192, 20000, 10, 67);
  Outcome o = Observe(rt, sink);
  EXPECT_GT(rt.clock(0).now(), kHealNs) << "the run must outlast the partition";
  EXPECT_GT(sink.events_between(kCutNs, kHealNs), 0u) << "no write-back met the partition";
  EXPECT_EQ(o.hash, 2859175451141839925ULL) << o.events << " events";
}

}  // namespace
}  // namespace dilos
