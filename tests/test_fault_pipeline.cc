// Async fault pipeline (src/sim/fiber.h + the pipelined demand-fault path in
// src/dilos/runtime.cc, DESIGN.md §12):
//
//  - FaultPipeline scheduler core: deterministic park/harvest ordering,
//    depth-limit backpressure, completion coalescing, external retire.
//  - Runtime integration: depth 1 reproduces the counts and clock recorded
//    from the former blocking fault path, for every prefetcher variant;
//    deeper pipelines overlap faults, batch installs, resume direct touches
//    of parked pages, quiesce cleanly, and survive region teardown.
//  - Telemetry: fault-park / fault-resume spans nest under the demand-fault
//    span; the counter-invariant checker catches impossible pipeline counts.
//  - Chaos: the 32-seed mixed-fault soak of test_chaos.cc rerun with the
//    pipeline at depth 8 — no wrong read, no lost write, no stuck fault.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "src/apps/seqrw.h"
#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/dilos/trend.h"
#include "src/memnode/fault_injector.h"
#include "src/sim/fiber.h"
#include "src/telemetry/invariants.h"

namespace dilos {
namespace {

constexpr uint64_t kMs = 1'000'000;

// -- Scheduler core -----------------------------------------------------------

TEST(FaultPipelineCore, DepthLimitRefusesAdmissionWhenFull) {
  FaultPipeline pipe(3);
  EXPECT_EQ(pipe.depth(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(pipe.Full());
    EXPECT_TRUE(pipe.Admit(0x1000 * (i + 1), static_cast<uint32_t>(i), i, 100 + i, false));
  }
  EXPECT_TRUE(pipe.Full());
  EXPECT_FALSE(pipe.Admit(0x9000, 9, 9, 999, false)) << "admission above depth must refuse";
  EXPECT_EQ(pipe.size(), 3u);
}

TEST(FaultPipelineCore, DepthZeroClampsToOne) {
  FaultPipeline pipe(0);
  EXPECT_EQ(pipe.depth(), 1u);
  EXPECT_TRUE(pipe.Admit(0x1000, 0, 0, 10, false));
  EXPECT_TRUE(pipe.Full());
}

TEST(FaultPipelineCore, OldestDoneNsTracksTheEarliestCompletion) {
  FaultPipeline pipe(4);
  EXPECT_EQ(pipe.OldestDoneNs(), UINT64_MAX) << "empty pipeline has no stall target";
  pipe.Admit(0x1000, 0, 0, 500, false);
  pipe.Admit(0x2000, 1, 1, 200, false);
  pipe.Admit(0x3000, 2, 2, 900, false);
  EXPECT_EQ(pipe.OldestDoneNs(), 200u);
}

TEST(FaultPipelineCore, HarvestReturnsRipeFibersInCompletionOrder) {
  FaultPipeline pipe(8);
  // Admission order != completion order: the link can reorder completions.
  pipe.Admit(0xA000, 0, 0, 300, false);
  pipe.Admit(0xB000, 1, 1, 100, true);
  pipe.Admit(0xC000, 2, 2, 200, false);
  pipe.Admit(0xD000, 3, 3, 900, false);  // Not ripe.
  std::vector<FaultFiber> out;
  EXPECT_EQ(pipe.HarvestUpTo(300, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].page_va, 0xB000u);
  EXPECT_EQ(out[1].page_va, 0xC000u);
  EXPECT_EQ(out[2].page_va, 0xA000u);
  EXPECT_TRUE(out[1].write == false && out[0].write == true) << "payload must ride along";
  for (const FaultFiber& f : out) {
    EXPECT_EQ(f.state, FiberState::kReady);
  }
  EXPECT_EQ(pipe.size(), 1u) << "the unripe fiber stays parked";
  EXPECT_EQ(pipe.parked()[0].page_va, 0xD000u);
}

TEST(FaultPipelineCore, HarvestBreaksDoneTiesByAdmissionOrder) {
  FaultPipeline pipe(8);
  pipe.Admit(0x3000, 0, 0, 100, false);
  pipe.Admit(0x1000, 1, 1, 100, false);
  pipe.Admit(0x2000, 2, 2, 100, false);
  std::vector<FaultFiber> out;
  pipe.HarvestUpTo(100, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].page_va, 0x3000u);
  EXPECT_EQ(out[1].page_va, 0x1000u);
  EXPECT_EQ(out[2].page_va, 0x2000u);
}

TEST(FaultPipelineCore, HarvestCoalescesAcrossCallsWithoutLosingFibers) {
  FaultPipeline pipe(4);
  pipe.Admit(0x1000, 0, 0, 100, false);
  pipe.Admit(0x2000, 1, 1, 400, false);
  std::vector<FaultFiber> out;
  EXPECT_EQ(pipe.HarvestUpTo(50, &out), 0u) << "nothing ripe yet";
  EXPECT_EQ(pipe.HarvestUpTo(100, &out), 1u);
  EXPECT_EQ(pipe.HarvestUpTo(100, &out), 0u) << "a fiber harvests exactly once";
  EXPECT_EQ(pipe.HarvestUpTo(400, &out), 1u);
  EXPECT_TRUE(pipe.empty());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].page_va, 0x1000u);
  EXPECT_EQ(out[1].page_va, 0x2000u);
}

TEST(FaultPipelineCore, RetireRemovesByPageAndFreesASlot) {
  FaultPipeline pipe(2);
  pipe.Admit(0x1000, 0, 0, 100, false);
  pipe.Admit(0x2000, 1, 1, 200, false);
  ASSERT_TRUE(pipe.Full());
  EXPECT_FALSE(pipe.Retire(0x5000)) << "unknown page retires nothing";
  EXPECT_TRUE(pipe.Retire(0x1000));
  EXPECT_FALSE(pipe.Full());
  EXPECT_EQ(pipe.OldestDoneNs(), 200u);
  EXPECT_FALSE(pipe.Retire(0x1000)) << "double retire must not find a ghost";
}

// -- Runtime integration ------------------------------------------------------

DilosConfig PipeConfig(uint32_t depth, uint64_t local_bytes = 64 * kPageSize) {
  DilosConfig cfg;
  cfg.local_mem_bytes = local_bytes;
  cfg.fault_pipeline.depth = depth;
  return cfg;
}

struct SweepOutcome {
  uint64_t major = 0, minor = 0, zero = 0, elapsed = 0, end_ns = 0;
};

// Populate + read sweep of `pages` through a 64-frame pool, returning the
// fault counts and timing of the measured sweep.
template <typename MakePf>
SweepOutcome RunSweep(uint32_t depth, MakePf make_prefetcher, uint64_t pages = 256) {
  Fabric fabric;
  DilosRuntime rt(fabric, PipeConfig(depth), make_prefetcher());
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xF1BE2);
  }
  rt.Quiesce();
  RuntimeStats& st = rt.stats();
  SweepOutcome o;
  uint64_t major0 = st.major_faults, minor0 = st.minor_faults, zero0 = st.zero_fill_faults;
  uint64_t t0 = rt.clock(0).now();
  for (uint64_t p = 0; p < pages; ++p) {
    EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p ^ 0xF1BE2) << "page " << p;
  }
  rt.Quiesce();
  o.major = st.major_faults - major0;
  o.minor = st.minor_faults - minor0;
  o.zero = st.zero_fill_faults - zero0;
  o.elapsed = rt.clock(0).now() - t0;
  o.end_ns = rt.MaxTimeNs();
  EXPECT_EQ(st.fault_inflight, 0u) << "quiesce must drain every parked fault";
  return o;
}

TEST(FaultPipelineRuntime, DepthOneIsBitIdenticalToBlockingForEveryVariant) {
  // The strongest form of the depth-1 gate: not just equal fault counts but
  // an identical simulated timeline, for all three prefetcher variants —
  // fiber-switch costs are only charged at depth > 1, so any divergence
  // here is a path that forgot the rule. The expected values were recorded
  // from the blocking fault path the runtime had before depth 1 replaced
  // it: {major, minor, zero, elapsed, end_ns} per variant (none, readahead,
  // trend).
  const SweepOutcome kBlocking[] = {{256, 0, 0, 809984, 1060864},
                                    {34, 188, 0, 254284, 505164},
                                    {43, 98, 0, 242856, 493736}};
  for (int v : {0, 1, 2}) {
    auto make = [v]() -> std::unique_ptr<Prefetcher> {
      if (v == 0) return std::make_unique<NullPrefetcher>();
      if (v == 1) return std::make_unique<ReadaheadPrefetcher>();
      return std::make_unique<TrendPrefetcher>();
    };
    const SweepOutcome& blocking = kBlocking[v];
    SweepOutcome d1 = RunSweep(1, make);
    EXPECT_EQ(blocking.major, d1.major) << "variant " << v;
    EXPECT_EQ(blocking.minor, d1.minor) << "variant " << v;
    EXPECT_EQ(blocking.zero, d1.zero) << "variant " << v;
    EXPECT_EQ(blocking.elapsed, d1.elapsed) << "variant " << v;
    EXPECT_EQ(blocking.end_ns, d1.end_ns) << "variant " << v;
  }
}

TEST(FaultPipelineRuntime, DeterministicAcrossIdenticalRuns) {
  auto make = [] { return std::make_unique<ReadaheadPrefetcher>(); };
  SweepOutcome a = RunSweep(8, make);
  SweepOutcome b = RunSweep(8, make);
  EXPECT_EQ(a.major, b.major);
  EXPECT_EQ(a.minor, b.minor);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.end_ns, b.end_ns);
}

TEST(FaultPipelineRuntime, OverlapBeatsBlockingAndAccountsEveryFiber) {
  Fabric fabric;
  DilosRuntime rt(fabric, PipeConfig(8), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  rt.Quiesce();
  RuntimeStats& st = rt.stats();
  uint64_t t0 = rt.clock(0).now();
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p);
  }
  rt.Quiesce();
  uint64_t piped_elapsed = rt.clock(0).now() - t0;

  EXPECT_GT(st.fault_parks, 0u);
  EXPECT_EQ(st.fault_inflight, 0u);
  EXPECT_EQ(st.fault_resumes, st.fault_parks) << "no fiber may leak or double-resume";
  EXPECT_LE(st.fault_batched_installs, st.fault_resumes);
  EXPECT_GT(st.fault_batched_installs, 0u);
  EXPECT_LE(st.fault_inflight_peak, 8u) << "depth is a hard bound";
  EXPECT_GT(st.fault_inflight_peak, 1u) << "depth 8 should actually overlap";
  for (int c = 0; c < rt.num_cores(); ++c) {
    EXPECT_EQ(rt.pipeline(c)->size(), 0u);
  }

  auto d1 = RunSweep(1, [] { return std::make_unique<NullPrefetcher>(); }, pages);
  EXPECT_LT(piped_elapsed, d1.elapsed) << "overlap must shorten the demand sweep";
}

TEST(FaultPipelineRuntime, DepthLimitBackpressureStallsAndNeverExceedsDepth) {
  auto run = [](uint32_t depth) {
    Fabric fabric;
    DilosRuntime rt(fabric, PipeConfig(depth), std::make_unique<NullPrefetcher>());
    const uint64_t pages = 256;
    uint64_t region = rt.AllocRegion(pages * kPageSize);
    for (uint64_t p = 0; p < pages; ++p) {
      rt.Write<uint64_t>(region + p * kPageSize, p);
    }
    rt.Quiesce();
    for (uint64_t p = 0; p < pages; ++p) {
      EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p);
    }
    rt.Quiesce();
    EXPECT_LE(rt.stats().fault_inflight_peak, depth);
    return rt.stats().fault_pipeline_stalls;
  };
  uint64_t stalls_d2 = run(2);
  uint64_t stalls_d16 = run(16);
  EXPECT_GT(stalls_d2, 0u) << "a shallow pipeline must hit its depth limit";
  EXPECT_LT(stalls_d16, stalls_d2) << "deepening must relieve the backpressure";
}

TEST(FaultPipelineRuntime, TouchingAParkedPageResumesItWithoutAMinorFault) {
  Fabric fabric;
  DilosRuntime rt(fabric, PipeConfig(4), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p ^ 0x77);
  }
  rt.Quiesce();
  RuntimeStats& st = rt.stats();

  // First touch of an evicted page parks its fault (the handler returns with
  // the PTE still kFetching at depth > 1)...
  ASSERT_EQ(rt.Read<uint64_t>(region), 0u ^ 0x77);
  ASSERT_EQ(st.fault_inflight, 1u);
  ASSERT_EQ(PteTagOf(rt.page_table().Get(region)), PteTag::kFetching);
  uint64_t minor0 = st.minor_faults;
  uint64_t resumes0 = st.fault_resumes;

  // ...so an immediate second touch finds the parked fiber and resumes it
  // directly. At depth 1 this touch would have been a plain local hit;
  // counting it a minor fault would skew cross-depth comparisons.
  EXPECT_EQ(rt.Read<uint64_t>(region), 0u ^ 0x77);
  EXPECT_EQ(st.minor_faults, minor0) << "a parked-page touch is a resume, not a minor fault";
  EXPECT_EQ(st.fault_resumes, resumes0 + 1);
  EXPECT_EQ(st.fault_inflight, 0u);
  EXPECT_EQ(PteTagOf(rt.page_table().Get(region)), PteTag::kLocal);
}

TEST(FaultPipelineRuntime, IdleCoreHarvestsAWholeRipeBatchInOnePoll) {
  Fabric fabric;
  DilosRuntime rt(fabric, PipeConfig(8), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  rt.Quiesce();
  RuntimeStats& st = rt.stats();

  // Park a few faults back to back, then idle the core past all of their
  // completions: the next fault's coalesced poll must install the whole ripe
  // backlog as one batch.
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p);
  }
  ASSERT_GT(st.fault_inflight, 1u) << "the back-to-back faults should have overlapped";
  uint64_t resumes0 = st.fault_resumes;
  uint64_t batches0 = st.fault_batched_installs;
  rt.clock(0).Advance(1 * kMs);  // Every parked completion is now in the past.
  EXPECT_EQ(rt.Read<uint64_t>(region + 100 * kPageSize), 100u);
  EXPECT_GE(st.fault_resumes - resumes0, 3u) << "the ripe backlog must drain";
  EXPECT_EQ(st.fault_batched_installs - batches0, 1u)
      << "one poll, one batched install, one TLB flush";
}

TEST(FaultPipelineRuntime, FreeRegionTearsDownParkedFaultsCleanly) {
  Fabric fabric;
  DilosRuntime rt(fabric, PipeConfig(8), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  rt.Quiesce();
  for (uint64_t p = 0; p < 4; ++p) {
    rt.Read<uint64_t>(region + p * kPageSize);
  }
  ASSERT_GT(rt.stats().fault_inflight, 0u);
  uint64_t free0 = rt.frame_pool().free_count();
  rt.FreeRegion(region, pages * kPageSize);
  EXPECT_EQ(rt.stats().fault_inflight, 0u) << "teardown must release the parked fibers";
  EXPECT_GT(rt.frame_pool().free_count(), free0) << "parked frames must return to the pool";
  rt.Quiesce();  // Must be a no-op, not a hang or a double-install.
  for (int c = 0; c < rt.num_cores(); ++c) {
    EXPECT_EQ(rt.pipeline(c)->size(), 0u);
  }
  // The region is reusable: first touches are zero-fill, not stale frames.
  uint64_t region2 = rt.AllocRegion(4 * kPageSize);
  EXPECT_EQ(rt.Read<uint64_t>(region2), 0u);
}

// -- Telemetry ----------------------------------------------------------------

TEST(FaultPipelineTelemetry, ParkAndResumeSpansNestUnderTheFaultSpan) {
  Fabric fabric;
  DilosConfig cfg = PipeConfig(8);
  cfg.telemetry.span_capacity = 8192;
  cfg.telemetry.check_invariants = true;  // The dtor audits the counters too.
  {
    DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
    const uint64_t pages = 128;
    uint64_t region = rt.AllocRegion(pages * kPageSize);
    for (uint64_t p = 0; p < pages; ++p) {
      rt.Write<uint64_t>(region + p * kPageSize, p);
    }
    rt.Quiesce();
    for (uint64_t p = 0; p < pages; ++p) {
      rt.Read<uint64_t>(region + p * kPageSize);
    }
    rt.Quiesce();

    std::vector<SpanRecord> spans = rt.tracer().SpanSnapshot();
    uint64_t parks = 0, resumes = 0, nested_parks = 0;
    for (const SpanRecord& s : spans) {
      if (s.kind == SpanKind::kFaultPark) {
        ++parks;
        // The park span opens inside its own demand fault's root span.
        for (const SpanRecord& root : spans) {
          if (root.id == s.parent && root.kind == SpanKind::kFault) {
            ++nested_parks;
            break;
          }
        }
      } else if (s.kind == SpanKind::kFaultResume) {
        ++resumes;
      }
    }
    EXPECT_GT(parks, 0u);
    EXPECT_GT(resumes, 0u);
    EXPECT_EQ(nested_parks, parks) << "every park span must nest under a fault span";
    EXPECT_EQ(rt.tracer().open_spans(), 0u) << "no span may leak open across quiesce";
  }
}

TEST(FaultPipelineTelemetry, InvariantCheckerCatchesImpossiblePipelineCounts) {
  RuntimeStats s{};
  EXPECT_TRUE(CheckStatsInvariants(s, false).empty());
  s.major_faults = 10;
  s.fault_parks = 8;
  s.fault_resumes = 6;
  s.fault_inflight = 2;
  s.fault_inflight_peak = 4;
  s.fault_batched_installs = 5;
  EXPECT_TRUE(CheckStatsInvariants(s, false).empty()) << "consistent counts must pass";

  RuntimeStats ghost = s;
  ghost.fault_resumes = 9;  // 9 resumes + 2 in flight > 8 parks.
  EXPECT_FALSE(CheckStatsInvariants(ghost, false).empty());
  RuntimeStats orphan = s;
  orphan.fault_parks = 11;  // Parks without major faults.
  EXPECT_FALSE(CheckStatsInvariants(orphan, false).empty());
  RuntimeStats phantom = s;
  phantom.fault_batched_installs = 7;  // More batches than resumes.
  EXPECT_FALSE(CheckStatsInvariants(phantom, false).empty());
}

// -- Chaos --------------------------------------------------------------------

uint64_t SeedBase() {
  const char* env = std::getenv("DILOS_CHAOS_SEED_BASE");
  if (env != nullptr && env[0] != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

// The mixed-fault soak of test_chaos.cc (crash + gray + flaky + partition
// windows, continuous wire flips, scoped storage rot) with the fault
// pipeline at depth 8: every demand fault in the load loop overlaps with
// its neighbors, and the retry/EC/heal machinery runs inside parked-fiber
// timelines. Asserts the same bar as the depth-1 soak — no wrong read, no
// lost acked write, no abandoned fetch — plus the pipeline's own: no stuck
// fault.
void PipelineChaosSoak(uint64_t seed, bool ec) {
  Fabric fabric(CostModel::Default(), ec ? 5 : 3);
  FaultPlan plan;
  plan.specs.push_back({1, FaultKind::kCrash, 1.0, 1.0, 2 * kMs, 11 * kMs});
  plan.specs.push_back({2, FaultKind::kDelay, 1.0, 8.0, 4 * kMs, 14 * kMs});
  plan.specs.push_back({2, FaultKind::kTransient, 0.02, 1.0, 14'500'000, 17 * kMs});
  plan.specs.push_back({0, FaultKind::kPartitionOut, 1.0, 1.0, 18 * kMs, 20'500'000});
  plan.specs.push_back({-1, FaultKind::kBitFlip, 0.01, 1.0, 0, UINT64_MAX});
  plan.specs.push_back({-1, FaultKind::kStorageRot, 0.0005, 1.0,
                        ec ? 1 * kMs : 12 * kMs, ec ? UINT64_MAX : 14'500'000});
  fabric.set_fault_plan(plan);

  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.recovery.enabled = true;
  cfg.fault_seed = seed;
  cfg.pm.scrub_pages_per_tick = 64;
  cfg.fault_pipeline.depth = 8;
  if (ec) {
    cfg.ec.enabled = true;
    cfg.ec.k = 2;
    cfg.ec.m = 2;
  } else {
    cfg.replication = 2;
  }
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xD15C0);
  }

  uint64_t rng = seed * 0x9E3779B97F4A7C15ULL + 1;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  uint64_t wrong_reads = 0;
  uint64_t ops = 0;
  while (rt.clock(0).now() < 22 * kMs && ops < 600'000) {
    uint64_t p = next() % pages;
    if (next() % 4 == 0) {
      rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xD15C0);
    } else if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ 0xD15C0)) {
      ++wrong_reads;
    }
    ++ops;
  }
  rt.Quiesce();
  for (int i = 0; i < 10; ++i) {
    rt.DriveRecovery(1'000'000);
  }
  for (int i = 0; i < 100 && !rt.RecoveryIdle(); ++i) {
    rt.DriveRecovery(1'000'000);
  }

  EXPECT_EQ(wrong_reads, 0u) << "fault_seed=" << seed << (ec ? " (ec)" : " (replication)");
  uint64_t sweep_errors = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ 0xD15C0)) {
      ++sweep_errors;
    }
  }
  rt.Quiesce();
  EXPECT_EQ(sweep_errors, 0u) << "fault_seed=" << seed << (ec ? " (ec)" : " (replication)");
  EXPECT_EQ(rt.stats().failed_fetches, 0u) << "fault_seed=" << seed;
  // No stuck fault: everything parked was eventually resumed or torn down.
  EXPECT_EQ(rt.stats().fault_inflight, 0u) << "fault_seed=" << seed;
  EXPECT_EQ(rt.stats().fault_resumes, rt.stats().fault_parks) << "fault_seed=" << seed;
  for (int c = 0; c < rt.num_cores(); ++c) {
    EXPECT_EQ(rt.pipeline(c)->size(), 0u) << "fault_seed=" << seed;
  }
  EXPECT_GT(rt.stats().fault_parks, 0u) << "the pipeline should actually have been used";
  EXPECT_GT(fabric.injector().injected_faults(), 0u) << "fault_seed=" << seed;
}

TEST(FaultPipelineChaos, PipelinedReplicationSurvives32SeedsOfMixedFaults) {
  uint64_t base = SeedBase();
  for (uint64_t s = base; s < base + 32; ++s) {
    PipelineChaosSoak(s, /*ec=*/false);
    if (::testing::Test::HasFailure()) {
      break;  // First failing seed is the repro; don't bury it.
    }
  }
}

TEST(FaultPipelineChaos, PipelinedErasureCodingSurvives8Seeds) {
  uint64_t base = SeedBase();
  for (uint64_t s = base; s < base + 8; ++s) {
    PipelineChaosSoak(s, /*ec=*/true);
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

}  // namespace
}  // namespace dilos
