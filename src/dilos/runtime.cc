#include "src/dilos/runtime.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/recovery/ec_read.h"
#include "src/recovery/integrity.h"

namespace dilos {

namespace {

uint64_t PageOf(uint64_t vaddr) { return vaddr & ~static_cast<uint64_t>(kPageSize - 1); }

}  // namespace

// Causality-tracking context handed to app-aware guides at fault time.
class RuntimeGuideContext : public GuideContext {
 public:
  RuntimeGuideContext(DilosRuntime& rt, int core, uint64_t start_ns)
      : rt_(rt), core_(core), cursor_ns_(start_ns) {}

  uint64_t SubpageRead(uint64_t vaddr, uint32_t len, void* dst) override {
    ShardRouter::ReadTarget t = rt_.router_.PickRead(core_, CommChannel::kGuide, vaddr);
    if (t.qp == nullptr) {
      uint64_t page_va = PageOf(vaddr);
      if (t.reconstruct &&
          rt_.EcDemandReconstruct(page_va, reinterpret_cast<uint64_t>(scratch_), nullptr,
                                  core_, CommChannel::kGuide, &cursor_ns_)) {
        std::memcpy(dst, scratch_ + (vaddr - page_va), len);
        rt_.stats_.subpage_fetches++;
        rt_.stats_.bytes_fetched += len;
        return cursor_ns_;
      }
      std::memset(dst, 0, len);  // Every replica is down; the chase ends here.
      return cursor_ns_;
    }
    Completion c = t.qp->PostRead(++rt_.wr_id_, reinterpret_cast<uint64_t>(scratch_), vaddr,
                                  len, cursor_ns_);
    if (c.status != WcStatus::kSuccess) {
      rt_.router_.ReportOpFailure(t.node, c.completion_time_ns);
      std::memset(scratch_, 0, len);
    }
    std::memcpy(dst, scratch_, len);
    rt_.stats_.subpage_fetches++;
    rt_.stats_.bytes_fetched += len;
    cursor_ns_ = c.completion_time_ns;
    return cursor_ns_;
  }

  bool PrefetchPage(uint64_t vaddr) override {
    // Full-page fetches ride the prefetch queue; the guide queue is kept
    // for subpage reads so the pointer-chasing chain is never serialized
    // behind its own page fills (Sec. 4.5: guides get separate queues).
    return rt_.StartPrefetch(PageOf(vaddr), cursor_ns_, core_, CommChannel::kPrefetch);
  }

  bool IsResident(uint64_t vaddr) override {
    Pte pte = rt_.pt_.Get(vaddr);
    PteTag tag = PteTagOf(pte);
    return tag == PteTag::kLocal || tag == PteTag::kFetching;
  }

  bool ReadResident(uint64_t vaddr, uint32_t len, void* dst) override {
    Pte pte = rt_.pt_.Get(vaddr);
    if (PteTagOf(pte) != PteTag::kLocal) {
      return false;
    }
    uint32_t off = static_cast<uint32_t>(vaddr & (kPageSize - 1));
    if (off + len > kPageSize) {
      return false;
    }
    auto frame = static_cast<uint32_t>(PtePayload(pte & ~(kPteAccessed | kPteDirty)));
    std::memcpy(dst, rt_.pool_.Data(frame) + off, len);
    return true;
  }

  uint64_t now() const override { return cursor_ns_; }

 private:
  DilosRuntime& rt_;
  int core_;
  uint64_t cursor_ns_;
  uint8_t scratch_[kPageSize];
};

DilosRuntime::DilosRuntime(Fabric& fabric, DilosConfig cfg,
                           std::unique_ptr<Prefetcher> prefetcher)
    : fabric_(fabric),
      cfg_(cfg),
      cost_(fabric.cost()),
      tracer_(cfg.trace_capacity),
      pool_(cfg.local_mem_bytes / kPageSize),
      clocks_(static_cast<size_t>(cfg.num_cores)),
      router_(fabric, cfg.num_cores, cfg.replication, cfg.shared_queue,
              cfg.recovery.spare_nodes, cfg.ec),
      pm_(pool_, pt_, router_, stats_, &tracer_,
          [&cfg] {
            // Each core keeps a readahead window in flight; the eager free
            // pool must cover all of them or prefetching self-throttles.
            PageManagerConfig pm = cfg.pm;
            uint64_t per_core = 32;
            if (pm.free_target < per_core * static_cast<uint64_t>(cfg.num_cores)) {
              pm.free_target = per_core * static_cast<uint64_t>(cfg.num_cores);
            }
            return pm;
          }(),
          &cost_),
      tracker_(cfg.hit_tracker_window) {
  prefetchers_.push_back(std::move(prefetcher));
  for (int c = 1; c < cfg.num_cores; ++c) {
    prefetchers_.push_back(prefetchers_[0]->Clone());
  }
  if (cfg_.fault_seed != 0) {
    fabric_.injector().Reseed(cfg_.fault_seed);
  }
  if (cfg_.tier.enabled) {
    tier_ = std::make_unique<CompressedTier>(cfg_.tier);
    pm_.set_tier(tier_.get());
  }
  if (cfg_.tenants.enabled) {
    tenants_ = std::make_unique<TenantRegistry>(kShardGranuleShift);
    router_.set_tenants(tenants_.get());  // Per-tenant placement salt.
    pm_.set_tenants(tenants_.get());      // Residency gauges + quota admission.
    if (cfg_.tenants.fair_share) {
      wire_sched_ = std::make_unique<FairLinkScheduler>(fabric_.num_nodes(), tenants_.get());
      fabric_.set_scheduler(wire_sched_.get());
    }
  }
  pipelines_.reserve(static_cast<size_t>(cfg_.num_cores));
  for (int c = 0; c < cfg_.num_cores; ++c) {
    pipelines_.emplace_back(cfg_.fault_pipeline.depth);
  }
  harvest_scratch_.reserve(pipelines_[0].depth());
  if (cfg_.recovery.enabled) {
    detector_ = std::make_unique<FailureDetector>(fabric_, router_, stats_, &tracer_,
                                                  cfg_.recovery.detector);
    repair_ = std::make_unique<RepairManager>(fabric_, router_, *detector_, stats_, &tracer_,
                                              cfg_.recovery.repair);
    migration_ = std::make_unique<MigrationManager>(fabric_, router_, *detector_, stats_,
                                                    &tracer_, cfg_.recovery.migration);
    size_t stride = tenants_ != nullptr ? TenantRegistry::kMaxTenants + 1 : 1;
    retry_budget_.assign(static_cast<size_t>(cfg_.num_cores) * stride,
                         RetryBudget{cfg_.recovery.retry_burst, 0});
    // Timed-out ops anywhere in the paging paths become detector evidence.
    router_.set_op_failure_observer(
        [this](int node, uint64_t now_ns) { detector_->OnOpTimeout(node, now_ns); });
    // A restored node answering probes again re-enters through the repair
    // manager: re-admitted as rebuilding, its stale granules refilled.
    detector_->set_readmit_observer(
        [this](int node, uint64_t now_ns) { repair_->OnNodeReadmitted(node, now_ns); });
  }
  if (tenants_ != nullptr && cfg_.tenants.hotness.enabled && migration_ != nullptr) {
    // The auto-migrator drives MigrateGranule from per-node serve-load EWMAs;
    // it watches the fabric's metrics *slot* so a registry installed below
    // (telemetry) is seen without re-wiring.
    hotness_ = std::make_unique<HotnessMonitor>(router_, *migration_, fabric_.metrics_slot(),
                                                stats_, &tracer_, cfg_.tenants.hotness,
                                                fabric_.num_nodes());
  }
  fault_scope_.resize(static_cast<size_t>(cfg_.num_cores));
  if (cfg_.telemetry.enabled()) {
    telemetry_ = std::make_unique<Telemetry>(cfg_.telemetry, fabric.num_nodes());
    metrics_registry_ = telemetry_->metrics();
    flight_ = telemetry_->flight();
    attr_ = telemetry_->attribution();
    slo_ = telemetry_->slo();
    if (attr_ != nullptr) {
      parked_slices_.resize(static_cast<size_t>(cfg_.num_cores) * pipelines_[0].depth());
    }
    if (metrics_registry_ != nullptr) {
      // QPs (created above, via the router/detector/repair ctors) hold a
      // pointer to the fabric's registry slot, so installing now covers them.
      fabric_.set_metrics(metrics_registry_);
      if (repair_ != nullptr) {
        // Per-node traffic becomes the rebuild-placement tiebreaker.
        repair_->set_metrics(metrics_registry_);
      }
      if (migration_ != nullptr) {
        migration_->set_metrics(metrics_registry_);
      }
      if (tenants_ != nullptr) {
        // Per-(node, tenant) serve/maint cells: the registry resolves each
        // op's remote address to its owning tenant.
        TenantRegistry* reg = tenants_.get();
        metrics_registry_->set_tenant_lookup(
            [reg](uint64_t addr) { return reg->TenantOfAddr(addr); });
      }
    }
    if (flight_ != nullptr) {
      tracer_.set_sink(flight_);
    }
    if (telemetry_->distributions() != nullptr) {
      stats_.fault_breakdown.set_distributions(telemetry_->distributions());
    }
    if (cfg_.telemetry.span_capacity != 0) {
      tracer_.EnableSpans(cfg_.telemetry.span_capacity);
    }
  }
}

DilosRuntime::~DilosRuntime() {
  if (wire_sched_ != nullptr && fabric_.scheduler() == wire_sched_.get()) {
    fabric_.set_scheduler(nullptr);  // The fabric may outlive this runtime.
  }
  if (telemetry_ == nullptr) {
    return;
  }
  if (metrics_registry_ != nullptr && fabric_.metrics() == metrics_registry_) {
    fabric_.set_metrics(nullptr);  // The fabric may outlive this runtime.
  }
  tracer_.set_sink(nullptr);
  stats_.fault_breakdown.set_distributions(nullptr);
  if (telemetry_->config().check_invariants) {
    std::vector<std::string> violations =
        CheckStatsInvariants(stats_, /*tier_enabled=*/tier_ != nullptr);
    if (tenants_ != nullptr) {
      // Tenancy shutdown audit: per-tenant gauges must sum to the global
      // totals, retired tenants must own nothing, quotas must hold.
      std::vector<std::string> tv = CheckTenantInvariants(tenants_->InvariantView());
      violations.insert(violations.end(), tv.begin(), tv.end());
    }
    if (!violations.empty()) {
      for (const std::string& v : violations) {
        std::fprintf(stderr, "RuntimeStats invariant violated: %s\n", v.c_str());
      }
      std::abort();
    }
  }
}

void DilosRuntime::RecoveryTick(uint64_t now) {
  if (detector_ != nullptr) {
    detector_->Tick(now);
  }
  if (repair_ != nullptr) {
    repair_->Tick(now);
  }
  if (migration_ != nullptr) {
    migration_->Tick(now);
  }
  if (hotness_ != nullptr) {
    hotness_->Tick(now);
  }
}

void DilosRuntime::Background(uint64_t now, uint64_t pinned_va) {
  pm_.BackgroundTick(now, pinned_va);
  RecoveryTick(now);
  if (flight_ != nullptr) {
    // Anomaly check on the background hook: the recorder dumps at (nearly)
    // the moment a loss counter first moves, not at shutdown.
    flight_->MaybeTrigger(now, stats_, metrics_registry_);
  }
}

void DilosRuntime::DriveRecovery(uint64_t duration_ns) {
  Clock& clk = clocks_[0];
  uint64_t end = clk.now() + duration_ns;
  uint64_t step = detector_ != nullptr ? detector_->config().probe_interval_ns : 10'000;
  if (step == 0) {
    step = 1'000;
  }
  while (clk.now() < end) {
    clk.Advance(step);
    RecoveryTick(clk.now());
  }
}

Completion DilosRuntime::DemandFetch(uint64_t page_va, uint64_t frame_addr,
                                     const std::vector<PageSegment>* segs, int core,
                                     CommChannel ch, uint64_t* cursor_ns) {
  uint32_t max_retries = detector_ != nullptr ? detector_->config().max_retries : 0;
  uint64_t backoff = detector_ != nullptr ? detector_->config().backoff_base_ns : 0;
  // Mismatch retries are budgeted separately from timeout retries: a wire
  // flip and a dead node are different failures and one must not starve the
  // other's recovery path. The budget is deliberately generous — wire flips
  // on successive reads are independent, so each extra re-read multiplies
  // the abandon probability down by the flip rate, while the cost of a
  // retry is one page read. Abandoning surfaces a zero-filled page, so only
  // a copy that mismatches persistently (stored rot with every partner
  // unreachable) should exhaust it.
  constexpr uint32_t kMaxMismatchRetries = 8;
  Completion c{0, WcStatus::kTimeout, *cursor_ns};
  uint32_t timeout_attempts = 0;
  uint32_t mismatch_attempts = 0;
  int exclude = -1;        // Node whose stored copy proved corrupt.
  int last_mismatch = -1;  // Node whose last arrival failed verification.
  bool poisoned = false;   // The frame currently holds unverified bytes.
  bool tried_rebuild_target = false;
  while (timeout_attempts <= max_retries && mismatch_attempts <= kMaxMismatchRetries) {
    ShardRouter::ReadTarget t = router_.PickRead(core, ch, page_va, exclude);
    bool last_resort = false;  // This attempt reads the uncommitted rebuild target.
    if (t.reconstruct) {
      // EC steering: the single copy is unreadable, corrupt, or on a suspect
      // node — decode from survivors first; t.qp (a suspect copy, if any)
      // is the fallback when fewer than k members are readable.
      uint64_t ec_start_ns = *cursor_ns;
      bool decoded = EcDemandReconstruct(page_va, frame_addr, segs, core, ch, cursor_ns);
      // The decode delta is stamped here at the demand call site, not inside
      // EcDemandReconstruct: guide contexts reconstruct on private cursors
      // with no fault in flight.
      AttrAdd(core, FaultPhase::kEcDecode, *cursor_ns - ec_start_ns);
      if (decoded) {
        if (exclude >= 0 && segs == nullptr) {
          HealCorruptReplica(page_va, exclude, reinterpret_cast<const uint8_t*>(frame_addr),
                             *cursor_ns, core);
        }
        return Completion{wr_id_, WcStatus::kSuccess, *cursor_ns};
      }
    }
    if (t.qp == nullptr) {
      if (exclude < 0) {
        break;  // No readable replica left at all.
      }
      int target = segs == nullptr && !tried_rebuild_target
                       ? router_.RebuildTarget(ShardRouter::GranuleOf(page_va))
                       : -1;
      if (target >= 0) {
        // Excluding the corrupt copy left only the granule's uncommitted
        // rebuild target, which serves no reads yet but may already hold a
        // current copy (the repair fill, or a write-back racing it). Read
        // it once, as a last resort; its bytes are accepted only if the
        // target stores a checksum for the page, they verify against it,
        // and the copy's write generation is current.
        tried_rebuild_target = true;
        last_resort = true;
        t = ShardRouter::ReadTarget{router_.NodeQp(core, ch, target), target, /*degraded=*/true};
      } else {
        // Excluding the corrupt copy left nothing to read (its partners are
        // dead or partitioned). A copy whose arrivals mismatched may still
        // be flips on the wire, not rot in the store — un-exclude it and
        // keep re-reading on the remaining mismatch budget rather than
        // abandoning the fetch.
        exclude = -1;
        last_mismatch = -1;
        continue;
      }
    }
    uint32_t attempt_span = tracer_.BeginSpan(SpanKind::kFetchAttempt, *cursor_ns, page_va,
                                              static_cast<uint32_t>(t.node));
    uint64_t post_ns = *cursor_ns;
    if (segs == nullptr) {
      c = t.qp->PostRead(++wr_id_, frame_addr, page_va, kPageSize, *cursor_ns);
    } else {
      WorkRequest wr;
      wr.wr_id = ++wr_id_;
      wr.opcode = RdmaOpcode::kRead;
      wr.rkey = t.qp->remote_rkey();
      for (const PageSegment& s : *segs) {
        wr.local.push_back({frame_addr + s.offset, s.length});
        wr.remote.push_back({page_va + s.offset, s.length});
      }
      c = t.qp->PostSend(wr, *cursor_ns);
    }
    *cursor_ns = c.completion_time_ns;
    tracer_.EndSpan(attempt_span, *cursor_ns);
    if (attr_ != nullptr && *cursor_ns > post_ns) {
      // Split this attempt between scheduler-lane queueing and the wire
      // itself using the QP's breakdown of the post we just issued
      // (read-after-post is safe: the simulator is single-threaded).
      uint64_t total = *cursor_ns - post_ns;
      uint64_t lane = t.qp->last_wire_breakdown().lane_ns;
      lane = lane < total ? lane : total;
      AttrAdd(core, FaultPhase::kLaneWait, lane);
      AttrAdd(core, FaultPhase::kWire, total - lane);
    }
    if (c.status == WcStatus::kSuccess) {
      const uint64_t* sum =
          segs == nullptr ? fabric_.node(t.node).store().FindChecksum(page_va >> kPageShift)
                          : nullptr;
      if (segs == nullptr &&
          !VerifyPageBytes(sum, reinterpret_cast<const uint8_t*>(frame_addr))) {
        // Corrupt arrival. First mismatch from a node: assume a wire flip
        // and re-read (possibly the same replica). A second mismatch from
        // the same node means its *stored* copy rotted: exclude it, fetch
        // from another replica (or EC survivors), then heal it.
        stats_.checksum_mismatches++;
        stats_.refetches++;
        ++mismatch_attempts;
        poisoned = true;
        tracer_.Record(*cursor_ns, TraceEvent::kChecksumMismatch, page_va, /*detail=*/0);
        if (t.node == last_mismatch) {
          exclude = t.node;
        }
        last_mismatch = t.node;
        continue;
      }
      if (segs == nullptr && sum == nullptr &&
          (last_resort || (exclude < 0 && ReplicaHasChecksumElsewhere(page_va, t.node)))) {
        // Unverifiable arrival from a replica that should have been cleaned:
        // some other replica holds a checksum for this page, so a full
        // write-back happened — this copy missed it (dropped by a partition
        // or a transient fault). Its bytes are stale or zero; steer to a
        // verifiable copy instead of trusting them. A last-resort rebuild
        // target is trusted only with a checksum: its fill may not have
        // reached this page yet.
        stats_.refetches++;
        ++mismatch_attempts;
        poisoned = true;
        tracer_.Record(*cursor_ns, TraceEvent::kChecksumMismatch, page_va,
                       /*detail=*/2);  // 2 = unverifiable copy bypassed.
        exclude = t.node;
        continue;
      }
      if (PageIsStale(fabric_.node(t.node).store(), page_va,
                      router_.PageGeneration(page_va))) {
        // Verified-but-stale arrival: the copy's checksum matches its bytes,
        // but its write generation lags the cleaner's expected one — it
        // missed at least one full write-back round (dropped behind a
        // partition). Steer to a fresh replica or the EC survivors; the
        // successful fetch then heals this copy with current bytes and
        // generation. Generations are pure store-side metadata, so unlike
        // the checksum checks above this applies to vectored (action-PTE)
        // refetches too — only the byte-level heal stays full-page-only.
        stats_.stale_copies_detected++;
        stats_.refetches++;
        ++mismatch_attempts;
        poisoned = true;
        tracer_.Record(*cursor_ns, TraceEvent::kStaleCopy, page_va,
                       static_cast<uint32_t>(t.node));
        exclude = t.node;
        continue;
      }
      poisoned = false;
      if (detector_ != nullptr) {
        detector_->OnOpSuccess(t.node, *cursor_ns);
      }
      if (t.degraded) {
        stats_.degraded_reads++;
        tracer_.Record(*cursor_ns, TraceEvent::kDegradedRead, page_va,
                       static_cast<uint32_t>(t.node));
      }
      if (t.forwarded) {
        // This read raced a migration cutover and was redirected by the
        // forwarding window instead of failing against the old mapping.
        stats_.migration_forwards++;
        tracer_.Record(*cursor_ns, TraceEvent::kMigrateForward, page_va,
                       static_cast<uint32_t>(t.node));
      }
      if (exclude >= 0 && segs == nullptr) {
        HealCorruptReplica(page_va, exclude, reinterpret_cast<const uint8_t*>(frame_addr),
                           *cursor_ns, core);
      }
      return c;
    }
    ++timeout_attempts;
    if (!retry_budget_.empty()) {
      // Per-core retry token bucket: a long partition degrades to failover
      // instead of a retry storm. The timeouts already burned fed the
      // detector its strikes — by the time a (generous) bucket drains, the
      // node is declared dead and PickRead steers away without retrying —
      // so suppressing the remaining retries loses no evidence.
      // With tenancy enabled the bucket is per (core, tenant) and the refill
      // period is the tenant's weight share — a partition hammered by one
      // tenant cannot drain another tenant's retry budget.
      RetryBudget& rb = retry_budget_[RetryIndex(core, page_va)];
      uint64_t refill_ns = RetryRefillNs(page_va);
      if (refill_ns > 0 && *cursor_ns > rb.last_refill_ns) {
        uint64_t earned = (*cursor_ns - rb.last_refill_ns) / refill_ns;
        if (earned > 0) {
          rb.tokens = std::min<uint64_t>(rb.tokens + earned, cfg_.recovery.retry_burst);
          rb.last_refill_ns += earned * refill_ns;
        }
      }
      if (rb.tokens == 0) {
        stats_.fault_retries_suppressed++;
        router_.ReportOpFailure(t.node, *cursor_ns);
        break;
      }
      --rb.tokens;
    }
    stats_.fetch_retries++;
    if (metrics_registry_ != nullptr) {
      // The choke point saw the individual timed-out post; the *decision* to
      // retry is runtime-level and attributed here.
      metrics_registry_->OnRetry(t.node, QpClassForChannel(ch));
    }
    router_.ReportOpFailure(t.node, *cursor_ns);
    uint32_t backoff_span =
        tracer_.BeginSpan(SpanKind::kRetryBackoff, *cursor_ns, page_va, timeout_attempts);
    uint64_t backoff_ns = backoff << (timeout_attempts - 1);  // Exponential backoff.
    *cursor_ns += backoff_ns;
    AttrAdd(core, FaultPhase::kBackoff, backoff_ns);
    tracer_.EndSpan(backoff_span, *cursor_ns);
  }
  stats_.failed_fetches++;
  if (poisoned && segs == nullptr) {
    // Bytes that failed verification are never surfaced: zero the frame and
    // report the fetch failed (the caller's !kSuccess path zeroes too).
    std::memset(reinterpret_cast<uint8_t*>(frame_addr), 0, kPageSize);
    c.status = WcStatus::kTimeout;
  }
  return c;
}

void DilosRuntime::HealCorruptReplica(uint64_t page_va, int node, const uint8_t* good,
                                      uint64_t issue_ns, int core) {
  if (node < 0) {
    return;
  }
  if (!router_.Readable(node, ShardRouter::GranuleOf(page_va))) {
    return;  // Died or went into rebuild meanwhile; the repair manager owns it.
  }
  PageStore& store = fabric_.node(node).store();
  // The healed copy carries the current expected generation: the bytes we
  // write are the ones the successful (fresh) fetch verified.
  uint32_t heal_span = tracer_.BeginSpan(SpanKind::kHeal, issue_ns, page_va,
                                         static_cast<uint32_t>(node));
  Completion c = WritePageChecked(router_.NodeQp(/*core=*/0, CommChannel::kManager, node),
                                  store, page_va, good, PageChecksum(good), issue_ns, &wr_id_,
                                  stats_, &tracer_, router_.PageGeneration(page_va));
  tracer_.EndSpan(heal_span, c.completion_time_ns);
  // kHeal is off-path by construction: the heal write is posted at the
  // demand fetch's completion time without advancing the fault cursor, so
  // it never extends the faulting thread's latency.
  AttrAdd(core, FaultPhase::kHeal,
          c.completion_time_ns > issue_ns ? c.completion_time_ns - issue_ns : 0);
  if (c.status != WcStatus::kSuccess) {
    router_.ReportOpFailure(node, c.completion_time_ns);
    return;
  }
  stats_.checksum_heals++;
  tracer_.Record(c.completion_time_ns, TraceEvent::kChecksumHeal, page_va,
                 static_cast<uint32_t>(node));
}

bool DilosRuntime::ReplicaHasChecksumElsewhere(uint64_t page_va, int except) {
  router_.ReplicaNodes(page_va, &replica_scratch_);
  uint64_t granule = ShardRouter::GranuleOf(page_va);
  for (int n : replica_scratch_) {
    if (n != except && router_.Readable(n, granule) &&
        fabric_.node(n).store().HasChecksum(page_va >> kPageShift)) {
      return true;
    }
  }
  return false;
}

bool DilosRuntime::EcDemandReconstruct(uint64_t page_va, uint64_t frame_addr,
                                       const std::vector<PageSegment>* segs, int core,
                                       CommChannel ch, uint64_t* cursor_ns) {
  uint64_t granule = ShardRouter::GranuleOf(page_va);
  uint64_t stripe = router_.EcStripeOf(granule);
  int member = router_.EcMemberOf(granule);
  uint32_t page_idx = static_cast<uint32_t>((page_va & (kShardGranuleBytes - 1)) >> kPageShift);
  uint8_t page[kPageSize];
  uint32_t decode_span = tracer_.BeginSpan(SpanKind::kEcDecode, *cursor_ns, page_va,
                                           static_cast<uint32_t>(member));
  if (!EcReconstructPage(router_, cost_, core, ch, stripe, member, page_idx, page, cursor_ns,
                         &wr_id_, stats_, &tracer_)) {
    tracer_.EndSpan(decode_span, *cursor_ns);
    return false;
  }
  tracer_.EndSpan(decode_span, *cursor_ns);
  uint8_t* dst = reinterpret_cast<uint8_t*>(frame_addr);
  if (segs == nullptr) {
    std::memcpy(dst, page, kPageSize);
  } else {
    for (const PageSegment& s : *segs) {
      std::memcpy(dst + s.offset, page + s.offset, s.length);
    }
  }
  // A reconstruction reads k survivor pages where a healthy fetch reads one;
  // the caller accounts the first page, the fan-out surplus lands here.
  stats_.bytes_fetched +=
      static_cast<uint64_t>(router_.ec_codec().k() - 1) * kPageSize;
  stats_.ec_degraded_reads++;
  stats_.degraded_reads++;
  tracer_.Record(*cursor_ns, TraceEvent::kDegradedRead, page_va,
                 static_cast<uint32_t>(member));
  return true;
}

uint64_t DilosRuntime::AllocRegion(uint64_t bytes) {
  uint64_t base = next_region_;
  uint64_t pages = (bytes + kPageSize - 1) / kPageSize;
  next_region_ += (pages + 16) * kPageSize;  // Guard gap between regions.
  return base;
}

uint64_t DilosRuntime::AllocRegion(uint64_t bytes, int tenant) {
  // Granule-aligned base and span: BindRange maps whole granules to the
  // tenant, so a granule shared with a neighbor would mis-attribute pages.
  next_region_ = (next_region_ + kShardGranuleBytes - 1) & ~(kShardGranuleBytes - 1);
  uint64_t base = next_region_;
  uint64_t span = (bytes + kShardGranuleBytes - 1) & ~(kShardGranuleBytes - 1);
  next_region_ += span + 16 * kPageSize;  // Guard gap between regions.
  if (tenants_ != nullptr && tenant >= 0) {
    tenants_->BindRange(base, span, tenant);
  }
  return base;
}

void DilosRuntime::FreeRegion(uint64_t addr, uint64_t bytes) {
  uint64_t end = addr + bytes;
  for (uint64_t page_va = PageOf(addr); page_va < end; page_va += kPageSize) {
    Pte* e = pt_.Entry(page_va, /*create=*/false);
    if (e == nullptr) {
      continue;
    }
    if (tenants_ != nullptr) {
      // Freed content is no longer stored on the tenant's behalf: release
      // its quota slot (no-op for never-charged pages).
      tenants_->Uncharge(page_va);
    }
    switch (PteTagOf(*e)) {
      case PteTag::kLocal:
        pool_.Free(static_cast<uint32_t>(PtePayload(*e & ~(kPteAccessed | kPteDirty))));
        pm_.OnUnmapped(page_va);
        break;
      case PteTag::kFetching: {
        // Let the in-flight fill land in its frame, then drop it.
        auto it = inflight_.find(page_va);
        if (it != inflight_.end()) {
          pool_.Free(it->second.frame);
          if (it->second.demand && RetireParked(page_va)) {
            stats_.fault_inflight--;  // Torn down, not resumed.
            DropParkedSlice(page_va);  // Never installed; nothing to attribute.
          }
          inflight_.erase(it);
        }
        break;
      }
      case PteTag::kAction:
        pm_.ReleaseAction(PtePayload(*e));
        break;
      case PteTag::kTier:
        tier_->Drop(page_va);  // Freed content needs no write-back.
        break;
      case PteTag::kRemote:
      case PteTag::kEmpty:
        break;
    }
    *e = 0;
  }
}

uint64_t DilosRuntime::MaxTimeNs() const {
  uint64_t t = 0;
  for (const Clock& c : clocks_) {
    t = c.now() > t ? c.now() : t;
  }
  return t;
}

bool DilosRuntime::RetireParked(uint64_t page_va) {
  for (FaultPipeline& p : pipelines_) {
    if (p.Retire(page_va)) {
      return true;
    }
  }
  return false;
}

uint32_t DilosRuntime::BeginFault(int core, uint64_t page_va, uint64_t entry_ns,
                                  uint64_t span_now) {
  FaultScope& s = fault_scope_[static_cast<size_t>(core)];
  if (s.depth++ == 0) {
    s.span = tracer_.BeginSpan(SpanKind::kFault, span_now, page_va);
    s.page_va = page_va;
    s.moved = false;
    if (attr_ != nullptr) {
      s.slice.Clear();
      s.slice.start_ns = entry_ns;
    }
  }
  return s.span;
}

void DilosRuntime::EndFault(int core, uint64_t now) {
  FaultScope& s = fault_scope_[static_cast<size_t>(core)];
  if (s.depth == 0 || --s.depth != 0) {
    return;  // Inner handler of a retried fault; the outermost scope owns it.
  }
  tracer_.EndSpan(s.span, now);
  s.span = 0;
  if (attr_ != nullptr && !s.moved) {
    CommitFaultSlice(s.slice, s.page_va, now);
  }
}

void DilosRuntime::AttrAdd(int core, FaultPhase p, uint64_t dt) {
  if (attr_ == nullptr || dt == 0) {
    return;
  }
  FaultScope& s = fault_scope_[static_cast<size_t>(core)];
  if (s.depth == 0) {
    return;  // Guide-context / background work with no fault in flight.
  }
  if (s.moved) {
    // The fault already parked into the pipeline; late stamps (the
    // depth-limit stall at end of handler) chase the parked slice.
    ParkedSlice* ps = FindParkedSlice(s.page_va);
    if (ps != nullptr) {
      ps->slice.Add(p, dt);
    }
    return;
  }
  s.slice.Add(p, dt);
}

void DilosRuntime::CommitFaultSlice(const FaultSlice& slice, uint64_t page_va,
                                    uint64_t end_ns) {
  uint64_t e2e = end_ns >= slice.start_ns ? end_ns - slice.start_ns : 0;
  int tenant = tenants_ != nullptr ? tenants_->TenantOfAddr(page_va) : -1;
  attr_->Commit(tenant, slice, e2e);
  if (slo_ != nullptr && slo_->Observe(tenant, e2e, end_ns)) {
    tracer_.Record(end_ns, TraceEvent::kSloBreach, page_va,
                   tenant < 0 ? 0 : static_cast<uint32_t>(tenant));
    if (flight_ != nullptr) {
      // A burn-rate breach is exactly the moment the flight recorder exists
      // for: dump the recent window plus the attribution/SLO snapshot that
      // says *where* the latency went.
      std::string extra = attr_->Report();
      extra += slo_->Report();
      flight_->ForceDump(end_ns, stats_, metrics_registry_, "slo-breach", extra);
    }
  }
}

DilosRuntime::ParkedSlice* DilosRuntime::FindParkedSlice(uint64_t page_va) {
  for (ParkedSlice& p : parked_slices_) {
    if (p.used && p.page_va == page_va) {
      return &p;
    }
  }
  return nullptr;
}

void DilosRuntime::ParkFaultSlice(int core, uint64_t page_va, uint64_t done_ns) {
  FaultScope& s = fault_scope_[static_cast<size_t>(core)];
  if (s.depth == 0) {
    return;
  }
  // The scope hands its slice to the pipeline even when attribution is off
  // in the narrow sense (attr_ null => pool is empty and the loop is a
  // no-op); `moved` still flips so EndFault knows not to commit.
  for (ParkedSlice& p : parked_slices_) {
    if (!p.used) {
      p.used = true;
      p.page_va = page_va;
      p.done_ns = done_ns;
      p.slice = s.slice;
      s.moved = true;
      return;
    }
  }
  // Pool exhausted (cannot happen: sized cores x depth, the pipeline admits
  // at most depth fibers per core). Drop attribution rather than misattribute.
  s.moved = true;
}

void DilosRuntime::DropParkedSlice(uint64_t page_va) {
  if (attr_ == nullptr) {
    return;
  }
  ParkedSlice* p = FindParkedSlice(page_va);
  if (p != nullptr) {
    p->used = false;
  }
}

void DilosRuntime::HarvestFaultPipeline(int core, uint64_t now) {
  FaultPipeline& pipe = pipelines_[static_cast<size_t>(core)];
  harvest_scratch_.clear();
  if (pipe.HarvestUpTo(now, &harvest_scratch_) == 0) {
    return;
  }
  Clock& clk = clocks_[static_cast<size_t>(core)];
  LatencyBreakdown& bd = stats_.fault_breakdown;
  uint32_t resume_span =
      tracer_.BeginSpan(SpanKind::kFaultResume, clk.now(), harvest_scratch_.front().page_va,
                        static_cast<uint32_t>(harvest_scratch_.size()));
  if (pipe.depth() > 1) {
    clk.Advance(cost_.cq_poll_ns);  // One coalesced poll covers the batch.
  }
  size_t installed = 0;
  // The last installed fiber's slice is held back until the batch's TLB
  // flush: that fiber pays the flush, so each flush is billed exactly once
  // and a batch of one reproduces the blocking fault's map + flush.
  ParkedSlice* last = nullptr;
  uint64_t last_end_ns = 0;
  for (const FaultFiber& f : harvest_scratch_) {
    auto it = inflight_.find(f.page_va);
    if (it == inflight_.end()) {
      DropParkedSlice(f.page_va);
      continue;  // Resolved externally (freed region) between park and poll.
    }
    Inflight inf = it->second;
    inflight_.erase(it);
    uint64_t pre_map_ns = clk.now();
    MapInflight(f.page_va, inf, inf.write);
    clk.Advance(cost_.dilos_map_ns);
    bd.Add(LatComp::kMap, cost_.dilos_map_ns);
    if (attr_ != nullptr) {
      // Finalize this fiber at its own install point: park covers everything
      // between the fetch completion and the map (other fibers' installs,
      // the coalesced poll, whatever the core overlapped), map is this
      // fiber's own install.
      ParkedSlice* ps = FindParkedSlice(f.page_va);
      if (ps != nullptr) {
        ps->slice.Add(FaultPhase::kPark,
                      pre_map_ns > ps->done_ns ? pre_map_ns - ps->done_ns : 0);
        ps->slice.Add(FaultPhase::kMap, cost_.dilos_map_ns);
      }
      if (last != nullptr) {
        CommitFaultSlice(last->slice, last->page_va, last_end_ns);
        last->used = false;
      }
      last = ps;
      last_end_ns = clk.now();
    }
    stats_.fault_resumes++;
    stats_.fault_inflight--;
    ++installed;
  }
  if (installed > 0) {
    // The batch commits with a single TLB/PTE flush — the install cost the
    // pipeline amortizes over the whole harvest.
    clk.Advance(cost_.map_tlb_flush_ns);
    bd.Add(LatComp::kMap, cost_.map_tlb_flush_ns);
    if (last != nullptr) {
      last->slice.Add(FaultPhase::kMap, cost_.map_tlb_flush_ns);
      CommitFaultSlice(last->slice, last->page_va, clk.now());
      last->used = false;
    }
    if (pipe.depth() > 1) {
      clk.Advance(cost_.fiber_resume_ns);
    }
    stats_.fault_batched_installs++;
  }
  tracer_.EndSpan(resume_span, clk.now());
}

void DilosRuntime::Quiesce() {
  for (size_t c = 0; c < pipelines_.size(); ++c) {
    while (!pipelines_[c].empty()) {
      clocks_[c].AdvanceTo(pipelines_[c].OldestDoneNs());
      HarvestFaultPipeline(static_cast<int>(c), clocks_[c].now());
    }
  }
}

uint8_t* DilosRuntime::Pin(uint64_t vaddr, uint32_t len, bool write, int core) {
  Clock& clk = clocks_[static_cast<size_t>(core)];
  Pte* e = pt_.Entry(vaddr, /*create=*/true);
  if (PteTagOf(*e) == PteTag::kLocal) {
    // Fast path: the software stand-in for the MMU walk.
    if (write && (*e & kPteDirty) == 0) {
      pm_.NoteDirty(PageOf(vaddr));
    }
    *e |= kPteAccessed | (write ? kPteDirty : 0);
    clk.Advance(cost_.local_pin_ns +
                static_cast<uint64_t>(cost_.local_per_byte_ns * static_cast<double>(len)));
    return pool_.Data(static_cast<uint32_t>(PtePayload(*e))) + (vaddr & (kPageSize - 1));
  }
  return HandleFault(vaddr, len, write, core);
}

void DilosRuntime::MapInflight(uint64_t page_va, const Inflight& inf, bool as_write) {
  Pte pte = MakeLocalPte(inf.frame, /*writable=*/true) | kPteAccessed;
  if (as_write || inf.write) {
    pte |= kPteDirty;
  }
  *pt_.Entry(page_va, true) = pte;
  pm_.OnMapped(page_va, pte);
}

void DilosRuntime::DrainArrivals(uint64_t now) {
  // The fault handler maps arrived prefetches while it waits; pages mapped
  // here are never faulted on at all (Table 3's "fewer minor faults").
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (!it->second.demand && it->second.done_ns <= now) {
      MapInflight(it->first, it->second, /*as_write=*/false);
      // Mapping from the handler does not set the accessed bit: the app has
      // not touched the page yet, so the hit tracker can still observe it.
      Pte* e = pt_.Entry(it->first, true);
      *e &= ~kPteAccessed;
      stats_.prefetch_mapped_early++;
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
}

bool DilosRuntime::StartPrefetch(uint64_t page_va, uint64_t issue_ns, int core,
                                 CommChannel ch) {
  Pte* e = pt_.Entry(page_va, /*create=*/true);
  if (PteTagOf(*e) != PteTag::kRemote) {
    return false;  // Local, in flight, empty, or action-tagged: nothing to do.
  }
  ShardRouter::ReadTarget target = router_.PickRead(core, ch, page_va);
  if (target.qp == nullptr) {
    return false;  // Every replica is down; the demand path will report it.
  }
  size_t reserve = cfg_.prefetch_free_reserve;
  size_t cap = pool_.total() / 8 + 1;
  if (reserve > cap) {
    reserve = cap;  // Scale the reserve down for tiny pools.
  }
  if (pool_.free_count() <= reserve) {
    return false;  // Don't thrash the resident set for speculation.
  }
  std::optional<uint32_t> fid = pool_.Alloc();
  if (!fid.has_value()) {
    return false;
  }
  Completion c = target.qp->PostRead(++wr_id_, pool_.Addr(*fid), page_va, kPageSize, issue_ns);
  if (c.status != WcStatus::kSuccess) {
    // Speculation is not worth a retry loop: free the frame, feed the
    // detector, and leave the page remote for the demand path.
    router_.ReportOpFailure(target.node, c.completion_time_ns);
    pool_.Free(*fid);
    return false;
  }
  const uint64_t* sum = fabric_.node(target.node).store().FindChecksum(page_va >> kPageShift);
  if (!VerifyPageBytes(sum, pool_.Data(*fid))) {
    // A corrupt speculative fill is simply dropped: the page stays remote
    // and the demand path (which owns the refetch/heal machinery) serves it.
    stats_.checksum_mismatches++;
    tracer_.Record(c.completion_time_ns, TraceEvent::kChecksumMismatch, page_va,
                   /*detail=*/0);
    pool_.Free(*fid);
    return false;
  }
  if (sum == nullptr && ReplicaHasChecksumElsewhere(page_va, target.node)) {
    // Unverifiable speculative fill from a copy that missed its write-back
    // (another replica has the checksum): drop it, same as a mismatch.
    stats_.refetches++;
    tracer_.Record(c.completion_time_ns, TraceEvent::kChecksumMismatch, page_va,
                   /*detail=*/2);
    pool_.Free(*fid);
    return false;
  }
  if (PageIsStale(fabric_.node(target.node).store(), page_va,
                  router_.PageGeneration(page_va))) {
    // Generation-lagged speculative fill: verified bytes from before the
    // last write-back round. Drop it and leave the page to the demand path,
    // which steers to a fresh copy and heals this one.
    stats_.stale_copies_detected++;
    stats_.refetches++;
    tracer_.Record(c.completion_time_ns, TraceEvent::kStaleCopy, page_va,
                   static_cast<uint32_t>(target.node));
    pool_.Free(*fid);
    return false;
  }
  *e = MakeFetchingPte(*fid);
  inflight_[page_va] = Inflight{*fid, c.completion_time_ns, false, false};
  stats_.prefetch_issued++;
  stats_.bytes_fetched += kPageSize;
  tracer_.Record(issue_ns, TraceEvent::kPrefetchIssue, page_va);
  tracker_.Observe(page_va);
  return true;
}

void DilosRuntime::RunPrefetcher(const FaultInfo& info, int core) {
  std::vector<uint64_t> pages;
  prefetchers_[static_cast<size_t>(core)]->OnFault(info, &pages);
  Clock& clk = clocks_[static_cast<size_t>(core)];
  uint64_t issue_work = 0;
  for (uint64_t p : pages) {
    if (StartPrefetch(PageOf(p), clk.now() + issue_work, core, CommChannel::kPrefetch)) {
      issue_work += cost_.dilos_prefetch_issue_ns;
    }
  }
  if (issue_work > 0) {
    clk.Advance(issue_work);
    stats_.fault_breakdown.Add(LatComp::kPrefetch, issue_work);
  }
}

uint8_t* DilosRuntime::HandleFault(uint64_t vaddr, uint32_t len, bool write, int core) {
  Clock& clk = clocks_[static_cast<size_t>(core)];
  uint64_t page_va = PageOf(vaddr);
  LatencyBreakdown& bd = stats_.fault_breakdown;

  // Attribution clock zero: the fault's end-to-end window opens before the
  // handler-entry costs so the kHandler phase is on the tiled path.
  uint64_t fault_entry_ns = clk.now();
  const uint64_t handler_ns =
      cost_.hw_exception_ns + cost_.os_trap_entry_ns + cost_.dilos_pte_check_ns;
  clk.Advance(handler_ns);

  Pte* e = pt_.Entry(page_va, /*create=*/true);
  switch (PteTagOf(*e)) {
    case PteTag::kLocal:
      break;  // Raced with a concurrent map; fall through to return below.

    case PteTag::kEmpty: {
      // Anonymous first touch: allocate a zero frame, no network.
      stats_.zero_fill_faults++;
      tracer_.Record(clk.now(), TraceEvent::kZeroFill, page_va);
      uint32_t frame = pm_.AllocFrame(clk, nullptr);
      std::memset(pool_.Data(frame), 0, kPageSize);
      Pte pte = MakeLocalPte(frame, true) | kPteAccessed | kPteDirty;  // Only copy is local.
      *pt_.Entry(page_va, true) = pte;
      pm_.OnMapped(page_va, pte);
      clk.Advance(cost_.zero_fill_ns);
      Background(clk.now(), page_va);
      break;
    }

    case PteTag::kFetching: {
      auto it = inflight_.find(page_va);
      if (it != inflight_.end() && it->second.demand && RetireParked(page_va)) {
        // Touch of a page whose own demand fault is still parked in a
        // pipeline: resume that fiber directly instead of counting a new
        // minor fault — at depth 1 this second touch would have been a
        // plain local hit, because the first fault resolved in-handler.
        stats_.fault_resumes++;
        stats_.fault_inflight--;
        uint32_t resume_span =
            tracer_.BeginSpan(SpanKind::kFaultResume, clk.now(), page_va, /*detail=*/1);
        Inflight inf = it->second;
        inflight_.erase(it);
        clk.AdvanceTo(inf.done_ns);
        uint64_t pre_map_ns = clk.now();
        MapInflight(page_va, inf, write);
        clk.Advance(cost_.dilos_map_ns + cost_.map_tlb_flush_ns);
        if (pipelines_[static_cast<size_t>(core)].depth() > 1) {
          clk.Advance(cost_.fiber_resume_ns);
        }
        if (attr_ != nullptr) {
          // Direct resume finalizes the *original* fault's parked slice:
          // park spans from its fetch completion to this install (this
          // second touch's own handler entry is wall time inside it), map
          // is the un-batched install this touch pays.
          ParkedSlice* ps = FindParkedSlice(page_va);
          if (ps != nullptr) {
            ps->slice.Add(FaultPhase::kPark,
                          pre_map_ns > ps->done_ns ? pre_map_ns - ps->done_ns : 0);
            ps->slice.Add(FaultPhase::kMap, clk.now() - pre_map_ns);
            CommitFaultSlice(ps->slice, page_va, clk.now());
            ps->used = false;
          }
        }
        tracer_.EndSpan(resume_span, clk.now());
        DrainArrivals(clk.now());
        Background(clk.now(), page_va);
        break;
      }
      // Minor fault: the page is in flight (prefetch or another core's
      // demand). Let window prefetchers stream ahead while we wait.
      stats_.minor_faults++;
      tracer_.Record(clk.now(), TraceEvent::kMinorFault, page_va);
      if (it == inflight_.end()) {
        // Another core mapped it between our check and now (model artifact);
        // retry the walk.
        return Pin(vaddr, len, write, core);
      }
      FaultInfo info{vaddr, write, /*major=*/false, tracker_.hit_ratio()};
      RunPrefetcher(info, core);
      if (guide_ != nullptr) {
        // Guides keep chasing while we wait for the in-flight page, just as
        // they do inside a major fault's fetch window.
        RuntimeGuideContext ctx(*this, core, clk.now());
        guide_->OnFault(ctx, vaddr, write);
      }
      Inflight inf = it->second;
      inflight_.erase(it);
      clk.AdvanceTo(inf.done_ns);
      MapInflight(page_va, inf, write);
      clk.Advance(cost_.dilos_map_ns + cost_.map_tlb_flush_ns);
      DrainArrivals(clk.now());
      Background(clk.now(), page_va);
      break;
    }

    case PteTag::kAction: {
      // Guided paging re-fetch: move only the live segments recorded at
      // eviction time, zero the rest (it was dead to the allocator).
      stats_.major_faults++;
      tracer_.Record(clk.now(), TraceEvent::kActionFetch, page_va);
      BeginFault(core, page_va, fault_entry_ns, clk.now());
      AttrAdd(core, FaultPhase::kHandler, handler_ns);
      bd.CountEvent();
      bd.Add(LatComp::kHwException, cost_.hw_exception_ns);
      bd.Add(LatComp::kOsHandler, cost_.os_trap_entry_ns + cost_.dilos_pte_check_ns);
      uint64_t log_idx = PtePayload(*e);
      const std::vector<PageSegment>* segs = pm_.ActionSegments(log_idx);
      uint64_t alloc_start_ns = clk.now();
      uint32_t frame = pm_.AllocFrame(clk, &bd);
      AttrAdd(core, FaultPhase::kAlloc, clk.now() - alloc_start_ns);
      std::memset(pool_.Data(frame), 0, kPageSize);
      uint64_t cursor = clk.now();
      DemandFetch(page_va, pool_.Addr(frame), segs, core, CommChannel::kFault, &cursor);
      stats_.vectored_ops++;
      for (const PageSegment& s : *segs) {
        stats_.bytes_fetched += s.length;
      }
      uint64_t done = cursor + (cfg_.tcp_emulation ? cost_.tcp_delay_ns : 0);
      AttrAdd(core, FaultPhase::kWire, done - cursor);
      uint64_t pre_fetch_ns = clk.now();
      bd.Add(LatComp::kFetch, clk.AdvanceTo(done));
      AttrAdd(core, FaultPhase::kOverlap,
              pre_fetch_ns > done ? pre_fetch_ns - done : 0);
      pm_.ReleaseAction(log_idx);
      Pte pte = MakeLocalPte(frame, true) | kPteAccessed | (write ? kPteDirty : 0);
      *pt_.Entry(page_va, true) = pte;
      pm_.OnMapped(page_va, pte);
      clk.Advance(cost_.dilos_map_ns + cost_.map_tlb_flush_ns);
      bd.Add(LatComp::kMap, cost_.dilos_map_ns + cost_.map_tlb_flush_ns);
      AttrAdd(core, FaultPhase::kMap, cost_.dilos_map_ns + cost_.map_tlb_flush_ns);
      DrainArrivals(clk.now());
      Background(clk.now(), page_va);
      EndFault(core, clk.now());
      break;
    }

    case PteTag::kTier: {
      // Tier hit: the page sits compressed in local DRAM — expand it in
      // place, no network. A cold miss costs one decompress instead of the
      // RDMA round trip; that gap is the tier's entire point.
      stats_.minor_faults++;
      stats_.tier_hits++;
      BeginFault(core, page_va, fault_entry_ns, clk.now());
      AttrAdd(core, FaultPhase::kHandler, handler_ns);
      bd.CountEvent();
      bd.Add(LatComp::kHwException, cost_.hw_exception_ns);
      bd.Add(LatComp::kOsHandler, cost_.os_trap_entry_ns + cost_.dilos_pte_check_ns);
      uint64_t alloc_start_ns = clk.now();
      uint32_t frame = pm_.AllocFrame(clk, &bd);
      AttrAdd(core, FaultPhase::kAlloc, clk.now() - alloc_start_ns);
      bool was_dirty = false;
      bool present = tier_ != nullptr && tier_->Contains(page_va);
      if (tier_ == nullptr || !tier_->Take(page_va, pool_.Data(frame), &was_dirty)) {
        if (present) {
          // The entry existed but its blob failed decompression (in-DRAM
          // rot): Take() dropped it. The remote copy serves the fault —
          // minus any deferred write-back the entry still carried; the
          // counter is what makes that loss observable.
          stats_.tier_corrupt_drops++;
          tracer_.Record(clk.now(), TraceEvent::kTierCorrupt, page_va);
        }
        // Otherwise defensive: a tier PTE without a tier entry should not
        // happen. Either way fall back to the remote copy (re-faulting
        // charges the exception again).
        pool_.Free(frame);
        stats_.tier_hits--;
        stats_.minor_faults--;
        *pt_.Entry(page_va, true) = MakeRemotePte(page_va >> kPageShift);
        // One fault, one span: the remote retry re-enters HandleFault under
        // this same fault scope (depth 2), so the kFault span — and the
        // attribution slice — covers the whole resolution, not just the
        // failed tier attempt.
        uint8_t* resolved = Pin(vaddr, len, write, core);
        EndFault(core, clk.now());
        return resolved;
      }
      uint32_t decompress_span =
          tracer_.BeginSpan(SpanKind::kTierDecompress, clk.now(), page_va);
      clk.Advance(cost_.tier_decompress_page_ns);
      bd.Add(LatComp::kDecompress, cost_.tier_decompress_page_ns);
      AttrAdd(core, FaultPhase::kDecompress, cost_.tier_decompress_page_ns);
      tracer_.EndSpan(decompress_span, clk.now());
      // A page admitted dirty whose deferred write-back has not drained yet
      // comes back dirty: its content still exists nowhere but here.
      Pte pte = MakeLocalPte(frame, true) | kPteAccessed |
                ((write || was_dirty) ? kPteDirty : 0);
      *pt_.Entry(page_va, true) = pte;
      pm_.OnMapped(page_va, pte);
      clk.Advance(cost_.dilos_map_ns + cost_.map_tlb_flush_ns);
      bd.Add(LatComp::kMap, cost_.dilos_map_ns + cost_.map_tlb_flush_ns);
      AttrAdd(core, FaultPhase::kMap, cost_.dilos_map_ns + cost_.map_tlb_flush_ns);
      tracer_.Record(clk.now(), TraceEvent::kTierHit, page_va, was_dirty ? 1 : 0);
      DrainArrivals(clk.now());
      Background(clk.now(), page_va);
      EndFault(core, clk.now());
      break;
    }

    case PteTag::kRemote: {
      // Major fault: post the read, park a fiber on it, then hide every
      // other piece of work inside the fetch window.
      stats_.major_faults++;
      if (tier_ != nullptr) {
        stats_.tier_misses++;  // Cold miss the tier no longer holds (or never did).
      }
      if (hotness_ != nullptr) {
        hotness_->OnDemandFault(page_va);  // Granule heat for the auto-migrator.
      }
      tracer_.Record(clk.now(), TraceEvent::kMajorFault, page_va);
      BeginFault(core, page_va, fault_entry_ns, clk.now());
      AttrAdd(core, FaultPhase::kHandler, handler_ns);
      bd.CountEvent();
      bd.Add(LatComp::kHwException, cost_.hw_exception_ns);
      bd.Add(LatComp::kOsHandler, cost_.os_trap_entry_ns + cost_.dilos_pte_check_ns);
      uint64_t alloc_start_ns = clk.now();
      uint32_t frame = pm_.AllocFrame(clk, &bd);
      AttrAdd(core, FaultPhase::kAlloc, clk.now() - alloc_start_ns);
      uint64_t cursor = clk.now();
      Completion c =
          DemandFetch(page_va, pool_.Addr(frame), nullptr, core, CommChannel::kFault, &cursor);
      stats_.bytes_fetched += kPageSize;

      // The read is posted and its whole resolution timeline (retries,
      // backoff, EC decode, failover — DemandFetch advanced `cursor` past
      // all of it) is known. Park a fiber carrying the completion time. The
      // data already sits in the frame (the sim moves bytes synchronously;
      // only time is simulated), so the faulting access can complete — the
      // page just stays kFetching until a harvest commits its PTE.
      uint64_t done = cursor + (cfg_.tcp_emulation ? cost_.tcp_delay_ns : 0);
      AttrAdd(core, FaultPhase::kWire, done - cursor);
      if (c.status != WcStatus::kSuccess) {
        // Every replica is gone: the content is unrecoverable. Surface a
        // zero page (failed_fetches records the loss) rather than whatever
        // the recycled frame last held.
        std::memset(pool_.Data(frame), 0, kPageSize);
      }
      *e = MakeFetchingPte(frame);
      inflight_[page_va] = Inflight{frame, done, write, true};
      FaultPipeline& pipe = pipelines_[static_cast<size_t>(core)];
      if (pipe.Full()) {
        // Defensive: the end-of-handler stall below keeps the pipeline
        // under depth between faults, so admission normally never waits.
        stats_.fault_pipeline_stalls++;
        uint64_t stall_ns = clk.AdvanceTo(pipe.OldestDoneNs());
        bd.Add(LatComp::kFetch, stall_ns);
        // Off-path: the stall is concurrent with the oldest fiber's own
        // wire wait — counting it on-path would double-bill that time.
        AttrAdd(core, FaultPhase::kStall, stall_ns);
        HarvestFaultPipeline(core, clk.now());
      }
      pipe.Admit(page_va, frame, clk.now(), done, write);
      ParkFaultSlice(core, page_va, done);
      stats_.fault_parks++;
      stats_.fault_inflight++;
      if (stats_.fault_inflight > stats_.fault_inflight_peak) {
        stats_.fault_inflight_peak = stats_.fault_inflight;
      }
      uint32_t park_span = tracer_.BeginSpan(SpanKind::kFaultPark, clk.now(), page_va,
                                             static_cast<uint32_t>(pipe.size()));
      if (pipe.depth() > 1) {
        // Fiber switch costs exist only when there is another fiber to
        // switch to; depth 1 is the blocking fault path and costs no switch.
        clk.Advance(cost_.fiber_park_ns);
      }
      tracer_.EndSpan(park_span, clk.now());

      // Work hidden in the fetch window: guide, hit tracker, prefetcher,
      // background manager.
      if (guide_ != nullptr) {
        RuntimeGuideContext ctx(*this, core, clk.now());
        guide_->OnFault(ctx, vaddr, write);
      }
      tracker_.Scan(pt_);
      clk.Advance(cost_.dilos_hit_tracker_ns);
      bd.Add(LatComp::kPrefetch, cost_.dilos_hit_tracker_ns);
      FaultInfo info{vaddr, write, /*major=*/true, tracker_.hit_ratio()};
      RunPrefetcher(info, core);
      Background(clk.now(), page_va);

      if (pipe.Full()) {
        // Depth limit: stall the core until the oldest completion so the
        // next fault finds an admission slot. At depth 1 this is the
        // fault's own fetch wait: the fault resolves in-handler.
        stats_.fault_pipeline_stalls++;
        uint64_t stall_ns = clk.AdvanceTo(pipe.OldestDoneNs());
        bd.Add(LatComp::kFetch, stall_ns);
        AttrAdd(core, FaultPhase::kStall, stall_ns);  // Off-path, as above.
      }
      HarvestFaultPipeline(core, clk.now());
      DrainArrivals(clk.now());
      EndFault(core, clk.now());
      if (PteTagOf(*e) == PteTag::kLocal) {
        break;  // Harvested in-handler; the common exit sets the A/D bits.
      }
      // Still parked: hand the frame to the faulting access directly. The
      // PTE stays kFetching until a later harvest installs it.
      return pool_.Data(frame) + (vaddr & (kPageSize - 1));
    }
  }

  e = pt_.Entry(page_va, true);
  if (write && (*e & kPteDirty) == 0) {
    pm_.NoteDirty(page_va);
  }
  *e |= kPteAccessed | (write ? kPteDirty : 0);
  return pool_.Data(static_cast<uint32_t>(PtePayload(*e))) + (vaddr & (kPageSize - 1));
}

}  // namespace dilos
