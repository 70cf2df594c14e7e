// DilosRuntime: the specialized paging subsystem (paper Sec. 4).
//
// The fault handler checks exactly one data structure — the unified page
// table — before posting the asynchronous RDMA read (Sec. 4.2). While the
// demand fetch is in flight it runs the PTE hit tracker, consults the
// prefetcher, lets the app-aware guide chase pointers with subpage reads,
// maps any prefetched pages that have arrived, and lets the page manager do
// background cleaning/eviction: all of it hidden inside the 4 KB fetch
// window (Sec. 4.3-4.4). Prefetched pages are mapped directly into the page
// table — there is no swap cache and hence no swap-cache minor faults.
#ifndef DILOS_SRC_DILOS_RUNTIME_H_
#define DILOS_SRC_DILOS_RUNTIME_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/dilos/guide.h"
#include "src/dilos/page_manager.h"
#include "src/dilos/prefetcher.h"
#include "src/dilos/shard.h"
#include "src/memnode/fabric.h"
#include "src/pt/frame_pool.h"
#include "src/pt/hit_tracker.h"
#include "src/pt/page_table.h"
#include "src/recovery/repair_manager.h"
#include "src/sim/far_runtime.h"
#include "src/sim/fiber.h"
#include "src/sim/trace.h"
#include "src/telemetry/telemetry.h"
#include "src/tenant/hotness.h"
#include "src/tenant/wire_sched.h"

namespace dilos {

struct DilosConfig {
  uint64_t local_mem_bytes = 64ULL << 20;
  int num_cores = 1;
  bool tcp_emulation = false;  // Adds the TCP delay after each demand completion.
  bool shared_queue = false;   // Ablation: one QP for all modules (HoL blocking).
  // Replicas per page (Sec. 5.1 extension); requires a Fabric with at least
  // this many memory nodes. 1 = the paper's single-node configuration.
  int replication = 1;
  // Failure detection + automatic re-replication (src/recovery). When
  // enabled, crashed nodes (Fabric::CrashNode) are detected via op timeouts
  // and missed heartbeats and their granules rebuilt on survivors/spares.
  RecoveryOptions recovery;
  // Erasure coding (src/recovery/ec.h): replaces replication (replication is
  // forced to 1) with (k, m) striping; lost pages are served by degraded
  // reads that decode k surviving stripe members. Requires k + m non-spare
  // memory nodes.
  ECConfig ec;
  // Compressed local cold tier (src/tier): clock victims are compressed into
  // an in-DRAM pool instead of written remotely; a refault decompresses
  // locally instead of paying the RDMA round trip.
  TierConfig tier;
  // Async fault pipeline (src/sim/fiber.h, DESIGN.md §12), the one
  // demand-fault path: a demand fault posts its read, parks a fiber, and
  // returns the core to the workload; completions are harvested by
  // coalesced CQ polls and committed as batched PTE installs. depth bounds
  // outstanding demand faults per core; depth 1 (the default) is the
  // blocking fault path, resolving each fault inside its own handler.
  FaultPipelineConfig fault_pipeline;
  PageManagerConfig pm;
  // Do not start new prefetches when free frames would drop below this
  // (prevents prefetch-driven thrash of the resident set).
  size_t prefetch_free_reserve = 16;
  size_t hit_tracker_window = 256;
  // Paging-event trace ring capacity (0 = tracing off).
  size_t trace_capacity = 0;
  // Telemetry subsystem (src/telemetry): per-node fabric metrics, per-LatComp
  // latency distributions, causal fault spans, flight recorder, invariant
  // checks. The default (all off) changes nothing — same contract as
  // trace_capacity == 0.
  TelemetryConfig telemetry;
  // Multi-tenant policy layer (src/tenant): tenant namespaces + quotas,
  // per-tenant fair-share wire scheduling, and the hotness auto-migrator.
  // Disabled by default; a single-tenant runtime is byte-identical to one
  // built without the layer.
  TenantConfig tenants;
  // Chaos seed: nonzero reseeds the fabric's fault injector at construction,
  // so every probabilistic fault drawn during the run derives from this one
  // knob. Tests print it on failure; rerunning with the same seed replays
  // the exact fault schedule. Arm the plan (Fabric::set_fault_plan) before
  // constructing the runtime.
  uint64_t fault_seed = 0;
};

class DilosRuntime : public FarRuntime {
 public:
  DilosRuntime(Fabric& fabric, DilosConfig cfg, std::unique_ptr<Prefetcher> prefetcher);
  // Uninstalls telemetry hooks from the fabric and, when
  // TelemetryConfig::check_invariants is set, audits the final counters
  // (aborting on violation — telemetry-enabled tests double as accounting
  // audits).
  ~DilosRuntime() override;

  // -- FarRuntime ------------------------------------------------------------
  uint64_t AllocRegion(uint64_t bytes) override;
  // Tenant-owned region: granule-aligned (a shard granule never straddles
  // tenants) and bound to `tenant` in the registry. With tenancy off this is
  // just an aligned AllocRegion.
  uint64_t AllocRegion(uint64_t bytes, int tenant);
  void FreeRegion(uint64_t addr, uint64_t bytes) override;
  uint8_t* Pin(uint64_t vaddr, uint32_t len, bool write, int core) override;
  // Retires every parked demand fault: advances each core's clock to its
  // oldest outstanding completion and harvests until the pipelines drain.
  // No-op at depth 1, where every fault resolves inside its handler.
  void Quiesce() override;
  using FarRuntime::clock;
  Clock& clock(int core) override { return clocks_[static_cast<size_t>(core)]; }
  RuntimeStats& stats() override { return stats_; }
  int num_cores() const override { return cfg_.num_cores; }

  void set_guide(Guide* guide) {
    guide_ = guide;
    pm_.set_guide(guide);
  }

  PageTable& page_table() { return pt_; }
  PageManager& page_manager() { return pm_; }
  HitTracker& hit_tracker() { return tracker_; }
  FramePool& frame_pool() { return pool_; }
  Prefetcher& prefetcher(int core = 0) { return *prefetchers_[static_cast<size_t>(core)]; }
  ShardRouter& router() { return router_; }
  Tracer& tracer() { return tracer_; }
  const CostModel& cost() const { return cost_; }

  // Recovery subsystem (null unless cfg.recovery.enabled).
  FailureDetector* detector() { return detector_.get(); }
  RepairManager* repair() { return repair_.get(); }
  MigrationManager* migration() { return migration_.get(); }
  // Graceful decommission (null-safe): see MigrationManager::DrainNode.
  // Drives nothing itself — RecoveryTick / background progress empties the
  // node; returns false when recovery is off or the node cannot drain.
  bool DrainNode(int node, uint64_t now_ns) {
    return migration_ != nullptr && migration_->DrainNode(node, now_ns);
  }
  // Compressed tier (null unless cfg.tier.enabled).
  CompressedTier* tier() { return tier_.get(); }
  // Per-core fault pipeline (never null).
  FaultPipeline* pipeline(int core) { return &pipelines_[static_cast<size_t>(core)]; }
  // -- Multi-tenant policy layer (null members unless cfg.tenants.enabled) ---
  // Registers a tenant; returns its id, or -1 (registry full / tenancy off).
  // With the SLO engine on, the spec's latency objective is installed for
  // the new tenant at the same time.
  int CreateTenant(const TenantSpec& spec) {
    int id = tenants_ != nullptr ? tenants_->Register(spec) : -1;
    if (id >= 0 && slo_ != nullptr) {
      slo_->SetObjective(id, spec.slo);
    }
    return id;
  }
  // Terminal retirement. The shutdown audit fails if the tenant still owns
  // resident or charged pages — free its regions first.
  void RetireTenant(int id) {
    if (tenants_ != nullptr) {
      tenants_->Retire(id);
    }
  }
  TenantRegistry* tenants() { return tenants_.get(); }
  FairLinkScheduler* wire_scheduler() { return wire_sched_.get(); }
  HotnessMonitor* hotness() { return hotness_.get(); }
  // Test introspection: remaining demand-retry tokens of one (core, tenant)
  // bucket (tenant -1 = the untenanted bucket; with tenancy off, the
  // per-core bucket regardless of `tenant`).
  uint64_t retry_tokens(int core, int tenant) const {
    size_t stride = tenants_ != nullptr ? TenantRegistry::kMaxTenants + 1 : 1;
    size_t bucket =
        tenants_ != nullptr && tenant >= 0 ? static_cast<size_t>(tenant) + 1 : 0;
    size_t idx = static_cast<size_t>(core) * stride + bucket;
    return idx < retry_budget_.size() ? retry_budget_[idx].tokens : 0;
  }

  // Telemetry (null unless cfg.telemetry.enabled()).
  Telemetry* telemetry() { return telemetry_.get(); }
  const Telemetry* telemetry() const { return telemetry_.get(); }
  // Per-(node, QP class) fabric metrics (null unless cfg.telemetry.metrics).
  MetricsRegistry* metrics() { return metrics_registry_; }

  // Runs detector probes and repair work at simulated time `now`. Called
  // from the same background hook as the cleaner/reclaimer; public so
  // drivers without page traffic can still make recovery progress.
  void RecoveryTick(uint64_t now);
  // Advances core 0's clock in probe-interval steps, ticking recovery —
  // lets detection and repair converge without any application traffic.
  void DriveRecovery(uint64_t duration_ns);
  bool RecoveryIdle() const {
    return (repair_ == nullptr || repair_->idle()) &&
           (migration_ == nullptr || migration_->idle());
  }

  // Highest clock across cores — the workload completion time.
  uint64_t MaxTimeNs() const;

 private:
  friend class RuntimeGuideContext;

  struct Inflight {
    uint32_t frame = 0;
    uint64_t done_ns = 0;
    bool write = false;
    bool demand = false;
  };

  uint8_t* HandleFault(uint64_t vaddr, uint32_t len, bool write, int core);
  // Demand read with replica failover: bounded retry + exponential backoff,
  // re-picking the first readable replica each attempt and reporting
  // timeouts to the failure detector. `segs == nullptr` reads the whole
  // page; otherwise a vectored read of the given segments. Advances
  // `cursor_ns` past completions and backoff waits.
  Completion DemandFetch(uint64_t page_va, uint64_t frame_addr,
                         const std::vector<PageSegment>* segs, int core, CommChannel ch,
                         uint64_t* cursor_ns);
  // EC degraded read: when the page's only copy is unreadable, decode it
  // from k surviving stripe members into the frame. Returns false if fewer
  // than k members are readable (the page is then truly lost).
  bool EcDemandReconstruct(uint64_t page_va, uint64_t frame_addr,
                           const std::vector<PageSegment>* segs, int core, CommChannel ch,
                           uint64_t* cursor_ns);
  // Rewrites the known-corrupt stored copy of `page_va` on `node` with the
  // verified bytes in `good` (read-path healing after a checksum mismatch).
  // Posted on the manager channel at `issue_ns`: healing is off the fault
  // path, so the caller's cursor does not wait on it.
  // `core` scopes the off-path kHeal attribution stamp.
  void HealCorruptReplica(uint64_t page_va, int node, const uint8_t* good, uint64_t issue_ns,
                          int core);
  // True when a readable replica of `page_va` other than `except` holds an
  // installed checksum for it. Used to distrust an *unverifiable* arrival:
  // a copy with no checksum on a page some other replica cleaned in full is
  // a copy that missed its write-back (e.g. a partitioned node), not a page
  // that was never written.
  bool ReplicaHasChecksumElsewhere(uint64_t page_va, int except);
  // Cleaner/reclaimer plus recovery, one background hook.
  void Background(uint64_t now, uint64_t pinned_va);
  // Marks `page_va` fetching and posts an async read at `issue_ns` on the
  // channel's QP toward the page's live replica. Returns false if the page
  // is not in kRemote state or no frame is spare.
  bool StartPrefetch(uint64_t page_va, uint64_t issue_ns, int core, CommChannel ch);
  void RunPrefetcher(const FaultInfo& info, int core);
  void DrainArrivals(uint64_t now);
  void MapInflight(uint64_t page_va, const Inflight& inf, bool as_write);
  // Coalesced CQ poll for `core`: harvests every parked fiber whose
  // completion has passed and commits them as one batched PTE install
  // (per-page map cost, one TLB flush per batch).
  void HarvestFaultPipeline(int core, uint64_t now);
  // Drops the parked fiber for `page_va` from whichever core's pipeline
  // holds it (direct-touch resume, region teardown). False if none does.
  bool RetireParked(uint64_t page_va);

  // -- Per-fault attribution + span scoping (src/telemetry/attribution.h) ----
  //
  // One FaultScope per core tracks the *outermost* HandleFault invocation:
  // its kFault tracer span and (with attribution on) the fault's phase
  // vector. Re-entry — the tier-corrupt fallback re-faults the same page
  // remotely via Pin — only bumps `depth`, so the retry shares the original
  // span start and phase slice instead of restarting them.
  struct FaultScope {
    uint32_t depth = 0;
    uint32_t span = 0;
    uint64_t page_va = 0;
    bool moved = false;  // Slice handed to a parked-fiber slot (remote major fault).
    FaultSlice slice;
  };
  // A parked fiber's slice between HandleFault returning and the harvest
  // that installs the page. Keyed by page_va (a fiber parked on one core can
  // be resumed from another); preallocated cores x depth, linear scan.
  struct ParkedSlice {
    bool used = false;
    uint64_t page_va = 0;
    uint64_t done_ns = 0;  // Fetch completion: park time = map start - done.
    FaultSlice slice;
  };

  // Opens (or re-enters) the core's fault scope; returns the span id.
  // `entry_ns` is the attribution start (pre-handler-advance clock);
  // `span_now` the span begin (post-advance, matching the old span start).
  uint32_t BeginFault(int core, uint64_t page_va, uint64_t entry_ns, uint64_t span_now);
  // Closes one nesting level; at the outermost level ends the span and, when
  // the slice was not handed to a parked fiber, commits it at `now`.
  void EndFault(int core, uint64_t now);
  // Adds `dt` to a phase of the core's active slice (or its parked slot once
  // moved). No-op when attribution is off or no fault scope is open.
  void AttrAdd(int core, FaultPhase p, uint64_t dt);
  // Commits a finished slice: attribution histograms, SLO scoring, and on a
  // breach alert the flight-recorder dump with the attribution snapshot.
  void CommitFaultSlice(const FaultSlice& slice, uint64_t page_va, uint64_t end_ns);
  ParkedSlice* FindParkedSlice(uint64_t page_va);
  // Moves the core's active slice into a free parked slot at fetch
  // completion time `done_ns` (fiber park). No-op when attribution is off.
  void ParkFaultSlice(int core, uint64_t page_va, uint64_t done_ns);
  // Drops a parked slice without committing (region teardown).
  void DropParkedSlice(uint64_t page_va);

  Fabric& fabric_;
  DilosConfig cfg_;
  CostModel cost_;
  // Per-core prefetcher instances (index 0 is the one passed in; the rest
  // are clones): window/history state must not be shared across cores.
  std::vector<std::unique_ptr<Prefetcher>> prefetchers_;
  Guide* guide_ = nullptr;

  Tracer tracer_;
  PageTable pt_;
  FramePool pool_;
  RuntimeStats stats_;
  std::vector<Clock> clocks_;
  ShardRouter router_;
  PageManager pm_;
  HitTracker tracker_;
  std::unique_ptr<FailureDetector> detector_;
  std::unique_ptr<RepairManager> repair_;
  std::unique_ptr<MigrationManager> migration_;
  // Demand-retry token buckets (RecoveryOptions::retry_burst /
  // retry_refill_ns), refilled lazily from the core's cursor. One per core;
  // with tenancy enabled, one per (core, tenant bucket) — kMaxTenants + 1
  // buckets per core, index 0 untenanted — so one tenant's retry storm can
  // never drain another's budget on the same core.
  struct RetryBudget {
    uint64_t tokens = 0;
    uint64_t last_refill_ns = 0;
  };
  size_t RetryIndex(int core, uint64_t page_va) const {
    if (tenants_ == nullptr) {
      return static_cast<size_t>(core);
    }
    int t = tenants_->TenantOfAddr(page_va);
    size_t bucket = t < 0 ? 0 : static_cast<size_t>(t) + 1;
    return static_cast<size_t>(core) * (TenantRegistry::kMaxTenants + 1) + bucket;
  }
  // Per-tenant refill share: the core's refill rate splits by fair-share
  // weight, so tenant t's bucket refills every base * W / w_t ns (W = sum of
  // registered weights). Untenanted faults refill at weight 1.
  uint64_t RetryRefillNs(uint64_t page_va) const {
    uint64_t base = cfg_.recovery.retry_refill_ns;
    if (tenants_ == nullptr || base == 0 || tenants_->num_tenants() == 0) {
      return base;
    }
    uint64_t total = 0;
    for (int i = 0; i < tenants_->num_tenants(); ++i) {
      uint32_t w = tenants_->spec(i).weight;
      total += w == 0 ? 1 : w;
    }
    int t = tenants_->TenantOfAddr(page_va);
    uint64_t w = 1;
    if (t >= 0) {
      uint32_t sw = tenants_->spec(t).weight;
      w = sw == 0 ? 1 : sw;
    }
    return base * total / w;
  }
  std::vector<RetryBudget> retry_budget_;
  // Multi-tenant policy layer (all null unless cfg.tenants.enabled).
  std::unique_ptr<TenantRegistry> tenants_;
  std::unique_ptr<FairLinkScheduler> wire_sched_;
  std::unique_ptr<HotnessMonitor> hotness_;
  std::unique_ptr<CompressedTier> tier_;
  std::unique_ptr<Telemetry> telemetry_;
  // Cached raw views into telemetry_ (null when off) so hot paths pay one
  // pointer test, not a unique_ptr chain.
  MetricsRegistry* metrics_registry_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  FaultAttribution* attr_ = nullptr;
  SloEngine* slo_ = nullptr;
  // Per-core fault scopes (always sized num_cores — the span fix needs them
  // even with attribution off) and the parked-slice pool (sized cores x
  // pipeline depth when attribution is on).
  std::vector<FaultScope> fault_scope_;
  std::vector<ParkedSlice> parked_slices_;
  std::vector<int> replica_scratch_;  // ReplicaHasChecksumElsewhere scratch.

  std::unordered_map<uint64_t, Inflight> inflight_;  // Key: page vaddr.
  // One pipeline per core.
  std::vector<FaultPipeline> pipelines_;
  std::vector<FaultFiber> harvest_scratch_;  // HarvestFaultPipeline batch buffer.
  uint64_t next_region_ = kFarBase;
  uint64_t wr_id_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_DILOS_RUNTIME_H_
