// Per-fault critical-path attribution (opt-in, TelemetryConfig::attribution).
//
// The fair-share scheduler (DESIGN.md §14) divides wire time and the
// telemetry layer (§5 of docs/observability.md) histograms end-to-end fault
// latency — but neither answers *why* a tenant's p99 is high: was the slow
// fault queued in its scheduler lane, on the wire, decoding an EC stripe,
// decompressing a tier blob, or backing off a timed-out replica? Attribution
// stamps each choke point the fault path already crosses into a fixed-size
// per-fault phase vector, then folds the vector into per-(tenant, phase)
// LogHistograms at fault completion.
//
// The design is self-verifying: phases are defined so the *on-path* subset
// tiles the fault's wall-clock interval exactly — for every committed fault,
// sum(on-path phases) must equal the measured end-to-end latency within 1%
// (it is exact by construction in the simulator; the 1% gate catches any
// future stamping drift). `sum_violations()` counts faults that broke the
// gate and CI asserts it stays zero across the depth-1, pipelined,
// EC-degraded, tier-hit, and retry-storm paths (tests/test_attribution.cc).
//
// Two phases are deliberately *off-path* and excluded from the tiling sum:
//   - kHeal: checksum heal-in-place is posted at the fault's wire cursor but
//     never advances it — the repair overlaps the remainder of the fault.
//   - kStall: a pipeline depth-limit stall waits on the *oldest* parked
//     fiber, whose own wire phases already cover that wall-clock interval;
//     charging it on-path would double-count the wire. At depth 1 that
//     fiber is the stalling fault itself.
// Both are still recorded (they answer "how much healing / stalling is this
// tenant seeing"), just not summed against end-to-end latency.
#ifndef DILOS_SRC_TELEMETRY_ATTRIBUTION_H_
#define DILOS_SRC_TELEMETRY_ATTRIBUTION_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/telemetry/histogram.h"

namespace dilos {

// Where a demand fault spends its nanoseconds. On-path phases tile
// [fault entry, fault completion] exactly; see FaultPhaseOnPath.
enum class FaultPhase : uint8_t {
  kHandler = 0,  // HW exception + OS trap + PTE walk/check + map/install CPU work's
                 // handler-side share (charged once per handler entry; a re-entered
                 // fault — e.g. tier-corrupt fallback — charges it again).
  kAlloc,        // Frame allocation, including any reclaim/write-back it triggers.
  kLaneWait,     // Fair-share scheduler lane queueing at QueuePair::PostSend
                 // (zero under the plain FIFO link's uncontended path).
  kWire,         // Fabric propagation + link occupancy + TCP emulation delay.
  kBackoff,      // Demand-retry backoff after a timed-out fetch attempt.
  kEcDecode,     // Degraded read: k-survivor reads + Cauchy matrix solve.
  kDecompress,   // Compressed-tier hit: blob decode into the frame.
  kOverlap,      // Action-PTE fetch only: core time already past fetch completion
                 // when the handler starts waiting.
  kPark,         // Remote major fault: fetch completion to install — hidden work that
                 // outlasted the fetch, other fibers' installs, the coalesced poll.
  kMap,          // PTE install; the batch's TLB shootdown goes to its last install.
  kStall,        // OFF-PATH: depth-limit stall waiting on the oldest parked fiber.
  kHeal,         // OFF-PATH: checksum heal-in-place posted without advancing the fault.
  kCount,
};

constexpr size_t kFaultPhaseCount = static_cast<size_t>(FaultPhase::kCount);

constexpr const char* FaultPhaseName(FaultPhase p) {
  switch (p) {
    case FaultPhase::kHandler:
      return "handler";
    case FaultPhase::kAlloc:
      return "alloc";
    case FaultPhase::kLaneWait:
      return "lane-wait";
    case FaultPhase::kWire:
      return "wire";
    case FaultPhase::kBackoff:
      return "backoff";
    case FaultPhase::kEcDecode:
      return "ec-decode";
    case FaultPhase::kDecompress:
      return "decompress";
    case FaultPhase::kOverlap:
      return "overlap";
    case FaultPhase::kPark:
      return "park";
    case FaultPhase::kMap:
      return "map";
    case FaultPhase::kStall:
      return "stall";
    case FaultPhase::kHeal:
      return "heal";
    case FaultPhase::kCount:
      break;
  }
  return "?";
}

// True for phases that participate in the sum-equals-latency invariant.
constexpr bool FaultPhaseOnPath(FaultPhase p) {
  return p != FaultPhase::kStall && p != FaultPhase::kHeal;
}

// One fault's phase vector. Owned by the runtime's per-core fault scope (or
// a parked-fiber slot on the pipelined path) — preallocated, so stamping
// never allocates on the fault path.
struct FaultSlice {
  uint64_t ns[kFaultPhaseCount] = {};
  uint64_t start_ns = 0;  // Fault entry (clk at HandleFault, pre-handler advance).

  void Clear() {
    for (uint64_t& v : ns) {
      v = 0;
    }
    start_ns = 0;
  }

  void Add(FaultPhase p, uint64_t dt) { ns[static_cast<size_t>(p)] += dt; }

  uint64_t OnPathSumNs() const {
    uint64_t s = 0;
    for (size_t i = 0; i < kFaultPhaseCount; ++i) {
      if (FaultPhaseOnPath(static_cast<FaultPhase>(i))) {
        s += ns[i];
      }
    }
    return s;
  }
};

// Aggregates committed fault slices into per-(tenant, phase) LogHistograms
// plus a per-tenant end-to-end histogram, checks the tiling invariant on
// every commit, and renders Prometheus rows / the top-contributor report.
// Tenant bucketing mirrors MetricsRegistry: bucket 0 is the untenanted /
// out-of-range bucket, buckets 1..16 are tenant ids 0..15.
class FaultAttribution {
 public:
  static constexpr int kTenantBuckets = 17;
  // Invariant tolerance: 1% == 10'000 parts-per-million.
  static constexpr uint64_t kTolerancePpm = 10'000;

  void Commit(int tenant, const FaultSlice& slice, uint64_t e2e_ns) {
    size_t b = Bucket(tenant);
    for (size_t i = 0; i < kFaultPhaseCount; ++i) {
      if (slice.ns[i] != 0) {
        phase_[b * kFaultPhaseCount + i].Record(slice.ns[i]);
      }
    }
    e2e_[b].Record(e2e_ns);
    ++commits_;
    uint64_t sum = slice.OnPathSumNs();
    uint64_t diff = sum > e2e_ns ? sum - e2e_ns : e2e_ns - sum;
    uint64_t ppm = e2e_ns == 0 ? (diff == 0 ? 0 : ~0ULL)
                               : diff * 1'000'000 / e2e_ns;
    if (ppm > worst_residual_ppm_) {
      worst_residual_ppm_ = ppm;
    }
    if (ppm > kTolerancePpm) {
      ++sum_violations_;
    }
  }

  const LogHistogram& phase(int tenant, FaultPhase p) const {
    return phase_[Bucket(tenant) * kFaultPhaseCount + static_cast<size_t>(p)];
  }
  const LogHistogram& e2e(int tenant) const { return e2e_[Bucket(tenant)]; }

  uint64_t commits() const { return commits_; }
  uint64_t sum_violations() const { return sum_violations_; }
  uint64_t worst_residual_ppm() const { return worst_residual_ppm_; }

  // Total nanoseconds attributed to `p` across all tenants.
  uint64_t TotalNs(FaultPhase p) const {
    uint64_t s = 0;
    for (int b = 0; b < kTenantBuckets; ++b) {
      s += phase_[static_cast<size_t>(b) * kFaultPhaseCount + static_cast<size_t>(p)].sum();
    }
    return s;
  }

  // The on-path phase holding the most total time for `tenant` — the answer
  // to "why is this tenant's p99 high".
  FaultPhase TopContributor(int tenant) const {
    size_t b = Bucket(tenant);
    FaultPhase top = FaultPhase::kWire;
    uint64_t best = 0;
    for (size_t i = 0; i < kFaultPhaseCount; ++i) {
      auto p = static_cast<FaultPhase>(i);
      uint64_t s = phase_[b * kFaultPhaseCount + i].sum();
      if (FaultPhaseOnPath(p) && s > best) {
        best = s;
        top = p;
      }
    }
    return top;
  }

  // Human-readable per-tenant breakdown: one line per active tenant bucket
  // with the top contributor and each on-path phase's share of total fault
  // time. Attached to flight-recorder SLO-breach dumps.
  std::string Report() const {
    std::string out = "fault attribution (per-tenant critical-path shares)\n";
    char line[256];
    for (int b = 0; b < kTenantBuckets; ++b) {
      if (e2e_[b].empty()) {
        continue;
      }
      int tenant = b - 1;  // -1 = untenanted bucket.
      uint64_t total = e2e_[b].sum();
      std::snprintf(line, sizeof(line),
                    "  tenant %2d: faults=%llu e2e-p99=%lluns top=%s\n", tenant,
                    static_cast<unsigned long long>(e2e_[b].count()),
                    static_cast<unsigned long long>(e2e_[b].Percentile(99.0)),
                    FaultPhaseName(TopContributorForBucket(static_cast<size_t>(b))));
      out += line;
      for (size_t i = 0; i < kFaultPhaseCount; ++i) {
        const LogHistogram& h = phase_[static_cast<size_t>(b) * kFaultPhaseCount + i];
        if (h.empty()) {
          continue;
        }
        std::snprintf(line, sizeof(line), "    %-10s %6.2f%%  p99=%lluns  n=%llu%s\n",
                      FaultPhaseName(static_cast<FaultPhase>(i)),
                      total == 0 ? 0.0
                                 : 100.0 * static_cast<double>(h.sum()) /
                                       static_cast<double>(total),
                      static_cast<unsigned long long>(h.Percentile(99.0)),
                      static_cast<unsigned long long>(h.count()),
                      FaultPhaseOnPath(static_cast<FaultPhase>(i)) ? "" : "  (off-path)");
        out += line;
      }
    }
    std::snprintf(line, sizeof(line),
                  "  commits=%llu sum-violations=%llu worst-residual=%llupm\n",
                  static_cast<unsigned long long>(commits_),
                  static_cast<unsigned long long>(sum_violations_),
                  static_cast<unsigned long long>(worst_residual_ppm_));
    out += line;
    return out;
  }

  // Prometheus rows: dilos_fault_phase_ns{tenant, phase, quantile} summaries
  // plus _sum/_count, and the matching dilos_fault_e2e_ns summary.
  std::string ToProm() const {
    std::string out;
    out +=
        "# HELP dilos_fault_phase_ns Demand-fault time by critical-path phase, per tenant.\n"
        "# TYPE dilos_fault_phase_ns summary\n";
    for (int b = 0; b < kTenantBuckets; ++b) {
      for (size_t i = 0; i < kFaultPhaseCount; ++i) {
        const LogHistogram& h = phase_[static_cast<size_t>(b) * kFaultPhaseCount + i];
        if (h.empty()) {
          continue;
        }
        AppendSummary(&out, "dilos_fault_phase_ns", b - 1,
                      FaultPhaseName(static_cast<FaultPhase>(i)), h);
      }
    }
    out +=
        "# HELP dilos_fault_e2e_ns End-to-end demand-fault latency, per tenant.\n"
        "# TYPE dilos_fault_e2e_ns summary\n";
    for (int b = 0; b < kTenantBuckets; ++b) {
      if (!e2e_[b].empty()) {
        AppendSummary(&out, "dilos_fault_e2e_ns", b - 1, nullptr, e2e_[b]);
      }
    }
    return out;
  }

 private:
  static size_t Bucket(int tenant) {
    return static_cast<size_t>(tenant >= 0 && tenant < kTenantBuckets - 1 ? tenant + 1 : 0);
  }

  FaultPhase TopContributorForBucket(size_t b) const {
    FaultPhase top = FaultPhase::kWire;
    uint64_t best = 0;
    for (size_t i = 0; i < kFaultPhaseCount; ++i) {
      auto p = static_cast<FaultPhase>(i);
      uint64_t s = phase_[b * kFaultPhaseCount + i].sum();
      if (FaultPhaseOnPath(p) && s > best) {
        best = s;
        top = p;
      }
    }
    return top;
  }

  static void AppendSummary(std::string* out, const char* name, int tenant,
                            const char* phase, const LogHistogram& h) {
    static constexpr double kQ[] = {50.0, 99.0, 99.9};
    char buf[192];
    char labels[96];
    if (phase != nullptr) {
      std::snprintf(labels, sizeof(labels), "tenant=\"%d\",phase=\"%s\"", tenant, phase);
    } else {
      std::snprintf(labels, sizeof(labels), "tenant=\"%d\"", tenant);
    }
    for (double q : kQ) {
      std::snprintf(buf, sizeof(buf), "%s{%s,quantile=\"%g\"} %llu\n", name, labels,
                    q / 100.0, static_cast<unsigned long long>(h.Percentile(q)));
      *out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%s_sum{%s} %llu\n", name, labels,
                  static_cast<unsigned long long>(h.sum()));
    *out += buf;
    std::snprintf(buf, sizeof(buf), "%s_count{%s} %llu\n", name, labels,
                  static_cast<unsigned long long>(h.count()));
    *out += buf;
  }

  LogHistogram phase_[static_cast<size_t>(kTenantBuckets) * kFaultPhaseCount];
  LogHistogram e2e_[kTenantBuckets];
  uint64_t commits_ = 0;
  uint64_t sum_violations_ = 0;
  uint64_t worst_residual_ppm_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_TELEMETRY_ATTRIBUTION_H_
