// Shared pieces of the benchmark driver: options, the open-loop arrival
// schedule, the FarRuntime proxy used by the traced run, and the per-layer
// probe that turns runtime counters into per-op ratios.
//
// Two clocks appear here and are never mixed. Simulated time is read from
// dilos::Clock and is the model's output: it repeats exactly for a given
// seed. Host time is read from std::chrono::steady_clock and is how long the
// simulator itself takes; it is the only source of run-to-run noise.
#ifndef PERFBENCH_DRIVER_HARNESS_H_
#define PERFBENCH_DRIVER_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dilos/runtime.h"
#include "src/sim/rng.h"

namespace perfbench {

using dilos::Clock;
using dilos::DilosRuntime;
using dilos::FarRuntime;
using dilos::Rng;
using dilos::RuntimeStats;

// Command-line inputs. The perturbation knobs change public inputs of the
// program (cost model, guide, tenancy policy, tier) for the checks recorded
// in perfbench/PROOF.md; the driver never sets them on its own.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int64_t rdma_read_base_ns = -1;  // -1 keeps CostModel's default.
  bool no_guide = false;
  bool no_fair_share = false;
  bool no_tier = false;

  dilos::CostModel Cost() const;
};

inline uint64_t HostNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// splitmix64 finalizer: derives independent sub-seeds from the run seed.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// 64-bit content digest, word at a time (the oracle hashes every GET result).
uint64_t Digest(const void* data, size_t len);

// Seeded Fisher-Yates permutation of [0, n).
std::vector<uint64_t> Permutation(uint64_t n, Rng& rng);

// Zipfian (theta) draws over [0, n), mapped through a seeded permutation so
// the hottest ranks land on arbitrary items rather than the first ones.
std::vector<uint64_t> ZipfDraws(uint64_t count, uint64_t n, double theta,
                                const std::vector<uint64_t>& perm, Rng& rng);

// One rung of the offered-rate ladder.
struct RungSpec {
  double rate = 0;    // Offered ops per simulated second.
  uint64_t ops = 0;   // Measured ops at this rung.
};

// Seeded Poisson arrivals: exponential gaps (simulated ns) for each rung.
std::vector<uint64_t> PoissonGaps(uint64_t n, double rate, Rng& rng);

// Outcome of one rung, all in simulated time.
struct Rung {
  double offered = 0;
  uint64_t ops = 0;
  uint64_t p50_ns = 0, p99_ns = 0, p999_ns = 0;
  uint64_t backlog_ops = 0;   // Ops due by the last arrival but not yet started.
  uint64_t end_lag_ns = 0;    // How late the last op started.
  double tail_lag_ns = 0;     // Mean start lag over the rung's last tenth.
  double achieved = 0;        // Ops per simulated second actually served.
};

// Open-loop schedule on one core: op i is due `gaps[i]` after op i-1 (the
// first after the rung's start); the core idles until the due time, and
// latency counts from the due time, so a stall also delays later ops.
class OpenLoop {
 public:
  OpenLoop(Clock& clk, const std::vector<uint64_t>& gaps);

  // Due time of the next op (does not advance anything).
  uint64_t NextDue() const { return due_ + gaps_[next_]; }
  // Idles the core until the next op is due.
  void Begin();
  // Records the op's completion (simulated ns).
  void End(uint64_t completion_ns);
  bool done() const { return next_ == gaps_.size(); }
  Rung Finish(double offered);

 private:
  Clock& clk_;
  const std::vector<uint64_t>& gaps_;
  size_t next_ = 0;
  uint64_t start_ns_;
  uint64_t due_;
  uint64_t last_done_ = 0;
  std::vector<uint64_t> due_at_;
  std::vector<uint64_t> start_at_;
  std::vector<uint64_t> lat_;
};

// Simulated outcome of one repetition; repeats exactly for a given seed.
struct SimResult {
  std::vector<Rung> rungs;
  uint64_t attempted = 0;   // Ops issued in the measured window.
  uint64_t ok = 0;          // Ops whose result matched the oracle.
  uint64_t wire_bytes = 0;  // RDMA payload bytes, every QP class, all nodes.
  double scan_pages_per_s = 0;  // tenants-scan: the aggressor's scan rate.
  bool warm = false;        // Warm-up reached steady state before rung 1.
  std::string warm_note;

  std::vector<double> Fingerprint() const;
};

struct RepResult {
  SimResult sim;
  double setup_s = 0;    // Inputs, construction, population, warm-up.
  double timed_s = 0;    // Host seconds inside the measured API calls.
  std::map<std::string, double> layer;  // Traced repetitions only.
};

// FarRuntime proxy for the traced run: forwards every call to the
// DilosRuntime and times Pin on the host clock, split by whether the call
// took a fault (RuntimeStats::total_faults moved). Purely observational.
class TimedRuntime final : public FarRuntime {
 public:
  explicit TimedRuntime(DilosRuntime& inner) : inner_(inner) {}

  uint64_t AllocRegion(uint64_t bytes) override { return inner_.AllocRegion(bytes); }
  void FreeRegion(uint64_t addr, uint64_t bytes) override { inner_.FreeRegion(addr, bytes); }
  uint8_t* Pin(uint64_t vaddr, uint32_t len, bool write, int core) override;
  void Quiesce() override { inner_.Quiesce(); }
  using FarRuntime::clock;
  Clock& clock(int core) override { return inner_.clock(core); }
  RuntimeStats& stats() override { return inner_.stats(); }
  int num_cores() const override { return inner_.num_cores(); }

  uint64_t hit_pins = 0, hit_ns = 0;       // Pins that found the page local.
  uint64_t fault_pins = 0, fault_ns = 0;   // Pins that took >= 1 fault.
  uint64_t faults = 0;                     // Faults those pins took.

  uint64_t pins() const { return hit_pins + fault_pins; }
  uint64_t pin_ns() const { return hit_ns + fault_ns; }

 private:
  DilosRuntime& inner_;
};

// The app a workload drives sits on the bare runtime (untraced) or on the
// proxy (traced), with telemetry metrics + attribution on in the latter.
struct RuntimeView {
  std::unique_ptr<TimedRuntime> proxy;
  FarRuntime* app = nullptr;

  RuntimeView(DilosRuntime& rt, bool traced);
};
void EnableTracing(dilos::DilosConfig* cfg);

// Counter snapshot at the start of the measured window; Collect turns the
// deltas into the per-layer metrics (see perfbench/README.md for the map).
class LayerProbe {
 public:
  // Resets the telemetry instruments so they cover only the window.
  void Start(DilosRuntime& rt, const TimedRuntime* proxy);
  // `ops` is the window's op count; `app_ns`/`app_pin_ns` the host time
  // spent in the app's calls and in the Pins made inside them; `app` names
  // the app layer ("redis", "kv", or "" when the workload drives Pin itself).
  void Collect(DilosRuntime& rt, const TimedRuntime& proxy, uint64_t ops, uint64_t app_ns,
               uint64_t app_pin_ns, const std::string& app,
               std::map<std::string, double>* out) const;

 private:
  RuntimeStats stats0_{};
  uint64_t direct_reclaims0_ = 0;
  uint64_t sched_fault_ops0_ = 0;
  uint64_t hit_pins0_ = 0, hit_ns0_ = 0, fault_pins0_ = 0, fault_ns0_ = 0, faults0_ = 0;
};

// Sum of payload bytes the links carried, both directions, every node.
uint64_t WireBytes(dilos::Fabric& fabric);

// Warm state check shared by the workloads: the resident set is full.
bool ResidentFull(DilosRuntime& rt);

// One workload: its fixed ladder of offered rates, the rung whose latency
// percentiles are reported, the p99 limit that defines the SLO rate, and the
// entry point that runs one repetition (set-up, warm-up, ladder, checks).
struct Workload {
  const char* name;
  std::vector<RungSpec> ladder;
  size_t ref_rung;
  double slo_p99_us;
  RepResult (*run)(const Workload& w, const Options& o, bool traced);
};

const Workload& RedisGetWorkload();
const Workload& KvUpdateWorkload();
const Workload& TenantsScanWorkload();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_HARNESS_H_
