#include "perfbench/driver/harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/telemetry/attribution.h"

namespace perfbench {

dilos::CostModel Options::Cost() const {
  dilos::CostModel cost = dilos::CostModel::Default();
  if (rdma_read_base_ns >= 0) {
    cost.rdma_read_base_ns = static_cast<uint64_t>(rdma_read_base_ns);
  }
  return cost;
}

uint64_t Digest(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0x6A09E667F3BCC909ULL ^ len;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x9FB21C651E98DF25ULL;
    h ^= h >> 29;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, p + i, len - i);
  return Mix64(h ^ tail);
}

std::vector<uint64_t> Permutation(uint64_t n, Rng& rng) {
  std::vector<uint64_t> perm(n);
  for (uint64_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  for (uint64_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBelow(i)]);
  }
  return perm;
}

std::vector<uint64_t> ZipfDraws(uint64_t count, uint64_t n, double theta,
                                const std::vector<uint64_t>& perm, Rng& rng) {
  dilos::ZipfSampler zipf(n, theta, rng.Next());
  std::vector<uint64_t> out(count);
  for (uint64_t& v : out) {
    v = perm[zipf.Next()];
  }
  return out;
}

std::vector<uint64_t> PoissonGaps(uint64_t n, double rate, Rng& rng) {
  std::vector<uint64_t> gaps(n);
  const double mean_ns = 1e9 / rate;
  for (uint64_t& g : gaps) {
    // 1 - u lies in (0, 1], so the log is finite.
    g = static_cast<uint64_t>(-std::log(1.0 - rng.NextDouble()) * mean_ns);
  }
  return gaps;
}

OpenLoop::OpenLoop(Clock& clk, const std::vector<uint64_t>& gaps)
    : clk_(clk), gaps_(gaps), start_ns_(clk.now()), due_(clk.now()) {
  due_at_.reserve(gaps.size());
  start_at_.reserve(gaps.size());
  lat_.reserve(gaps.size());
}

void OpenLoop::Begin() {
  due_ += gaps_[next_++];
  clk_.AdvanceTo(due_);
  due_at_.push_back(due_);
  start_at_.push_back(clk_.now());
}

void OpenLoop::End(uint64_t completion_ns) {
  lat_.push_back(completion_ns - due_);
  last_done_ = std::max(last_done_, completion_ns);
}

namespace {

// Nearest-rank percentile of a sorted sample.
uint64_t Rank(const std::vector<uint64_t>& sorted, double p) {
  auto idx = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[idx == 0 ? 0 : idx - 1];
}

}  // namespace

Rung OpenLoop::Finish(double offered) {
  Rung r;
  r.offered = offered;
  r.ops = lat_.size();
  if (lat_.empty()) {
    return r;
  }
  const uint64_t last_due = due_at_.back();
  uint64_t started = 0;
  for (uint64_t s : start_at_) {
    started += s <= last_due ? 1 : 0;
  }
  r.backlog_ops = r.ops - started;
  r.end_lag_ns = start_at_.back() - last_due;
  size_t tail_from = lat_.size() - std::max<size_t>(lat_.size() / 10, 1);
  double lag_sum = 0;
  for (size_t i = tail_from; i < lat_.size(); ++i) {
    lag_sum += static_cast<double>(start_at_[i] - due_at_[i]);
  }
  r.tail_lag_ns = lag_sum / static_cast<double>(lat_.size() - tail_from);
  r.achieved = static_cast<double>(r.ops) * 1e9 / static_cast<double>(last_done_ - start_ns_);
  std::vector<uint64_t> sorted = lat_;
  std::sort(sorted.begin(), sorted.end());
  r.p50_ns = Rank(sorted, 50.0);
  r.p99_ns = Rank(sorted, 99.0);
  r.p999_ns = Rank(sorted, 99.9);
  return r;
}

std::vector<double> SimResult::Fingerprint() const {
  std::vector<double> f = {static_cast<double>(attempted), static_cast<double>(ok),
                           static_cast<double>(wire_bytes), scan_pages_per_s,
                           warm ? 1.0 : 0.0};
  for (const Rung& r : rungs) {
    f.insert(f.end(), {r.offered, static_cast<double>(r.ops), static_cast<double>(r.p50_ns),
                       static_cast<double>(r.p99_ns), static_cast<double>(r.p999_ns),
                       static_cast<double>(r.backlog_ops), static_cast<double>(r.end_lag_ns),
                       r.tail_lag_ns, r.achieved});
  }
  return f;
}

uint8_t* TimedRuntime::Pin(uint64_t vaddr, uint32_t len, bool write, int core) {
  const uint64_t faults0 = inner_.stats().total_faults();
  const uint64_t t0 = HostNs();
  uint8_t* p = inner_.Pin(vaddr, len, write, core);
  const uint64_t ns = HostNs() - t0;
  const uint64_t moved = inner_.stats().total_faults() - faults0;
  if (moved == 0) {
    ++hit_pins;
    hit_ns += ns;
  } else {
    ++fault_pins;
    fault_ns += ns;
    faults += moved;
  }
  return p;
}

RuntimeView::RuntimeView(DilosRuntime& rt, bool traced) : app(&rt) {
  if (traced) {
    proxy = std::make_unique<TimedRuntime>(rt);
    app = proxy.get();
  }
}

void EnableTracing(dilos::DilosConfig* cfg) {
  cfg->telemetry.metrics = true;
  cfg->telemetry.attribution = true;
}

uint64_t WireBytes(dilos::Fabric& fabric) {
  uint64_t bytes = 0;
  for (int n = 0; n < fabric.num_nodes(); ++n) {
    bytes += fabric.link(n).rx().total_bytes() + fabric.link(n).tx().total_bytes();
  }
  return bytes;
}

bool ResidentFull(DilosRuntime& rt) {
  // The page manager keeps `free_target` frames free for the fault path, so
  // "full" means every other frame holds a resident page.
  return rt.page_manager().resident_count() + 2 * dilos::PageManagerConfig{}.free_target >=
         rt.frame_pool().total();
}

void LayerProbe::Start(DilosRuntime& rt, const TimedRuntime* proxy) {
  if (rt.telemetry() != nullptr && rt.telemetry()->attribution() != nullptr) {
    *rt.telemetry()->attribution() = dilos::FaultAttribution();
  }
  if (rt.metrics() != nullptr) {
    rt.metrics()->Reset();
  }
  stats0_ = rt.stats();
  direct_reclaims0_ = rt.page_manager().direct_reclaims();
  sched_fault_ops0_ = rt.wire_scheduler() != nullptr ? rt.wire_scheduler()->ops(0) : 0;
  if (proxy != nullptr) {
    hit_pins0_ = proxy->hit_pins;
    hit_ns0_ = proxy->hit_ns;
    fault_pins0_ = proxy->fault_pins;
    fault_ns0_ = proxy->fault_ns;
    faults0_ = proxy->faults;
  }
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

void LayerProbe::Collect(DilosRuntime& rt, const TimedRuntime& proxy, uint64_t ops,
                         uint64_t app_ns, uint64_t app_pin_ns, const std::string& app,
                         std::map<std::string, double>* out) const {
  using dilos::FaultPhase;
  using dilos::QpClass;
  auto& m = *out;
  const RuntimeStats& s = rt.stats();
  const auto d = [&](uint64_t now, uint64_t then) { return static_cast<double>(now - then); };
  const double n = static_cast<double>(ops);

  // Host time of the app layer itself, with the Pins it made subtracted.
  const double self_us = Ratio(static_cast<double>(app_ns - app_pin_ns) / 1e3, n);
  m["redis.host_us_per_op_self"] = app == "redis" ? self_us : 0.0;
  m["kv.host_us_per_op_self"] = app == "kv" ? self_us : 0.0;
  const double pins = d(proxy.pins(), hit_pins0_ + fault_pins0_);
  m["kv.pins_per_op"] = app == "kv" ? Ratio(pins, n) : 0.0;
  const double hits = d(proxy.hit_pins, hit_pins0_);
  m["pt.host_ns_per_hit"] = Ratio(d(proxy.hit_ns, hit_ns0_), hits);
  m["pt.hits_per_op"] = Ratio(hits, n);
  m["dilos.host_us_per_fault"] =
      Ratio(d(proxy.fault_ns, fault_ns0_) / 1e3, d(proxy.faults, faults0_));

  const double majors = d(s.major_faults, stats0_.major_faults);
  m["dilos.major_faults_per_op"] = Ratio(majors, n);
  m["dilos.minor_faults_per_op"] = Ratio(d(s.minor_faults, stats0_.minor_faults), n);
  m["dilos.writebacks_per_op"] = Ratio(d(s.writebacks, stats0_.writebacks), n);
  m["dilos.evictions_per_op"] = Ratio(d(s.evictions, stats0_.evictions), n);
  m["dilos.direct_reclaims_per_op"] =
      Ratio(d(rt.page_manager().direct_reclaims(), direct_reclaims0_), n);
  m["guides.subpage_reads_per_op"] = Ratio(d(s.subpage_fetches, stats0_.subpage_fetches), n);
  const double issued = d(s.prefetch_issued, stats0_.prefetch_issued);
  m["prefetch.issued_per_op"] = Ratio(issued, n);
  m["prefetch.mapped_early_frac"] =
      Ratio(d(s.prefetch_mapped_early, stats0_.prefetch_mapped_early), issued);

  // Wire traffic by QP class, from the telemetry registry (reset at Start).
  const dilos::MetricsRegistry& reg = *rt.metrics();
  static constexpr QpClass kClasses[] = {QpClass::kFault, QpClass::kPrefetch, QpClass::kCleaner,
                                         QpClass::kGuide};
  for (QpClass cls : kClasses) {
    dilos::QpMetrics total;
    for (int node = 0; node < reg.num_nodes(); ++node) {
      total.Merge(reg.at(node, cls));
    }
    const std::string name = dilos::QpClassName(cls);
    m["rdma.bytes_per_op." + name] = Ratio(static_cast<double>(total.bytes()), n);
    m["rdma.ops_per_op." + name] = Ratio(static_cast<double>(total.ops()), n);
    m["rdma.rtt_us_mean." + name] = total.rtt.MeanNs() / 1e3;
  }
  uint64_t cleaner_write_bytes = 0;
  for (int node = 0; node < reg.num_nodes(); ++node) {
    cleaner_write_bytes += reg.at(node, QpClass::kCleaner).write_bytes;
  }
  m["recovery.write_bytes_per_writeback"] = Ratio(static_cast<double>(cleaner_write_bytes),
                                                  d(s.writebacks, stats0_.writebacks));

  // Fault attribution (reset at Start): simulated fault latency and where it
  // went, over every tenant bucket.
  const dilos::FaultAttribution& attr = *rt.telemetry()->attribution();
  dilos::LogHistogram e2e;
  for (int t = -1; t < dilos::FaultAttribution::kTenantBuckets - 1; ++t) {
    e2e.Merge(attr.e2e(t));
  }
  m["dilos.fault_sim_us_p50"] = static_cast<double>(e2e.Percentile(50.0)) / 1e3;
  m["dilos.fault_sim_us_p99"] = static_cast<double>(e2e.Percentile(99.0)) / 1e3;
  static constexpr std::pair<FaultPhase, const char*> kPhases[] = {
      {FaultPhase::kHandler, "handler"},       {FaultPhase::kAlloc, "alloc"},
      {FaultPhase::kLaneWait, "lane_wait"},    {FaultPhase::kWire, "wire"},
      {FaultPhase::kDecompress, "decompress"}, {FaultPhase::kOverlap, "overlap"},
      {FaultPhase::kPark, "park"},             {FaultPhase::kMap, "map"}};
  for (const auto& [phase, name] : kPhases) {
    m[std::string("phase.") + name + "_share"] =
        Ratio(static_cast<double>(attr.TotalNs(phase)), static_cast<double>(e2e.sum()));
  }

  // Tenancy: the victim is tenant 0 wherever tenants exist.
  const dilos::LogHistogram& victim = attr.e2e(0);
  m["tenant.lane_wait_share"] =
      Ratio(static_cast<double>(attr.phase(0, FaultPhase::kLaneWait).sum()),
            static_cast<double>(victim.sum()));
  m["tenant.sched_fault_ops"] =
      rt.wire_scheduler() != nullptr
          ? static_cast<double>(rt.wire_scheduler()->ops(0) - sched_fault_ops0_)
          : 0.0;

  m["sim.pipeline_parks_per_fault"] = Ratio(d(s.fault_parks, stats0_.fault_parks), majors);
  m["sim.pipeline_stalls_per_fault"] =
      Ratio(d(s.fault_pipeline_stalls, stats0_.fault_pipeline_stalls), majors);
  m["sim.pipeline_inflight_peak"] = static_cast<double>(s.fault_inflight_peak);

  const double tier_hits = d(s.tier_hits, stats0_.tier_hits);
  m["tier.hit_frac"] = Ratio(tier_hits, tier_hits + d(s.tier_misses, stats0_.tier_misses));
  m["tier.compress_ratio"] =
      Ratio(d(s.tier_compressed_bytes, stats0_.tier_compressed_bytes),
            d(s.tier_stored_pages, stats0_.tier_stored_pages) * dilos::kPageSize);
  m["tier.evictions_per_op"] = Ratio(d(s.tier_evictions, stats0_.tier_evictions), n);
}

}  // namespace perfbench
