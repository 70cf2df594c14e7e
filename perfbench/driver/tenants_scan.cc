// tenants-scan: two tenants on one memory node and 2 MB of local DRAM. The
// victim (tenant 0) issues Zipfian page reads open loop on core 0; the
// aggressor (tenant 1) runs a closed-loop sequential scan on core 1, which
// readahead (128 KB windows, the Linux file default) turns into bulk
// prefetch traffic that can saturate the wire. The fair-share wire scheduler
// and the async fault pipeline (depth 8) are on.
#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/driver/harness.h"
#include "src/dilos/readahead.h"

namespace perfbench {
namespace {

constexpr uint64_t kPages = 2048;  // Per tenant: 8 MB each against 2 MB local.
constexpr double kTheta = 0.99;
constexpr uint64_t kWarmupReads = 4'000;
constexpr double kWarmupRate = 100'000;
constexpr uint32_t kReadaheadPages = 32;
// Mean application work per victim request, charged to core 0 before its
// read (exponentially distributed, like RedisLite's per-command overhead
// but variable), so victim requests queue behind each other as a server's do.
constexpr double kVictimWorkNs = 500;

uint64_t Sentinel(uint64_t seed, int tenant, uint64_t page) {
  return Mix64(seed ^ (static_cast<uint64_t>(tenant) << 40) ^ page);
}

// Drives both tenants over one rung. The cores' simulated clocks advance
// together: before each victim op the aggressor scans until its own clock
// has caught up with the op's start, so neither core runs ahead of the
// shared wire.
class TwoCoreLoop {
 public:
  TwoCoreLoop(DilosRuntime& rt, FarRuntime& app, uint64_t seed, const uint64_t region[2])
      : rt_(rt), app_(app), seed_(seed), region_{region[0], region[1]} {}

  // Runs one rung; returns the victim's outcome and accumulates the
  // aggressor's pages and simulated time.
  Rung Run(const std::vector<uint64_t>& gaps, const std::vector<uint64_t>& work,
           const std::vector<uint64_t>& pages, double offered) {
    Clock& victim = rt_.clock(0);
    Clock& aggressor = rt_.clock(1);
    const uint64_t scan0 = aggressor.now();
    OpenLoop loop(victim, gaps);
    for (size_t i = 0; i < pages.size(); ++i) {
      const uint64_t start = std::max(loop.NextDue(), victim.now());
      while (aggressor.now() < start) {
        ScanStep();
      }
      loop.Begin();
      victim.Advance(work[i]);
      const uint64_t page = pages[i];
      const uint64_t va = region_[0] + page * dilos::kPageSize;
      const uint64_t t0 = HostNs();
      const auto v = app_.Read<uint64_t>(va, 0);
      tally.host_ns += HostNs() - t0;
      loop.End(Completion(va));
      ++tally.attempted;
      tally.ok += v == Sentinel(seed_, 0, page) ? 1 : 0;
    }
    tally.scan_ns += aggressor.now() - scan0;
    return loop.Finish(offered);
  }

  struct Tally {
    uint64_t attempted = 0, ok = 0;  // Victim reads plus aggressor pages.
    uint64_t scan_pages = 0, scan_ns = 0;
    uint64_t host_ns = 0;
  } tally;

 private:
  void ScanStep() {
    const uint64_t t0 = HostNs();
    const auto v = app_.Read<uint64_t>(region_[1] + cursor_ * dilos::kPageSize, 1);
    tally.host_ns += HostNs() - t0;
    ++tally.attempted;
    ++tally.scan_pages;
    tally.ok += v == Sentinel(seed_, 1, cursor_) ? 1 : 0;
    cursor_ = (cursor_ + 1) % kPages;
  }

  // A read whose fault is still parked in the pipeline returned early with
  // the core released; the request itself completes when its fetch does.
  uint64_t Completion(uint64_t va) {
    uint64_t done = rt_.clock(0).now();
    if (const dilos::FaultPipeline* pipe = rt_.pipeline(0)) {
      for (const dilos::FaultFiber& f : pipe->parked()) {
        if (f.page_va == va) {
          done = std::max(done, f.done_ns);
        }
      }
    }
    return done;
  }

  DilosRuntime& rt_;
  FarRuntime& app_;
  uint64_t seed_;
  uint64_t region_[2];
  uint64_t cursor_ = 0;
};

RepResult Run(const Workload& w, const Options& o, bool traced) {
  RepResult res;
  const uint64_t setup0 = HostNs();
  Rng rng(Mix64(o.seed ^ 0x54454E414E54ULL));
  const std::vector<uint64_t> perm = Permutation(kPages, rng);
  const std::vector<uint64_t> warm_gaps = PoissonGaps(kWarmupReads, kWarmupRate, rng);
  const std::vector<uint64_t> warm_work = PoissonGaps(kWarmupReads, 1e9 / kVictimWorkNs, rng);
  const std::vector<uint64_t> warm_pages = ZipfDraws(kWarmupReads, kPages, kTheta, perm, rng);
  std::vector<std::vector<uint64_t>> gaps, work, picks;
  for (const RungSpec& r : w.ladder) {
    gaps.push_back(PoissonGaps(r.ops, r.rate, rng));
    work.push_back(PoissonGaps(r.ops, 1e9 / kVictimWorkNs, rng));
    picks.push_back(ZipfDraws(r.ops, kPages, kTheta, perm, rng));
  }

  dilos::Fabric fabric(o.Cost(), 1);
  dilos::DilosConfig cfg;
  cfg.local_mem_bytes = 2ULL << 20;
  cfg.num_cores = 2;
  cfg.tenants.enabled = true;
  cfg.tenants.fair_share = !o.no_fair_share;
  cfg.fault_pipeline.enabled = true;
  cfg.fault_pipeline.depth = 8;
  if (traced) {
    EnableTracing(&cfg);
  }
  DilosRuntime rt(fabric, cfg, std::make_unique<dilos::ReadaheadPrefetcher>(kReadaheadPages));
  RuntimeView view(rt, traced);
  uint64_t region[2];
  for (int t = 0; t < 2; ++t) {
    const int id = rt.CreateTenant(dilos::TenantSpec{t == 0 ? "victim" : "aggressor", 1, 0,
                                                     dilos::QuotaPolicy::kHardReject});
    region[t] = rt.AllocRegion(kPages * dilos::kPageSize, id);
    for (uint64_t p = 0; p < kPages; ++p) {
      view.app->Write<uint64_t>(region[t] + p * dilos::kPageSize, Sentinel(o.seed, t, p), t);
    }
  }
  TwoCoreLoop loop(rt, *view.app, o.seed, region);
  loop.Run(warm_gaps, warm_work, warm_pages, kWarmupRate);
  res.sim.warm = ResidentFull(rt) && loop.tally.ok == loop.tally.attempted;
  res.sim.warm_note = "resident " + std::to_string(rt.page_manager().resident_count()) + "/" +
                      std::to_string(rt.frame_pool().total()) + " frames";
  loop.tally = {};
  res.setup_s = static_cast<double>(HostNs() - setup0) / 1e9;

  LayerProbe probe;
  probe.Start(rt, view.proxy.get());
  const uint64_t wire0 = WireBytes(fabric);
  for (size_t r = 0; r < w.ladder.size(); ++r) {
    res.sim.rungs.push_back(loop.Run(gaps[r], work[r], picks[r], w.ladder[r].rate));
  }
  res.sim.attempted = loop.tally.attempted;
  res.sim.ok = loop.tally.ok;
  res.sim.wire_bytes = WireBytes(fabric) - wire0;
  res.sim.scan_pages_per_s =
      static_cast<double>(loop.tally.scan_pages) * 1e9 / static_cast<double>(loop.tally.scan_ns);
  res.timed_s = static_cast<double>(loop.tally.host_ns) / 1e9;
  if (traced) {
    probe.Collect(rt, *view.proxy, res.sim.attempted, 0, 0, "", &res.layer);
  }
  return res;
}

}  // namespace

const Workload& TenantsScanWorkload() {
  static const Workload w{
      "tenants-scan",
      {{100'000, 5'000}, {200'000, 20'000}, {400'000, 5'000}, {600'000, 5'000},
       {800'000, 5'000}, {1'000'000, 5'000}},
      /*ref_rung=*/1,
      /*slo_p99_us=*/20.0,
      Run};
  return w;
}

}  // namespace perfbench
