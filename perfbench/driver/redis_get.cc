// redis-get: Redis-lite GETs of Facebook-photo-sized values (4-128 KB) under
// Zipfian popularity, with the app-aware RedisGuide, on the blocking fault
// path with local DRAM at ~25% of the footprint.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/driver/harness.h"
#include "src/dilos/prefetcher.h"
#include "src/guides/redis_guide.h"
#include "src/redis/redis.h"
#include "src/redis/redis_bench.h"

namespace perfbench {
namespace {

constexpr uint64_t kKeys = 512;
constexpr double kTheta = 0.99;
constexpr uint64_t kWarmupGets = 4 * kKeys;

void FillValue(std::string* v, uint32_t size, Rng& rng) {
  v->resize(size);
  for (uint32_t i = 0; i < size; i += 8) {
    uint64_t w = rng.Next();
    std::memcpy(v->data() + i, &w, 8);  // Sizes are multiples of 8.
  }
}

RepResult Run(const Workload& w, const Options& o, bool traced) {
  RepResult res;
  const uint64_t setup0 = HostNs();
  Rng rng(Mix64(o.seed ^ 0x5245444953ULL));

  // Inputs: key names, value sizes, and per rung the arrival gaps and keys.
  // Sizes cycle through the photo mix by popularity rank, so every seed
  // offers the same size-popularity profile; the seed picks which key holds
  // which rank, the key names, the payloads, and every draw.
  const std::vector<uint64_t> perm = Permutation(kKeys, rng);
  std::vector<std::string> keys(kKeys);
  std::vector<uint32_t> sizes(kKeys);
  uint64_t value_bytes = 0;
  const auto& mix = dilos::PhotoMixSizes();
  for (uint64_t rank = 0; rank < kKeys; ++rank) {
    const uint64_t i = perm[rank];
    char buf[32];
    std::snprintf(buf, sizeof(buf), "obj:%016llx",
                  static_cast<unsigned long long>(Mix64(o.seed * kKeys + i)));
    keys[i] = buf;
    sizes[i] = mix[rank % mix.size()];
    value_bytes += sizes[i];
  }
  const std::vector<uint64_t> warm_keys = ZipfDraws(kWarmupGets, kKeys, kTheta, perm, rng);
  std::vector<std::vector<uint64_t>> gaps, picks;
  for (const RungSpec& r : w.ladder) {
    gaps.push_back(PoissonGaps(r.ops, r.rate, rng));
    picks.push_back(ZipfDraws(r.ops, kKeys, kTheta, perm, rng));
  }

  // System: one memory node, 1 core, blocking faults, app-aware guide.
  dilos::Fabric fabric(o.Cost(), 1);
  dilos::DilosConfig cfg;
  cfg.local_mem_bytes = (value_bytes * 115 / 100 + (2 << 20)) / 4;
  if (traced) {
    EnableTracing(&cfg);
  }
  DilosRuntime rt(fabric, cfg, std::make_unique<dilos::NullPrefetcher>());
  RuntimeView view(rt, traced);
  dilos::RedisLite redis(*view.app, kKeys);
  dilos::RedisGuide guide(&redis.heap());
  if (!o.no_guide) {
    redis.set_hooks(&guide);
    rt.set_guide(&guide);
  }

  // Population: every value SET once; the oracle keeps its digest.
  std::vector<uint64_t> digests(kKeys);
  std::string value;
  for (uint64_t i = 0; i < kKeys; ++i) {
    FillValue(&value, sizes[i], rng);
    digests[i] = Digest(value.data(), value.size());
    redis.Set(keys[i], value);
  }
  // Warm-up: closed-loop GETs with the measured popularity, so the resident
  // set holds the hot values when rung 1 starts.
  for (uint64_t k : warm_keys) {
    redis.Get(keys[k], &value);
  }
  res.sim.warm = ResidentFull(rt);
  res.sim.warm_note = "resident " + std::to_string(rt.page_manager().resident_count()) + "/" +
                      std::to_string(rt.frame_pool().total()) + " frames";
  res.setup_s = static_cast<double>(HostNs() - setup0) / 1e9;

  LayerProbe probe;
  probe.Start(rt, view.proxy.get());
  const uint64_t wire0 = WireBytes(fabric);
  const uint64_t pin_ns0 = traced ? view.proxy->pin_ns() : 0;
  uint64_t app_ns = 0;
  Clock& clk = rt.clock(0);
  for (size_t r = 0; r < w.ladder.size(); ++r) {
    OpenLoop loop(clk, gaps[r]);
    for (uint64_t k : picks[r]) {
      loop.Begin();
      const uint64_t t0 = HostNs();
      const bool found = redis.Get(keys[k], &value);
      app_ns += HostNs() - t0;
      loop.End(clk.now());
      ++res.sim.attempted;
      if (found && value.size() == sizes[k] && Digest(value.data(), value.size()) == digests[k]) {
        ++res.sim.ok;
      }
    }
    res.sim.rungs.push_back(loop.Finish(w.ladder[r].rate));
  }
  res.timed_s = static_cast<double>(app_ns) / 1e9;
  res.sim.wire_bytes = WireBytes(fabric) - wire0;
  if (traced) {
    probe.Collect(rt, *view.proxy, res.sim.attempted, app_ns, view.proxy->pin_ns() - pin_ns0,
                  "redis", &res.layer);
  }
  return res;
}

}  // namespace

const Workload& RedisGetWorkload() {
  static const Workload w{
      "redis-get",
      {{25'000, 4'000}, {50'000, 4'000}, {100'000, 100'000}, {200'000, 4'000},
       {250'000, 4'000}},
      /*ref_rung=*/2,
      /*slo_p99_us=*/100.0,
      Run};
  return w;
}

}  // namespace perfbench
