// kv-update: the sharded far-memory KV service under YCSB-A (50% GET / 50%
// PUT, Zipfian keys, 256 B values), with 2-way replication over 3 memory
// nodes, the compressed local tier, the blocking fault path, and local DRAM
// at ~25% of the leaf data.
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/driver/harness.h"
#include "src/dilos/prefetcher.h"
#include "src/kv/kv_service.h"

namespace perfbench {
namespace {

constexpr uint64_t kRecords = 40'000;
constexpr uint32_t kValueSize = 256;
constexpr int kShards = 4;
constexpr double kTheta = 0.99;
constexpr uint64_t kWarmupChunk = 4'000;
constexpr int kMaxWarmupChunks = 40;

// Value of `key` at generation `gen`: the key and generation tag, then a
// 48-byte seeded motif repeated (compressible, like most stored records).
// A read that returns any other generation is stale and fails the oracle.
void FillValue(char* dst, uint64_t seed, uint64_t key, uint64_t gen) {
  std::memcpy(dst, &key, 8);
  std::memcpy(dst + 8, &gen, 8);
  char motif[48];
  uint64_t x = Mix64(seed ^ Mix64(key * 0x100000001B3ULL + gen));
  for (size_t i = 0; i < sizeof(motif); ++i) {
    if (i % 12 == 0) {
      x = Mix64(x);
    }
    motif[i] = static_cast<char>('a' + (x >> (5 * (i % 12))) % 26);
  }
  for (uint32_t i = 16; i < kValueSize; ++i) {
    dst[i] = motif[(i - 16) % sizeof(motif)];
  }
}

// One op of the YCSB-A stream, generated at set-up.
struct Op {
  uint64_t key;
  bool put;
  uint64_t gen;      // PUT: generation written.
  size_t payload;    // PUT: offset of the value in the payload buffer.
};

// Draws `count` ops, advancing the per-key generation for every PUT and
// appending each PUT's value to `payloads`.
std::vector<Op> MakeOps(uint64_t count, uint64_t seed, const std::vector<uint64_t>& perm,
                        Rng& rng, std::vector<uint64_t>* next_gen, std::string* payloads) {
  std::vector<uint64_t> keys = ZipfDraws(count, kRecords, kTheta, perm, rng);
  std::vector<Op> ops(count);
  for (uint64_t i = 0; i < count; ++i) {
    Op& op = ops[i];
    op.key = keys[i];
    op.put = rng.NextBelow(2) == 1;
    if (op.put) {
      op.gen = ++(*next_gen)[op.key];
      op.payload = payloads->size();
      payloads->resize(payloads->size() + kValueSize);
      FillValue(payloads->data() + op.payload, seed, op.key, op.gen);
    }
  }
  return ops;
}

RepResult Run(const Workload& w, const Options& o, bool traced) {
  RepResult res;
  const uint64_t setup0 = HostNs();
  Rng rng(Mix64(o.seed ^ 0x4B5655ULL));
  const std::vector<uint64_t> perm = Permutation(kRecords, rng);

  // System: 3 memory nodes, replication 2, compressed tier, 1 core.
  dilos::Fabric fabric(o.Cost(), 3);
  dilos::DilosConfig cfg;
  const uint64_t leaf_cap = (dilos::kPageSize - 16) / (8 + kValueSize);
  const uint64_t data_pages = kRecords / leaf_cap + 128;
  cfg.local_mem_bytes = data_pages * dilos::kPageSize / 4;
  cfg.replication = 2;
  cfg.tier.enabled = !o.no_tier;
  cfg.tier.capacity_bytes = cfg.local_mem_bytes / 2;
  if (traced) {
    EnableTracing(&cfg);
  }
  DilosRuntime rt(fabric, cfg, std::make_unique<dilos::NullPrefetcher>());
  RuntimeView view(rt, traced);
  dilos::KvConfig kcfg;
  kcfg.shards = kShards;
  kcfg.tree.value_size = kValueSize;
  dilos::KvService kv(*view.app, kcfg, &rt.tracer());

  // Population: keys in order, generation 0.
  std::vector<char> value(kValueSize);
  for (uint64_t k = 0; k < kRecords; ++k) {
    FillValue(value.data(), o.seed, k, 0);
    kv.Put(k, std::string_view(value.data(), kValueSize));
  }

  // Warm-up: closed-loop YCSB-A until the resident set is full and both the
  // cleaner and the tier drain have turned over a resident set's worth.
  std::vector<uint64_t> next_gen(kRecords, 0);
  std::string out;
  const RuntimeStats s0 = rt.stats();
  const uint64_t frames = rt.frame_pool().total();
  auto warm = [&] {
    const RuntimeStats& s = rt.stats();
    return ResidentFull(rt) && s.writebacks - s0.writebacks >= frames &&
           (o.no_tier ||
            (s.tier_stored_pages - s0.tier_stored_pages >= frames && s.tier_evictions > 0));
  };
  int chunks = 0;
  for (; chunks < kMaxWarmupChunks && (chunks == 0 || !warm()); ++chunks) {
    std::string payloads;
    for (const Op& op : MakeOps(kWarmupChunk, o.seed, perm, rng, &next_gen, &payloads)) {
      if (op.put) {
        kv.Put(op.key, std::string_view(payloads.data() + op.payload, kValueSize));
      } else {
        kv.Get(op.key, &out);
      }
    }
  }
  res.sim.warm = warm();
  res.sim.warm_note = std::to_string(chunks * kWarmupChunk) + " warm-up ops, " +
                      std::to_string(rt.stats().writebacks - s0.writebacks) + " write-backs, " +
                      std::to_string(rt.stats().tier_evictions - s0.tier_evictions) +
                      " tier evictions";

  // Measured inputs: per rung the arrival gaps and the op stream.
  std::vector<uint64_t> cur_gen = next_gen;
  std::string payloads;
  std::vector<std::vector<uint64_t>> gaps;
  std::vector<std::vector<Op>> ops;
  for (const RungSpec& r : w.ladder) {
    gaps.push_back(PoissonGaps(r.ops, r.rate, rng));
    ops.push_back(MakeOps(r.ops, o.seed, perm, rng, &next_gen, &payloads));
  }
  res.setup_s = static_cast<double>(HostNs() - setup0) / 1e9;

  LayerProbe probe;
  probe.Start(rt, view.proxy.get());
  const uint64_t wire0 = WireBytes(fabric);
  const uint64_t pin_ns0 = traced ? view.proxy->pin_ns() : 0;
  uint64_t app_ns = 0;
  Clock& clk = rt.clock(0);
  std::vector<char> expect(kValueSize);
  for (size_t r = 0; r < w.ladder.size(); ++r) {
    OpenLoop loop(clk, gaps[r]);
    for (const Op& op : ops[r]) {
      loop.Begin();
      bool ok = true;
      if (op.put) {
        const uint64_t t0 = HostNs();
        kv.Put(op.key, std::string_view(payloads.data() + op.payload, kValueSize));
        app_ns += HostNs() - t0;
        cur_gen[op.key] = op.gen;
      } else {
        const uint64_t t0 = HostNs();
        const bool found = kv.Get(op.key, &out);
        app_ns += HostNs() - t0;
        FillValue(expect.data(), o.seed, op.key, cur_gen[op.key]);
        ok = found && out.size() == kValueSize &&
             std::memcmp(out.data(), expect.data(), kValueSize) == 0;
      }
      loop.End(clk.now());
      ++res.sim.attempted;
      res.sim.ok += ok ? 1 : 0;
    }
    res.sim.rungs.push_back(loop.Finish(w.ladder[r].rate));
  }
  res.timed_s = static_cast<double>(app_ns) / 1e9;
  res.sim.wire_bytes = WireBytes(fabric) - wire0;
  if (traced) {
    probe.Collect(rt, *view.proxy, res.sim.attempted, app_ns, view.proxy->pin_ns() - pin_ns0,
                  "kv", &res.layer);
  }
  return res;
}

}  // namespace

const Workload& KvUpdateWorkload() {
  static const Workload w{
      "kv-update",
      {{200'000, 10'000}, {400'000, 100'000}, {800'000, 10'000}, {1'200'000, 10'000},
       {1'600'000, 10'000}},
      /*ref_rung=*/1,
      /*slo_p99_us=*/30.0,
      Run};
  return w;
}

}  // namespace perfbench
