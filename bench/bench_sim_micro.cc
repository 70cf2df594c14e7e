// Host-side microbenchmarks (google-benchmark) of the simulator substrates
// themselves: page-table walks, frame pool churn, the far-heap allocator,
// the demand-fault path at several resident-set sizes, page-integrity
// hashing and arrival verification, and the szip codec.
// These measure the reproduction's own performance, not simulated time —
// useful for keeping the simulator fast enough to run the paper-scale
// sweeps.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/apps/szip.h"
#include "src/ddc_alloc/far_heap.h"
#include "src/dilos/prefetcher.h"
#include "src/dilos/runtime.h"
#include "src/pt/frame_pool.h"
#include "src/pt/page_table.h"
#include "src/recovery/integrity.h"

namespace dilos {
namespace {

void BM_PageTableWalk(benchmark::State& state) {
  PageTable pt;
  for (uint64_t i = 0; i < 4096; ++i) {
    pt.Set(kFarBase + i * kPageSize, MakeRemotePte(i));
  }
  uint64_t va = kFarBase;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.Get(va));
    va += kPageSize;
    if (va >= kFarBase + 4096 * kPageSize) {
      va = kFarBase;
    }
  }
}
BENCHMARK(BM_PageTableWalk);

void BM_FramePoolAllocFree(benchmark::State& state) {
  FramePool pool(1024);
  for (auto _ : state) {
    auto f = pool.Alloc();
    benchmark::DoNotOptimize(f);
    pool.Free(*f);
  }
}
BENCHMARK(BM_FramePoolAllocFree);

void BM_FarHeapMallocFree(benchmark::State& state) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 64ULL << 20;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  FarHeap heap(rt);
  for (auto _ : state) {
    uint64_t a = heap.Malloc(128);
    benchmark::DoNotOptimize(a);
    heap.Free(a);
  }
}
BENCHMARK(BM_FarHeapMallocFree);

void BM_DilosPinLocal(benchmark::State& state) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 16ULL << 20;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(1 << 20);
  for (uint64_t off = 0; off < (1 << 20); off += kPageSize) {
    rt.Write<uint8_t>(region + off, 1);
  }
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.Pin(region + off, 8, false, 0));
    off = (off + kPageSize) & ((1 << 20) - 1);
  }
}
BENCHMARK(BM_DilosPinLocal);

// Host time per demand fault against a resident set of state.range(0)
// frames. A read-only cyclic sweep one quarter larger than the frame pool
// faults on every touch (the clock degrades to FIFO), and every page is
// clean, so background work that scans the resident set instead of the
// dirty pages shows up as a per-fault cost growing with the argument.
void BM_DilosFaultResident(benchmark::State& state) {
  const uint64_t frames = static_cast<uint64_t>(state.range(0));
  const uint64_t pages = frames + frames / 4;
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = frames * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint8_t>(region + p * kPageSize, 1);
  }
  for (uint64_t p = 0; p < pages; ++p) {  // Refetches every page clean.
    rt.Read<uint8_t>(region + p * kPageSize);
  }
  uint64_t faults0 = rt.stats().major_faults;
  uint64_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.Read<uint8_t>(region + p * kPageSize));
    p = p + 1 == pages ? 0 : p + 1;
  }
  state.counters["faults_per_iter"] = benchmark::Counter(
      static_cast<double>(rt.stats().major_faults - faults0), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DilosFaultResident)->Arg(512)->Arg(4096)->Arg(32768);

// Page-integrity cost per 4 KB page: the checksum every full-page arrival
// and write-back pays on the host.
std::vector<uint8_t> NoisePage() {
  std::vector<uint8_t> page(kPageSize);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint8_t& b : page) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  return page;
}

void BM_PageChecksum(benchmark::State& state) {
  std::vector<uint8_t> page = NoisePage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(page.data());
    benchmark::DoNotOptimize(PageChecksum(page.data()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_PageChecksum);

// Arrival verification against a store holding checksums for 4096 pages:
// arrivals of those pages (Arg 1: lookup + hash) or of 4096 pages that
// carry none (Arg 0: lookup only, the never-written-back case).
void BM_VerifyPageBytes(benchmark::State& state) {
  std::vector<uint8_t> page = NoisePage();
  PageStore store;
  for (uint64_t i = 0; i < 4096; ++i) {
    store.SetChecksum((kFarBase >> kPageShift) + i, PageChecksum(page.data()));
  }
  const uint64_t base = kFarBase + (state.range(0) != 0 ? 0 : 4096 * kPageSize);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(page.data());
    benchmark::DoNotOptimize(VerifyPageBytes(store, base + i * kPageSize, page.data()));
    i = (i + 1) & 4095;
  }
}
BENCHMARK(BM_VerifyPageBytes)->ArgName("with_sum")->Arg(1)->Arg(0);

void BM_SzipCompress64K(benchmark::State& state) {
  std::vector<uint8_t> src(65536);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>((i % 97 < 64) ? 'a' + (i >> 8) % 26 : i * 31);
  }
  std::vector<uint8_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(SzipCompressBlock(src.data(), src.size(), &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_SzipCompress64K);

}  // namespace
}  // namespace dilos

BENCHMARK_MAIN();
