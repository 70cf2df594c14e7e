// Table 2: throughput of sequential read and write (GB/s) with 12.5% local
// memory. Paper: Fastswap 0.98/0.49; DiLOS no-prefetch 1.24/1.14;
// readahead 3.74/3.49; trend-based 3.73/3.49.
//
// The DiLOS rows run the default fault pipeline depth 1 (the blocking fault
// path); the no-prefetch row reruns at fault_pipeline.depth 8. This binary
// doubles as the pipeline's CI gate (exit 1 on violation):
//   1. depth 8 improves per-core demand-fault throughput ≥ 2× over depth 1
//      on the pure-fault row (no-prefetch sequential read);
//   2. depth 1 reproduces the major/minor fault counts recorded from the
//      former blocking fault path exactly, for every prefetcher variant.
#include <cstdio>
#include <cstdlib>

#include "bench/common.h"
#include "src/apps/seqrw.h"

namespace dilos {
namespace {

constexpr uint64_t kWorkingSet = 64ULL << 20;
constexpr uint64_t kLocal = kWorkingSet / 8;

struct RowResult {
  SeqResult rd;
  SeqResult wr;
};

RowResult Row(const char* name, FarRuntime& rt, const DilosConfig* cfg = nullptr) {
  SeqWorkload wl(rt, kWorkingSet);
  RowResult r{wl.Read(), wl.Write()};
  std::printf("%-26s %8.2f %8.2f   %7llu %7llu\n", name, r.rd.GBps(), r.wr.GBps(),
              static_cast<unsigned long long>(r.rd.major_faults),
              static_cast<unsigned long long>(r.rd.minor_faults));
  BenchJson& j = BenchJson::Instance();
  j.BeginRecord("table2.seq_throughput");
  j.Config("system", name);
  if (cfg != nullptr) {
    JsonRuntimeConfig(*cfg);
  }
  j.Metric("read_gbps", r.rd.GBps());
  j.Metric("write_gbps", r.wr.GBps());
  j.Metric("read_major_faults", r.rd.major_faults);
  j.Metric("read_minor_faults", r.rd.minor_faults);
  return r;
}

DilosConfig ConfigFor(uint32_t pipeline_depth) {
  DilosConfig cfg;
  cfg.local_mem_bytes = kLocal;
  cfg.fault_pipeline.depth = pipeline_depth;
  return cfg;
}

// Read and write {major, minor} fault counts of the three DiLOS rows
// (no-prefetch, readahead, trend), recorded from the blocking fault path
// the runtime had before depth 1 replaced it.
struct FaultCounts {
  uint64_t rd_major, rd_minor, wr_major, wr_minor;
};
constexpr FaultCounts kBlockingCounts[] = {
    {16384, 0, 16384, 0}, {2050, 12284, 2048, 12288}, {1833, 7267, 6300, 1891}};

int Run() {
  PrintHeader(
      "Table 2: sequential read/write throughput (GB/s), 12.5% local\n"
      "(paper: Fastswap 0.98/0.49 | DiLOS 1.24/1.14 | +readahead 3.74/3.49 "
      "| +trend 3.73/3.49)");
  std::printf("%-26s %8s %8s   %7s %7s\n", "system", "read", "write", "major", "minor");
  {
    Fabric fabric;
    auto rt = MakeFastswap(fabric, kLocal);
    Row("Fastswap", *rt);
  }

  RowResult depth1[3];
  int i = 0;
  for (DilosVariant v :
       {DilosVariant::kNoPrefetch, DilosVariant::kReadahead, DilosVariant::kTrend}) {
    Fabric fabric;
    DilosConfig cfg = ConfigFor(1);
    auto rt = std::make_unique<DilosRuntime>(fabric, cfg, MakePrefetcher(v));
    depth1[i++] = Row(VariantName(v), *rt, &cfg);
  }
  RowResult piped;
  {
    Fabric fabric;
    DilosConfig cfg = ConfigFor(8);
    auto rt = std::make_unique<DilosRuntime>(fabric, cfg,
                                             MakePrefetcher(DilosVariant::kNoPrefetch));
    piped = Row("DiLOS no-prefetch [d=8]", *rt, &cfg);
  }
  std::printf("\n");

  // Gate 1: pipelining must beat blocking ≥ 2× on the demand-fault-bound
  // row. No-prefetch sequential read is all major faults, so read GB/s is a
  // direct proxy for per-core demand-fault throughput (faults/s × 4 KB).
  double gain = piped.rd.GBps() / depth1[0].rd.GBps();
  std::printf("pipeline gain (no-prefetch read, d=8 vs blocking): %.2fx\n", gain);
  int violations = 0;
  if (gain < 2.0) {
    std::fprintf(stderr, "GATE FAILED: pipeline d=8 gain %.2fx < 2x over blocking\n", gain);
    ++violations;
  }
  // Gate 2: depth 1 is the blocking path — its fault counts must match the
  // recorded blocking counts exactly, per variant.
  const char* names[] = {"no-prefetch", "readahead", "trend"};
  for (int v = 0; v < 3; ++v) {
    const FaultCounts& want = kBlockingCounts[v];
    if (depth1[v].rd.major_faults != want.rd_major ||
        depth1[v].rd.minor_faults != want.rd_minor ||
        depth1[v].wr.major_faults != want.wr_major ||
        depth1[v].wr.minor_faults != want.wr_minor) {
      std::fprintf(stderr,
                   "GATE FAILED: depth-1 fault counts diverge from blocking (%s): "
                   "rd %llu/%llu vs %llu/%llu, wr %llu/%llu vs %llu/%llu\n",
                   names[v],
                   static_cast<unsigned long long>(depth1[v].rd.major_faults),
                   static_cast<unsigned long long>(depth1[v].rd.minor_faults),
                   static_cast<unsigned long long>(want.rd_major),
                   static_cast<unsigned long long>(want.rd_minor),
                   static_cast<unsigned long long>(depth1[v].wr.major_faults),
                   static_cast<unsigned long long>(depth1[v].wr.minor_faults),
                   static_cast<unsigned long long>(want.wr_major),
                   static_cast<unsigned long long>(want.wr_minor));
      ++violations;
    }
  }
  if (violations == 0) {
    std::printf("gates: OK (>=2x pipelined, depth-1 == blocking fault counts)\n");
  }
  if (!BenchJson::Instance().Flush()) {
    ++violations;
  }
  return violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dilos

int main(int argc, char** argv) {
  dilos::BenchParseArgs(argc, argv);
  return dilos::Run();
}
