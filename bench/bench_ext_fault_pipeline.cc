// Extension: async fault pipeline saturation (DESIGN.md §12).
//
// Three sweeps over the no-prefetch sequential-read workload — all major
// faults, so throughput is a direct read on the demand-fault path:
//
//   1. Depth sweep: depth 1..16 on one core (depth 1 is the blocking fault
//      path). Throughput should climb with depth until the link, not the
//      fault path, is the bound, then flatten (the Atlas claim: overlap
//      hides fault-path latency).
//   2. Backend sweep: depth 1 vs depth 8 on RDMA / NVMe / SATA. The longer
//      the fetch, the more latency there is to hide — the win grows with
//      backend latency until the backend's bandwidth becomes the ceiling.
//   3. Core scaling at depth 8: aggregate throughput as cores share the
//      link. Saturation here is the point of the whole design.
//
// Gates (exit 1): depth 8 ≥ 2× depth 1 per core, and depth 16 does not
// regress below depth 2 (deepening the pipeline must never hurt).
#include <cstdio>
#include <cstdlib>

#include "bench/common.h"
#include "src/apps/seqrw.h"

namespace dilos {
namespace {

uint64_t g_working_set = 64ULL << 20;

struct PipeRow {
  double gbps = 0;
  double mfaults_per_s = 0;
  uint64_t parks = 0;
  uint64_t batches = 0;
  uint64_t stalls = 0;
  uint64_t peak = 0;
};

// One populate + read sweep at the given pipeline depth.
PipeRow Measure(const CostModel& cost, uint32_t depth, int cores) {
  Fabric fabric(cost);
  DilosConfig cfg;
  cfg.local_mem_bytes = g_working_set / 8;
  cfg.num_cores = cores;
  cfg.fault_pipeline.depth = depth;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());

  uint64_t region = rt.AllocRegion(g_working_set);
  uint64_t per_core = g_working_set / static_cast<uint64_t>(cores);
  for (int c = 0; c < cores; ++c) {
    uint64_t base = region + static_cast<uint64_t>(c) * per_core;
    for (uint64_t off = 0; off < per_core; off += kPageSize) {
      rt.Write<uint64_t>(base + off, off, c);
    }
  }
  rt.Quiesce();
  RuntimeStats& st = rt.stats();
  uint64_t major0 = st.major_faults;
  uint64_t parks0 = st.fault_parks;
  uint64_t batches0 = st.fault_batched_installs;
  uint64_t stalls0 = st.fault_pipeline_stalls;
  uint64_t t0 = rt.MaxTimeNs();
  for (int c = 0; c < cores; ++c) {
    uint64_t base = region + static_cast<uint64_t>(c) * per_core;
    for (uint64_t off = 0; off < per_core; off += kPageSize) {
      volatile uint64_t v = rt.Read<uint64_t>(base + off, c);
      (void)v;
    }
  }
  rt.Quiesce();
  uint64_t elapsed = rt.MaxTimeNs() - t0;
  PipeRow r;
  double secs = ToSeconds(elapsed);
  r.gbps = static_cast<double>(g_working_set) / 1e9 / secs;
  r.mfaults_per_s = static_cast<double>(st.major_faults - major0) / secs / 1e6;
  r.parks = st.fault_parks - parks0;
  r.batches = st.fault_batched_installs - batches0;
  r.stalls = st.fault_pipeline_stalls - stalls0;
  r.peak = st.fault_inflight_peak;

  BenchJson& j = BenchJson::Instance();
  JsonRuntimeConfig(cfg);
  j.Metric("read_gbps", r.gbps);
  j.Metric("mfaults_per_s", r.mfaults_per_s);
  j.Metric("fault_parks", r.parks);
  j.Metric("fault_batched_installs", r.batches);
  j.Metric("fault_pipeline_stalls", r.stalls);
  j.Metric("fault_inflight_peak", r.peak);
  return r;
}

int Run(bool short_mode) {
  if (short_mode) {
    g_working_set = 16ULL << 20;
  }
  BenchJson& j = BenchJson::Instance();
  int violations = 0;

  PrintHeader(
      "Fault pipeline saturation: demand-fault overlap vs depth, backend, cores\n"
      "(no-prefetch sequential read, 12.5% local: every touch is a demand fault)");

  std::printf("-- depth sweep (1 core, RDMA) --\n");
  std::printf("%-10s %8s %10s %9s %9s %8s %6s\n", "depth", "GB/s", "Mfaults/s", "parks",
              "batches", "stalls", "peak");
  double by_depth[5] = {};
  const uint32_t depths[] = {1, 2, 4, 8, 16};
  for (int i = 0; i < 5; ++i) {
    j.BeginRecord("ext_fault_pipeline.depth_sweep");
    j.Config("depth", static_cast<uint64_t>(depths[i]));
    PipeRow r = Measure(CostModel::Default(), depths[i], 1);
    by_depth[i] = r.gbps;
    char label[16];
    std::snprintf(label, sizeof(label), "d=%u", depths[i]);
    std::printf("%-10s %8.2f %10.3f %9llu %9llu %8llu %6llu\n", label, r.gbps,
                r.mfaults_per_s, static_cast<unsigned long long>(r.parks),
                static_cast<unsigned long long>(r.batches),
                static_cast<unsigned long long>(r.stalls),
                static_cast<unsigned long long>(r.peak));
  }

  std::printf("\n-- backend sweep (1 core, d=1 vs d=8) --\n");
  std::printf("%-10s %10s %10s %8s\n", "backend", "d=1", "d=8", "gain");
  struct Backend {
    const char* name;
    CostModel cost;
  } backends[] = {{"rdma", CostModel::Default()},
                  {"nvme", CostModel::Nvme()},
                  {"sata", CostModel::SataSsd()}};
  for (const Backend& b : backends) {
    j.BeginRecord("ext_fault_pipeline.backend");
    j.Config("backend", b.name);
    j.Config("depth", static_cast<uint64_t>(1));
    PipeRow base = Measure(b.cost, 1, 1);
    j.BeginRecord("ext_fault_pipeline.backend");
    j.Config("backend", b.name);
    j.Config("depth", static_cast<uint64_t>(8));
    PipeRow piped = Measure(b.cost, 8, 1);
    std::printf("%-10s %10.3f %10.3f %7.2fx\n", b.name, base.gbps, piped.gbps,
                piped.gbps / base.gbps);
  }

  std::printf("\n-- core scaling (d=8, RDMA) --\n");
  std::printf("%-10s %10s %12s\n", "cores", "agg GB/s", "per-core");
  for (int cores : {1, 2, 4}) {
    j.BeginRecord("ext_fault_pipeline.core_scaling");
    j.Config("cores", static_cast<uint64_t>(cores));
    j.Config("depth", static_cast<uint64_t>(8));
    PipeRow r = Measure(CostModel::Default(), 8, cores);
    std::printf("%-10d %10.2f %12.2f\n", cores, r.gbps, r.gbps / cores);
  }
  std::printf("\n");

  double gain = by_depth[3] / by_depth[0];
  std::printf("depth-8 gain over blocking: %.2fx\n", gain);
  if (gain < 2.0) {
    std::fprintf(stderr, "GATE FAILED: depth-8 gain %.2fx < 2x\n", gain);
    ++violations;
  }
  if (by_depth[4] < by_depth[1] * 0.98) {  // 2% tolerance for batching noise.
    std::fprintf(stderr, "GATE FAILED: depth 16 (%.2f GB/s) regresses below depth 2 (%.2f)\n",
                 by_depth[4], by_depth[1]);
    ++violations;
  }
  if (violations == 0) {
    std::printf("gates: OK (>=2x at depth 8, no regression from deepening)\n");
  }
  if (!j.Flush()) {
    ++violations;
  }
  return violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dilos

int main(int argc, char** argv) {
  bool short_mode = false;
  dilos::BenchParseArgs(argc, argv, &short_mode);
  return dilos::Run(short_mode);
}
