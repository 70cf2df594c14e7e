// Benchmark driver: runs one workload for about `--seconds` of host time and
// prints one JSON result line (the last line of stdout).
//
//   perfbench_driver --workload <redis-get|kv-update|tenants-scan>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--rdma-read-base-ns <ns>] [--no-guide] [--no-fair-share]
//                    [--no-tier]
//
// A run repeats the whole workload (set-up, warm-up, ladder) with the same
// seed until `--seconds` have passed, at least kMinReps times. Simulated
// results must repeat exactly across repetitions; host-time results are the
// median over them. With --trace 1 every repetition is a pair: an untraced
// pass and a traced pass (FarRuntime proxy + telemetry metrics and
// attribution), whose simulated results must be identical.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/driver/harness.h"

namespace perfbench {
namespace {

constexpr int kMinReps = 3;

struct MetricDef {
  std::string name;
  const char* unit;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Every per-layer metric, printed for every workload (0 where a layer does
// not take part). perfbench/README.md maps each to the end-to-end metric it
// should move.
const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d = {
        {"redis.host_us_per_op_self", "us"},
        {"kv.host_us_per_op_self", "us"},
        {"kv.pins_per_op", "count"},
        {"pt.host_ns_per_hit", "ns"},
        {"pt.hits_per_op", "count"},
        {"dilos.host_us_per_fault", "us"},
        {"dilos.major_faults_per_op", "count"},
        {"dilos.minor_faults_per_op", "count"},
        {"dilos.fault_sim_us_p50", "us"},
        {"dilos.fault_sim_us_p99", "us"},
        {"dilos.writebacks_per_op", "count"},
        {"dilos.evictions_per_op", "count"},
        {"dilos.direct_reclaims_per_op", "count"},
        {"guides.subpage_reads_per_op", "count"},
        {"prefetch.issued_per_op", "count"},
        {"prefetch.mapped_early_frac", "frac"},
    };
    for (const std::string cls : {"fault", "prefetch", "cleaner", "guide"}) {
      d.push_back({"rdma.bytes_per_op." + cls, "B"});
      d.push_back({"rdma.ops_per_op." + cls, "count"});
      d.push_back({"rdma.rtt_us_mean." + cls, "us"});
    }
    d.insert(d.end(), {
                          {"tenant.lane_wait_share", "frac"},
                          {"tenant.sched_fault_ops", "count"},
                          {"tenant.scan_pages_per_s", "1/s"},
                          {"sim.pipeline_parks_per_fault", "count"},
                          {"sim.pipeline_stalls_per_fault", "count"},
                          {"sim.pipeline_inflight_peak", "count"},
                          {"tier.hit_frac", "frac"},
                          {"tier.compress_ratio", "frac"},
                          {"tier.evictions_per_op", "count"},
                          {"recovery.write_bytes_per_writeback", "B"},
                          {"phase.handler_share", "frac"},
                          {"phase.alloc_share", "frac"},
                          {"phase.lane_wait_share", "frac"},
                          {"phase.wire_share", "frac"},
                          {"phase.decompress_share", "frac"},
                          {"phase.overlap_share", "frac"},
                          {"phase.park_share", "frac"},
                          {"phase.map_share", "frac"},
                          {"telemetry.host_overhead_frac", "frac"},
                      });
    return d;
  }();
  return kDefs;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--rdma-read-base-ns" && has_value) {
      o->rdma_read_base_ns = std::strtoll(argv[++i], nullptr, 10);
    } else if (a == "--no-guide") {
      o->no_guide = true;
    } else if (a == "--no-fair-share") {
      o->no_fair_share = true;
    } else if (a == "--no-tier") {
      o->no_tier = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", a.c_str());
      return false;
    }
  }
  return !o->workload.empty();
}

// A rung meets the SLO when its p99 is within the workload's limit and the
// start lag over its last tenth is too, i.e. no backlog is building up.
bool MeetsSlo(const Workload& w, const Rung& r) {
  const double limit_ns = w.slo_p99_us * 1e3;
  return static_cast<double>(r.p99_ns) <= limit_ns && r.tail_lag_ns <= limit_ns;
}

void PrintRungs(const Workload& w, const SimResult& s) {
  std::printf("%-10s %8s %10s %10s %10s %10s %9s %11s %s\n", "offered/s", "ops", "p50_us",
              "p99_us", "p999_us", "served/s", "backlog", "tail_lag_us", "slo");
  for (size_t i = 0; i < s.rungs.size(); ++i) {
    const Rung& r = s.rungs[i];
    // p99.9 is shown only where at least ten samples lie beyond it.
    char p999[16] = "-";
    if (r.ops >= 10'000) {
      std::snprintf(p999, sizeof(p999), "%.3f", static_cast<double>(r.p999_ns) / 1e3);
    }
    std::printf("%-10.0f %8llu %10.3f %10.3f %10s %10.0f %9llu %11.3f %s%s\n", r.offered,
                static_cast<unsigned long long>(r.ops), static_cast<double>(r.p50_ns) / 1e3,
                static_cast<double>(r.p99_ns) / 1e3, p999, r.achieved,
                static_cast<unsigned long long>(r.backlog_ops), r.tail_lag_ns / 1e3,
                MeetsSlo(w, r) ? "meets" : "misses", i == w.ref_rung ? "  <- reported rung" : "");
  }
}

// Served rate at the highest rung of the unbroken run of rungs from the
// bottom that meet the SLO.
double SloRate(const Workload& w, const SimResult& s) {
  double rate = 0;
  for (const Rung& r : s.rungs) {
    if (!MeetsSlo(w, r)) {
      break;
    }
    rate = r.achieved;
  }
  return rate;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr, "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload* cand : {&RedisGetWorkload(), &KvUpdateWorkload(), &TenantsScanWorkload()}) {
    if (o.workload == cand->name) {
      w = cand;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }

  const uint64_t t0 = HostNs();
  std::vector<RepResult> plain, traced;
  do {
    plain.push_back(w->run(*w, o, /*traced=*/false));
    if (o.trace) {
      traced.push_back(w->run(*w, o, /*traced=*/true));
    }
  } while (plain.size() < kMinReps || static_cast<double>(HostNs() - t0) / 1e9 < o.seconds);

  // Correctness: every op matched the oracle, warm-up reached steady state,
  // and every repetition (traced or not) produced identical simulated results.
  const SimResult& sim = plain.front().sim;
  const std::vector<double> fp = sim.Fingerprint();
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const auto* reps : {&plain, &traced}) {
    for (const RepResult& r : *reps) {
      attempted += r.sim.attempted;
      failed += r.sim.attempted - r.sim.ok;
      if (!r.sim.warm) {
        std::printf("not warm before rung 1: %s\n", r.sim.warm_note.c_str());
        correct = false;
      }
      if (r.sim.Fingerprint() != fp) {
        std::printf("simulated results differ between repetitions%s\n",
                    reps == &traced ? " (traced vs untraced)" : "");
        correct = false;
      }
    }
  }
  correct = correct && failed == 0;

  std::printf("workload %s seed %llu: %zu repetitions, warm-up: %s\n", w->name,
              static_cast<unsigned long long>(o.seed), plain.size(), sim.warm_note.c_str());
  for (const RepResult& r : plain) {
    std::printf("  repetition: set-up %.3f s, %.3f s in timed calls\n", r.setup_s, r.timed_s);
  }
  PrintRungs(*w, sim);

  std::vector<Metric> metrics;
  std::vector<double> setup, host_ops, timed;
  for (const RepResult& r : plain) {
    setup.push_back(r.setup_s);
    host_ops.push_back(static_cast<double>(r.sim.attempted) / r.timed_s);
    timed.push_back(r.timed_s);
  }
  if (!o.trace) {
    const Rung& ref = sim.rungs[w->ref_rung];
    metrics = {
        {"sim_p50_us", static_cast<double>(ref.p50_ns) / 1e3, "us"},
        {"sim_p99_us", static_cast<double>(ref.p99_ns) / 1e3, "us"},
        {"sim_p999_us", static_cast<double>(ref.p999_ns) / 1e3, "us"},
        {"sim_slo_rate_ops_per_s", SloRate(*w, sim), "1/s"},
        {"ok_ops_frac", static_cast<double>(sim.ok) / static_cast<double>(sim.attempted), "frac"},
        {"wire_bytes_per_op",
         static_cast<double>(sim.wire_bytes) / static_cast<double>(sim.attempted), "B"},
        {"host_ops_per_s", Median(host_ops), "1/s"},
        {"setup_s", Median(setup), "s"},
        {"host_peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    std::vector<double> traced_timed;
    for (const RepResult& r : traced) {
      traced_timed.push_back(r.timed_s);
    }
    for (const MetricDef& def : PerLayerMetrics()) {
      double v = 0;
      const std::string& name = def.name;
      if (name == "telemetry.host_overhead_frac") {
        v = Median(traced_timed) / Median(timed) - 1.0;
      } else if (name == "tenant.scan_pages_per_s") {
        v = sim.scan_pages_per_s;
      } else {
        std::vector<double> vals;
        for (const RepResult& r : traced) {
          auto it = r.layer.find(name);
          vals.push_back(it == r.layer.end() ? 0.0 : it->second);
        }
        v = Median(vals);
      }
      metrics.push_back({name, v, def.unit});
    }
  }

  for (const Metric& m : metrics) {
    std::printf("  %-36s %16s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit);
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
