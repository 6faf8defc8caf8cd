// rnoc_perfbench — one workload run of the repository's benchmark.
//
//   rnoc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--root DIR] [--work-dir DIR]
//   rnoc_perfbench --self-test
//   rnoc_perfbench --record-reference [--root DIR]
//
// Workloads: uniform_mid, fig7_faulted, service_warm (see
// perfbench/README.md). With --trace 0 the run prints the end-to-end
// metrics; with --trace 1 it runs the same requests untraced and then
// traced, and prints the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace {

using perfbench::Options;
using perfbench::RunResult;

struct Printed {
  const char* name;
  const char* unit;
};

// The per-layer metrics every traced run prints, zero where a layer is not
// exercised by the workload. Order and names match BENCHMARK.json.
const std::vector<Printed>& layer_metrics() {
  static const std::vector<Printed> m = {
      {"noc.run_self_ms", "ms"},
      {"noc.ns_per_flit_hop", "ns"},
      {"noc.reset_ms", "ms"},
      {"noc.build_ms", "ms"},
      {"noc.flit_hops", "count"},
      {"noc.cycles_run", "count"},
      {"noc.va_allocations", "count"},
      {"noc.rc_computations", "count"},
      {"noc.buffer_writes", "count"},
      {"traffic.calls", "count"},
      {"traffic.self_ms", "ms"},
      {"traffic.packets", "count"},
      {"fault.plan_ms", "ms"},
      {"fault.faults_injected", "count"},
      {"fault.correction_events", "count"},
      {"fault.blocked_vc_cycles", "count"},
      {"campaign.expand_ms", "ms"},
      {"campaign.execute_ms", "ms"},
      {"campaign.execute_ms.fit_table1", "ms"},
      {"campaign.execute_ms.fit_table2", "ms"},
      {"campaign.execute_ms.mttf", "ms"},
      {"campaign.execute_ms.spf_montecarlo", "ms"},
      {"campaign.execute_ms.area_power", "ms"},
      {"campaign.execute_ms.critical_path", "ms"},
      {"campaign.execute_ms.spf_table3", "ms"},
      {"campaign.execute_ms.spf_vc_sweep", "ms"},
      {"campaign.execute_ms.latency_splash2", "ms"},
      {"campaign.execute_ms.latency_parsec", "ms"},
      {"campaign.execute_ms.load_sweep", "ms"},
      {"campaign.execute_ms.environment_sweep", "ms"},
      {"campaign.execute_ms.ablation_mechanisms", "ms"},
      {"campaign.execute_ms.degraded_mode", "ms"},
      {"campaign.execute_ms.self_heal", "ms"},
      {"campaign.serialize_ms", "ms"},
      {"campaign.parse_ms", "ms"},
      {"campaign.result_bytes", "bytes"},
      {"serve.cache_store_ms", "ms"},
      {"serve.cache_stores", "count"},
      {"serve.cache_lookup_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.wire_rtt_ms", "ms"},
      {"flit_hops_per_s", "1/s"},
      {"failed_fraction", "ratio"},
      {"request_tail_percentile", "%"},
      {"request_samples", "count"},
      {"trace.overhead_pct", "%"},
  };
  return m;
}

void usage() {
  std::fprintf(stderr,
               "usage: rnoc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--work-dir DIR]\n"
               "       rnoc_perfbench --self-test\n"
               "       rnoc_perfbench --record-reference [--root DIR]\n");
}

RunResult run_workload(const Options& opt) {
  if (opt.workload == "uniform_mid") return perfbench::run_uniform_mid(opt);
  if (opt.workload == "fig7_faulted") return perfbench::run_fig7_faulted(opt);
  if (opt.workload == "service_warm") return perfbench::run_service_warm(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

/// Prints the metrics as a table and then as the final JSON line. `correct`
/// says that every reply checked out; `failed` also counts requests that
/// got no reply (an error or a timeout).
void print_result(const RunResult& r,
                  const std::vector<std::pair<Printed, double>>& metrics) {
  for (const auto& [m, v] : metrics)
    std::printf("  %-40s %18.6f %s\n", m.name, v, m.unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].first.name, v,
                metrics[i].first.unit);
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  RunResult r = run_workload(opt);
  for (const std::string& e : r.errors)
    std::fprintf(stderr, "perfbench: failed request: %s\n", e.c_str());

  const perfbench::Tail tail = perfbench::block_tail(r.request_ms);
  std::vector<std::pair<Printed, double>> metrics;
  if (!opt.trace) {
    metrics = {
        {{"points_per_s", "1/s"},
         r.timed_ms > 0 ? static_cast<double>(r.points) * 1000.0 / r.timed_ms
                        : 0},
        {{"request_p50_ms", "ms"}, perfbench::median(r.request_ms)},
        {{"request_tail_ms", "ms"}, tail.value},
        {{"sim_latency_avg_cycles", "cycles"}, r.sim_latency_avg_cycles},
        {{"setup_s", "s"}, perfbench::median(r.setup_s)},
        {{"peak_rss_mb", "MB"}, perfbench::peak_rss_mb()},
    };
    std::printf("%s seed %llu: %zu timed requests, tail = p%.2f\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                r.request_ms.size(), tail.percentile);
  } else {
    r.layer["failed_fraction"] = r.failed_fraction();
    r.layer["request_tail_percentile"] = tail.percentile;
    r.layer["request_samples"] = static_cast<double>(r.request_ms.size());
    for (const Printed& m : layer_metrics())
      metrics.push_back({m, r.layer[m.name]});
  }
  print_result(r, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self_test = false;
  bool record = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--self-test") self_test = true;
      else if (a == "--record-reference") record = true;
      else if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() != "0";
      else if (a == "--root") opt.root = value();
      else if (a == "--work-dir") opt.work_dir = value();
      else throw std::invalid_argument("unknown argument " + a);
    }
    if (self_test) {
      std::printf("perfbench self-test\n");
      const int failures = perfbench::self_test();
      std::printf("%s\n", failures ? "FAILED" : "all checks passed");
      return failures ? 1 : 0;
    }
    if (record) {
      perfbench::record_reference(opt.root);
      return 0;
    }
    if (opt.workload.empty() || opt.seconds <= 0) {
      usage();
      return 2;
    }
    // Everything the run writes (caches, socket, span log) goes under the
    // work directory; the relative socket path keeps sun_path short.
    namespace fs = std::filesystem;
    opt.root = fs::absolute(opt.root).string();
    if (opt.work_dir.empty()) opt.work_dir = "perfbench-work";
    fs::create_directories(opt.work_dir);
    fs::current_path(opt.work_dir);
    opt.work_dir = ".";
    opt.cpus = perfbench::plan_cpus();
    perfbench::bind_this_thread(opt.cpus.client);
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rnoc_perfbench: %s\n", e.what());
    return 1;
  }
}
