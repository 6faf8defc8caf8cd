#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "campaign/engine.hpp"
#include "harness.hpp"

namespace perfbench {

int Tracer::open(std::string name, std::uint64_t request, int parent) {
  const double now = since_epoch(Clock::now());
  spans_.push_back({std::move(name), now, now, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int span) {
  spans_[static_cast<std::size_t>(span)].end_ms = since_epoch(Clock::now());
}

int Tracer::add(std::string name, Clock::time_point start,
                Clock::time_point end, std::uint64_t request, int parent) {
  spans_.push_back(
      {std::move(name), since_epoch(start), since_epoch(end), parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::self_ms(int span) const {
  double children = 0.0;
  for (const Span& s : spans_)
    if (s.parent == span) children += s.end_ms - s.start_ms;
  return duration_ms(span) - children;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  out << "[\n";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", ";
    std::snprintf(buf, sizeof buf,
                  "\"start_ms\": %.6f, \"end_ms\": %.6f, \"parent\": %d, ",
                  s.start_ms, s.end_ms, s.parent);
    out << buf << "\"request\": " << s.request << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) throw std::runtime_error("cannot write span log " + path);
}

void RunResult::count(Outcome outcome, const std::string& error) {
  ++attempted;
  if (outcome == Outcome::Ok) return;
  ++failed;
  if (outcome == Outcome::Wrong) ++wrong;
  if (errors.size() < 5) errors.push_back(error);
}

void RunResult::record(double ms, Outcome outcome, std::uint64_t delivered,
                       const std::string& error) {
  count(outcome, error);
  request_ms.push_back(ms);
  timed_ms += ms;
  if (outcome == Outcome::Ok) points += delivered;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, std::size_t beyond) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= beyond) {
    t.value = v.back();
    return t;
  }
  const std::size_t rank = n - beyond;  // 1-based nearest rank
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

Tail block_tail(const std::vector<double>& v, std::size_t block,
                std::size_t beyond) {
  const std::size_t blocks = v.size() / block;
  if (blocks < 2) return tail(v, beyond);
  std::vector<double> values;
  double percentile = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(b * v.size() / blocks);
    const auto last =
        v.begin() + static_cast<std::ptrdiff_t>((b + 1) * v.size() / blocks);
    const Tail t = tail(std::vector<double>(first, last), beyond);
    values.push_back(t.value);
    percentile += t.percentile / static_cast<double>(blocks);
  }
  return {percentile, median(values)};
}

namespace {

namespace campaign = rnoc::campaign;

/// A point's metrics and observability block by name ("obs." prefixed).
std::map<std::string, campaign::Metric> metrics_of(
    const campaign::PointResult& p) {
  std::map<std::string, campaign::Metric> m;
  for (const campaign::Metric& x : p.metrics) m[x.name] = x;
  for (const campaign::Metric& x : p.obs) m["obs." + x.name] = x;
  return m;
}

}  // namespace

std::string golden_drift(const std::string& golden_text,
                         const std::string& result_text) {
  const campaign::CampaignResult g = campaign::result_from_json(golden_text);
  const campaign::CampaignResult r = campaign::result_from_json(result_text);
  if (g.schema_version != r.schema_version) return "schema_version differs";
  if (g.campaign != r.campaign) return "campaign name differs";
  if (g.config_hash != r.config_hash) return "config_hash differs";
  if (g.smoke != r.smoke) return "smoke flag differs";
  if (g.points.size() != r.points.size()) return "point count differs";
  for (const campaign::PointResult& gp : g.points) {
    const campaign::PointResult* rp = r.find_point(gp.id);
    if (!rp) return "point " + gp.id + " missing";
    const auto got = metrics_of(*rp);
    for (const auto& [name, gm] : metrics_of(gp)) {
      const std::string where = gp.id + "/" + name;
      const auto it = got.find(name);
      if (it == got.end()) return where + " missing";
      const campaign::Metric& nm = it->second;
      if (gm.kind != nm.kind) return where + " changed kind";
      const double allowed =
          gm.kind == campaign::MetricKind::Statistical
              ? kStatSigmas / 1.96 * std::hypot(gm.ci95, nm.ci95) +
                    kStatRelTol * std::fabs(gm.value) + kStatAbsTol
              : kExactRelTol * std::max(std::fabs(gm.value), 1.0);
      if (std::fabs(nm.value - gm.value) > allowed)
        return where + " drifted from the golden";
    }
  }
  return {};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t input_seed(std::uint64_t workload_seed, std::size_t index) {
  return rnoc::campaign::derive_point_seed(workload_seed, index);
}

std::size_t rounds_for(const Options& opt, double nominal_round_ms,
                       std::size_t round_size, std::size_t min_requests) {
  const double budget_ms = 1000.0 * (opt.trace ? opt.seconds / 2 : opt.seconds);
  const auto by_time = static_cast<std::size_t>(budget_ms / nominal_round_ms);
  const std::size_t by_count = (min_requests + round_size - 1) / round_size;
  return std::max<std::size_t>({by_time, by_count, 1});
}

CpuPlan plan_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  if (cpus.size() < 2) return {};
  return {cpus[cpus.size() - 2], cpus.back()};
}

void bind_this_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0)
    throw std::runtime_error("cannot bind to CPU " + std::to_string(cpu));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int self_test() {
  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("  %-58s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };

  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) twenty.push_back(i);  // unsorted on purpose
  check(median(twenty) == 10.5, "median of 1..20 is 10.5");
  check(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");
  const Tail t20 = tail(twenty);
  check(t20.value == 10.0 && t20.percentile == 50.0,
        "tail of 20 samples: p50 with 10 samples beyond");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Tail t100 = tail(hundred);
  check(t100.value == 90.0 && t100.percentile == 90.0,
        "tail of 100 samples: p90");
  std::size_t above = 0;
  for (double x : hundred) above += x > t100.value ? 1 : 0;
  check(above == 10, "exactly 10 samples beyond the tail");
  std::vector<double> two_blocks;
  for (int i = 1; i <= 1500; ++i) two_blocks.push_back(i);
  for (int i = 1; i <= 1500; ++i) two_blocks.push_back(1000 + i);
  const Tail tb = block_tail(two_blocks);
  check(tb.value == 0.5 * (1490 + 2490) && std::fabs(tb.percentile - 1490.0 / 15) < 1e-9,
        "block tail: median of per-block p99.33");
  const Tail tshort = block_tail(hundred);
  check(tshort.value == 90.0 && tshort.percentile == 90.0,
        "block tail of a short run is the plain tail");
  const Tail t5 = tail({1.0, 5.0, 2.0});
  check(t5.value == 5.0 && t5.percentile == 100.0,
        "too few samples: tail is the maximum");

  RunResult acct;
  for (int i = 0; i < 9; ++i) acct.record(1.0, Outcome::Ok, 2);
  for (int i = 0; i < 2; ++i) acct.record(4.0, Outcome::Failed, 2, "timeout");
  acct.record(4.0, Outcome::Wrong, 2, "drift");
  check(acct.attempted == 12 && acct.failed == 3, "attempted/failed counted");
  check(acct.wrong == 1, "only wrong replies count as wrong");
  check(acct.failed_fraction() == 0.25, "failed_fraction = failed / attempted");
  check(acct.points == 18, "failed requests deliver no points");
  check(acct.timed_ms == 21.0 && acct.request_ms.size() == 12,
        "failed requests keep their time");
  acct.count(Outcome::Failed, "traced");
  check(acct.attempted == 13 && acct.failed == 4 && acct.request_ms.size() == 12,
        "traced requests are counted, not timed");
  check(RunResult{}.failed_fraction() == 0.0, "no attempts: fraction 0");

  campaign::CampaignResult base;
  base.campaign = "fixture";
  base.config_hash = "0123456789abcdef";
  base.git_sha = "ff433352";
  base.smoke = true;
  base.points = {{"p0",
                  {campaign::exact_metric("latency", 21.5),
                   campaign::stat_metric("spf", 0.5, 0.01)},
                  {campaign::exact_metric("va1_borrows", 7)}}};
  const std::string golden = campaign::to_json(base);
  const auto variant = [&base](auto&& edit) {
    campaign::CampaignResult res = base;
    edit(res);
    return campaign::to_json(res);
  };
  check(golden_drift(golden, variant([](auto& res) { res.git_sha = "perfbench"; }))
            .empty(),
        "golden match ignores git_sha");
  check(golden_drift(golden, variant([](auto& res) {
          res.points[0].metrics[1] = campaign::stat_metric("spf", 0.51, 0.01);
        })).empty(),
        "golden match: statistical metric within its CI");
  check(!golden_drift(golden, variant([](auto& res) {
           res.points[0].metrics[1] = campaign::stat_metric("spf", 0.6, 0.01);
         })).empty(),
        "golden drift: statistical metric outside its CI");
  check(!golden_drift(golden, variant([](auto& res) {
           res.points[0].metrics[0].value = 21.5 + 1e-6;
         })).empty(),
        "golden drift: exact metric off by 1e-6");
  check(!golden_drift(golden, variant([](auto& res) {
           res.points[0].obs[0].value = 8;
         })).empty(),
        "golden drift: observability counter changed");
  check(!golden_drift(golden, variant([](auto& res) {
           res.points[0].id = "p1";
         })).empty(),
        "golden drift: point renamed");
  check(!golden_drift(golden, variant([](auto& res) {
           res.config_hash = "fedcba9876543210";
         })).empty(),
        "golden drift: config_hash changed");
  return failures;
}

}  // namespace perfbench
