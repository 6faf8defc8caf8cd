// Simulator workloads: uniform_mid and fig7_faulted.
//
// A request is one Simulator::run on a Mesh reused through
// Mesh::reset_for_run, the way SweepRunner reuses its per-worker meshes.
// Each workload has a fixed pool of distinct inputs; the workload seed
// picks the ones a run makes, and requests cycle through those in whole
// rounds. The statistics of every pool input are committed in
// perfbench/reference/sim_stats.txt, and every request must reproduce its
// input's entry exactly.
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/figures.hpp"
#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "harness.hpp"
#include "noc/mesh.hpp"
#include "noc/simulator.hpp"
#include "traffic/app_profiles.hpp"
#include "traffic/patterns.hpp"

namespace perfbench {

namespace noc = rnoc::noc;
namespace traffic = rnoc::traffic;

namespace {

/// Forwarding TrafficModel of the traced run: times and counts every call
/// into the wrapped model. It passes supports_event_injection and
/// next_injection through, so the event core scans sources exactly as it
/// does on the bare model and the simulated run is unchanged.
class TimedTraffic : public traffic::TrafficModel {
 public:
  explicit TimedTraffic(std::shared_ptr<traffic::TrafficModel> inner)
      : inner_(std::move(inner)) {}

  void init(const rnoc::noc::MeshDims& dims) override {
    TrafficModel::init(dims);
    inner_->init(dims);
  }

  void generate(rnoc::Cycle now, rnoc::NodeId node, rnoc::Rng& rng,
                std::vector<noc::PacketDesc>& out) override {
    const std::size_t before = out.size();
    const auto t0 = Clock::now();
    inner_->generate(now, node, rng, out);
    book(t0, out.size() - before);
  }

  bool supports_event_injection() const override {
    return inner_->supports_event_injection();
  }

  rnoc::Cycle next_injection(rnoc::Cycle from, rnoc::Cycle horizon,
                             rnoc::NodeId node, rnoc::Rng& rng,
                             std::vector<noc::PacketDesc>& out) override {
    const std::size_t before = out.size();
    const auto t0 = Clock::now();
    const rnoc::Cycle at = inner_->next_injection(from, horizon, node, rng, out);
    book(t0, out.size() - before);
    return at;
  }

  void on_delivered(const noc::Flit& tail, rnoc::NodeId at, rnoc::Cycle now,
                    rnoc::Rng& rng,
                    std::vector<traffic::Response>& responses) override {
    const std::size_t before = responses.size();
    const auto t0 = Clock::now();
    inner_->on_delivered(tail, at, now, rng, responses);
    book(t0, responses.size() - before);
  }

  std::uint64_t calls = 0;
  std::uint64_t packets = 0;
  double ms = 0.0;

 private:
  void book(Clock::time_point t0, std::size_t made) {
    ms += ms_between(t0, Clock::now());
    ++calls;
    packets += made;
  }

  std::shared_ptr<traffic::TrafficModel> inner_;
};

constexpr const char* kReferencePath = "perfbench/reference/sim_stats.txt";

/// One distinct simulator input: entry `index` of its workload's pool.
struct SimInput {
  std::size_t index = 0;
  noc::SimConfig cfg;
  std::function<std::shared_ptr<traffic::TrafficModel>()> make_traffic;
  rnoc::fault::FaultPlan faults;
  double plan_ms = 0.0;  ///< Time spent building the fault plan.
};

/// The statistics every run of an input must reproduce exactly.
struct SimStats {
  std::uint64_t packets_received = 0;
  std::uint64_t flits_received = 0;
  std::uint64_t cycles_run = 0;
  std::uint64_t latency_count = 0;
  double latency_mean = 0.0;  ///< Exact: compared bit for bit.
  std::uint64_t faults_injected = 0;
  std::uint64_t flits_traversed = 0;
  std::uint64_t buffer_writes = 0;
  std::uint64_t va_allocations = 0;
  std::uint64_t rc_computations = 0;
  std::uint64_t correction_events = 0;
  std::uint64_t blocked_vc_cycles = 0;

  static SimStats of(const noc::SimReport& r) {
    const noc::RouterStats& ev = r.router_events;
    return {r.packets_received,
            r.flits_received,
            r.cycles_run,
            r.total_latency.count(),
            r.avg_total_latency(),
            static_cast<std::uint64_t>(r.faults_injected),
            ev.flits_traversed,
            ev.buffer_writes,
            ev.va_allocations,
            ev.rc_computations,
            ev.rc_spare_uses + ev.va1_borrows + ev.va2_retries +
                ev.sa1_bypass_grants + ev.sa1_transfers +
                ev.xb_secondary_traversals,
            ev.blocked_vc_cycles};
  }

  bool operator==(const SimStats&) const = default;

  /// One line of the reference table, after the workload and index.
  std::string to_line() const {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%llu %llu %llu %llu %.17g %llu %llu %llu %llu %llu %llu %llu",
                  u(packets_received), u(flits_received), u(cycles_run),
                  u(latency_count), latency_mean, u(faults_injected),
                  u(flits_traversed), u(buffer_writes), u(va_allocations),
                  u(rc_computations), u(correction_events),
                  u(blocked_vc_cycles));
    return buf;
  }

  bool read(std::istream& in) {
    return static_cast<bool>(in >> packets_received >> flits_received >>
                             cycles_run >> latency_count >> latency_mean >>
                             faults_injected >> flits_traversed >>
                             buffer_writes >> va_allocations >>
                             rc_computations >> correction_events >>
                             blocked_vc_cycles);
  }

 private:
  static unsigned long long u(std::uint64_t v) { return v; }
};

/// A simulator workload: its pool of inputs, and which of them a run makes.
struct SimWorkload {
  const char* name;
  /// Nominal cost of one round on the reference host (perfbench/README.md).
  double nominal_round_ms;
  std::size_t pool_size;
  std::function<SimInput(std::size_t index)> input;
  /// The pool indices a run with this workload seed makes, in order.
  std::function<std::vector<std::size_t>(std::uint64_t seed)> pick;
};

const SimWorkload& uniform_mid() {
  // bench_sim_throughput's load-sweep config at 0.20 flits/node/cycle on the
  // protected 8x8 mesh (XY routing and 4 VCs are the RouterConfig defaults).
  // A run makes 4 of the 16 pool inputs, in an order drawn from the seed.
  constexpr std::uint64_t kPoolSeed = 0x0a1f0b20;
  constexpr std::size_t kPool = 16, kPerRun = 4;
  static const SimWorkload w{
      "uniform_mid", 850,  // 4 runs of ~212 ms
      kPool,
      [](std::size_t index) {
        SimInput in;
        in.index = index;
        in.cfg.mesh.dims = {8, 8};
        in.cfg.mesh.router.mode = rnoc::core::RouterMode::Protected;
        in.cfg.mesh.router.routing = noc::RoutingAlgo::XY;
        in.cfg.mesh.router.vcs = 4;
        in.cfg.mesh.core = noc::SimCore::EventDriven;
        in.cfg.warmup = 1000;
        in.cfg.measure = 20000;
        in.cfg.drain_limit = 30000;
        in.cfg.seed = input_seed(kPoolSeed, index);
        in.make_traffic = [] {
          traffic::SyntheticConfig tc;
          tc.pattern = traffic::Pattern::UniformRandom;
          tc.injection_rate = 0.20;
          tc.packet_size = 5;
          return std::make_shared<traffic::SyntheticTraffic>(tc);
        };
        return in;
      },
      [](std::uint64_t seed) {
        std::vector<std::size_t> all(kPool);
        for (std::size_t i = 0; i < kPool; ++i) all[i] = i;
        rnoc::Rng(seed).shuffle(all);
        all.resize(kPerRun);
        return all;
      }};
  return w;
}

const SimWorkload& fig7_faulted() {
  // The Figure-7 faulted runs at full scale: the paper's 8x8 protected mesh
  // with one permanent fault per pipeline stage on every router. The pool
  // holds 4 variants (traffic and fault-plan seeds) of each SPLASH-2
  // profile; a run makes one variant of every profile, drawn from the seed.
  constexpr std::uint64_t kPoolSeed = 0x0f170007;
  constexpr std::size_t kVariants = 4;
  static const std::size_t apps = traffic::splash2_profiles().size();
  static const SimWorkload w{
      "fig7_faulted", 1300,  // 10 runs, 60-230 ms each
      apps * kVariants,
      [](std::size_t index) {
        SimInput in;
        in.index = index;
        in.cfg = rnoc::campaign::figure_sim_config(false);
        in.cfg.mesh.core = noc::SimCore::EventDriven;
        in.cfg.seed = input_seed(kPoolSeed, index);
        const traffic::AppProfile profile =
            traffic::splash2_profiles()[index % apps];
        in.make_traffic = [profile] { return traffic::make_traffic(profile); };
        const auto t0 = Clock::now();
        in.faults = rnoc::campaign::figure_fault_plan(
            in.cfg, input_seed(kPoolSeed, apps * kVariants + index));
        in.plan_ms = ms_between(t0, Clock::now());
        return in;
      },
      [](std::uint64_t seed) {
        rnoc::Rng rng(seed);
        std::vector<std::size_t> picked;
        for (std::size_t i = 0; i < apps; ++i)
          picked.push_back(i + apps * rng.next_below(kVariants));
        return picked;
      }};
  return w;
}

/// The committed statistics of one workload's pool, by pool index.
std::map<std::size_t, SimStats> load_reference(const std::string& root,
                                               const SimWorkload& w) {
  std::istringstream table(read_file(root + "/" + kReferencePath));
  std::map<std::size_t, SimStats> ref;
  std::string line;
  while (std::getline(table, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string name;
    std::size_t index = 0;
    SimStats s;
    if (!(in >> name >> index) || !s.read(in))
      throw std::runtime_error(std::string("malformed line in ") +
                               kReferencePath + ": " + line);
    if (name == w.name) ref[index] = s;
  }
  if (ref.size() != w.pool_size)
    throw std::runtime_error(std::string(kReferencePath) + " has " +
                             std::to_string(ref.size()) + " of the " +
                             std::to_string(w.pool_size) + " " + w.name +
                             " inputs; regenerate it with --record-reference");
  return ref;
}

/// What one traced request measured besides its report.
struct RequestTrace {
  double reset_ms = 0.0;
  double run_self_ms = 0.0;
  double traffic_ms = 0.0;
  std::uint64_t traffic_calls = 0;
  std::uint64_t traffic_packets = 0;
};

/// Runs `in` on `mesh`. A timed request first restores the mesh with
/// reset_for_run; the warm-up request runs on a freshly built mesh.
noc::SimReport run_on(noc::Mesh& mesh, const SimInput& in, bool reset) {
  if (reset) mesh.reset_for_run();
  noc::Simulator sim(in.cfg, in.make_traffic(), mesh);
  if (!in.faults.entries().empty()) sim.set_fault_plan(in.faults);
  return sim.run();
}

/// The traced form of a request: spans around the reset and the run, and
/// the traffic model behind the timing decorator.
noc::SimReport run_traced(noc::Mesh& mesh, const SimInput& in, Tracer& tr,
                          std::uint64_t request, RequestTrace& out) {
  const int root = tr.open("request", request);
  const int reset = tr.open("noc.reset", request, root);
  mesh.reset_for_run();
  tr.close(reset);
  const auto run_start = Clock::now();
  const int run = tr.open("noc.run", request, root);
  const auto timed = std::make_shared<TimedTraffic>(in.make_traffic());
  noc::Simulator sim(in.cfg, timed, mesh);
  if (!in.faults.entries().empty()) sim.set_fault_plan(in.faults);
  noc::SimReport rep = sim.run();
  tr.close(run);
  // The traffic calls are spread through the run; they are logged as one
  // aggregate child span so the run's self time excludes them.
  tr.add("traffic", run_start,
         run_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(timed->ms)),
         request, run);
  tr.close(root);
  out.reset_ms = tr.duration_ms(reset);
  out.run_self_ms = tr.self_ms(run);
  out.traffic_ms = timed->ms;
  out.traffic_calls = timed->calls;
  out.traffic_packets = timed->packets;
  return rep;
}

/// Output check of one request against its input's committed statistics.
std::string check_report(const noc::SimReport& rep, const SimInput& in,
                         const std::map<std::size_t, SimStats>& ref) {
  if (rep.deadlock_suspected) return "deadlock suspected";
  if (rep.undelivered_flits != 0) return "undelivered flits at the end of the run";
  if (!(SimStats::of(rep) == ref.at(in.index)))
    return "statistics of input " + std::to_string(in.index) +
           " differ from " + kReferencePath;
  return {};
}

/// The shared request loop of both simulator workloads.
RunResult run_sim_workload(const Options& opt, const SimWorkload& w) {
  RunResult res;
  // Harness verification, not set-up: read once, outside every timed region.
  const std::map<std::size_t, SimStats> ref = load_reference(opt.root, w);
  const std::vector<std::size_t> picked = w.pick(opt.seed);
  std::vector<SimInput> inputs;
  std::unique_ptr<noc::Mesh> mesh;
  std::vector<double> build_ms;
  std::vector<double> plan_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    inputs.clear();
    plan_ms.push_back(0.0);
    for (std::size_t index : picked) {
      inputs.push_back(w.input(index));
      plan_ms.back() += inputs.back().plan_ms;
    }
    const auto t1 = Clock::now();
    mesh = std::make_unique<noc::Mesh>(inputs.front().cfg.mesh);
    build_ms.push_back(ms_between(t1, Clock::now()));
    // Untimed warm-up request, on the freshly built mesh.
    const std::string err =
        check_report(run_on(*mesh, inputs.front(), false), inputs.front(), ref);
    if (!err.empty()) throw std::runtime_error("warm-up request: " + err);
    res.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  // Timed closed loop: a fixed number of whole rounds over the inputs.
  const std::size_t rounds = rounds_for(opt, w.nominal_round_ms, inputs.size());
  double flit_hops = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const SimInput& in : inputs) {
      std::string err;
      const auto t0 = Clock::now();
      try {
        const noc::SimReport rep = run_on(*mesh, in, true);
        const double ms = ms_between(t0, Clock::now());
        err = check_report(rep, in, ref);
        flit_hops += static_cast<double>(rep.router_events.flits_traversed);
        res.record(ms, err.empty() ? Outcome::Ok : Outcome::Wrong, 1, err);
      } catch (const std::exception& e) {
        res.record(ms_between(t0, Clock::now()), Outcome::Failed, 0, e.what());
      }
    }
  }

  // Every checked request reproduced these, so they are the run's too.
  double latency_sum = 0.0, latency_count = 0.0;
  for (const SimInput& in : inputs) {
    const SimStats& s = ref.at(in.index);
    latency_sum += s.latency_mean * static_cast<double>(s.latency_count);
    latency_count += static_cast<double>(s.latency_count);
  }
  res.sim_latency_avg_cycles = latency_count > 0 ? latency_sum / latency_count : 0;
  if (!opt.trace) return res;

  // Traced run: the same requests again, in the same order, under the
  // timers. Tracing must not change a single simulated statistic.
  Tracer tracer;
  const std::size_t n = res.request_ms.size();
  std::vector<double> traced_ms;
  double run_self_ms = 0, reset_ms = 0, traffic_ms = 0;
  double traffic_calls = 0, traffic_packets = 0;
  std::uint64_t traced_hops = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const SimInput& in = inputs[k % inputs.size()];
    RequestTrace rt;
    const auto t0 = Clock::now();
    try {
      const noc::SimReport rep = run_traced(*mesh, in, tracer, k, rt);
      traced_ms.push_back(ms_between(t0, Clock::now()));
      const std::string err = check_report(rep, in, ref);
      res.count(err.empty() ? Outcome::Ok : Outcome::Wrong, "traced run: " + err);
      traced_hops += rep.router_events.flits_traversed;
    } catch (const std::exception& e) {
      res.count(Outcome::Failed, std::string("traced run: ") + e.what());
    }
    run_self_ms += rt.run_self_ms;
    reset_ms += rt.reset_ms;
    traffic_ms += rt.traffic_ms;
    if (k < inputs.size()) {  // counts: one round of distinct inputs
      traffic_calls += static_cast<double>(rt.traffic_calls);
      traffic_packets += static_cast<double>(rt.traffic_packets);
    }
  }
  tracer.write_json(opt.work_dir + "/spans-" + opt.workload + ".json");

  double hops = 0, cycles = 0, va = 0, rc = 0, writes = 0;
  double faults = 0, corrections = 0, blocked = 0;
  for (const SimInput& in : inputs) {
    const SimStats& s = ref.at(in.index);
    hops += static_cast<double>(s.flits_traversed);
    cycles += static_cast<double>(s.cycles_run);
    va += static_cast<double>(s.va_allocations);
    rc += static_cast<double>(s.rc_computations);
    writes += static_cast<double>(s.buffer_writes);
    faults += static_cast<double>(s.faults_injected);
    corrections += static_cast<double>(s.correction_events);
    blocked += static_cast<double>(s.blocked_vc_cycles);
  }
  const double dn = static_cast<double>(n);
  auto& L = res.layer;
  L["noc.run_self_ms"] = run_self_ms / dn;
  L["noc.ns_per_flit_hop"] =
      traced_hops ? run_self_ms * 1e6 / static_cast<double>(traced_hops) : 0;
  L["noc.reset_ms"] = reset_ms / dn;
  L["noc.build_ms"] = median(build_ms);
  L["noc.flit_hops"] = hops;
  L["noc.cycles_run"] = cycles;
  L["noc.va_allocations"] = va;
  L["noc.rc_computations"] = rc;
  L["noc.buffer_writes"] = writes;
  L["traffic.calls"] = traffic_calls;
  L["traffic.self_ms"] = traffic_ms / dn;
  L["traffic.packets"] = traffic_packets;
  L["fault.plan_ms"] = median(plan_ms);
  L["fault.faults_injected"] = faults;
  L["fault.correction_events"] = corrections;
  L["fault.blocked_vc_cycles"] = blocked;
  L["flit_hops_per_s"] = res.timed_ms > 0 ? flit_hops * 1000.0 / res.timed_ms : 0;
  const double untraced_p50 = median(res.request_ms);
  L["trace.overhead_pct"] =
      untraced_p50 > 0 ? 100.0 * (median(traced_ms) / untraced_p50 - 1.0) : 0;
  return res;
}

}  // namespace

RunResult run_uniform_mid(const Options& opt) {
  return run_sim_workload(opt, uniform_mid());
}

RunResult run_fig7_faulted(const Options& opt) {
  return run_sim_workload(opt, fig7_faulted());
}

void record_reference(const std::string& root) {
  const std::string path = root + "/" + kReferencePath;
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# Simulated statistics of every simulator-workload pool input, each\n"
         "# run on a freshly built mesh. Every benchmark request must reproduce\n"
         "# its input's line exactly. Regenerate after a deliberate model change:\n"
         "#   python3 perfbench/run.py --record-reference\n"
         "# workload index packets_received flits_received cycles_run"
         " latency_count latency_mean faults_injected flits_traversed"
         " buffer_writes va_allocations rc_computations correction_events"
         " blocked_vc_cycles\n";
  for (const SimWorkload* w : {&uniform_mid(), &fig7_faulted()}) {
    for (std::size_t index = 0; index < w->pool_size; ++index) {
      const SimInput in = w->input(index);
      noc::Mesh mesh(in.cfg.mesh);
      const noc::SimReport rep = run_on(mesh, in, false);
      if (rep.deadlock_suspected || rep.undelivered_flits != 0)
        throw std::runtime_error(std::string(w->name) + " input " +
                                 std::to_string(index) +
                                 " did not deliver every flit");
      out << w->name << ' ' << index << ' ' << SimStats::of(rep).to_line()
          << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
