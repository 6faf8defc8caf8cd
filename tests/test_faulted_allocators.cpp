// Faulted-allocator oracle: exact SimReport stats for a seeded matrix of
// runs whose fault plans hit every VA/SA allocator fault site, replayed on
// all three sim cores and compared against the committed fixture
// tests/faulted_allocators.fixture.
//
// The cross-core identity tests compare the cores with each other, so they
// cannot see a change to allocator behaviour that all cores share. This
// fixture pins the fault-tolerant allocator logic itself: Baseline and
// Protected routers, vcs in {2, 3, 4, 6, 8}, vnets in {1, 2}, permanent and
// transient faults on Sa1Arbiter, Sa1Bypass, Sa2Arbiter, XbMux, XbDemux,
// XbPSelect, Va1ArbiterSet and Va2Arbiter. The transient plans land short
// faults on the busiest routers, so faults strike between a switch grant
// and its traversal (the ST-stage cancellation path) as well.
//
// Regenerating the fixture is a deliberate act: run this binary with
// RNOC_RECORD_FIXTURE=<path> and it writes the fixture there instead of
// comparing. A change in any recorded value is a change in simulated
// behaviour and needs its own justification.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "traffic/coherence.hpp"

#ifndef RNOC_TESTS_DIR
#error "RNOC_TESTS_DIR must name the tests/ source directory"
#endif

namespace rnoc::noc {
namespace {

struct Case {
  std::string name;
  core::RouterMode mode;
  int vcs;
  int vnets;
  bool transient;
  std::uint64_t seed;
};

std::vector<Case> matrix() {
  struct Geometry {
    int vcs;
    int vnets;
  };
  // vnets must divide vcs, so vcs = 3 runs with one vnet only.
  const Geometry geoms[] = {{2, 1}, {2, 2}, {3, 1}, {4, 1}, {4, 2},
                            {6, 1}, {6, 2}, {8, 1}, {8, 2}};
  std::vector<Case> cases;
  std::uint64_t seed = 101;
  for (const core::RouterMode mode :
       {core::RouterMode::Baseline, core::RouterMode::Protected}) {
    for (const Geometry& g : geoms) {
      for (const bool transient : {false, true}) {
        std::ostringstream name;
        name << (mode == core::RouterMode::Baseline ? "baseline" : "protected")
             << "_v" << g.vcs << "_n" << g.vnets
             << (transient ? "_transient" : "_permanent");
        cases.push_back({name.str(), mode, g.vcs, g.vnets, transient, seed++});
      }
    }
  }
  return cases;
}

SimConfig case_config(const Case& c, SimCore core) {
  SimConfig cfg;
  cfg.mesh.dims = {4, 4};
  cfg.mesh.router.mode = c.mode;
  cfg.mesh.router.vcs = c.vcs;
  cfg.mesh.router.vnets = c.vnets;
  // Short epochs rotate the SA bypass default winner often, so both the
  // bypass grant and the VC-to-VC transfer fire within one run.
  cfg.mesh.router.default_winner_epoch = 4;
  cfg.mesh.core = core;
  cfg.warmup = 200;
  cfg.measure = 2500;
  cfg.drain_limit = 3000;
  cfg.progress_timeout = 1500;
  cfg.seed = c.seed;
  return cfg;
}

/// Every allocator fault site, in a fixed order. Permanent plans place two
/// faults of each type on random routers; transient plans place six short
/// faults of each type on the four central (busiest) routers of the 4x4
/// mesh.
fault::FaultPlan case_plan(const Case& c, const SimConfig& cfg) {
  using fault::SiteType;
  const SiteType sites[] = {SiteType::Sa1Arbiter,    SiteType::Sa1Bypass,
                            SiteType::Sa2Arbiter,    SiteType::XbMux,
                            SiteType::XbDemux,       SiteType::XbPSelect,
                            SiteType::Va1ArbiterSet, SiteType::Va2Arbiter};
  const NodeId busy[] = {5, 6, 9, 10};
  Rng rng(c.seed * 7919 + 13);
  const Cycle first = 50;
  const Cycle horizon = cfg.warmup + cfg.measure;
  const int per_site = c.transient ? 6 : 2;
  fault::FaultPlan plan;
  for (int k = 0; k < per_site; ++k) {
    for (const SiteType t : sites) {
      const NodeId router =
          c.transient ? busy[rng.next_below(4)]
                      : static_cast<NodeId>(rng.next_below(
                            static_cast<std::uint64_t>(cfg.mesh.dims.nodes())));
      const int a = static_cast<int>(rng.next_below(kMeshPorts));
      const int b = fault::type_uses_vc(t)
                        ? static_cast<int>(rng.next_below(
                              static_cast<std::uint64_t>(c.vcs)))
                        : 0;
      const Cycle at = first + rng.next_below(horizon - first);
      const Cycle duration = c.transient ? 5 + rng.next_below(60) : 0;
      plan.add(at, router, {t, a, b}, duration);
    }
  }
  return plan;
}

SimReport run_case(const Case& c, SimCore core) {
  const SimConfig cfg = case_config(c, core);
  traffic::CoherenceConfig tc;
  tc.request_rate = 0.03;
  Simulator sim(cfg, std::make_shared<traffic::CoherenceTraffic>(tc));
  sim.set_fault_plan(case_plan(c, cfg));
  return sim.run();
}

std::string fmt_double(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// The recorded stats of one report, as ordered key=value pairs.
std::vector<std::pair<std::string, std::string>> stats_of(const SimReport& r) {
  const RouterStats& e = r.router_events;
  auto u = [](std::uint64_t v) { return std::to_string(v); };
  return {
      {"latency_count", u(r.total_latency.count())},
      {"latency_mean", fmt_double(r.total_latency.mean())},
      {"latency_max", fmt_double(r.total_latency.max())},
      {"net_latency_mean", fmt_double(r.network_latency.mean())},
      {"packets_sent", u(r.packets_sent)},
      {"packets_received", u(r.packets_received)},
      {"flits_received", u(r.flits_received)},
      {"cycles_run", u(r.cycles_run)},
      {"undelivered_flits", u(r.undelivered_flits)},
      {"deadlock", r.deadlock_suspected ? "1" : "0"},
      {"faults_injected", std::to_string(r.faults_injected)},
      {"flits_traversed", u(e.flits_traversed)},
      {"buffer_writes", u(e.buffer_writes)},
      {"va_allocations", u(e.va_allocations)},
      {"rc_computations", u(e.rc_computations)},
      {"rc_spare_uses", u(e.rc_spare_uses)},
      {"va1_borrows", u(e.va1_borrows)},
      {"va1_borrow_waits", u(e.va1_borrow_waits)},
      {"va2_retries", u(e.va2_retries)},
      {"sa1_bypass_grants", u(e.sa1_bypass_grants)},
      {"sa1_transfers", u(e.sa1_transfers)},
      {"xb_secondary_traversals", u(e.xb_secondary_traversals)},
      {"blocked_vc_cycles", u(e.blocked_vc_cycles)},
  };
}

/// One case's fixture line: the case name, then its stats.
std::string case_line(const Case& c, SimCore core) {
  std::string line = c.name;
  for (const auto& [k, v] : stats_of(run_case(c, core)))
    line += " " + k + "=" + v;
  return line;
}

/// Fixture lines keyed by case name.
std::map<std::string, std::string> load_fixture() {
  std::ifstream in(std::string(RNOC_TESTS_DIR) + "/faulted_allocators.fixture");
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines[line.substr(0, line.find(' '))] = line;
  }
  return lines;
}

const char* const kHeader =
    "# Exact SimReport stats per faulted-allocator case; one line per case.\n"
    "# Written by test_faulted_allocators with RNOC_RECORD_FIXTURE=<path>.\n";

TEST(FaultedAllocators, MatrixMatchesFixtureOnEveryCore) {
  const std::vector<Case> cases = matrix();
  if (const char* out = std::getenv("RNOC_RECORD_FIXTURE")) {
    std::ofstream f(out);
    f << kHeader;
    for (const Case& c : cases) f << case_line(c, SimCore::FullSweep) << '\n';
    ASSERT_TRUE(f.good()) << "cannot write " << out;
    GTEST_SKIP() << "fixture recorded to " << out;
  }
  const auto fixture = load_fixture();
  ASSERT_EQ(fixture.size(), cases.size())
      << "tests/faulted_allocators.fixture missing or stale";
  const SimCore cores[] = {SimCore::FullSweep, SimCore::ActiveList,
                           SimCore::EventDriven};
  for (const Case& c : cases) {
    const auto it = fixture.find(c.name);
    ASSERT_NE(it, fixture.end()) << "no fixture line for " << c.name;
    for (const SimCore core : cores) {
      SCOPED_TRACE(c.name + " on " + sim_core_name(core));
      EXPECT_EQ(case_line(c, core), it->second);
    }
  }
}

TEST(FaultedAllocators, MatrixExercisesEveryFaultBranch) {
  // The fixture only pins what the matrix reaches: every counter of a
  // fault-tolerance branch must fire somewhere in it.
  RouterStats sum;
  int deadlocked = 0;
  for (const Case& c : matrix()) {
    const SimReport r = run_case(c, SimCore::EventDriven);
    sum.merge(r.router_events);
    deadlocked += r.deadlock_suspected ? 1 : 0;
    EXPECT_GT(r.faults_injected, 0) << c.name;
  }
  EXPECT_GT(sum.va1_borrows, 0u);
  EXPECT_GT(sum.va1_borrow_waits, 0u);
  EXPECT_GT(sum.va2_retries, 0u);
  EXPECT_GT(sum.sa1_bypass_grants, 0u);
  EXPECT_GT(sum.sa1_transfers, 0u);
  EXPECT_GT(sum.xb_secondary_traversals, 0u);
  EXPECT_GT(sum.blocked_vc_cycles, 0u);
  // Some runs survive their faults and some do not.
  EXPECT_GT(deadlocked, 0);
  EXPECT_LT(deadlocked, static_cast<int>(matrix().size()));
}

}  // namespace
}  // namespace rnoc::noc
