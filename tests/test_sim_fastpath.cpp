// Tests for the simulator fast path: the RingBuffer backing VC/link FIFOs,
// the mesh's incremental accounting counters, bit-identical behaviour of
// the event core vs the full per-cycle sweep, and the parallel sweep runner.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "campaign/figures.hpp"
#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "noc/ring_buffer.hpp"
#include "noc/simulator.hpp"
#include "noc/sweep.hpp"
#include "traffic/app_profiles.hpp"
#include "traffic/patterns.hpp"

namespace rnoc::noc {
namespace {

// --- RingBuffer ---

// --- Response-queue determinism ---

TEST(PendingResponseOrder, EqualReadyPopsInEnqueueOrder) {
  // Regression: the response queue was keyed on `ready` alone, so
  // equal-cycle responses popped in an implementation-defined heap order.
  // The monotonic `seq` tie-break pins FIFO order among equals.
  std::priority_queue<Simulator::PendingResponse,
                      std::vector<Simulator::PendingResponse>, std::greater<>>
      q;
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    traffic::Response r;
    r.node = static_cast<NodeId>(i);
    q.push({/*ready=*/100, seq++, r});
  }
  // An earlier-ready straggler pushed last must still pop first.
  traffic::Response early;
  early.node = 99;
  q.push({/*ready=*/50, seq++, early});

  EXPECT_EQ(q.top().response.node, 99);
  q.pop();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(q.top().ready, 100u);
    EXPECT_EQ(q.top().response.node, static_cast<NodeId>(i));
    q.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingBuffer, FifoOrderAcrossWrap) {
  RingBuffer<int> rb;
  rb.reserve(4);
  for (int round = 0; round < 10; ++round) {
    rb.push_back(2 * round);
    rb.push_back(2 * round + 1);
    EXPECT_EQ(rb.front(), 2 * round);
    rb.pop_front();
    EXPECT_EQ(rb.front(), 2 * round + 1);
    rb.pop_front();
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, GrowsPastReservedCapacityPreservingContents) {
  RingBuffer<int> rb;
  rb.reserve(2);
  for (int i = 0; i < 100; ++i) rb.push_back(i);
  EXPECT_EQ(rb.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
}

TEST(RingBuffer, ReserveAfterWrapKeepsOrder) {
  RingBuffer<int> rb;
  rb.reserve(4);
  for (int i = 0; i < 3; ++i) rb.push_back(i);
  rb.pop_front();
  rb.push_back(3);
  rb.push_back(4);  // head is offset; contents wrap
  rb.reserve(16);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
}

TEST(RingBuffer, MovedFromIsEmptyAndReusable) {
  RingBuffer<int> a;
  a.push_back(1);
  a.push_back(2);
  RingBuffer<int> b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  a.push_back(7);
  EXPECT_EQ(a.front(), 7);
  a = std::move(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(RingBuffer, CopyIsIndependent) {
  RingBuffer<int> a;
  a.push_back(1);
  RingBuffer<int> b(a);
  b.push_back(2);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
}

// --- Incremental accounting ---

TEST(MeshCounters, MatchRecountThroughoutARun) {
  MeshConfig mc;
  mc.dims = {4, 4};
  Mesh m(mc);
  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.1;
  tc.packet_size = 3;
  traffic::SyntheticTraffic traffic(tc);
  traffic.init(mc.dims);
  Rng rng(7);
  std::vector<PacketDesc> out;
  PacketId id = 1;
  for (Cycle now = 0; now < 400; ++now) {
    if (now < 250) {
      for (NodeId n = 0; n < m.nodes(); ++n) {
        out.clear();
        traffic.generate(now, n, rng, out);
        for (PacketDesc& p : out) {
          if (p.dst == n) continue;
          p.id = id++;
          p.src = n;
          m.ni(n).enqueue(p);
        }
      }
    }
    m.step(now);
    ASSERT_EQ(m.flits_in_network(), m.recount_flits_in_network())
        << "at cycle " << now;
    std::uint64_t delivered = 0;
    bool idle = true;
    for (NodeId n = 0; n < m.nodes(); ++n) {
      delivered += m.ni(n).stats().packets_received;
      idle = idle && m.ni(n).injection_idle();
    }
    ASSERT_EQ(m.packets_delivered(), delivered) << "at cycle " << now;
    ASSERT_EQ(m.all_injection_idle(), idle) << "at cycle " << now;
  }
  EXPECT_GT(m.packets_delivered(), 0u);
  EXPECT_EQ(m.flits_in_network(), 0);
}

TEST(MeshCounters, QuiescentMeshStepsNoRouters) {
  MeshConfig mc;
  mc.dims = {4, 4};
  Mesh m(mc);
  for (Cycle now = 0; now < 10; ++now) m.step(now);
  EXPECT_EQ(m.routers_stepped_last_cycle(), 0);
}

// --- Event core vs full sweep determinism ---

struct Scenario {
  const char* name;
  core::RouterMode mode;
  bool faults;
  bool ecc;
};

SimConfig scenario_config(const Scenario& s, SimCore core) {
  SimConfig cfg;
  cfg.mesh.dims = {4, 4};
  cfg.mesh.router.mode = s.mode;
  cfg.mesh.core = core;
  if (s.ecc) {
    cfg.mesh.link_single_ber = 1e-3;
    cfg.mesh.link_double_ber = 1e-4;
  }
  cfg.warmup = 300;
  cfg.measure = 1500;
  cfg.drain_limit = 4000;
  cfg.seed = 42;
  return cfg;
}

SimReport run_scenario(const Scenario& s, SimCore core) {
  const SimConfig cfg = scenario_config(s, core);
  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.08;
  tc.packet_size = 4;
  Simulator sim(cfg, std::make_shared<traffic::SyntheticTraffic>(tc));
  if (s.faults) {
    // A baseline router tolerates nothing, so tolerable placement is only
    // possible in Protected mode; baseline runs take faults that may stall
    // traffic — the determinism comparison holds either way.
    Rng rng(5);
    sim.set_fault_plan(fault::FaultPlan::random(
        cfg.mesh.dims, {kMeshPorts, cfg.mesh.router.vcs}, s.mode, 6,
        cfg.warmup + cfg.measure, rng,
        /*tolerable_only=*/s.mode == core::RouterMode::Protected));
  }
  return sim.run();
}

void expect_identical(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(a.total_latency.count(), b.total_latency.count());
  EXPECT_EQ(a.total_latency.mean(), b.total_latency.mean());
  EXPECT_EQ(a.total_latency.max(), b.total_latency.max());
  EXPECT_EQ(a.network_latency.mean(), b.network_latency.mean());
  EXPECT_EQ(a.latency_hist.quantile(0.99), b.latency_hist.quantile(0.99));
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.flits_received, b.flits_received);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
  EXPECT_EQ(a.undelivered_flits, b.undelivered_flits);
  EXPECT_EQ(a.deadlock_suspected, b.deadlock_suspected);
  EXPECT_EQ(a.router_events.flits_traversed, b.router_events.flits_traversed);
  EXPECT_EQ(a.router_events.buffer_writes, b.router_events.buffer_writes);
  EXPECT_EQ(a.router_events.rc_computations, b.router_events.rc_computations);
  EXPECT_EQ(a.router_events.blocked_vc_cycles,
            b.router_events.blocked_vc_cycles);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  // Every remaining field too: full latency statistics and histogram,
  // every router event counter, energy and degraded-mode accounting.
  EXPECT_TRUE(a == b) << "reports differ in a field not listed above";
}

/// 8x8 uniform random traffic (size-5 packets) at `load` flits/node/cycle.
SimReport run_uniform_8x8(double load, SimCore core) {
  SimConfig cfg;
  cfg.mesh.dims = {8, 8};
  cfg.mesh.core = core;
  cfg.warmup = 200;
  cfg.measure = 1000;
  cfg.drain_limit = 3000;
  cfg.seed = 7;
  traffic::SyntheticConfig tc;
  tc.injection_rate = load;
  tc.packet_size = 5;
  Simulator sim(cfg, std::make_shared<traffic::SyntheticTraffic>(tc));
  return sim.run();
}

/// The Figure-7 app sweep (SPLASH-2 apps on the paper's 8x8 protected mesh,
/// each fault-free and under the per-stage fault plan) with the campaign's
/// smoke windows, run sequentially on `core`.
std::vector<SimReport> run_figure7(SimCore core) {
  SimConfig cfg = campaign::figure_sim_config(/*smoke=*/true);
  cfg.mesh.core = core;
  std::vector<SimReport> reports;
  const auto& apps = traffic::splash2_profiles();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    for (const SweepJob& job :
         campaign::figure_app_jobs(apps[i], cfg, 1000 + i)) {
      Simulator sim(job.cfg, job.make_traffic());
      if (!job.faults.entries().empty()) sim.set_fault_plan(job.faults);
      reports.push_back(sim.run());
    }
  }
  return reports;
}

TEST(ActiveScheduling, BitIdenticalToFullSweep) {
  const Scenario scenarios[] = {
      {"baseline-clean", core::RouterMode::Baseline, false, false},
      {"baseline-faulted", core::RouterMode::Baseline, true, false},
      {"protected-clean", core::RouterMode::Protected, false, false},
      {"protected-faulted", core::RouterMode::Protected, true, false},
      {"protected-faulted-ecc", core::RouterMode::Protected, true, true},
  };
  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(s.name);
    const SimReport swept = run_scenario(s, SimCore::FullSweep);
    const SimReport event = run_scenario(s, SimCore::EventDriven);
    expect_identical(swept, event);
    EXPECT_GT(event.packets_received, 0u);
  }
  // Low, medium and high uniform load on the paper's mesh size.
  for (const double load : {0.05, 0.20, 0.40}) {
    SCOPED_TRACE(load);
    const SimReport event = run_uniform_8x8(load, SimCore::EventDriven);
    expect_identical(run_uniform_8x8(load, SimCore::FullSweep), event);
    EXPECT_GT(event.packets_received, 0u);
  }
  const std::vector<SimReport> swept = run_figure7(SimCore::FullSweep);
  const std::vector<SimReport> event = run_figure7(SimCore::EventDriven);
  ASSERT_EQ(swept.size(), event.size());
  for (std::size_t i = 0; i < swept.size(); ++i) {
    SCOPED_TRACE("figure-7 run " + std::to_string(i));
    expect_identical(swept[i], event[i]);
    EXPECT_GT(event[i].packets_received, 0u);
  }
}

TEST(ActiveScheduling, CoherenceTrafficIdentical) {
  const SimCore cores[] = {SimCore::FullSweep, SimCore::EventDriven};
  const auto& app = traffic::splash2_profiles().front();
  SimReport reports[2];
  for (int i = 0; i < 2; ++i) {
    SimConfig cfg;
    cfg.mesh.dims = {4, 4};
    cfg.mesh.router.mode = core::RouterMode::Protected;
    cfg.mesh.core = cores[i];
    cfg.warmup = 300;
    cfg.measure = 1500;
    cfg.drain_limit = 4000;
    cfg.seed = 9;
    Simulator sim(cfg, traffic::make_traffic(app));
    reports[i] = sim.run();
  }
  expect_identical(reports[0], reports[1]);
}

// --- SweepRunner ---

SweepJob uniform_job(double rate, std::uint64_t seed) {
  SweepJob job;
  job.cfg.mesh.dims = {4, 4};
  job.cfg.warmup = 200;
  job.cfg.measure = 1000;
  job.cfg.drain_limit = 3000;
  job.cfg.seed = seed;
  traffic::SyntheticConfig tc;
  tc.injection_rate = rate;
  job.make_traffic = [tc] {
    return std::make_shared<traffic::SyntheticTraffic>(tc);
  };
  return job;
}

TEST(SweepRunner, MatchesSequentialRuns) {
  std::vector<SweepJob> jobs = {uniform_job(0.05, 1), uniform_job(0.10, 2),
                                uniform_job(0.05, 3)};
  const auto batch = SweepRunner().run(jobs);
  ASSERT_EQ(batch.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(i);
    Simulator sim(jobs[i].cfg, jobs[i].make_traffic());
    expect_identical(sim.run(), batch[i]);
  }
}

TEST(SweepRunner, SameSeedSameReportDifferentSeedDiffers) {
  std::vector<SweepJob> jobs = {uniform_job(0.10, 1), uniform_job(0.10, 1),
                                uniform_job(0.10, 99)};
  const auto r = SweepRunner().run(jobs);
  expect_identical(r[0], r[1]);
  EXPECT_NE(r[0].total_latency.mean(), r[2].total_latency.mean());
}

TEST(SweepRunner, AppliesFaultPlans) {
  SweepJob faulted = uniform_job(0.10, 4);
  faulted.cfg.mesh.router.mode = core::RouterMode::Protected;
  Rng rng(11);
  faulted.faults = fault::FaultPlan::random(
      faulted.cfg.mesh.dims, {kMeshPorts, faulted.cfg.mesh.router.vcs},
      core::RouterMode::Protected, 4, faulted.cfg.warmup, rng, true);
  const auto r = SweepRunner().run({faulted});
  EXPECT_EQ(r[0].faults_injected, 4);
}

TEST(SweepRunner, MergePoolsReports) {
  std::vector<SweepJob> jobs = {uniform_job(0.05, 1), uniform_job(0.10, 2)};
  const auto r = SweepRunner().run(jobs);
  const SimReport m = SweepRunner::merge(r);
  EXPECT_EQ(m.packets_received, r[0].packets_received + r[1].packets_received);
  EXPECT_EQ(m.flits_received, r[0].flits_received + r[1].flits_received);
  EXPECT_EQ(m.cycles_run, r[0].cycles_run + r[1].cycles_run);
  EXPECT_EQ(m.total_latency.count(),
            r[0].total_latency.count() + r[1].total_latency.count());
  EXPECT_DOUBLE_EQ(m.throughput_flits_node_cycle,
                   (r[0].throughput_flits_node_cycle +
                    r[1].throughput_flits_node_cycle) /
                       2.0);
}

TEST(SweepRunner, EmptyBatch) {
  EXPECT_TRUE(SweepRunner().run({}).empty());
  const SimReport m = SweepRunner::merge({});
  EXPECT_EQ(m.packets_received, 0u);
}

}  // namespace
}  // namespace rnoc::noc
