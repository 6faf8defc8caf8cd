// Directed event-core tests (PR 6): the EventDriven core against the
// FullSweep oracle under the hard combinations — faults (permanent and
// transient) falling due in the middle of the drain phase, a degraded-mode
// router death and reroute epoch switch during drain, mesh reset-and-reuse
// inside the sweep runner — plus the FaultInjector's next_due_cycle gate and
// the mesh's next_event_cycle fast-forward bound. The _checked variant of
// this binary repeats everything with RNOC_INVARIANTS swept each cycle; the
// RNOC_TRACE sampling combination lives in test_obs.cpp (traced binary).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "noc/sweep.hpp"
#include "traffic/patterns.hpp"

namespace rnoc::noc {
namespace {

void expect_identical(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(a.total_latency.count(), b.total_latency.count());
  EXPECT_EQ(a.total_latency.mean(), b.total_latency.mean());
  EXPECT_EQ(a.total_latency.max(), b.total_latency.max());
  EXPECT_EQ(a.network_latency.mean(), b.network_latency.mean());
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.flits_received, b.flits_received);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
  EXPECT_EQ(a.undelivered_flits, b.undelivered_flits);
  EXPECT_EQ(a.deadlock_suspected, b.deadlock_suspected);
  EXPECT_EQ(a.router_events.flits_traversed, b.router_events.flits_traversed);
  EXPECT_EQ(a.router_events.buffer_writes, b.router_events.buffer_writes);
  EXPECT_EQ(a.router_events.rc_computations, b.router_events.rc_computations);
  EXPECT_EQ(a.router_events.va_allocations, b.router_events.va_allocations);
  EXPECT_EQ(a.router_events.blocked_vc_cycles,
            b.router_events.blocked_vc_cycles);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

// --- Faults due mid-drain ---

TEST(EventCore, FaultsDueMidDrainBitIdentical) {
  // Injection stops at warmup + measure; the flits still in flight then
  // drain over the following cycles. Faults timed into that window hit a
  // network with no injector activity — the event core must wake the
  // affected routers off the fault notification alone, and a transient's
  // expiry mid-drain must be applied at the same cycle as in the sweep.
  SimConfig cfg;
  cfg.mesh.dims = {4, 4};
  cfg.mesh.router.mode = core::RouterMode::Protected;
  cfg.warmup = 300;
  cfg.measure = 1000;
  cfg.drain_limit = 4000;
  cfg.seed = 21;
  const Cycle drain_start = cfg.warmup + cfg.measure;

  fault::FaultPlan plan;
  // Tolerated by the protected router (secondary path / spare RC), so the
  // drain completes; one transient clears again while still draining.
  plan.add(drain_start + 2, 5, {fault::SiteType::XbMux, 1, 0});
  plan.add(drain_start + 4, 9, {fault::SiteType::RcPrimary, 2, 0},
           /*duration=*/30);
  plan.add(drain_start + 6, 10, {fault::SiteType::Sa2Arbiter, 3, 0});

  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.15;
  tc.packet_size = 4;

  SimReport reports[2];
  const SimCore cores[] = {SimCore::FullSweep, SimCore::EventDriven};
  for (int i = 0; i < 2; ++i) {
    SimConfig c = cfg;
    c.mesh.core = cores[i];
    Simulator sim(c, std::make_shared<traffic::SyntheticTraffic>(tc));
    sim.set_fault_plan(plan);
    reports[i] = sim.run();
  }
  // All three faults actually landed during the drain window.
  EXPECT_EQ(reports[0].faults_injected, 3);
  EXPECT_GT(reports[0].cycles_run, drain_start + 6);
  expect_identical(reports[0], reports[1]);
}

// --- Degraded-mode epoch switch during drain ---

TEST(EventCore, DegradedDeathMidDrainBitIdentical) {
  // A router killed after injection stopped forces the degraded-mode drain
  // barrier, table rebuild and reroute epoch switch to run entirely inside
  // the drain phase, followed by end-to-end retransmissions of whatever the
  // dead router swallowed.
  SimConfig cfg;
  cfg.mesh.dims = {8, 8};
  cfg.mesh.router.mode = core::RouterMode::Baseline;
  cfg.warmup = 300;
  cfg.measure = 1200;
  cfg.drain_limit = 60000;
  cfg.seed = 13;
  cfg.degraded.enabled = true;

  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.05;

  auto run = [&](SimCore core) {
    SimConfig c = cfg;
    c.mesh.core = core;
    Simulator sim(c, std::make_shared<traffic::SyntheticTraffic>(tc));
    Rng rng(42);
    sim.set_fault_plan(fault::FaultPlan::lethal(
        c.mesh.dims, {kMeshPorts, c.mesh.router.vcs}, c.mesh.router.mode,
        /*victims=*/1, cfg.warmup + cfg.measure + 5, rng));
    return sim.run();
  };

  const SimReport sweep = run(SimCore::FullSweep);
  EXPECT_EQ(sweep.degraded.router_deaths, 1u);
  EXPECT_GE(sweep.degraded.reroute_epochs, 1u);
  const SimReport fast = run(SimCore::EventDriven);
  expect_identical(sweep, fast);
  EXPECT_EQ(fast.degraded.router_deaths, sweep.degraded.router_deaths);
  EXPECT_EQ(fast.degraded.reroute_epochs, sweep.degraded.reroute_epochs);
  EXPECT_EQ(fast.degraded.retransmits, sweep.degraded.retransmits);
  EXPECT_EQ(fast.degraded.packets_acked, sweep.degraded.packets_acked);
  EXPECT_EQ(fast.degraded.flits_blackholed, sweep.degraded.flits_blackholed);
  EXPECT_EQ(fast.degraded.dropped_unreachable,
            sweep.degraded.dropped_unreachable);
}

// --- FaultInjector::next_due_cycle gate ---

TEST(EventCore, FaultInjectorNextDueCycleGatesExactly) {
  fault::FaultPlan plan;
  plan.add(100, 3, {fault::SiteType::XbMux, 1, 0});
  plan.add(250, 2, {fault::SiteType::RcPrimary, 0, 0}, /*duration=*/60);
  fault::FaultInjector inj(plan);

  MeshConfig mc;
  mc.dims = {2, 2};
  Mesh mesh(mc);

  // Before anything is due the gate points at the first entry and apply_due
  // is a provable no-op.
  EXPECT_EQ(inj.next_due_cycle(), 100u);
  EXPECT_EQ(inj.apply_due(99, mesh), 0);
  EXPECT_EQ(inj.next_due_cycle(), 100u);
  EXPECT_EQ(mesh.router(3).faults().count(), 0);

  // First (permanent) fault lands exactly at its cycle.
  EXPECT_EQ(inj.apply_due(100, mesh), 1);
  EXPECT_EQ(mesh.router(3).faults().count(), 1);
  EXPECT_EQ(inj.next_due_cycle(), 250u);

  // The transient's injection moves the gate to its expiry, not kNever.
  EXPECT_EQ(inj.apply_due(250, mesh), 1);
  EXPECT_EQ(mesh.router(2).faults().count(), 1);
  EXPECT_EQ(inj.next_due_cycle(), 310u);
  EXPECT_FALSE(inj.done());

  // Expiry clears the transient; afterwards nothing is ever due again.
  EXPECT_EQ(inj.apply_due(309, mesh), 0);
  EXPECT_EQ(mesh.router(2).faults().count(), 1);
  EXPECT_EQ(inj.apply_due(310, mesh), 0);
  EXPECT_EQ(mesh.router(2).faults().count(), 0);
  EXPECT_EQ(inj.next_due_cycle(), kNeverCycle);
  EXPECT_TRUE(inj.done());
  // The permanent fault stays.
  EXPECT_EQ(mesh.router(3).faults().count(), 1);
}

// --- DegradedModeController::next_due_cycle stale-head compaction ---

TEST(EventCore, DegradedNextDueCycleCompactsStaleHeads) {
  // The ack/timeout heaps are lazily invalidated: delivery disarms a
  // timeout without removing its heap entry. The due-cycle gate must pop
  // such stale heads instead of reporting a deadline nothing will act on —
  // an under-jumped fast-forward would wake the event core for a provable
  // no-op cycle (or, with every head stale, keep it awake forever).
  MeshConfig mc;
  mc.dims = {2, 2};
  mc.core = SimCore::EventDriven;
  Mesh mesh(mc);
  DegradedConfig dc;
  dc.enabled = true;
  dc.ack_delay = 8;
  dc.retx_timeout = 500;
  DegradedModeController ctl(mesh, dc);
  EXPECT_EQ(ctl.next_due_cycle(), kNeverCycle);  // Nothing tracked yet.

  PacketDesc p;
  p.id = 1;
  p.src = 0;
  p.dst = 3;
  p.size_flits = 3;
  mesh.ni(0).enqueue(p);
  Cycle now = 0;
  while (ctl.next_due_cycle() == kNeverCycle && now < 100) mesh.step(now++);
  // Tail injected: the armed delivery timeout is the only pending event.
  const Cycle deadline = ctl.next_due_cycle();
  ASSERT_NE(deadline, kNeverCycle);
  EXPECT_GE(deadline, dc.retx_timeout);

  while (mesh.packets_delivered() < 1 && now < 200) mesh.step(now++);
  ASSERT_EQ(mesh.packets_delivered(), 1u);
  Flit tail;
  tail.packet = p.id;
  EXPECT_TRUE(ctl.on_delivered(tail, now));
  // Delivery disarmed the timeout; its heap head is now stale and the gate
  // must jump BACK to the ack, not report the dead deadline.
  EXPECT_EQ(ctl.next_due_cycle(), now + dc.ack_delay);

  // The ack retires the entry; with both heaps stale-or-empty the gate is
  // idle-forever, so the event core can fast-forward past the old deadline.
  ctl.step(now + dc.ack_delay);
  EXPECT_EQ(ctl.stats().packets_acked, 1u);
  EXPECT_EQ(ctl.next_due_cycle(), kNeverCycle);
}

// --- Mesh reset-and-reuse in the sweep runner ---

SweepJob sweep_job(double rate, std::uint64_t seed, bool faulted) {
  SweepJob job;
  job.cfg.mesh.dims = {4, 4};
  job.cfg.mesh.router.mode = core::RouterMode::Protected;
  job.cfg.warmup = 200;
  job.cfg.measure = 800;
  job.cfg.drain_limit = 3000;
  job.cfg.seed = seed;
  traffic::SyntheticConfig tc;
  tc.injection_rate = rate;
  job.make_traffic = [tc] {
    return std::make_shared<traffic::SyntheticTraffic>(tc);
  };
  if (faulted) {
    Rng rng(seed);
    job.faults = fault::FaultPlan::random(
        job.cfg.mesh.dims, {kMeshPorts, job.cfg.mesh.router.vcs},
        core::RouterMode::Protected, 4, job.cfg.warmup + job.cfg.measure, rng,
        /*tolerable_only=*/true);
  }
  return job;
}

TEST(EventCore, MeshReuseBitIdenticalToFreshConstruction) {
  // Same-config jobs run back-to-back on one runner reuse the cached mesh
  // via Mesh::reset_for_run; with reuse disabled every job constructs a
  // fresh mesh. Both orderings must produce byte-identical report streams,
  // including jobs that leave faults and fault-state behind for the next
  // job's reset to erase.
  std::vector<SweepJob> jobs = {
      sweep_job(0.10, 1, /*faulted=*/true),
      sweep_job(0.05, 2, /*faulted=*/false),  // same cfg shape -> mesh reused
      sweep_job(0.10, 3, /*faulted=*/true),
      sweep_job(0.10, 1, /*faulted=*/true),  // repeat of job 0
  };
  SweepRunner reuse;
  reuse.set_reuse_mesh(true);
  SweepRunner fresh;
  fresh.set_reuse_mesh(false);
  const auto a = reuse.run(jobs);
  const auto b = fresh.run(jobs);
  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
  }
  // Determinism across the reuse boundary: the repeated job reproduces the
  // first run exactly even though it ran on a recycled mesh.
  expect_identical(a[0], a[3]);
}

// --- next_event_cycle / idle fast-forward ---

TEST(EventCore, NextEventCycleBoundsQuiescence) {
  MeshConfig mc;
  mc.dims = {4, 4};
  mc.core = SimCore::EventDriven;
  Mesh m(mc);
  // A mesh with nothing queued is provably quiescent forever.
  m.step(0);
  EXPECT_EQ(m.next_event_cycle(), kNeverCycle);

  // Enqueuing work makes the next step a real event again.
  PacketDesc p;
  p.id = 1;
  p.src = 0;
  p.dst = 15;
  p.size_flits = 3;
  m.ni(0).enqueue(p);
  EXPECT_NE(m.next_event_cycle(), kNeverCycle);

  // Run the packet to delivery; afterwards the mesh is quiescent again.
  Cycle now = 1;
  for (; now < 200 && m.packets_delivered() < 1; ++now) m.step(now);
  EXPECT_EQ(m.packets_delivered(), 1u);
  for (Cycle c = 0; c < 3; ++c) m.step(now + c);
  EXPECT_EQ(m.next_event_cycle(), kNeverCycle);
}

TEST(EventCore, SparseTrafficBitIdenticalAcrossFastForward) {
  // At very low load the event core's idle fast-forward skips most cycles;
  // the skipped cycles must be provable no-ops, i.e. the report still
  // matches the oracle that ticked every one of them.
  SimConfig cfg;
  cfg.mesh.dims = {4, 4};
  cfg.warmup = 500;
  cfg.measure = 4000;
  cfg.drain_limit = 8000;
  cfg.seed = 3;
  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.002;
  tc.packet_size = 5;

  SimReport reports[2];
  const SimCore cores[] = {SimCore::FullSweep, SimCore::EventDriven};
  for (int i = 0; i < 2; ++i) {
    SimConfig c = cfg;
    c.mesh.core = cores[i];
    Simulator sim(c, std::make_shared<traffic::SyntheticTraffic>(tc));
    reports[i] = sim.run();
  }
  EXPECT_GT(reports[0].packets_received, 0u);
  expect_identical(reports[0], reports[1]);
}

}  // namespace
}  // namespace rnoc::noc
