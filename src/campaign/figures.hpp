// Shared simulation setup for the Figure 7 / Figure 8 latency campaigns and
// the load/ablation sweeps: the paper's 8x8 protected mesh, its §IX fault
// schedule, and the (fault-free, faulted) job pair per application.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "noc/sweep.hpp"
#include "traffic/app_profiles.hpp"

namespace rnoc::campaign {

/// The paper's 64-core mesh configuration. Smoke mode shrinks the
/// simulation windows so a full-registry CI run stays seconds-sized per
/// campaign while exercising the same code paths.
noc::SimConfig figure_sim_config(bool smoke = false);

/// The paper's §IX schedule scaled to simulation length: one permanent
/// fault per pipeline stage on every router, staggered through warmup.
fault::FaultPlan figure_fault_plan(const noc::SimConfig& cfg,
                                   std::uint64_t seed);

/// The fault-free/faulted job pair for one application. The two jobs share
/// a config and seed but own separate traffic-model instances, so they can
/// run on different workers.
std::vector<noc::SweepJob> figure_app_jobs(const traffic::AppProfile& profile,
                                           const noc::SimConfig& cfg,
                                           std::uint64_t seed);

struct AppLatency {
  std::string name;
  double fault_free = 0.0;
  double with_faults = 0.0;
  /// Aggregate router events of the faulted run (source of the obs block).
  noc::RouterStats faulted_events;
  double increase() const { return with_faults / fault_free - 1.0; }
};

/// Observability block for a campaign point, derived from a run's aggregate
/// RouterStats. RouterStats is collected in every build configuration, so
/// result files are byte-identical whether or not RNOC_TRACE is on.
std::vector<Metric> obs_metrics(const noc::RouterStats& ev);

/// Validates a (fault-free, faulted) report pair — no deadlock, no lost
/// flits — and extracts the two latencies. Throws on violation.
AppLatency check_app_pair(const std::string& name, const noc::SimReport& clean,
                          const noc::SimReport& faulty);

/// Runs the pair for one application and returns its latencies.
AppLatency run_figure_app(const traffic::AppProfile& profile,
                          const noc::SimConfig& cfg, std::uint64_t seed);

}  // namespace rnoc::campaign
