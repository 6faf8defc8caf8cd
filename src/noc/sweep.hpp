// Parallel sweep runner: executes batches of independent simulations on the
// shared thread pool.
//
// Every latency figure and ablation campaign is a sweep — dozens of runs
// that differ only in config, traffic, fault plan or seed, with no data
// dependencies between them. SweepRunner runs such a batch with one
// parallel_for, one worker per in-flight simulation, and returns the reports
// in job order. Determinism: each job carries its own SimConfig::seed, every
// Simulator derives its per-node and response RNG streams from that seed
// alone, and each job constructs a private traffic model via its factory —
// so the reports are bit-identical to running the jobs sequentially, in any
// worker interleaving.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "noc/table_routing.hpp"
#include "traffic/patterns.hpp"

namespace rnoc::noc {

/// One simulation of a sweep. The traffic factory is invoked on the worker
/// thread so each job owns a private TrafficModel instance (models are
/// stateful; sharing one across concurrent simulations would race).
struct SweepJob {
  SimConfig cfg;
  std::function<std::shared_ptr<traffic::TrafficModel>()> make_traffic;
  fault::FaultPlan faults;  ///< Empty plan = fault-free run.
  /// Optional fault-aware routing tables; must outlive the run() call.
  const FaultAwareTables* tables = nullptr;
};

class SweepRunner {
 public:
  /// Runs on `pool`, or on global_pool() when null.
  explicit SweepRunner(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Runs every job and returns the reports in job order. Safe to call from
  /// a worker of the same pool (the batch then runs inline, sequentially).
  ///
  /// Each worker keeps one cached Mesh across consecutive jobs that share a
  /// MeshConfig (the common case — sweeps vary load, seed or traffic, not
  /// the mesh), restored with Mesh::reset_for_run instead of reconstructed.
  std::vector<SimReport> run(const std::vector<SweepJob>& jobs) const;

  /// Disables the mesh cache: every job constructs a fresh Mesh. Used by
  /// the tests that validate reset_for_run against fresh construction.
  void set_reuse_mesh(bool reuse) { reuse_mesh_ = reuse; }

  /// Pools the reports of a batch into one: latency statistics are merged,
  /// event counters and energies summed, deadlock flags OR-ed. Throughput
  /// is the mean of the per-run throughputs (runs may differ in length).
  static SimReport merge(const std::vector<SimReport>& reports);

 private:
  ThreadPool* pool_;
  bool reuse_mesh_ = true;
};

}  // namespace rnoc::noc
