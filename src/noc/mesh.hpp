// 2D-mesh network: routers, NIs and the links wiring them together.
//
// The mesh offers two stepping cores (MeshConfig::core). Both run the same
// router stages and NI step; they differ only in scheduling:
//
//  - FullSweep: every router and NI, every stage, every cycle, stage-major
//    (all routers' accept, then all routers' ST, ...). It keeps no queues,
//    so it is the scheduling oracle the determinism tests compare against.
//  - EventDriven (default): link deliveries are queued and dispatched at
//    the cycle they become takeable; only routers with work and NIs with
//    injection work are stepped; stalled fault-free routers retire until a
//    wake; with Simulator's idle fast-forward it jumps the clock across
//    cycles in which no component can make progress. Bit-identical to
//    FullSweep (test-enforced).
//
// Incremental accounting: a NetCounters instance shared with every link,
// input port and NI makes flits_in_network(), packets_delivered() and
// all_injection_idle() O(1) — the simulator's per-cycle watchdog and drain
// checks no longer sweep the network.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "noc/ecc_link.hpp"
#include "noc/link.hpp"
#include "noc/net_counters.hpp"
#include "noc/network_interface.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/self_heal.hpp"
#include "obs/observer.hpp"

namespace rnoc::noc {

/// Simulation core selection (see the file comment). Both produce
/// bit-identical SimReports; they differ only in how much work they skip.
enum class SimCore : std::uint8_t {
  FullSweep,    ///< Scheduling oracle: step everything every cycle.
  EventDriven,  ///< Delivery/wake queues, retirement, idle fast-forward.
};

const char* sim_core_name(SimCore core);

struct MeshConfig {
  MeshDims dims{8, 8};
  RouterConfig router{};
  Cycle link_latency = 1;
  /// Nonzero bit-upset probabilities turn every link into a SECDED-protected
  /// EccLink (per-flit single/double upset rates; see noc/ecc_link.hpp).
  double link_single_ber = 0.0;
  double link_double_ber = 0.0;
  std::uint64_t ecc_seed = 0x5ecded;
  /// Which stepping core runs this mesh. Both are bit-identical; FullSweep
  /// exists as the scheduling oracle.
  SimCore core = SimCore::EventDriven;
  /// Observability layer settings; only consulted in builds configured
  /// with -DRNOC_TRACE=ON (a POD, so it is embedded unconditionally).
  obs::ObsConfig obs{};

  friend bool operator==(const MeshConfig&, const MeshConfig&) = default;
};

class NocChecker;

class Mesh {
 public:
  explicit Mesh(const MeshConfig& cfg);
  ~Mesh();

  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  const MeshConfig& config() const { return cfg_; }
  const MeshDims& dims() const { return cfg_.dims; }
  int nodes() const { return cfg_.dims.nodes(); }

  Router& router(NodeId n);
  const Router& router(NodeId n) const;
  NetworkInterface& ni(NodeId n);
  const NetworkInterface& ni(NodeId n) const;

  /// Advances the whole network by one cycle.
  void step(Cycle now);

 private:
  /// The EventDriven body of step(): bitmask active sets, delivery-record
  /// dispatch, fused per-router stepping (stage-major in traced builds).
  /// The rest of step() is FullSweep's stage-major sweep.
  void step_event_core(Cycle now);

 public:

  /// Earliest future cycle at which any network component can make
  /// progress, or kNeverCycle when the network is fully quiescent (no
  /// active component, no queued wake). Only meaningful for the
  /// EventDriven core, evaluated right after step(now): every cycle before
  /// the returned one is provably a network no-op, so the simulator's idle
  /// fast-forward may skip straight to it.
  Cycle next_event_cycle() const;

  /// Restores the whole network (routers, NIs, links, counters, wake
  /// scheduling, checker/observer state) to its just-constructed state so
  /// a fresh Simulator can run on it without reallocating anything.
  /// Validated bit-identical to fresh construction by the sweep tests.
  void reset_for_run();

  /// Installs fault-aware routing tables on every router (nullptr -> XY).
  /// The tables must outlive the mesh or the next call.
  void set_routing_tables(const FaultAwareTables* tables);

  /// Flits currently buffered in routers or in flight on links. O(1).
  int flits_in_network() const {
    return static_cast<int>(counters_.flits_in_network());
  }

  /// O(nodes + links) recount of flits_in_network(), for validating the
  /// incremental counters in tests.
  int recount_flits_in_network() const;

  /// Total packets delivered (tail ejections) across all NIs. O(1).
  std::uint64_t packets_delivered() const {
    return counters_.packets_delivered;
  }

  /// True when every NI's injection path is idle (no queued or partially
  /// sent packets). O(1).
  bool all_injection_idle() const { return counters_.active_injectors == 0; }

  /// Tells the scheduler a fault was injected into / removed from `router`
  /// so the router is re-evaluated even if currently quiescent.
  void notify_fault(NodeId router);

  // --- Degraded mode (router death + online reroute) ---

  /// Declares router `n` dead: purges its buffers with upstream credit
  /// refunds and turns it into a credit-neutral black hole (see
  /// Router::decommission). Returns false if it was already dead.
  bool kill_router(NodeId n, Cycle now);

  /// True when no link holds an in-flight flit or credit. O(links); only
  /// polled while waiting at a degraded-mode drain barrier.
  bool links_idle() const;

  /// True when some NI is mid-serialization of a packet.
  bool any_ni_sending() const;

  /// Hard reset of every router's and NI's flow-control state to power-on
  /// values (degraded-mode drain barrier). Requires an empty network:
  /// no buffered flits, idle links, no NI mid-packet.
  void reset_flow_control();

  // --- Self-healing adaptive routing (degraded SelfHeal strategy) ---

  /// Shared fault-knowledge network every router reads during RC. Inert
  /// until activate_self_heal(); the controller drives mark_dead/propagate
  /// and table installs through this reference.
  SelfHealNet& self_heal() { return self_heal_; }
  const SelfHealNet& self_heal() const { return self_heal_; }

  /// Arms the self-heal machinery (first router death): reserves logical VC
  /// `escape_vc` as the west-first escape class on every router's VC
  /// allocator and blocks every NI from injecting new packets onto it.
  void activate_self_heal(int escape_vc);

  /// True when the escape class is empty network-wide: no input VC holds or
  /// routes on logical VC `evc`, no downstream allocation, no pending
  /// crossbar grant, no in-flight link flit addressed to it, and no NI is
  /// serializing onto it. The install barrier for a new escape-table
  /// generation (routes from two generations must never mix in the class).
  bool escape_class_clear(int evc) const;

  /// Drops every packet the RC stage flagged unroutable this cycle
  /// (Router::purge_unroutable on each router) and re-primes the invariant
  /// checker's pipeline shadow. Returns the number of purged packets.
  int purge_unroutable(Cycle now);

  /// Fragment reclamation after router deaths (SelfHeal strategy, which has
  /// no drain barrier to clean truncated packets). Collects the streams the
  /// decommission purge cut mid-forward, purges their headless remainders
  /// from every live router, releases the downstream VC allocations those
  /// remainders held, arms poison filters (router input ports and the
  /// destination NIs) for remnants still in flight, and aborts any
  /// reassembly a fragment had opened. Wakes every touched router and
  /// re-primes the invariant checker. Returns the number of VCs purged.
  int reclaim_truncated(Cycle now);

  /// Routers stepped by the most recent step() call (== nodes() under
  /// FullSweep). Scheduling telemetry.
  int routers_stepped_last_cycle() const { return stepped_last_cycle_; }

  /// Sum of all routers' event counters.
  RouterStats aggregate_router_stats() const;

  /// Aggregate ECC-link statistics (all zeros when links are plain).
  EccLinkStats aggregate_ecc_stats() const;

#ifdef RNOC_INVARIANTS
  /// The runtime invariant checker wired across this mesh (checked builds
  /// only). Tests use it to tune the watchdog and install a throwing
  /// violation handler.
  NocChecker& invariant_checker() { return *checker_; }
#endif

#ifdef RNOC_TRACE
  /// The observability layer wired across this mesh (traced builds only):
  /// flit trace ring plus the stall-cause metrics registry.
  obs::Observer& observer() { return *observer_; }
  const obs::Observer& observer() const { return *observer_; }
#endif

  /// Total stall cycles charged to each router by the metrics registry
  /// (HeatmapMetric::StallCycles); all zeros in untraced builds.
  std::vector<std::uint64_t> stall_cycles_per_router() const;

 private:
  /// Registers one link's endpoints with the invariant checker; compiles to
  /// an empty inline call in unchecked builds. Upstream holds the credit
  /// counters, downstream the buffers; per endpoint exactly one of
  /// (router, ni) is non-null.
  void note_channel(Link* link, Router* up_router, int up_port,
                    NetworkInterface* up_ni, Router* down_router,
                    int down_port, NetworkInterface* down_ni);
  /// Wake queue index space: routers are [0, nodes()), NIs are
  /// [nodes(), 2 * nodes()). A no-op under FullSweep, which steps
  /// everything anyway.
  void schedule_wake(int idx, Cycle at);

  /// Sets the component's bit in the active bitmask words (idempotent, no
  /// dedup byte needed).
  void mark_active_event(int idx) {
    if (idx < nodes()) {
      active_router_words_[static_cast<std::size_t>(idx) >> 6] |=
          std::uint64_t{1} << (idx & 63);
    } else {
      const int i = idx - nodes();
      active_ni_words_[static_cast<std::size_t>(i) >> 6] |= std::uint64_t{1}
                                                            << (i & 63);
    }
  }

  /// Queues a link-delivery record (EventDriven core). A record encodes
  /// `router << 4 | port << 1 | kind` (kind 0 = flit due on the router's
  /// input port, 1 = credit due on its output port); records live in
  /// per-cycle bitmaps (bit `rec`), so draining a cycle's set bits in
  /// ascending order reproduces the full sweep's accept order — router
  /// ascending, port ascending, flit before credit — with dedup for free.
  /// Draining a delivery also marks its router active, so deliveries need no
  /// companion wake.
  void schedule_delivery(std::uint32_t rec, Cycle at);

  /// Link event-hook target (see Link::set_event_hook): one precomputed
  /// record per link direction. Router sinks become delivery records; a
  /// record with the NI marker (low nibble 0xE) wakes NI `rec >> 4`. Only
  /// the EventDriven core installs the hook: FullSweep keeps no queues.
  void link_event(std::uint32_t rec, Cycle at);
  static void link_event_hook(void* ctx, std::uint32_t rec, Cycle at) {
    static_cast<Mesh*>(ctx)->link_event(rec, at);
  }

  MeshConfig cfg_;
  std::vector<Router> routers_;
  std::vector<NetworkInterface> nis_;
  std::vector<std::unique_ptr<Link>> links_;
  NetCounters counters_;
  SelfHealNet self_heal_;  ///< Shared fault-vector net (inert until armed).

  // --- EventDriven scheduling state ---
  /// Active sets as bitmask words (bit b of word w = component 64w + b):
  /// set-bit iteration visits components in ascending order with no sort,
  /// no dedup byte and no compaction, and retirement is a bit clear.
  std::vector<std::uint64_t> active_router_words_;
  std::vector<std::uint64_t> active_ni_words_;
  // Wake queue as a ring of per-cycle buckets instead of a priority queue:
  // every wake is at most link_latency cycles out, so bucket `at % size`
  // gives O(1) insert/drain with no heap churn on the per-cycle hot path.
  // Wakes at already-drained cycles (fault notifications, NI enqueues) go
  // to `overdue_wakes_`, drained first thing every step.
  std::vector<std::vector<int>> wake_buckets_;
  std::vector<int> overdue_wakes_;
  Cycle next_drain_ = 0;  ///< First cycle whose bucket has not been drained.
  /// Best-effort dedup: `at + 1` of the component's most recent queued wake
  /// (0 = none queued). A busy router is woken by every link event it is
  /// party to — up to ~10 identical (idx, cycle) wakes per cycle otherwise.
  std::vector<Cycle> last_wake_at_;
  /// Link-delivery queue: same bucket-ring layout as the wake queue, but
  /// each bucket is a bitmap over record values (see schedule_delivery) —
  /// insertion is one OR, duplicates collapse, and set-bit iteration yields
  /// the sweep's accept order with no sorting. Replaces a per-active-router
  /// scan of all ten link peeks per cycle with a dispatch of exactly the
  /// deliveries that are due.
  std::vector<std::vector<std::uint64_t>> delivery_buckets_;
  std::vector<std::uint32_t> overdue_deliveries_;
  std::vector<std::uint64_t> due_delivery_words_;  ///< Per-step scratch.
  int stepped_last_cycle_ = 0;
#ifdef RNOC_INVARIANTS
  std::unique_ptr<NocChecker> checker_;
#endif
#ifdef RNOC_TRACE
  std::unique_ptr<obs::Observer> observer_;
#endif
};

}  // namespace rnoc::noc
