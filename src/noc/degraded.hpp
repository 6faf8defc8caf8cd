// Degraded-mode subsystem: graceful degradation after router death.
//
// When an injected fault set trips core::router_failed for a router, that
// router is declared dead and the network transitions through three phases:
//
//   1. Death. The router becomes a credit-neutral black hole
//      (Router::decommission): buffered flits are purged with upstream
//      credit refunds and arriving flits are swallowed with an immediate
//      credit return, so neighbour flow control stays conserved and the
//      network keeps moving instead of backpressuring into a deadlock.
//   2. Drain barrier. New injection is frozen (NetworkInterface inject
//      gates) while in-flight traffic runs out — delivered, or swallowed by
//      the dead router. The barrier is reached when the network provably
//      holds nothing: no buffered flits, idle links, no NI mid-packet.
//      Because every packet in the network routed under ONE routing
//      function and the barrier separates epochs, no packet ever mixes
//      routing epochs and each epoch's deadlock-freedom argument (XY, or
//      west-first fault-aware tables) holds unconditionally.
//   3. Epoch switch. Flow-control state is hard-reset to power-on values
//      (Mesh::reset_flow_control), west-first FaultAwareTables are rebuilt
//      online around the dead routers and installed mesh-wide, queued
//      packets whose destination became unreachable are dropped (and
//      counted), and injection thaws.
//
// Losses are repaired end-to-end: every packet is tracked from tail
// injection until an (oracle) acknowledgement `ack_delay` cycles after
// tail ejection. A packet whose delivery timeout expires is retransmitted
// from the source NI under capped exponential backoff, up to `max_retries`
// attempts; the per-source retransmit buffer is bounded by `retx_window`
// outstanding packets (the inject gate holds the queue when full).
// Duplicates (original and retransmit both delivered) are suppressed
// before they reach the traffic model, receiver-side.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "core/failure_predicate.hpp"
#include "noc/flit.hpp"
#include "noc/mesh.hpp"
#include "noc/table_routing.hpp"

namespace rnoc::noc {

/// How the network recovers from a router death.
enum class DegradedStrategy : std::uint8_t {
  /// PR 5 behaviour: freeze injection, drain the network to empty, then
  /// switch the whole mesh onto fresh west-first tables (epoch barrier).
  DrainReroute,
  /// Self-healing adaptive routing: no barrier. Per-router fault vectors
  /// flood hop-by-hop, the RC stage filters known-dead ports out of the
  /// odd-even candidate set, and packets left with no minimal direction
  /// divert onto a reserved west-first escape VC. Injection never freezes;
  /// in-flight packets reroute live. Requires RoutingAlgo::OddEven,
  /// vnets == 1 and vcs >= 2 (one VC is reserved as the escape class once
  /// the first death arms the machinery).
  SelfHeal,
};

const char* degraded_strategy_name(DegradedStrategy s);

struct DegradedConfig {
  bool enabled = false;
  DegradedStrategy strategy = DegradedStrategy::DrainReroute;
  /// Cycles between tail ejection and the source learning of the delivery
  /// (oracle acknowledgement; stands in for an ack packet's return trip).
  Cycle ack_delay = 32;
  /// Initial delivery timeout, armed when the tail flit enters the network.
  Cycle retx_timeout = 512;
  /// Timeout multiplier applied per retransmission (capped below).
  double backoff = 2.0;
  Cycle retx_timeout_cap = 4096;
  /// Retransmissions per packet before the source gives up.
  int max_retries = 8;
  /// Per-source bound on packets sent but not yet acknowledged (the
  /// retransmit buffer); the inject gate holds the queue when reached.
  int retx_window = 64;
};

/// Rejects nonsensical retransmit knobs (backoff < 1.0 shrinks timeouts
/// toward zero; retx_timeout = 0 fires before the tail leaves the wire; a
/// cap below the initial timeout inverts the backoff clamp) at config time,
/// before a Mesh or Simulator exists. The DegradedModeController constructor
/// calls this too, so programmatic construction stays covered.
void validate_degraded_config(const DegradedConfig& cfg);

struct DegradedStats {
  std::uint64_t router_deaths = 0;
  std::uint64_t reroute_epochs = 0;
  std::uint64_t packets_tracked = 0;  ///< First sends of tracked packets.
  std::uint64_t packets_acked = 0;    ///< Confirmed delivered end-to-end.
  std::uint64_t retransmits = 0;
  std::uint64_t gave_up = 0;  ///< Dropped after max_retries timeouts.
  /// Tracked packets (sent at least once) dropped because a death
  /// partitioned them away from their destination. Always <=
  /// packets_tracked, so delivery_ratio()'s denominator stays consistent.
  std::uint64_t dropped_unreachable = 0;
  /// Packets refused before ever entering the network — at generation
  /// time, or swept from a source queue at an epoch switch; never tracked.
  std::uint64_t dropped_at_source = 0;
  /// Flits sunk by dead routers (mirror of RouterStats::flits_swallowed).
  std::uint64_t flits_blackholed = 0;
  /// Cycles the injection gates were frozen (drain barrier). The self-heal
  /// strategy never freezes, so this is its availability headline: 0.
  std::uint64_t frozen_cycles = 0;

  /// Delivered fraction of tracked packets whose destination stayed
  /// reachable: acked / (tracked - dropped_unreachable). Packets that
  /// exhausted max_retries (gave_up) count against the ratio.
  double delivery_ratio() const {
    const std::uint64_t eligible =
        packets_tracked > dropped_unreachable
            ? packets_tracked - dropped_unreachable
            : 0;
    return eligible == 0
               ? 1.0
               : static_cast<double>(packets_acked) /
                     static_cast<double>(eligible);
  }

  void merge(const DegradedStats& o) {
    router_deaths += o.router_deaths;
    reroute_epochs += o.reroute_epochs;
    packets_tracked += o.packets_tracked;
    packets_acked += o.packets_acked;
    retransmits += o.retransmits;
    gave_up += o.gave_up;
    dropped_unreachable += o.dropped_unreachable;
    dropped_at_source += o.dropped_at_source;
    flits_blackholed += o.flits_blackholed;
    frozen_cycles += o.frozen_cycles;
  }

  friend bool operator==(const DegradedStats&, const DegradedStats&) = default;
};

/// Owns the death / drain / reroute state machine and the end-to-end
/// reliability layer for one Simulator run. Construction wires inject
/// gates and sent hooks into every NI of the mesh.
class DegradedModeController {
 public:
  DegradedModeController(Mesh& mesh, const DegradedConfig& cfg);

  /// Called after FaultInjector::apply_due reported fresh faults: sweeps
  /// routers for lethal fault sets (core::router_failed under the mesh's
  /// router mode), kills them and begins a drain.
  void on_faults_injected(Cycle now);

  /// Per-cycle work, called after Mesh::step: barrier detection + epoch
  /// switch while draining; due acknowledgements and delivery timeouts
  /// (retransmissions) otherwise.
  void step(Cycle now);

  /// Admission filter for freshly generated packets and released
  /// responses. False (and counted) when the source or destination is
  /// dead, or the current tables cannot connect the pair.
  bool admit(const PacketDesc& p);

  /// Delivery notification from the simulator's NI hook. Returns true
  /// when the delivery is fresh and should be visible to the traffic
  /// model; false for a duplicate created by retransmission.
  bool on_delivered(const Flit& tail, Cycle now);

  bool draining() const { return draining_; }
  int epoch() const { return epoch_; }
  bool node_dead(NodeId n) const {
    return dead_[static_cast<std::size_t>(n)] != 0;
  }
  /// True when the reliability layer has nothing outstanding: not
  /// draining (or reconverging, for the self-heal strategy), and every
  /// tracked packet was acknowledged or dropped.
  bool quiescent() const {
    return !draining_ && !converging_ && !pending_install_ &&
           entries_.empty();
  }

  /// Earliest cycle at which step() can do anything, for the event core's
  /// idle fast-forward. While draining (or, under the self-heal strategy,
  /// while the fault-vector flood converges or a table install awaits the
  /// escape class running empty), step() has per-cycle work, so this
  /// returns 0. Otherwise the next ack/timeout heap head — compacted
  /// first: the heaps are lazily invalidated, and a stale head (entry
  /// erased, delivered, or re-armed) would under-report the true due cycle
  /// and shrink the event core's idle jump for nothing.
  Cycle next_due_cycle();

  const DegradedStats& stats() const { return stats_; }
  /// Routing tables of the current epoch (nullptr before the first death).
  const FaultAwareTables* tables() const { return tables_.get(); }

 private:
  struct Entry {
    PacketDesc desc;
    Cycle deadline = kNeverCycle;  ///< Armed at tail injection only.
    Cycle timeout;                 ///< Next timeout span (backoff state).
    int retries = 0;
    bool in_flight = false;  ///< Tail injected, delivery not yet confirmed.
    bool delivered = false;  ///< Ejected; acknowledgement under way.
  };

  void begin_drain(Cycle now);
  void switch_epoch(Cycle now);
  /// One hop of the self-heal knowledge flood; at fixpoint builds the next
  /// escape-table generation and freezes the escape class for its install.
  void self_heal_converge(Cycle now);
  /// Installs the pending escape tables once the escape class is empty.
  void try_install_escape_tables(Cycle now);
  /// Rebuilds serveable_ against the freshly installed table generation.
  void compute_serveable();
  /// Memoised walk of one pair's adaptive DAG (see compute_serveable).
  bool serveable_dfs(NodeId src, NodeId dst, NodeId at,
                     std::vector<std::uint8_t>& memo) const;
  /// Shared by switch_epoch and the self-heal table build: every link
  /// touching a dead router, from both endpoints.
  std::vector<DeadLink> collect_dead_links() const;
  void on_sent(NodeId src, const PacketDesc& p, Cycle now);
  bool allow_inject(NodeId src, const PacketDesc& p) const;
  void drop_entry(std::map<PacketId, Entry>::iterator it);
  bool pair_connected(NodeId src, NodeId dst) const;

  Mesh& mesh_;
  DegradedConfig cfg_;
  core::RouterMode mode_;
  DegradedStats stats_;

  std::vector<std::uint8_t> dead_;
  bool draining_ = false;
  int epoch_ = 0;  ///< 0 = fault-free (XY); bumped per table install.
  std::unique_ptr<FaultAwareTables> tables_;

  // --- Self-heal strategy state ---
  bool converging_ = false;       ///< Fault-vector flood still spreading.
  bool pending_install_ = false;  ///< Tables built, awaiting class-empty.
  std::unique_ptr<FaultAwareTables> pending_tables_;
  std::vector<NodeId> updated_scratch_;  ///< propagate() out-param reuse.
  /// Pair admissibility under the installed generation, one bit per
  /// (src * nodes + dst). Minimal-adaptive RC may steer a packet along ANY
  /// live turn-legal candidate, so "escape-reachable from the source" is
  /// the wrong predicate — the walk can be forced into a node whose whole
  /// candidate set is dead and whose escape detour is turn-illegal from
  /// there. Recomputed at each install; empty until the first one.
  std::vector<std::uint64_t> serveable_;

  /// Tracked packets by id. std::map: iteration order must be
  /// deterministic (epoch-switch sweeps walk it).
  std::map<PacketId, Entry> entries_;
  std::vector<int> outstanding_;  ///< Unacked tracked packets per source.
  /// Min-heaps of (cycle, packet), lazily invalidated: a popped timeout is
  /// honoured only if it still matches the entry's armed deadline.
  using CycleEvent = std::pair<Cycle, PacketId>;
  std::priority_queue<CycleEvent, std::vector<CycleEvent>,
                      std::greater<CycleEvent>>
      ack_due_, timeout_due_;
  /// Ids delivered at least once (duplicate suppression survives the
  /// entry's erasure, so a late duplicate never reaches the traffic
  /// model twice).
  std::set<PacketId> delivered_ids_;
};

}  // namespace rnoc::noc
