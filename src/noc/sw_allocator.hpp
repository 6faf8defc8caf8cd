// Two-stage separable switch allocator (paper §II-B3, Fig. 3b) with the
// paper's fault-tolerance extensions (§V-C): a per-port bypass path with a
// rotating default winner plus VC-to-VC flit transfer for stage 1, and
// secondary-path arbitration (shared with the crossbar protection) for
// stage 2.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protection.hpp"
#include "fault/fault_model.hpp"
#include "noc/arbiter.hpp"
#include "noc/input_port.hpp"
#include "noc/router_state.hpp"
#include "obs/observer.hpp"

namespace rnoc::noc {

class SwitchAllocator {
 public:
  /// `default_winner_epoch`: cycles each VC spends as the bypass path's
  /// default winner before rotation (starvation avoidance, paper §V-C1).
  SwitchAllocator(int ports, int vcs, core::RouterMode mode,
                  Cycle default_winner_epoch);

  /// Runs one SA cycle; fills `grants` (cleared first) with the crossbar
  /// grants to execute next cycle. Decrements the credit of each granted
  /// flit's downstream VC. Out-param (not a returned vector) so the caller's
  /// grant buffer is reused across cycles without reallocating. Stage 1
  /// visits only the VCs set in the router's Active-ready state `masks`
  /// (which must be exact; see RouterVcMasks), arbitration runs on request
  /// bitmasks and stage 2 only visits requested muxes, granting at most one
  /// flit per output port (a secondary-path and a primary request for the
  /// same output never both win). Every fault branch sits behind one
  /// `faults.count()` test, so a fault-free router pays nothing for them.
  void step(Cycle now, std::vector<InputPort>& inputs,
            std::vector<std::vector<OutVcState>>& out_vcs,
            const fault::RouterFaultState& faults, RouterStats& stats,
            std::vector<StGrant>& grants, const RouterVcMasks& masks);

  /// Resets arbiter pointers and trace scratch (Mesh::reset_for_run).
  void reset_for_run();

  /// The bypass path's default winner at cycle `now` (physical VC index).
  int default_winner(Cycle now) const;

  RoundRobinArbiter& stage1(int port);
  RoundRobinArbiter& stage2(int out_port);

#ifdef RNOC_TRACE
  /// Observability sink for SA stall attribution (set by the owning Router).
  void set_observer(obs::Observer* o, NodeId router) {
    obs_ = o;
    router_ = router;
  }
#endif

 private:
#ifdef RNOC_TRACE
  /// Charges every still-pending ready VC a lost-arbitration stall and
  /// clears the pending set (end of the SA cycle).
  void obs_flush_pending();
#endif
  /// True when the flit in (p, v) of a faulty router can reach its output
  /// port through the crossbar this cycle; resolves/validates the secondary
  /// path and updates the VC's SP/FSP fields for faults that appeared after
  /// RC ran.
  bool crossbar_path_ok(VirtualChannel& vc,
                        const fault::RouterFaultState& faults) const;

  int ports_;
  int vcs_;
  core::RouterMode mode_;
  Cycle epoch_;
  std::vector<RoundRobinArbiter> stage1_;  ///< per input port, over VCs
  std::vector<RoundRobinArbiter> stage2_;  ///< per output mux, over input ports

  // Scratch reused across step() calls to keep the per-cycle hot path
  // allocation-free.
  std::vector<int> w1_;  ///< stage-1 winner VC per input port (this cycle's)
  std::vector<std::uint64_t> mux_req_;  ///< requesting-port mask per mux
#ifdef RNOC_TRACE
  obs::Observer* obs_ = nullptr;
  NodeId router_ = kInvalidNode;
  /// [port * vcs + vc]: ready this cycle, stall not yet attributed. Whatever
  /// is still set after stage 2 lost an arbitration.
  std::vector<std::uint8_t> obs_pending_;
  int obs_npending_ = 0;
#endif
};

}  // namespace rnoc::noc
