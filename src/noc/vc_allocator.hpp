// Two-stage separable virtual-channel allocator (paper §II-B2, Fig. 3a) with
// the paper's fault-tolerance extensions (§V-B): stage-1 arbiter-set sharing
// between VCs of an input port, and stage-2 reallocation retry.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protection.hpp"
#include "fault/fault_model.hpp"
#include "noc/arbiter.hpp"
#include "noc/input_port.hpp"
#include "noc/router_state.hpp"
#include "noc/vnet.hpp"
#include "obs/observer.hpp"

namespace rnoc::noc {

class VcAllocator {
 public:
  VcAllocator(int ports, int vcs, core::RouterMode mode, int vnets = 1);

  /// Runs one VA cycle: input VCs in VcAlloc state try to obtain an empty
  /// downstream VC at their routed output port. Winners move to Active and
  /// get `out_vc` set; `out_vcs[port][vc].allocated` is updated. `now` only
  /// timestamps observability records; allocation itself is time-free.
  /// Stage 1 visits only the VCs set in the router's VcAlloc state `masks`
  /// (which must be exact; see RouterVcMasks), arbitration runs on bitmasks,
  /// and stage 2 visits only proposed (out_port, out_vc) pairs, each
  /// arbiter choosing among its proposals directly (any ports * vcs). Every
  /// fault branch sits behind one `faults.count()` test, so a fault-free
  /// router pays nothing for them.
  void step(Cycle now, std::vector<InputPort>& inputs,
            std::vector<std::vector<OutVcState>>& out_vcs,
            const fault::RouterFaultState& faults, RouterStats& stats,
            const RouterVcMasks& masks);

  /// Resets arbiter pointers (Mesh::reset_for_run).
  void reset_for_run();

  /// Self-heal escape-VC discipline: once set (>= 0), downstream VC `evc` is
  /// granted only to VCs whose route is an escape route, and escape routes
  /// are granted only `evc` — the escape class stays a self-contained
  /// west-first network. -1 (default) disables the partition entirely.
  void set_escape_vc(int evc) { escape_vc_ = evc; }

  /// Stage-1 arbiter of input VC (port, vc); exposed for tests.
  RoundRobinArbiter& stage1(int port, int vc);
  /// Stage-2 arbiter of downstream VC (out_port, vc); exposed for tests.
  RoundRobinArbiter& stage2(int out_port, int vc);

#ifdef RNOC_TRACE
  /// Observability sink for VA stall attribution (set by the owning Router).
  void set_observer(obs::Observer* o, NodeId router) {
    obs_ = o;
    router_ = router;
  }
#endif

 private:
  struct Proposal {
    int in_port = -1;
    int in_vc = -1;    ///< Physical input VC.
    int out_port = -1;
    int out_vc = -1;   ///< Proposed downstream VC (logical).
  };

  /// Chooses a sibling's arbiter set for input VC (p, v), whose own set is
  /// faulty; returns the lending VC index (marked in `set_used`, the mask of
  /// sets taken this cycle) or -1 when the VC must wait this cycle.
  int select_arbiter_set(InputPort& port, int p, int v,
                         const fault::RouterFaultState& faults,
                         std::uint32_t& set_used, RouterStats& stats);

  int ports_;
  int vcs_;
  core::RouterMode mode_;
  int vnets_;
  int escape_vc_ = -1;  ///< Reserved downstream VC for escape routes.
  std::vector<RoundRobinArbiter> stage1_;  ///< [port * vcs + vc]
  std::vector<RoundRobinArbiter> stage2_;  ///< [out_port * vcs + vc]

  // Scratch reused across step() calls to keep the per-cycle hot path
  // allocation-free.
  std::vector<Proposal> proposals_;
  std::vector<int> keys_;  ///< sorted distinct (out_port * vcs + out_vc) keys
#ifdef RNOC_TRACE
  obs::Observer* obs_ = nullptr;
  NodeId router_ = kInvalidNode;
  /// Parallel to proposals_: 1 when the proposal's stall was already
  /// attributed (stage-2 fault), so the lost-arbitration post-pass skips it.
  std::vector<std::uint8_t> obs_blocked_;
#endif
};

}  // namespace rnoc::noc
