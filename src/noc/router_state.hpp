// Small shared state types used by the router and its allocator submodules.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace rnoc::noc {

/// Upstream-side view of one downstream (output) VC: whether this router has
/// allocated it to a packet, and how many buffer credits remain.
struct OutVcState {
  bool allocated = false;
  int credits = 0;
};

/// A switch-allocation grant: in the next cycle, the flit at the head of
/// input VC (in_port, in_vc) traverses crossbar mux `mux` to physical output
/// port `out_port` (mux != out_port means the secondary path was used),
/// heading to downstream VC `out_vc`.
struct StGrant {
  int in_port = -1;
  int in_vc = -1;   ///< Physical VC index.
  int out_port = -1;
  int mux = -1;
  int out_vc = -1;  ///< Downstream logical VC id.
};

/// Event counters for one router. The protection-mechanism counters feed the
/// ablation campaigns (which mechanism fired how often under which fault).
struct RouterStats {
  std::uint64_t flits_traversed = 0;
  std::uint64_t buffer_writes = 0;
  std::uint64_t va_allocations = 0;
  std::uint64_t rc_computations = 0;
  std::uint64_t rc_spare_uses = 0;
  std::uint64_t va1_borrows = 0;        ///< Successful arbiter borrows (Scenario 1/2).
  std::uint64_t va1_borrow_waits = 0;   ///< Cycles a faulty VC waited for a lender.
  std::uint64_t va2_retries = 0;        ///< Reallocation retries at a faulty stage-2 arbiter.
  std::uint64_t sa1_bypass_grants = 0;  ///< Default-winner grants through the bypass path.
  std::uint64_t sa1_transfers = 0;      ///< VC-to-VC flit/state transfers.
  std::uint64_t xb_secondary_traversals = 0;
  std::uint64_t blocked_vc_cycles = 0;  ///< Cycles a VC was stalled by an untolerated fault.
  std::uint64_t flits_swallowed = 0;    ///< Flits sunk by this router after it died.
  std::uint64_t escape_reroutes = 0;    ///< Packets diverted onto the escape VC (self-heal).
  std::uint64_t flits_dropped = 0;      ///< Flits of unroutable packets purged in-network.

  void merge(const RouterStats& o) {
    flits_traversed += o.flits_traversed;
    buffer_writes += o.buffer_writes;
    va_allocations += o.va_allocations;
    rc_computations += o.rc_computations;
    rc_spare_uses += o.rc_spare_uses;
    va1_borrows += o.va1_borrows;
    va1_borrow_waits += o.va1_borrow_waits;
    va2_retries += o.va2_retries;
    sa1_bypass_grants += o.sa1_bypass_grants;
    sa1_transfers += o.sa1_transfers;
    xb_secondary_traversals += o.xb_secondary_traversals;
    blocked_vc_cycles += o.blocked_vc_cycles;
    flits_swallowed += o.flits_swallowed;
    escape_reroutes += o.escape_reroutes;
    flits_dropped += o.flits_dropped;
  }

  friend bool operator==(const RouterStats&, const RouterStats&) = default;
};

}  // namespace rnoc::noc
