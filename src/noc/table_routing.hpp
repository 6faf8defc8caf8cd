// Fault-aware table-based routing — the *network-level* tolerance strategy
// (Vicis-style rerouting around dead links/routers) as a counterpart to the
// paper's router-level protection. Lets experiments compare "protect the
// router" against "reroute around the router".
//
// Deadlock freedom comes from the west-first turn model: every route takes
// all of its West hops first. Tables are built per destination by
//   (1) finding the set of nodes that can reach the destination using only
//       non-West moves over healthy links (backward BFS), then
//   (2) sending every other node West until it enters that set.
// A route therefore looks like West* (non-West)*, which contains no
// forbidden turn, so the channel-dependency graph is acyclic.
#pragma once

#include <vector>

#include "noc/routing.hpp"

namespace rnoc::noc {

/// A directional inter-router link named by its source router and output
/// port (North/East/South/West; Local links cannot die at network level —
/// that is the router-internal fault model's job).
struct DeadLink {
  NodeId from = kInvalidNode;
  int out_port = -1;

  friend bool operator==(const DeadLink&, const DeadLink&) = default;
};

/// Immutable per-(node, destination) next-hop tables.
class FaultAwareTables {
 public:
  /// Builds west-first-compliant tables over the mesh minus `dead_links`.
  static FaultAwareTables build(const MeshDims& dims,
                                const std::vector<DeadLink>& dead_links);

  /// Output port at `current` toward `dst`; Local when current == dst;
  /// -1 when the destination is unreachable under the turn model.
  int next_port(NodeId current, NodeId dst) const;

  bool reachable(NodeId current, NodeId dst) const {
    return next_port(current, dst) >= 0;
  }

  /// True when every ordered pair of nodes can still reach each other.
  bool fully_connected() const;

  const MeshDims& dims() const { return dims_; }

 private:
  FaultAwareTables(const MeshDims& dims, std::vector<int> table)
      : dims_(dims), table_(std::move(table)) {}

  std::size_t index(NodeId current, NodeId dst) const {
    return static_cast<std::size_t>(current) *
               static_cast<std::size_t>(dims_.nodes()) +
           static_cast<std::size_t>(dst);
  }

  MeshDims dims_;
  std::vector<int> table_;  ///< next port per (current, dst); -1 unreachable.
};

}  // namespace rnoc::noc
