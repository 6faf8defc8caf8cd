// Traffic generation: the TrafficModel interface and the classic synthetic
// patterns (uniform random, transpose, bit-complement, tornado, neighbor,
// hotspot) used by the load-sweep campaign.
#pragma once

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "noc/flit.hpp"
#include "noc/routing.hpp"

namespace rnoc::traffic {

/// A reply a traffic model wants injected in reaction to a delivery.
struct Response {
  NodeId node = kInvalidNode;  ///< Where the response originates.
  noc::PacketDesc desc;        ///< id/created filled in by the simulator.
  Cycle ready = 0;             ///< Earliest injection cycle (service delay).
};

/// Interface every workload implements. The simulator calls `generate` once
/// per node per cycle while sources run, and `on_delivered` when a packet's
/// tail ejects (for request/response protocols).
class TrafficModel {
 public:
  virtual ~TrafficModel() = default;

  virtual void init(const noc::MeshDims& dims) { dims_ = dims; }

  /// Appends packets created at `node` this cycle (src/dst/size/class only;
  /// the simulator assigns id and creation time).
  virtual void generate(Cycle now, NodeId node, Rng& rng,
                        std::vector<noc::PacketDesc>& out) = 0;

  /// True when next_injection() below is implemented with draws identical
  /// to per-cycle generate() calls, letting the event-driven simulator core
  /// skip source cycles instead of sweeping every node every cycle. Models
  /// keeping the default are stepped cycle-by-cycle while sources run.
  virtual bool supports_event_injection() const { return false; }

  /// Event-core source scan: advances `node`'s private RNG exactly as
  /// per-cycle generate() calls for cycles [from, horizon) would, appends
  /// the packets of the first cycle that creates any, and returns that
  /// cycle (kNeverCycle when the whole range is quiet). Only called when
  /// supports_event_injection() is true.
  virtual Cycle next_injection(Cycle /*from*/, Cycle /*horizon*/,
                               NodeId /*node*/, Rng& /*rng*/,
                               std::vector<noc::PacketDesc>& /*out*/) {
    return kNeverCycle;
  }

  /// Reaction to a delivered packet (tail flit) at node `at`.
  virtual void on_delivered(const noc::Flit& /*tail*/, NodeId /*at*/,
                            Cycle /*now*/, Rng& /*rng*/,
                            std::vector<Response>& /*responses*/) {}

 protected:
  noc::MeshDims dims_{};
};

enum class Pattern {
  UniformRandom,  ///< Destination uniform over all other nodes.
  Transpose,      ///< (x, y) -> (y mod X, x mod Y): the classic transpose on
                  ///< square meshes, axis-folded on rectangular ones so every
                  ///< destination stays inside the mesh.
  BitComplement,  ///< node -> ~node (mod N).
  Tornado,        ///< Half-way around each dimension.
  Neighbor,       ///< (x+1, y) wraparound.
  Hotspot,        ///< A fraction of traffic targets designated hotspots.
};

const char* pattern_name(Pattern p);

struct SyntheticConfig {
  Pattern pattern = Pattern::UniformRandom;
  /// Offered load in flits per node per cycle.
  double injection_rate = 0.1;
  int packet_size = 5;
  std::vector<NodeId> hotspots;     ///< For Pattern::Hotspot.
  double hotspot_fraction = 0.5;    ///< Share of packets aimed at hotspots.
};

/// Bernoulli packet sources with a fixed destination pattern.
class SyntheticTraffic : public TrafficModel {
 public:
  explicit SyntheticTraffic(const SyntheticConfig& cfg);

  /// Validates mesh-dependent configuration (hotspot ids must name nodes).
  void init(const noc::MeshDims& dims) override;

  void generate(Cycle now, NodeId node, Rng& rng,
                std::vector<noc::PacketDesc>& out) override;

  bool supports_event_injection() const override { return true; }
  Cycle next_injection(Cycle from, Cycle horizon, NodeId node, Rng& rng,
                       std::vector<noc::PacketDesc>& out) override;

  /// The pattern's destination for `node` (hotspot/uniform consult `rng`).
  NodeId destination(NodeId node, Rng& rng) const;

 private:
  SyntheticConfig cfg_;
};

}  // namespace rnoc::traffic
