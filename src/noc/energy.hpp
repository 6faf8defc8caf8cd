// Event-driven energy accounting (Orion-style) for the simulator.
//
// The synthesis model (synthesis/) gives *average* power from cell counts,
// matching the paper's §VI-A methodology. This module complements it with
// per-event dynamic energy so simulations report workload-dependent energy:
// every buffer write, route computation, allocation, crossbar traversal and
// link flit-hop charges its event energy, and leakage accrues per cycle.
// The correction circuitry's events (spare RC use, borrowed arbitration,
// bypass grants, VC transfers, secondary-path traversals) carry their own
// energies, so the energy cost of riding out faults is visible, not just
// the latency cost.
#pragma once

#include <cstdint>

#include "noc/router_state.hpp"

namespace rnoc::noc {

/// Per-event dynamic energies (pJ) and static power, calibrated to typical
/// 45 nm NoC router figures (Orion 2.0-class; buffer and crossbar dominate).
struct EnergyModel {
  double buffer_write_pj = 1.20;
  double buffer_read_pj = 0.95;
  double rc_compute_pj = 0.35;
  double va_arbitration_pj = 0.55;
  double sa_arbitration_pj = 0.45;
  double crossbar_traversal_pj = 2.10;
  double link_hop_pj = 1.75;

  // Correction-circuitry event energies (extra on top of the base events).
  double rc_spare_extra_pj = 0.05;       ///< spare unit select mux
  double va_borrow_extra_pj = 0.20;      ///< R2/VF/ID writes + scan
  double sa_bypass_extra_pj = 0.10;      ///< bypass mux
  double vc_transfer_pj = 5.00;          ///< parallel buffer+state move
  double xb_secondary_extra_pj = 0.80;   ///< demux + P-select stages

  /// Static (leakage) power per router in mW; protected routers leak more
  /// in proportion to the §VI-A area overhead.
  double router_leakage_mw = 1.85;
  double protected_leakage_factor = 1.31;

  double clock_ghz = 1.0;  ///< Converts leakage power to per-cycle energy.
};

/// Energy totals accumulated over a simulation.
struct EnergyReport {
  double dynamic_pj = 0.0;
  double protection_pj = 0.0;  ///< Part of dynamic spent in correction circuitry.
  double leakage_pj = 0.0;

  double total_pj() const { return dynamic_pj + leakage_pj; }
  /// Energy per delivered flit (pJ/flit); the standard NoC figure of merit.
  double per_flit_pj(std::uint64_t flits_delivered) const {
    return flits_delivered
               ? total_pj() / static_cast<double>(flits_delivered)
               : 0.0;
  }

  friend bool operator==(const EnergyReport&, const EnergyReport&) = default;
};

/// Computes the energy report from the aggregate router event counters.
/// `router_cycles` is routers x simulated cycles (for leakage).
EnergyReport account_energy(const EnergyModel& m, const RouterStats& events,
                            std::uint64_t router_cycles, bool protected_mode);

}  // namespace rnoc::noc
