#include "noc/vc_allocator.hpp"

#include <algorithm>
#include <bit>

namespace rnoc::noc {

VcAllocator::VcAllocator(int ports, int vcs, core::RouterMode mode, int vnets)
    : ports_(ports), vcs_(vcs), mode_(mode), vnets_(vnets) {
  require(ports >= 1 && vcs >= 1, "VcAllocator: bad geometry");
  require(vnets >= 1 && vcs % vnets == 0,
          "VcAllocator: vcs must divide evenly into vnets");
  stage1_.reserve(static_cast<std::size_t>(ports * vcs));
  stage2_.reserve(static_cast<std::size_t>(ports * vcs));
  for (int i = 0; i < ports * vcs; ++i) {
    stage1_.emplace_back(vcs);          // choose among downstream VCs
    stage2_.emplace_back(ports * vcs);  // choose among requesting input VCs
  }
  proposals_.reserve(static_cast<std::size_t>(ports * vcs));
  // Reserved to their geometric maxima here so the per-cycle push_backs
  // never grow (hotpath-alloc rule: the growth branch must stay
  // dynamically dead).
  keys_.reserve(static_cast<std::size_t>(ports * vcs));
#ifdef RNOC_TRACE
  obs_blocked_.reserve(static_cast<std::size_t>(ports * vcs));
#endif
}

RoundRobinArbiter& VcAllocator::stage1(int port, int vc) {
  return stage1_[static_cast<std::size_t>(port * vcs_ + vc)];
}

RoundRobinArbiter& VcAllocator::stage2(int out_port, int vc) {
  return stage2_[static_cast<std::size_t>(out_port * vcs_ + vc)];
}

int VcAllocator::select_arbiter_set(InputPort& port, int p, int v,
                                    const fault::RouterFaultState& faults,
                                    std::uint32_t& set_used,
                                    RouterStats& stats) {
  if (mode_ == core::RouterMode::Baseline) {
    // No sharing circuitry: the head flit is blocked at this VC.
    ++stats.blocked_vc_cycles;
    return -1;
  }
  // Paper §V-B1: scan the G fields of the sibling VCs and borrow the arbiter
  // set of the first one that is Idle or in switch-allocation (Active) state.
  // A sibling that is itself in the VA stage this cycle (Scenario 2), or a
  // set already lent out, makes the borrower wait one cycle.
  VirtualChannel& borrower = port.vc(v);
  for (int offset = 1; offset < vcs_; ++offset) {
    const int w = (v + offset) % vcs_;
    if (faults.has(fault::SiteType::Va1ArbiterSet, p, w)) continue;
    if (set_used >> static_cast<unsigned>(w) & 1u) continue;
    const VcState ws = port.vc(w).state;
    if (ws != VcState::Idle && ws != VcState::Active) continue;
    // Post the borrow request into the lender's R2/VF/ID fields.
    VirtualChannel& lender = port.vc(w);
    lender.r2 = borrower.route;
    lender.vf = true;
    lender.id = v;
    set_used |= 1u << static_cast<unsigned>(w);
    ++stats.va1_borrows;
    return w;
  }
  ++stats.va1_borrow_waits;
  ++stats.blocked_vc_cycles;
  return -1;
}

void VcAllocator::step(Cycle now, std::vector<InputPort>& inputs,
                       std::vector<std::vector<OutVcState>>& out_vcs,
                       const fault::RouterFaultState& faults,
                       RouterStats& stats, const RouterVcMasks& masks) {
  (void)now;
  if (masks.vcalloc_ports == 0) return;
  proposals_.clear();
#ifdef RNOC_TRACE
  obs_blocked_.clear();
#endif
  const bool faulty = faults.count() != 0;
  const std::uint64_t borrows_before = stats.va1_borrows;

  // --- Stage 1: each VcAlloc-state VC proposes one empty downstream VC.
  // The state masks are exact (bit v of vcalloc[p] <=> VC v of port p is in
  // VcAlloc), so iterating their set bits ascending visits exactly the VCs
  // that request this stage, in port-then-VC order. ---
  for (std::uint32_t pm = masks.vcalloc_ports; pm != 0; pm &= pm - 1) {
    const int p = std::countr_zero(pm);
    InputPort& port = inputs[static_cast<std::size_t>(p)];
    const std::uint32_t vcalloc = masks.vcalloc[p];
    // Arbiter sets taken this cycle. VCs in VcAlloc with healthy sets
    // implicitly occupy their own; a faulty set's owner borrows a sibling's.
    std::uint32_t faulty_sets = 0;
    if (faulty) {
      for (std::uint32_t vm = vcalloc; vm != 0; vm &= vm - 1) {
        const int v = std::countr_zero(vm);
        if (faults.has(fault::SiteType::Va1ArbiterSet, p, v))
          faulty_sets |= 1u << static_cast<unsigned>(v);
      }
    }
    std::uint32_t set_used = vcalloc & ~faulty_sets;
    for (std::uint32_t vm = vcalloc; vm != 0; vm &= vm - 1) {
      const int v = std::countr_zero(vm);
      VirtualChannel& vc = port.vc(v);
#ifdef RNOC_TRACE
      if (obs_) obs_->metrics().add_request(router_, obs::Stage::Va);
#endif
      int set_owner = v;
      if (faulty_sets >> static_cast<unsigned>(v) & 1u) {
        set_owner = select_arbiter_set(port, p, v, faults, set_used, stats);
        if (set_owner < 0) {
#ifdef RNOC_TRACE
          // Baseline arbiter-set fault or borrow wait: the fault (not
          // congestion or arbitration) cost this VC the cycle.
          if (obs_) {
            obs_->metrics().add_stall(router_, obs::Stage::Va,
                                      obs::StallCause::FaultBlocked);
            obs_->on_event(obs::EventKind::FaultBlock, now,
                           vc.buffer.front().packet, router_, p, v);
          }
#endif
          continue;
        }
      }

      const int r = vc.route;
      require(!vc.buffer.empty() && vc.buffer.front().is_head(),
              "VcAllocator: VcAlloc state without a head flit");
      const std::uint8_t cls = vc.buffer.front().traffic_class;
      std::uint32_t cand = 0;
      for (int u = 0; u < vcs_; ++u) {
        if (out_vcs[static_cast<std::size_t>(r)][static_cast<std::size_t>(u)]
                .allocated)
          continue;
        if (u == vc.excluded_out_vc) continue;
        // Escape-VC partition: the reserved VC only for escape routes,
        // escape routes only onto the reserved VC.
        if (escape_vc_ >= 0 && (u == escape_vc_) != vc.escape_route) continue;
        if (!vc_allowed_for_class(u, cls, vcs_, vnets_)) continue;
        cand |= 1u << static_cast<unsigned>(u);
      }
      if (cand == 0) {
        // The exclusion memory must never starve the VC outright: when the
        // excluded downstream VC is the only remaining candidate (e.g. one
        // VC per vnet), forget the exclusion and retry it — pointless while
        // the stage-2 arbiter fault persists, but self-healing the moment a
        // transient fault expires. A stale exclusion posted under a
        // transient fault can outlive it on a fault-free router, so this
        // runs whatever the fault count.
        const int ex = vc.excluded_out_vc;
        if (ex >= 0 &&
            !out_vcs[static_cast<std::size_t>(r)][static_cast<std::size_t>(ex)]
                 .allocated &&
            (escape_vc_ < 0 || (ex == escape_vc_) == vc.escape_route) &&
            vc_allowed_for_class(ex, cls, vcs_, vnets_)) {
          vc.excluded_out_vc = -1;
          cand |= 1u << static_cast<unsigned>(ex);
        }
      }
      if (cand == 0) {
#ifdef RNOC_TRACE
        // No empty downstream VC: ordinary congestion.
        if (obs_)
          obs_->metrics().add_stall(router_, obs::Stage::Va,
                                    obs::StallCause::NoCredit);
#endif
        continue;
      }
      const int u = stage1(p, set_owner).arbitrate_mask(cand);
      proposals_.push_back({p, v, r, u});
#ifdef RNOC_TRACE
      obs_blocked_.push_back(0);
#endif
    }
  }

  // --- Stage 2: one arbiter per proposed downstream VC, (r, u) ascending.
  // Each arbiter picks among its proposals directly: the winner is the
  // requester the round-robin pointer reaches first, so the stage works for
  // any ports * vcs. ---
  if (!proposals_.empty()) {
    keys_.clear();
    for (const Proposal& pr : proposals_)
      keys_.push_back(pr.out_port * vcs_ + pr.out_vc);
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
    for (const int key : keys_) {
      const int r = key / vcs_;
      const int u = key % vcs_;
      if (faulty && faults.has(fault::SiteType::Va2Arbiter, r, u)) {
        // Paper §V-B3: the allocation fails; requesters recompute next
        // cycle against a different downstream VC (+1 cycle, no extra
        // circuitry).
        for (std::size_t pi = 0; pi < proposals_.size(); ++pi) {
          const Proposal& pr = proposals_[pi];
          if (pr.out_port * vcs_ + pr.out_vc != key) continue;
          inputs[static_cast<std::size_t>(pr.in_port)].vc(pr.in_vc)
              .excluded_out_vc = u;
          ++stats.va2_retries;
#ifdef RNOC_TRACE
          obs_blocked_[pi] = 1;
          if (obs_) {
            obs_->metrics().add_stall(router_, obs::Stage::Va,
                                      obs::StallCause::FaultBlocked);
            obs_->on_event(obs::EventKind::FaultBlock, now,
                           inputs[static_cast<std::size_t>(pr.in_port)]
                               .vc(pr.in_vc).buffer.front().packet,
                           router_, pr.in_port, pr.in_vc);
          }
#endif
        }
        continue;
      }
      RoundRobinArbiter& arb = stage2_[static_cast<std::size_t>(key)];
      int winner = -1;
      int best = 0;
      for (const Proposal& pr : proposals_) {
        if (pr.out_port * vcs_ + pr.out_vc != key) continue;
        const int in = pr.in_port * vcs_ + pr.in_vc;
        const int rank = arb.rank(in);
        if (winner < 0 || rank < best) {
          winner = in;
          best = rank;
        }
      }
      arb.grant(winner);
      const int wp = winner / vcs_;
      const int wv = winner % vcs_;
      VirtualChannel& vc = inputs[static_cast<std::size_t>(wp)].vc(wv);
      vc.out_vc = u;
      vc.state = VcState::Active;
      vc.excluded_out_vc = -1;
      inputs[static_cast<std::size_t>(wp)].refresh_vc(wv);
      out_vcs[static_cast<std::size_t>(r)][static_cast<std::size_t>(u)]
          .allocated = true;
      ++stats.va_allocations;
#ifdef RNOC_TRACE
      if (obs_) {
        obs_->metrics().add_grant(router_, obs::Stage::Va);
        obs_->on_event(obs::EventKind::Va, now, vc.buffer.front().packet,
                       router_, wp, wv);
      }
#endif
    }

#ifdef RNOC_TRACE
    // Proposals that were not fault-blocked and did not end Active lost a
    // stage-1 or stage-2 arbitration to another VC.
    if (obs_) {
      for (std::size_t pi = 0; pi < proposals_.size(); ++pi) {
        if (obs_blocked_[pi]) continue;
        const Proposal& pr = proposals_[pi];
        if (inputs[static_cast<std::size_t>(pr.in_port)].vc(pr.in_vc).state !=
            VcState::Active)
          obs_->metrics().add_stall(router_, obs::Stage::Va,
                                    obs::StallCause::LostVa);
      }
    }
#endif
  }

  // Borrow-request fields are per-cycle markers: the VA unit resets them
  // after the allocation attempt completes (paper §V-B2). They are only
  // ever posted by a successful borrow, so the sweep runs only then.
  if (stats.va1_borrows != borrows_before) {
    for (int p = 0; p < ports_; ++p)
      for (int v = 0; v < vcs_; ++v)
        inputs[static_cast<std::size_t>(p)].vc(v).clear_borrow_fields();
  }
}

void VcAllocator::reset_for_run() {
  for (auto& a : stage1_) a.set_pointer(0);
  for (auto& a : stage2_) a.set_pointer(0);
  escape_vc_ = -1;  // Self-heal re-arms lazily at the next run's first death.
}

}  // namespace rnoc::noc
