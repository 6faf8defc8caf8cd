// Round-robin arbiter — the fundamental allocator building block (paper §II-B).
#pragma once

#include <bit>
#include <cstdint>

#include "common/types.hpp"

namespace rnoc::noc {

/// Rotating-priority (round-robin) arbiter over a fixed number of request
/// inputs. After a grant, priority moves to the input after the winner, which
/// gives the strong fairness the separable VA/SA allocators rely on.
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(int inputs);

  int inputs() const { return inputs_; }

  /// Grants one of the asserted requests, returns its index and rotates
  /// priority to the input after it, or returns -1 when none is asserted.
  /// Bit i of `requests` asserts input i (inputs() <= 64). The winner is
  /// the first asserted input at or after the priority pointer: the rotated
  /// mask's lowest set bit. Must not be called on a faulty arbiter. Inline:
  /// runs for every port/VC with requests every cycle.
  int arbitrate_mask(std::uint64_t requests) {
    require(inputs_ >= 64 || requests >> static_cast<unsigned>(inputs_) == 0,
            "RoundRobinArbiter::arbitrate_mask: request beyond inputs()");
    if (requests == 0) return -1;
    const unsigned p = static_cast<unsigned>(pointer_);
    // Rotate within inputs_ bits so the pointer's input lands at bit 0
    // (guard p == 0: a shift by inputs_ can be a full-width shift, UB).
    const std::uint64_t rot =
        p == 0 ? requests
               : (requests >> p) |
                     (requests << (static_cast<unsigned>(inputs_) - p));
    int idx = pointer_ + std::countr_zero(rot);
    if (idx >= inputs_) idx -= inputs_;
    grant(idx);
    return idx;
  }

  /// Distance of input `idx` from the priority pointer, in arbitration
  /// order: among asserted inputs, the one with the lowest rank is the one
  /// arbitrate_mask would grant. Lets a caller arbitrate over an explicit
  /// request list of any width (rank each, then grant() the lowest).
  int rank(int idx) const {
    const int d = idx - pointer_;
    return d < 0 ? d + inputs_ : d;
  }

  /// Records a grant to input `idx`: priority moves to the input after it.
  void grant(int idx) { pointer_ = idx + 1 == inputs_ ? 0 : idx + 1; }

  /// Priority pointer (next input to be favoured); exposed for tests.
  int pointer() const { return pointer_; }
  void set_pointer(int p);

 private:
  int inputs_;
  int pointer_ = 0;
};

}  // namespace rnoc::noc
