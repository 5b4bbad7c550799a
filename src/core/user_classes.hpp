// User-class aggregation — solving the game over weighted classes of
// users instead of individual users (the million-user scaling layer, see
// docs/SCALING.md).
//
// Users with identical (phi_j, strategy) see identical available rates
// mu^j_i and compute identical best replies, so the NASH dynamics can run
// over *classes*: class k carries the total weight W_k = sum of member
// phi_j (what the class contributes to the aggregate loads) and a
// representative demand rep_phi_k = W_k / |members| (what one member's
// waterfill reply optimizes). A best-reply round then costs
// O(classes · n) regardless of the population size m.
//
// Two construction modes:
//  * exact       — group users whose phi_j are bitwise identical. At a
//                  class fixed point every member's unilateral gain is
//                  zero (all members are interchangeable), so the
//                  expanded profile is a Nash equilibrium of the full
//                  game up to the dynamics' stopping tolerance.
//  * quantized   — bucket *near*-identical phi_j geometrically at
//                  relative width eps_phi (optionally capped at K
//                  classes). The expanded profile is an eps-Nash
//                  equilibrium; `certify_eps_nash` measures the realized
//                  eps and the a-posteriori analytic bound
//                  eps <= (gap_rep + delta·D*/(u_min − delta)) / D
//                  derived in docs/SCALING.md.
//
// The degenerate `singletons` partition (one class per user, in user
// order) makes the class dynamics bitwise identical to the per-user
// solver — pinned by tests/core/test_user_classes.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/best_reply.hpp"
#include "core/load_state.hpp"
#include "core/types.hpp"

namespace nashlb::core {

/// One weighted class of interchangeable (or near-interchangeable) users.
/// The partition keeps no member lists: user j belongs to class
/// `UserClassPartition::class_of(j)`.
struct UserClass {
  /// W_k = sum of member phi_j — the class's contribution weight in the
  /// aggregate loads lambda_i = sum_k W_k s_ki.
  double weight = 0.0;
  /// Representative demand W_k / |members| — the phi the class's
  /// best-reply waterfill optimizes for.
  double rep_phi = 0.0;
  /// Range of member demands (equal to rep_phi in exact mode).
  double phi_min = 0.0;
  double phi_max = 0.0;
  /// Members attaining phi_min / phi_max (certificate probe points).
  std::size_t user_min = 0;
  std::size_t user_max = 0;
};

/// A partition of an instance's m users into weighted classes. Classes
/// are ordered by ascending representative demand (except `singletons`,
/// which preserves user order so singleton runs stay bitwise identical
/// to the per-user solver).
///
/// Every factory builds in O(m) memory and O(m) time (plus a sort of the
/// distinct keys in `exact` and in a very fine `quantized`), and throws
/// std::invalid_argument for an instance with no users, with a demand
/// that is not finite and > 0, or with 2^32 − 1 or more users.
class UserClassPartition {
 public:
  /// Groups users whose phi_j compare exactly equal.
  [[nodiscard]] static UserClassPartition exact(const Instance& inst);

  /// Buckets phi_j into geometric cells of relative width `eps_phi`
  /// (cell c covers [phi_min·r^c, phi_min·r^(c+1)) with r = 1 + eps_phi).
  /// If `max_classes` > 0 and the widths would produce more cells, the
  /// ratio widens to span [phi_min, phi_max] in `max_classes` cells —
  /// the realized width is reported by `max_rel_deviation()`, never
  /// assumed. No sort while the cells fit a table of m entries (always
  /// when 0 < max_classes <= m): one pass writes each user's cell into the
  /// class map and counts it, and the nonempty cells become the classes;
  /// a wider range sorts its distinct cells. Throws
  /// std::invalid_argument unless eps_phi is finite, > 0 and survives
  /// 1 + eps_phi > 1, and when phi_max / phi_min overflows.
  [[nodiscard]] static UserClassPartition quantized(
      const Instance& inst, double eps_phi, std::size_t max_classes = 0);

  /// One class per user, class k = {user k}: the identity partition.
  [[nodiscard]] static UserClassPartition singletons(const Instance& inst);

  [[nodiscard]] std::size_t num_users() const noexcept {
    return user_class_.size();
  }
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return classes_.size();
  }
  [[nodiscard]] const std::vector<UserClass>& classes() const noexcept {
    return classes_;
  }
  /// Class index of `user`.
  [[nodiscard]] std::size_t class_of(std::size_t user) const;

  /// Per-class representative demands / member counts (as doubles), in
  /// class order — contiguous views for the dynamics loop.
  [[nodiscard]] std::span<const double> rep_phi() const noexcept {
    return rep_phi_;
  }
  [[nodiscard]] std::span<const double> member_counts() const noexcept {
    return counts_;
  }

  /// sum_k W_k; equals the instance's total demand Phi up to summation
  /// order (the class-weight invariant, re-checked every dynamics round
  /// in checked builds).
  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }

  /// Worst bucketing error: max_j |phi_j − rep_phi_{class(j)}|, and the
  /// same relative to rep_phi. Zero in exact mode.
  [[nodiscard]] double max_abs_deviation() const noexcept {
    return max_abs_dev_;
  }
  [[nodiscard]] double max_rel_deviation() const noexcept {
    return max_rel_dev_;
  }

  /// The aggregated instance the class dynamics runs on: same computers,
  /// one pseudo-user per class with phi = W_k. Its total demand equals
  /// the original Phi (up to summation order), so stability carries over.
  [[nodiscard]] Instance aggregate_instance(const Instance& inst) const;

  /// Aggregate loads of the expanded profile (user j playing the row of
  /// class_of(j)), lambda_i = sum_k W_k s_ki, without materializing it —
  /// O(classes · n). Equals the expanded profile's loads up to
  /// floating-point summation order.
  [[nodiscard]] std::vector<double> expanded_loads(
      const Instance& inst, const StrategyProfile& class_profile) const;

  /// Contract hook: under -DNASHLB_CHECK=ON aborts unless the partition
  /// covers exactly `inst`'s users and the class-weight invariant holds
  /// (|sum_k W_k − Phi| <= 1e-9 · max(1, Phi)). No-op otherwise.
  void expect_matches(const Instance& inst) const;

 private:
  UserClassPartition() = default;
  /// Shared tail of every factory. `user_class` maps each user to a class
  /// id below counts.size(), and class k has counts[k] members. One pass
  /// over the users in index order folds each demand into its class
  /// (weight, extremes); one pass over the classes adds representatives
  /// and deviation stats.
  static UserClassPartition build(const Instance& inst,
                                  std::vector<std::uint32_t> user_class,
                                  const std::vector<std::size_t>& counts);

  std::vector<UserClass> classes_;
  std::vector<std::uint32_t> user_class_;  // user -> class index
  std::vector<double> rep_phi_;            // per class
  std::vector<double> counts_;             // per class, |members| as double
  double total_weight_ = 0.0;
  double max_abs_dev_ = 0.0;
  double max_rel_dev_ = 0.0;
};

/// A-posteriori eps-Nash certificate of a class-level profile, evaluated
/// against the expanded per-user profile (docs/SCALING.md derives the
/// bound). For every class the certificate probes the members with the
/// smallest and largest phi_j plus the fictitious representative
/// (demand rep_phi_k), computes each probe's exact best-reply gain at
/// the expanded loads, and records:
struct EpsNashCertificate {
  /// Measured: max over probed real members of
  /// (D_k − D*_j) / D_k — the relative unilateral improvement available.
  double eps_nash = 0.0;
  /// The analytic a-posteriori bound on the same quantity,
  /// (gap_rep + delta_j·D*_j/(u_min,j − delta_j)) / D_k maximized over
  /// probes; +infinity when some delta_j >= u_min,j (bucket wider than
  /// the slack the reply leaves). eps_nash <= analytic_bound up to
  /// rounding — the unit tests pin this ordering.
  double analytic_bound = 0.0;
  /// Largest absolute probe gain, seconds.
  double max_abs_gain_seconds = 0.0;
  /// Worst representative residual gap_rep (seconds): how far the class
  /// profile itself is from a class-level equilibrium.
  double rep_gap_seconds = 0.0;
  /// Probe attaining eps_nash.
  std::size_t worst_user = 0;
  std::size_t worst_class = 0;
  /// Number of real-member probes evaluated.
  std::size_t evaluated_members = 0;
};

/// Evaluates the certificate. `class_profile` must be a feasible
/// num_classes × n profile for the partition's aggregated instance
/// (e.g. the converged result of the class dynamics). O(classes · n log n).
[[nodiscard]] EpsNashCertificate certify_eps_nash(
    const Instance& inst, const UserClassPartition& partition,
    const StrategyProfile& class_profile);

/// Best reply of class `k` in the class dynamics. Singleton classes route
/// through `best_reply_into` with the representative demand — bitwise the
/// per-user reply. Larger classes commit their whole weight W_k at once,
/// so the committed row must be the *symmetric within-class reply*: the
/// unique row s* that is the representative's OPTIMAL reply when every
/// other member of the class also plays s*. (Committing the
/// representative's unconstrained reply would scale a small-demand
/// waterfill by W_k and can overload a computer; the symmetric reply
/// leaves strictly positive slack by construction.) Its KKT system —
/// (a_i − β T_i)/(a_i − T_i)² equal across the support, with a_i the
/// rates free of the whole class, T_i the class flow, and
/// β = (W_k − rep_phi_k)/W_k — is solved by a safeguarded Newton on the
/// water level; docs/SCALING.md derives it. `agg` must be the partition's
/// aggregated instance and `state` consistent with `s`. Allocation-free
/// after workspace warm-up; returns a view into `ws` (valid until the
/// next call). Throws std::invalid_argument when other classes overload
/// a computer, like `best_reply`.
std::span<const double> class_reply_into(const Instance& agg,
                                         const StrategyProfile& s,
                                         const LoadState& state,
                                         std::size_t k,
                                         const UserClassPartition& part,
                                         BestReplyWorkspace& ws);

}  // namespace nashlb::core
