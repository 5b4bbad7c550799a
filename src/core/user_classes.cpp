#include "core/user_classes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/best_reply.hpp"
#include "util/contracts.hpp"

namespace nashlb::core {

namespace {

/// The 32-bit class map caps m below 2^32 − 1.
constexpr std::uint32_t kMaxUsers = std::numeric_limits<std::uint32_t>::max();

[[noreturn]] void reject(const char* factory, const std::string& why) {
  throw std::invalid_argument(std::string("UserClassPartition::") + factory +
                              ": " + why);
}

struct DemandRange {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
};

/// One pass over the demands, before anything sorts or indexes by phi:
/// throws std::invalid_argument for no users, for too many users for the
/// 32-bit class map, or for a demand that is not finite and > 0
/// (Instance::validate's rule). Returns the smallest and largest demand.
DemandRange checked_demand_range(const Instance& inst, const char* factory) {
  const std::size_t m = inst.num_users();
  if (m == 0 || m >= kMaxUsers) {
    reject(factory, "needs 1 to 2^32 - 2 users, got " + std::to_string(m));
  }
  DemandRange range;
  for (std::size_t j = 0; j < m; ++j) {
    const double demand = inst.phi[j];
    if (!(demand > 0.0) || !std::isfinite(demand)) {
      reject(factory, "demand of user " + std::to_string(j) +
                          " must be finite and > 0");
    }
    range.lo = std::min(range.lo, demand);
    range.hi = std::max(range.hi, demand);
  }
  return range;
}

/// Numbers the distinct values of `key` in ascending order and puts user
/// j in the class of key[j]: writes the class map, returns the counts.
template <class Key>
std::vector<std::size_t> number_distinct(
    const std::vector<Key>& key, std::vector<std::uint32_t>& user_class) {
  std::vector<Key> distinct = key;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<std::size_t> counts(distinct.size(), 0);
  for (std::size_t j = 0; j < key.size(); ++j) {
    const auto k = static_cast<std::uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), key[j]) -
        distinct.begin());
    user_class[j] = k;
    ++counts[k];
  }
  return counts;
}

}  // namespace

UserClassPartition UserClassPartition::build(
    const Instance& inst, std::vector<std::uint32_t> user_class,
    const std::vector<std::size_t>& counts) {
  const std::size_t m = inst.num_users();
  const std::size_t groups = counts.size();
  UserClassPartition part;
  UserClass blank;
  blank.phi_min = std::numeric_limits<double>::infinity();
  blank.phi_max = -std::numeric_limits<double>::infinity();
  part.classes_.assign(groups, blank);
  // Users in index order, so each class sums and scans its members in
  // ascending order.
  for (std::size_t j = 0; j < m; ++j) {
    UserClass& cls = part.classes_[user_class[j]];
    const double phi = inst.phi[j];
    cls.weight += phi;
    if (phi < cls.phi_min) {
      cls.phi_min = phi;
      cls.user_min = j;
    }
    if (phi > cls.phi_max) {
      cls.phi_max = phi;
      cls.user_max = j;
    }
  }
  part.rep_phi_.reserve(groups);
  part.counts_.reserve(groups);
  for (std::size_t k = 0; k < groups; ++k) {
    UserClass& cls = part.classes_[k];
    // Homogeneous classes take the members' common demand verbatim so the
    // deviation is exactly zero; W/count would pick up summation rounding
    // (v + v + v need not equal 3v bitwise).
    cls.rep_phi = cls.phi_min == cls.phi_max
                      ? cls.phi_min
                      : cls.weight / static_cast<double>(counts[k]);
    // |phi_j − rep_phi| rounded is monotone on either side of rep_phi, so
    // the class extremes carry every member's worst deviation.
    const double dev = std::max(std::fabs(cls.phi_min - cls.rep_phi),
                                std::fabs(cls.phi_max - cls.rep_phi));
    part.max_abs_dev_ = std::max(part.max_abs_dev_, dev);
    if (cls.rep_phi > 0.0) {
      part.max_rel_dev_ = std::max(part.max_rel_dev_, dev / cls.rep_phi);
    }
    part.total_weight_ += cls.weight;
    part.rep_phi_.push_back(cls.rep_phi);
    part.counts_.push_back(static_cast<double>(counts[k]));
  }
  part.user_class_ = std::move(user_class);
  // The class-weight invariant at build time; re-checked by the dynamics
  // after every round (see core/dynamics.cpp).
  NASHLB_ENSURE(std::fabs(part.total_weight_ - inst.total_arrival_rate()) <=
                    1e-9 * std::max(1.0, inst.total_arrival_rate()),
                "class weights sum to %.17g but Phi=%.17g",
                part.total_weight_, inst.total_arrival_rate());
  return part;
}

UserClassPartition UserClassPartition::exact(const Instance& inst) {
  static_cast<void>(checked_demand_range(inst, "exact"));
  std::vector<std::uint32_t> user_class(inst.num_users());
  const std::vector<std::size_t> counts =
      number_distinct(inst.phi, user_class);
  return build(inst, std::move(user_class), counts);
}

UserClassPartition UserClassPartition::quantized(const Instance& inst,
                                                 double eps_phi,
                                                 std::size_t max_classes) {
  if (!(eps_phi > 0.0) || !std::isfinite(eps_phi)) {
    reject("quantized", "eps_phi must be finite and > 0");
  }
  if (1.0 + eps_phi == 1.0) {
    reject("quantized", "eps_phi rounds away (1 + eps_phi == 1)");
  }
  const auto [lo, hi] = checked_demand_range(inst, "quantized");
  if (!std::isfinite(hi / lo)) {
    reject("quantized", "demand spread phi_max / phi_min overflows");
  }
  double ratio = 1.0 + eps_phi;
  if (max_classes > 0 && hi > lo) {
    // Widen the cells until max_classes of them span [lo, hi]. The tiny
    // headroom keeps phi_max strictly inside the last cell.
    const double needed =
        std::pow(hi / lo, 1.0 / static_cast<double>(max_classes)) *
        (1.0 + 1e-12);
    ratio = std::max(ratio, needed);
  }
  const double log_ratio = std::log(ratio);
  // A user's cell depends on its own demand alone, and every step of the
  // expression is monotone in phi, so cell order is demand order and no
  // cell passes `top`, the capped cell of phi_max. The `min` with `top`
  // is the cap, and it keeps every cell inside the table below.
  const auto cell_of = [lo, hi, log_ratio](double phi) -> std::uint64_t {
    return hi > lo ? static_cast<std::uint64_t>(
                         std::floor(std::log(phi / lo) / log_ratio))
                   : 0;
  };
  std::uint64_t top = cell_of(hi);
  if (max_classes > 0) top = std::min<std::uint64_t>(top, max_classes - 1);
  const std::size_t m = inst.num_users();
  std::vector<std::uint32_t> user_class(m);
  std::vector<std::size_t> counts;
  if (top >= m) {
    // More cells than users (a very fine uncapped width): number the
    // distinct cells instead of tabulating the whole range.
    std::vector<std::uint64_t> cell(m);
    for (std::size_t j = 0; j < m; ++j) {
      cell[j] = std::min(cell_of(inst.phi[j]), top);
    }
    counts = number_distinct(cell, user_class);
  } else {
    // Each cell goes straight into the class map and into its count.
    std::vector<std::uint32_t> table(static_cast<std::size_t>(top) + 1, 0);
    for (std::size_t j = 0; j < m; ++j) {
      const auto c =
          static_cast<std::uint32_t>(std::min(cell_of(inst.phi[j]), top));
      user_class[j] = c;
      ++table[c];
    }
    // The nonempty cells, ascending, become the classes; the table turns
    // into the cell -> class map, needed only when some cell is empty.
    for (std::uint32_t& slot : table) {
      const std::uint32_t count = slot;
      slot = static_cast<std::uint32_t>(counts.size());
      if (count > 0) counts.push_back(count);
    }
    if (counts.size() < table.size()) {
      for (std::uint32_t& c : user_class) c = table[c];
    }
  }
  return build(inst, std::move(user_class), counts);
}

UserClassPartition UserClassPartition::singletons(const Instance& inst) {
  static_cast<void>(checked_demand_range(inst, "singletons"));
  std::vector<std::uint32_t> user_class(inst.num_users());
  std::iota(user_class.begin(), user_class.end(), std::uint32_t{0});
  return build(inst, std::move(user_class),
               std::vector<std::size_t>(inst.num_users(), 1));
}

std::size_t UserClassPartition::class_of(std::size_t user) const {
  if (user >= user_class_.size()) {
    throw std::out_of_range("UserClassPartition::class_of: user out of range");
  }
  return user_class_[user];
}

Instance UserClassPartition::aggregate_instance(const Instance& inst) const {
  Instance agg;
  agg.mu = inst.mu;
  agg.phi.reserve(classes_.size());
  for (const UserClass& cls : classes_) agg.phi.push_back(cls.weight);
  return agg;
}

std::vector<double> UserClassPartition::expanded_loads(
    const Instance& inst, const StrategyProfile& class_profile) const {
  if (class_profile.num_users() != classes_.size() ||
      class_profile.num_computers() != inst.num_computers()) {
    throw std::invalid_argument(
        "UserClassPartition::expanded_loads: dimension mismatch");
  }
  std::vector<double> lambda(inst.num_computers(), 0.0);
  for (std::size_t k = 0; k < classes_.size(); ++k) {
    const std::span<const double> row = class_profile.row(k);
    const double w = classes_[k].weight;
    for (std::size_t i = 0; i < lambda.size(); ++i) lambda[i] += row[i] * w;
  }
#if NASHLB_CHECK_ENABLED
  // Flow conservation: with every class row on the simplex, the
  // expanded loads carry the aggregate weight sum_k W_k = Phi — the
  // certificate math in certify_eps_nash divides by this mass, so a
  // partition whose weights drifted from the instance must abort here.
  double mass = 0.0;
  for (double l : lambda) mass += l;
  NASHLB_EXPECT(
      std::fabs(mass - total_weight_) <= 1e-7 * std::max(1.0, total_weight_),
      "expanded loads carry %.17g of the partition's %.17g total flow", mass,
      total_weight_);
#endif
  return lambda;
}

void UserClassPartition::expect_matches(
    [[maybe_unused]] const Instance& inst) const {
#if NASHLB_CHECK_ENABLED
  NASHLB_EXPECT(num_users() == inst.num_users(),
                "partition covers %zu users, instance has %zu", num_users(),
                inst.num_users());
  const double phi = inst.total_arrival_rate();
  NASHLB_EXPECT(std::fabs(total_weight_ - phi) <= 1e-9 * std::max(1.0, phi),
                "class weights sum to %.17g but Phi=%.17g", total_weight_,
                phi);
#endif
}

std::span<const double> class_reply_into(const Instance& agg,
                                         const StrategyProfile& s,
                                         const LoadState& state,
                                         std::size_t k,
                                         const UserClassPartition& part,
                                         BestReplyWorkspace& ws) {
  if (k >= agg.num_users() || k >= part.num_classes()) {
    throw std::out_of_range("class_reply_into: class out of range");
  }
  const double count = part.member_counts()[k];
  const double rep = part.rep_phi()[k];
  if (count <= 1.0) {
    return best_reply_into(agg, s, state, k, rep, ws);
  }
  const std::size_t n = agg.num_computers();
  ws.resize(n);
  // a_i: the rate at computer i free of the *whole* class — back out
  // W_k = agg.phi[k], not just the representative's share.
  const double weight = agg.phi[k];
  state.available_rates(s, k, weight, ws.avail);
  const std::span<const double> a = {ws.avail.data(), n};
  double sum_a = 0.0;
  double sum_sqrt = 0.0;
  double a_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a[i] > 0.0)) {
      throw std::invalid_argument(
          "class_reply: other classes overload computer " + std::to_string(i));
    }
    sum_a += a[i];
    sum_sqrt += std::sqrt(a[i]);
    a_max = std::max(a_max, a[i]);
  }
  // Stability of the aggregated instance guarantees sum_i a_i > W_k, so a
  // root of g always exists.
  NASHLB_EXPECT(sum_a > weight,
                "class %zu: free rates sum to %.17g <= weight %.17g", k,
                sum_a, weight);

  const double beta = (weight - rep) / weight;      // classmates' share
  const double self = rep / weight;                 // 1 - beta, exactly
  std::vector<std::size_t>& order = ws.waterfill.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&a](std::size_t x, std::size_t y) {
    if (a[x] != a[y]) return a[x] > a[y];
    return x < y;
  });

  // g(alpha) = sum_{i in support} T_i(alpha) - W, strictly increasing:
  // support = {i : a_i > 1/alpha} (a descending prefix of `order`),
  // sigma_i = (beta + sqrt(beta^2 + 4*alpha*self*a_i)) / (2 alpha),
  // T_i = a_i - sigma_i. g < 0 at alpha = 1/a_max (empty class flow) and
  // g -> sum a - W > 0 as alpha -> inf.
  const auto eval = [&](double alpha, double& dg) {
    double g = -weight;
    dg = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      const double ai = a[order[p]];
      if (!(ai * alpha > 1.0)) break;
      const double q = 4.0 * self * ai;
      const double root = std::sqrt(beta * beta + q * alpha);
      g += ai - (beta + root) / (2.0 * alpha);
      dg += (q * alpha + 2.0 * beta * (beta + root)) /
            (4.0 * alpha * alpha * root);
    }
    return g;
  };

  // Bracket the level, starting from the single-player sqrt-rule guess.
  double lo = 1.0 / a_max;
  const double guess_t = (sum_a - weight) / sum_sqrt;
  double alpha = std::max(1.0 / (guess_t * guess_t), lo * (1.0 + 1e-12));
  double dg = 0.0;
  double hi = alpha;
  while (eval(hi, dg) < 0.0) {
    lo = hi;
    hi *= 2.0;
  }
  alpha = std::min(alpha, hi);
  // Safeguarded Newton: keep the bracket, bisect when a step escapes it
  // or fails to halve the residual (so the bracket provably shrinks and
  // a mis-sized Newton step can never settle into a 2-cycle).
  double prev_abs_g = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < 200; ++iter) {
    const double g = eval(alpha, dg);
    const double abs_g = std::fabs(g);
    if (abs_g <= 1e-13 * weight) break;
    if (g > 0.0) {
      hi = alpha;
    } else {
      lo = alpha;
    }
    double next = dg > 0.0 && abs_g <= 0.5 * prev_abs_g ? alpha - g / dg
                                                        : 0.5 * (lo + hi);
    if (!(next > lo) || !(next < hi)) next = 0.5 * (lo + hi);
    if (next == alpha || !(hi - lo > 1e-15 * hi)) break;
    prev_abs_g = abs_g;
    alpha = next;
  }

  // Final allocation at the solved level; normalize the fractions so the
  // committed row sits exactly on the simplex.
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) ws.reply[i] = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t i = order[p];
    const double ai = a[i];
    if (!(ai * alpha > 1.0)) break;
    const double root = std::sqrt(beta * beta + 4.0 * self * ai * alpha);
    const double flow = ai - (beta + root) / (2.0 * alpha);
    if (flow > 0.0) {
      ws.reply[i] = flow;
      total += flow;
    }
  }
  NASHLB_ENSURE(total > 0.0, "class %zu: symmetric reply allocated no flow",
                k);
  for (std::size_t i = 0; i < n; ++i) ws.reply[i] /= total;
#if NASHLB_CHECK_ENABLED
  // The committed class load must leave every touched computer strictly
  // stable: T_i < a_i on the support by construction (sigma_i > 0).
  for (std::size_t i = 0; i < n; ++i) {
    NASHLB_ENSURE(ws.reply[i] * weight < a[i] || ws.reply[i] == 0.0,
                  "class %zu overloads computer %zu: flow %.17g >= free "
                  "rate %.17g",
                  k, i, ws.reply[i] * weight, a[i]);
  }
#endif
  return {ws.reply.data(), ws.reply.size()};
}

namespace {

/// Exact best-reply gain of one probe demand against the expanded loads:
/// the probe currently plays `row` (its class's strategy), so its cost is
/// D = sum_i row_i / (mu_i − lambda_i) and its best deviation is the
/// waterfill reply against avail_i = mu_i − lambda_i + row_i·phi.
struct ProbeGain {
  double gain = 0.0;    // D − D*, seconds
  double d_star = 0.0;  // deviated response time D*
  double u_min = 0.0;   // smallest slack the reply leaves, jobs/sec
  bool ok = false;      // false when the expanded profile starves a probe
};

ProbeGain probe_gain(const Instance& inst, std::span<const double> lambda,
                     std::span<const double> row, double current_d,
                     double phi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ProbeGain out;
  const std::size_t n = inst.num_computers();
  std::vector<double> avail(n);
  for (std::size_t i = 0; i < n; ++i) {
    avail[i] = inst.mu[i] - (lambda[i] - row[i] * phi);
    if (!(avail[i] > 0.0)) return out;
  }
  const std::vector<double> reply = optimal_fractions(avail, phi);
  double d_star = 0.0;
  double u_min = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double slack = avail[i] - reply[i] * phi;
    u_min = std::min(u_min, slack);
    if (reply[i] > 0.0) {
      if (!(slack > 0.0)) return out;
      d_star += reply[i] / slack;
    }
  }
  out.gain = current_d - d_star;
  out.d_star = d_star;
  out.u_min = u_min;
  out.ok = true;
  return out;
}

}  // namespace

EpsNashCertificate certify_eps_nash(const Instance& inst,
                                    const UserClassPartition& partition,
                                    const StrategyProfile& class_profile) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (partition.num_users() != inst.num_users()) {
    throw std::invalid_argument(
        "certify_eps_nash: partition/instance user count mismatch");
  }
  const std::vector<double> lambda =
      partition.expanded_loads(inst, class_profile);
  EpsNashCertificate cert;
  for (std::size_t k = 0; k < partition.num_classes(); ++k) {
    const UserClass& cls = partition.classes()[k];
    const std::span<const double> row = class_profile.row(k);
    // Every member of the class plays `row`, so they all experience the
    // same response time at the expanded profile.
    double current_d = 0.0;
    for (std::size_t i = 0; i < inst.num_computers(); ++i) {
      if (row[i] > 0.0) {
        const double slack = inst.mu[i] - lambda[i];
        if (!(slack > 0.0)) {
          current_d = kInf;
          break;
        }
        current_d += row[i] / slack;
      }
    }
    if (!std::isfinite(current_d) || !(current_d > 0.0)) {
      cert.eps_nash = kInf;
      cert.analytic_bound = kInf;
      cert.worst_class = k;
      return cert;
    }
    // The representative's residual gap_rep: how far the class profile
    // is from an exact class-level equilibrium.
    const ProbeGain rep =
        probe_gain(inst, lambda, row, current_d, cls.rep_phi);
    const double rep_gap = rep.ok ? std::max(rep.gain, 0.0) : kInf;
    cert.rep_gap_seconds = std::max(cert.rep_gap_seconds, rep_gap);
    // Real-member probes: the bucket extremes (one probe when the
    // extremes coincide, as in exact mode).
    const std::size_t probes[2] = {cls.user_min, cls.user_max};
    const std::size_t num_probes =
        (cls.user_min == cls.user_max ||
         inst.phi[cls.user_min] == inst.phi[cls.user_max])
            ? 1
            : 2;
    for (std::size_t p = 0; p < num_probes; ++p) {
      const std::size_t j = probes[p];
      const double phi_j = inst.phi[j];
      const ProbeGain g = probe_gain(inst, lambda, row, current_d, phi_j);
      ++cert.evaluated_members;
      const double delta = std::fabs(phi_j - cls.rep_phi);
      const double eps_j = g.ok ? std::max(g.gain, 0.0) / current_d : kInf;
      const double spread =
          g.ok && delta < g.u_min ? delta * g.d_star / (g.u_min - delta)
                                  : kInf;
      const double bound_j =
          std::isfinite(rep_gap) && std::isfinite(spread)
              ? (rep_gap + spread) / current_d
              : kInf;
      if (eps_j > cert.eps_nash) {
        cert.eps_nash = eps_j;
        cert.worst_class = k;
        cert.worst_user = j;
      }
      cert.analytic_bound = std::max(cert.analytic_bound, bound_j);
      cert.max_abs_gain_seconds =
          std::max(cert.max_abs_gain_seconds, g.ok ? g.gain : kInf);
    }
  }
  return cert;
}

}  // namespace nashlb::core
