// Problem and strategy types of the load balancing game (paper §2).
//
// An `Instance` is the static description of the distributed system: the
// computers' processing rates mu_i and the users' job arrival rates phi_j.
// A `StrategyProfile` is the matrix s with s[j][i] = fraction of user j's
// jobs sent to computer i — one row per user, the paper's strategy vector.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace nashlb::core {

/// Static description of the system: n heterogeneous M/M/1 computers
/// shared by m users with Poisson job streams.
struct Instance {
  /// Processing rate mu_i of each computer (jobs/sec), all > 0.
  std::vector<double> mu;
  /// Job arrival rate phi_j of each user (jobs/sec), all > 0.
  std::vector<double> phi;

  [[nodiscard]] std::size_t num_computers() const noexcept {
    return mu.size();
  }
  [[nodiscard]] std::size_t num_users() const noexcept { return phi.size(); }

  /// Phi = sum_j phi_j.
  [[nodiscard]] double total_arrival_rate() const noexcept;
  /// sum_i mu_i.
  [[nodiscard]] double total_capacity() const noexcept;
  /// rho = Phi / sum_i mu_i — the "system utilization" of Figure 4.
  [[nodiscard]] double system_utilization() const noexcept;

  /// Validates positivity of all rates, a finite sum_i mu_i and the
  /// aggregate stability condition Phi < sum_i mu_i; throws
  /// std::invalid_argument with a descriptive message on violation.
  void validate() const;
};

/// The strategy profile s: row j is user j's load balancing strategy
/// (s_j1 .. s_jn). Dense row-major storage.
class StrategyProfile {
 public:
  /// All-zero profile (the NASH_0 initialization — not itself feasible,
  /// it violates conservation until each user's first best reply).
  StrategyProfile(std::size_t num_users, std::size_t num_computers);

  /// Profile where every user splits proportionally to processing rates:
  /// s_ji = mu_i / sum_k mu_k (the NASH_P initialization and the PS
  /// scheme's allocation).
  static StrategyProfile proportional(const Instance& inst);

  [[nodiscard]] std::size_t num_users() const noexcept { return m_; }
  [[nodiscard]] std::size_t num_computers() const noexcept { return n_; }

  [[nodiscard]] double at(std::size_t user, std::size_t computer) const;
  void set(std::size_t user, std::size_t computer, double fraction);

  /// User j's strategy vector (read-only view).
  [[nodiscard]] std::span<const double> row(std::size_t user) const;
  /// Replaces user j's whole strategy.
  void set_row(std::size_t user, std::span<const double> strategy);

  /// Total arrival rate at each computer: lambda_i = sum_j s_ji phi_j.
  [[nodiscard]] std::vector<double> loads(const Instance& inst) const;

  /// Available processing rate seen by `user` at each computer:
  /// mu^j_i = mu_i - sum_{k != j} s_ki phi_k  (paper §2). This is what a
  /// real deployment estimates from run-queue lengths.
  [[nodiscard]] std::vector<double> available_rates(const Instance& inst,
                                                    std::size_t user) const;

  /// Feasibility of the full profile per the paper's constraints:
  /// (i) positivity, (ii) per-user conservation sum_i s_ji = 1 within
  /// `tol`, (iii) stability lambda_i < mu_i at every computer.
  [[nodiscard]] bool is_feasible(const Instance& inst,
                                 double tol = 1e-9) const;

  /// Max-norm distance between two profiles (used in convergence tests).
  [[nodiscard]] double max_difference(const StrategyProfile& other) const;

  friend bool operator==(const StrategyProfile& a,
                         const StrategyProfile& b) noexcept = default;

 private:
  std::size_t m_;
  std::size_t n_;
  std::vector<double> data_;  // row-major m_ x n_
};

}  // namespace nashlb::core
