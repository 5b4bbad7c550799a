#include "core/convex_reply.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/best_reply.hpp"
#include "core/dynamics.hpp"
#include "core/waterfill.hpp"
#include "stats/rng.hpp"
#include "support/shifted_delay.hpp"

namespace nashlb::core {
namespace {

using test_support::mm1_models_with_comm;
using test_support::ShiftedDelay;

TEST(DelayModel, MM1MatchesFormulas) {
  const MM1Delay d(10.0);
  EXPECT_DOUBLE_EQ(d.capacity(), 10.0);
  EXPECT_DOUBLE_EQ(d.response_time(4.0), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(d.response_time_derivative(4.0), 1.0 / 36.0);
  EXPECT_THROW((void)d.response_time(10.0), std::invalid_argument);
  EXPECT_THROW(MM1Delay(0.0), std::invalid_argument);
}

TEST(DelayModel, MMCDerivativeMatchesFiniteDifference) {
  const MMCDelay d(2.5, 4);
  const double lambda = 6.0;
  const double h = 1e-5;
  const double numeric =
      (d.response_time(lambda + h) - d.response_time(lambda - h)) / (2 * h);
  EXPECT_NEAR(d.response_time_derivative(lambda), numeric, 1e-5);
}

TEST(DelayModel, MMCSingleServerEqualsMM1) {
  const MMCDelay mmc(7.0, 1);
  const MM1Delay mm1(7.0);
  for (double l : {0.0, 2.0, 5.0, 6.9}) {
    EXPECT_NEAR(mmc.response_time(l), mm1.response_time(l), 1e-10);
  }
}

TEST(DelayModel, MM1ModelsFactory) {
  const auto models = mm1_models({10.0, 20.0});
  ASSERT_EQ(models.size(), 2u);
  EXPECT_DOUBLE_EQ(models[1]->capacity(), 20.0);
}

TEST(ConvexReply, MatchesClosedFormOnMM1) {
  // THE validation: the generic KKT solver must reproduce the paper's
  // closed-form OPTIMAL on M/M/1 models, background included.
  stats::Xoshiro256 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.next_below(10);
    std::vector<double> mu(n), background(n), avail(n);
    double headroom = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mu[i] = 5.0 + 95.0 * rng.next_double();
      background[i] = 0.8 * mu[i] * rng.next_double();
      avail[i] = mu[i] - background[i];
      headroom += avail[i];
    }
    const double phi = 0.5 * headroom * rng.next_double_open();

    const ConvexReplyResult generic =
        convex_best_reply(mm1_models(mu), background, phi, 1e-12);
    const WaterfillResult closed = waterfill_sqrt(avail, phi);

    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(generic.flow[i], closed.lambda[i],
                  1e-6 * (1.0 + closed.lambda[i]))
          << "trial " << trial << " computer " << i;
    }
  }
}

TEST(ConvexReply, ConservationHoldsExactly) {
  const auto models = mm1_models({10.0, 20.0, 50.0});
  const std::vector<double> background{2.0, 5.0, 10.0};
  const ConvexReplyResult r = convex_best_reply(models, background, 12.0);
  const double total =
      std::accumulate(r.flow.begin(), r.flow.end(), 0.0);
  EXPECT_NEAR(total, 12.0, 1e-9);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(r.flow[i], 0.0);
    EXPECT_LT(background[i] + r.flow[i], models[i]->capacity());
  }
}

TEST(ConvexReply, KktConditionsHold) {
  const auto models = mm1_models({10.0, 20.0, 50.0, 100.0});
  const std::vector<double> background{1.0, 2.0, 5.0, 10.0};
  const double phi = 40.0;
  const ConvexReplyResult r = convex_best_reply(models, background, phi);
  for (std::size_t i = 0; i < 4; ++i) {
    const double load = background[i] + r.flow[i];
    const double g = models[i]->response_time(load) +
                     r.flow[i] * models[i]->response_time_derivative(load);
    if (r.flow[i] > 1e-9) {
      EXPECT_NEAR(g, r.alpha, 1e-6 * r.alpha) << i;
    } else {
      EXPECT_GE(g, r.alpha * (1.0 - 1e-9)) << i;
    }
  }
}

TEST(ConvexReply, RejectsBadInputs) {
  const auto models = mm1_models({10.0});
  EXPECT_THROW((void)convex_best_reply(models, {0.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)convex_best_reply(models, {10.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)convex_best_reply(models, {0.0}, 10.0),
               std::invalid_argument);
  EXPECT_THROW((void)convex_best_reply(models, {0.0, 0.0}, 1.0),
               std::invalid_argument);
}

TEST(GenericDynamics, MM1EquilibriumMatchesPaperDynamics) {
  // Full-circle validation: the generic dynamics on M/M/1 models reaches
  // the same equilibrium as the specialized paper implementation.
  Instance inst;
  inst.mu = {10.0, 20.0, 50.0, 100.0};
  inst.phi = {30.0, 40.0, 38.0};

  DynamicsOptions opts;
  opts.tolerance = 1e-10;
  const DynamicsResult paper = best_reply_dynamics(inst, opts);
  ASSERT_TRUE(paper.converged);

  const GenericDynamicsResult generic = generic_best_reply_dynamics(
      mm1_models(inst.mu), inst.phi, 1e-10, 1000);
  ASSERT_TRUE(generic.converged);

  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    for (std::size_t i = 0; i < inst.num_computers(); ++i) {
      EXPECT_NEAR(generic.flows[j][i] / inst.phi[j],
                  paper.profile.at(j, i), 1e-5)
          << "user " << j << " computer " << i;
    }
    EXPECT_NEAR(generic.user_times[j], paper.user_times[j], 1e-6);
  }
}

TEST(GenericDynamics, MMCGameConvergesToEquilibrium) {
  // The extension the paper cannot do in closed form: multi-core nodes.
  std::vector<DelayModelPtr> models{
      std::make_shared<MMCDelay>(25.0, 4),   // 4-core node
      std::make_shared<MMCDelay>(50.0, 2),   // 2-core node
      std::make_shared<MM1Delay>(100.0),     // one fast core
  };
  const std::vector<double> phi{60.0, 60.0, 60.0};
  const GenericDynamicsResult res =
      generic_best_reply_dynamics(models, phi, 1e-8, 2000);
  ASSERT_TRUE(res.converged);

  // Equilibrium check: no user can reduce its time via its best reply.
  std::vector<double> loads(3, 0.0);
  for (const auto& f : res.flows) {
    for (std::size_t i = 0; i < 3; ++i) loads[i] += f[i];
  }
  for (std::size_t j = 0; j < phi.size(); ++j) {
    std::vector<double> background(3);
    for (std::size_t i = 0; i < 3; ++i) {
      background[i] = loads[i] - res.flows[j][i];
    }
    const ConvexReplyResult reply =
        convex_best_reply(models, background, phi[j]);
    double d_reply = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      if (reply.flow[i] > 0.0) {
        d_reply += reply.flow[i] *
                   models[i]->response_time(background[i] + reply.flow[i]);
      }
    }
    d_reply /= phi[j];
    EXPECT_LE(res.user_times[j] - d_reply, 1e-6) << "user " << j;
  }
}

TEST(DelayModel, ShiftedDelayAddsConstant) {
  const auto base = std::make_shared<MM1Delay>(10.0);
  const ShiftedDelay shifted(base, 0.05);
  EXPECT_DOUBLE_EQ(shifted.capacity(), 10.0);
  EXPECT_NEAR(shifted.response_time(4.0), 1.0 / 6.0 + 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(shifted.response_time_derivative(4.0),
                   base->response_time_derivative(4.0));
  EXPECT_THROW(ShiftedDelay(nullptr, 0.1), std::invalid_argument);
  EXPECT_THROW(ShiftedDelay(base, -0.1), std::invalid_argument);
}

TEST(ConvexReply, CommunicationDelayRepelsRemoteComputers) {
  // Two identical computers, one behind a network delay: the best reply
  // favors the local one, and increasingly so as the delay grows.
  const std::vector<double> mu{10.0, 10.0};
  const std::vector<double> background{0.0, 0.0};
  double prev_remote_share = 1.0;
  for (double d : {0.0, 0.05, 0.2, 1.0}) {
    const auto models = mm1_models_with_comm(mu, {0.0, d});
    const ConvexReplyResult r = convex_best_reply(models, background, 8.0);
    const double remote_share = r.flow[1] / 8.0;
    EXPECT_LE(remote_share, prev_remote_share + 1e-9) << "delay " << d;
    if (d == 0.0) {
      EXPECT_NEAR(remote_share, 0.5, 1e-9);  // symmetry
    }
    prev_remote_share = remote_share;
  }
  // A large enough delay shuts the remote computer out entirely.
  const auto models = mm1_models_with_comm(mu, {0.0, 100.0});
  const ConvexReplyResult r = convex_best_reply(models, background, 8.0);
  EXPECT_DOUBLE_EQ(r.flow[1], 0.0);
}

TEST(GenericDynamics, CommDelayGameReachesEquilibrium) {
  const auto models = mm1_models_with_comm({50.0, 50.0, 100.0},
                                           {0.0, 0.02, 0.04});
  const std::vector<double> phi{40.0, 40.0, 40.0};
  const GenericDynamicsResult res =
      generic_best_reply_dynamics(models, phi, 1e-9, 2000);
  ASSERT_TRUE(res.converged);
  // Symmetric users, so identical equilibrium times.
  EXPECT_NEAR(res.user_times[0], res.user_times[1], 1e-6);
  EXPECT_NEAR(res.user_times[0], res.user_times[2], 1e-6);
}

TEST(GenericDynamics, RejectsOverload) {
  EXPECT_THROW((void)generic_best_reply_dynamics(mm1_models({10.0}), {11.0}),
               std::invalid_argument);
  EXPECT_THROW((void)generic_best_reply_dynamics({}, {1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nashlb::core
