// Property sweep for the generic convex best-reply solver: randomized
// agreement with the closed form, KKT certificates on M/M/c, and
// monotonicity of the equilibrium machinery across model mixes.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <ostream>

#include "core/convex_reply.hpp"
#include "core/waterfill.hpp"
#include "stats/rng.hpp"

namespace nashlb::core {
namespace {

struct MixParam {
  std::uint64_t seed;
  bool multicore;  // include M/M/c nodes in the mix
};

// gtest's default printer dumps the struct's bytes, padding included, and
// the dump lands in the registered ctest names; print the fields, as in
// the INSTANTIATE_TEST_SUITE_P list, so the names are the same in every
// build.
void PrintTo(const MixParam& p, std::ostream* os) {
  *os << '{' << p.seed << ',' << (p.multicore ? "true" : "false") << '}';
}

class ConvexReplyProperty : public ::testing::TestWithParam<MixParam> {};

std::vector<DelayModelPtr> random_models(stats::Xoshiro256& rng,
                                         std::size_t n, bool multicore,
                                         double& capacity) {
  std::vector<DelayModelPtr> models;
  capacity = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double rate = 5.0 + 95.0 * rng.next_double();
    if (multicore && rng.next_below(2) == 0) {
      const unsigned cores = 2 + static_cast<unsigned>(rng.next_below(7));
      models.push_back(
          std::make_shared<MMCDelay>(rate / cores, cores));
      capacity += rate;
    } else {
      models.push_back(std::make_shared<MM1Delay>(rate));
      capacity += rate;
    }
  }
  return models;
}

TEST_P(ConvexReplyProperty, KktCertificateHolds) {
  const auto [seed, multicore] = GetParam();
  stats::Xoshiro256 rng(seed);
  const std::size_t n = 2 + rng.next_below(10);
  double capacity = 0.0;
  const std::vector<DelayModelPtr> models =
      random_models(rng, n, multicore, capacity);

  std::vector<double> background(n);
  double headroom = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    background[i] = 0.6 * models[i]->capacity() * rng.next_double();
    headroom += models[i]->capacity() - background[i];
  }
  const double phi = 0.6 * headroom * rng.next_double_open();
  const ConvexReplyResult r =
      convex_best_reply(models, background, phi, 1e-11);

  // Conservation, positivity, stability.
  EXPECT_NEAR(std::accumulate(r.flow.begin(), r.flow.end(), 0.0), phi,
              1e-6 * (1.0 + phi));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(r.flow[i], 0.0);
    EXPECT_LT(background[i] + r.flow[i], models[i]->capacity());
  }
  // KKT: equal marginals on support, no better idle computer.
  for (std::size_t i = 0; i < n; ++i) {
    const double load = background[i] + r.flow[i];
    const double g = models[i]->response_time(load) +
                     r.flow[i] * models[i]->response_time_derivative(load);
    if (r.flow[i] > 1e-9 * phi) {
      EXPECT_NEAR(g, r.alpha, 1e-4 * r.alpha) << "computer " << i;
    } else {
      EXPECT_GE(g, r.alpha * (1.0 - 1e-6)) << "computer " << i;
    }
  }
}

TEST_P(ConvexReplyProperty, BeatsRandomFeasibleFlows) {
  const auto [seed, multicore] = GetParam();
  stats::Xoshiro256 rng(seed ^ 0x5a5a5a5aULL);
  const std::size_t n = 2 + rng.next_below(6);
  double capacity = 0.0;
  const std::vector<DelayModelPtr> models =
      random_models(rng, n, multicore, capacity);
  const std::vector<double> background(n, 0.0);
  const double phi = 0.5 * capacity;

  const ConvexReplyResult best = convex_best_reply(models, background, phi);
  auto cost = [&](const std::vector<double>& flow) {
    double c = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (flow[i] > 0.0) {
        c += flow[i] * models[i]->response_time(flow[i]);
      }
    }
    return c;
  };
  const double opt = cost(best.flow);

  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> w(n);
    double wt = 0.0;
    for (double& x : w) {
      x = rng.next_double_open();
      wt += x;
    }
    std::vector<double> flow(n);
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      flow[i] = phi * w[i] / wt;
      if (flow[i] >= models[i]->capacity()) ok = false;
    }
    if (!ok) continue;
    EXPECT_GE(cost(flow), opt - 1e-7 * (1.0 + opt));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, ConvexReplyProperty,
    ::testing::Values(MixParam{1, false}, MixParam{2, false},
                      MixParam{3, false}, MixParam{4, true},
                      MixParam{5, true}, MixParam{6, true},
                      MixParam{7, true}, MixParam{8, true}),
    [](const ::testing::TestParamInfo<MixParam>& param_info) {
      return std::string(param_info.param.multicore ? "mixed" : "mm1") +
             "_s" + std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace nashlb::core
