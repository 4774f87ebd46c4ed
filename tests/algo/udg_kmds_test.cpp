#include "algo/udg/udg_kmds.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "algo/udg/udg_kmds_process.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using graph::NodeId;

TEST(UdgParams, Part1RoundsGrowsDoublyLogarithmically) {
  EXPECT_EQ(udg_part1_rounds(2), 1);
  const auto r100 = udg_part1_rounds(100);
  const auto r10k = udg_part1_rounds(10'000);
  const auto r1m = udg_part1_rounds(1'000'000);
  EXPECT_LE(r100, r10k);
  EXPECT_LE(r10k, r1m);
  // log_{1.5}(log2(1e6)) ≈ log(19.93)/log(1.5) ≈ 7.38 -> 8 rounds.
  EXPECT_EQ(r1m, 8);
}

TEST(UdgParams, InitialThetaMatchesFormula) {
  const double log2n = std::log2(1000.0);
  const double expected = 0.5 * std::pow(log2n, -1.0 / std::log2(1.5));
  EXPECT_NEAR(udg_initial_theta(1000), expected, 1e-12);
  EXPECT_DOUBLE_EQ(udg_initial_theta(2), 0.5);
}

TEST(UdgParams, FinalThetaIsAtMostHalf) {
  // θ in the last executed round must stay within the probing radius 1/2.
  for (NodeId n : {10, 100, 1000, 100000}) {
    double theta = udg_initial_theta(n);
    const auto rounds = udg_part1_rounds(n);
    for (std::int64_t r = 1; r < rounds; ++r) theta *= 2.0;
    EXPECT_LE(theta, 0.5 + 1e-12) << "n=" << n;
    // And after the final doubling the cover radius is within [1/2, 1].
    EXPECT_GE(2.0 * theta, 0.5 - 1e-12) << "n=" << n;
  }
}

TEST(UdgParams, IdRangeIsFourthPowerClamped) {
  EXPECT_EQ(udg_id_range(10), 10000u);
  EXPECT_EQ(udg_id_range(100), 100000000u);
  // Saturation at 2^62 for huge n.
  EXPECT_EQ(udg_id_range(2'000'000), std::uint64_t{1} << 62);
}

geom::UnitDiskGraph make_udg(NodeId n, double degree, std::uint64_t seed) {
  util::Rng rng(seed);
  return geom::uniform_udg_with_degree(n, degree, rng);
}

TEST(UdgKmds, Part1LeadersFormDominatingSet) {
  // Lemma 5.1: every node is a leader or adjacent to one.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto udg = make_udg(400, 12.0, seed);
    UdgOptions opts;
    opts.k = 1;
    const auto result = solve_udg_kmds(udg, opts, seed);
    EXPECT_TRUE(domination::is_k_dominating(
        udg.graph, result.part1_leaders, 1,
        domination::Mode::kOpenForNonMembers))
        << "seed " << seed;
  }
}

TEST(UdgKmds, FinalSetIsKFoldDominating) {
  for (std::uint64_t seed : {10u, 20u, 30u}) {
    const auto udg = make_udg(500, 15.0, seed);
    for (std::int32_t k : {1, 2, 3, 5}) {
      UdgOptions opts;
      opts.k = k;
      const auto result = solve_udg_kmds(udg, opts, seed);
      EXPECT_TRUE(result.fully_satisfied);
      EXPECT_TRUE(domination::is_k_dominating(
          udg.graph, result.leaders, k,
          domination::Mode::kOpenForNonMembers))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(UdgKmds, ActiveCountsDecreaseMonotonically) {
  const auto udg = make_udg(800, 20.0, 77);
  UdgOptions opts;
  opts.k = 1;
  const auto result = solve_udg_kmds(udg, opts, 77);
  for (std::size_t i = 1; i < result.active_after_round.size(); ++i) {
    EXPECT_LE(result.active_after_round[i], result.active_after_round[i - 1]);
  }
  ASSERT_FALSE(result.active_after_round.empty());
  EXPECT_EQ(result.active_after_round.back(),
            static_cast<std::int64_t>(result.part1_leaders.size()));
}

TEST(UdgKmds, DeterministicForSeed) {
  const auto udg = make_udg(300, 10.0, 5);
  UdgOptions opts;
  opts.k = 2;
  const auto a = solve_udg_kmds(udg, opts, 123);
  const auto b = solve_udg_kmds(udg, opts, 123);
  EXPECT_EQ(a.leaders, b.leaders);
  const auto c = solve_udg_kmds(udg, opts, 124);
  EXPECT_NE(a.leaders, c.leaders);  // overwhelmingly likely
}

TEST(UdgKmds, SingleNode) {
  const geom::UnitDiskGraph udg = geom::build_udg({{0.0, 0.0}}, 1.0);
  UdgOptions opts;
  opts.k = 3;
  const auto result = solve_udg_kmds(udg, opts, 1);
  EXPECT_EQ(result.leaders, (std::vector<NodeId>{0}));
}

TEST(UdgKmds, IsolatedNodesAllBecomeLeaders) {
  // Far-apart nodes: everyone elects itself forever.
  std::vector<geom::Point> pts;
  for (int i = 0; i < 5; ++i) {
    pts.push_back({static_cast<double>(i) * 10.0, 0.0});
  }
  const auto udg = geom::build_udg(pts, 1.0);
  UdgOptions opts;
  opts.k = 2;
  const auto result = solve_udg_kmds(udg, opts, 9);
  EXPECT_EQ(result.leaders.size(), 5u);
}

TEST(UdgKmds, DenseCliqueElectsFewPart1Leaders) {
  // All nodes within distance 1 of each other: Part I should thin the
  // active set down to O(1) leaders.
  util::Rng rng(42);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4)});
  }
  const auto udg = geom::build_udg(pts, 1.0);
  UdgOptions opts;
  opts.k = 1;
  const auto result = solve_udg_kmds(udg, opts, 3);
  EXPECT_LE(result.part1_leaders.size(), 12u);
  EXPECT_GE(result.part1_leaders.size(), 1u);
}

TEST(UdgKmds, Part2AddsAtMostKPerLeaderPerIteration) {
  const auto udg = make_udg(400, 14.0, 55);
  UdgOptions opts;
  opts.k = 3;
  const auto result = solve_udg_kmds(udg, opts, 55);
  const auto added = static_cast<std::int64_t>(result.leaders.size()) -
                     static_cast<std::int64_t>(result.part1_leaders.size());
  EXPECT_GE(added, 0);
  EXPECT_LE(added, result.part2_iterations * 3 *
                       static_cast<std::int64_t>(result.leaders.size()));
}

class UdgProcessEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::int32_t>> {};

TEST_P(UdgProcessEquivalence, ProcessMatchesMirror) {
  const auto [instance, k] = GetParam();
  const std::uint64_t seed = 900 + static_cast<std::uint64_t>(instance);
  geom::UnitDiskGraph udg;
  switch (instance) {
    case 0: udg = make_udg(150, 8.0, seed); break;
    case 1: udg = make_udg(300, 15.0, seed); break;
    case 2: {
      util::Rng rng(seed);
      udg = geom::build_udg(geom::clustered_points(200, 5, 8.0, 0.6, rng),
                            1.0);
      break;
    }
    default: {
      util::Rng rng(seed);
      udg = geom::build_udg(geom::perturbed_grid_points(196, 10.0, 0.3, rng),
                            1.0);
      break;
    }
  }

  UdgOptions opts;
  opts.k = k;
  const auto mirror = solve_udg_kmds(udg, opts, seed);

  sim::SyncNetwork net(udg, seed);
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<UdgKmdsProcess>(k); });
  const std::int64_t max_rounds =
      2 * udg_part1_rounds(udg.n()) + 3 * (udg.n() + 3);
  net.run(max_rounds);

  std::vector<NodeId> dist_leaders, dist_part1;
  for (NodeId v = 0; v < udg.n(); ++v) {
    const auto& p = net.process_as<UdgKmdsProcess>(v);
    EXPECT_TRUE(p.halted()) << "node " << v << " did not halt";
    if (p.leader()) dist_leaders.push_back(v);
    if (p.part1_leader()) dist_part1.push_back(v);
  }
  EXPECT_EQ(dist_part1, mirror.part1_leaders);
  EXPECT_EQ(dist_leaders, mirror.leaders);
}

INSTANTIATE_TEST_SUITE_P(
    InstancesTimesK, UdgProcessEquivalence,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values<std::int32_t>(1, 2, 4)));

TEST(UdgProcess, MessageSizeIsConstantWords) {
  const auto udg = make_udg(200, 10.0, 31);
  sim::SyncNetwork net(udg, 31);
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<UdgKmdsProcess>(2); });
  net.run(2 * udg_part1_rounds(udg.n()) + 3 * (udg.n() + 3));
  EXPECT_LE(net.metrics().max_message_words, 2);
}

TEST(UdgProcess, RunsInExpectedRoundBudget) {
  // Part I: 2R rounds; Part II: constant expected iterations. Even a very
  // conservative budget of 2R + 3·(#iterations + 2) with iterations ~ O(k)
  // should suffice on benign instances.
  const auto udg = make_udg(400, 12.0, 71);
  sim::SyncNetwork net(udg, 71);
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<UdgKmdsProcess>(3); });
  const auto rounds = net.run(100000);
  const auto R = udg_part1_rounds(udg.n());
  EXPECT_LE(rounds, 2 * R + 3 * 40) << "Part II took implausibly long";
}


TEST(UdgParams, ExtendedHelpersReduceToDefaults) {
  for (NodeId n : {10, 100, 5000, 100000}) {
    EXPECT_EQ(udg_part1_rounds_ex(n, 1.5), udg_part1_rounds(n)) << n;
    EXPECT_DOUBLE_EQ(udg_initial_theta_ex(n, 1.5, 1.0),
                     udg_initial_theta(n))
        << n;
  }
}

TEST(UdgParams, ThetaScaleIsClampedToRadioRange) {
  for (NodeId n : {100, 10000}) {
    for (double xi : {1.2, 1.5, 2.0}) {
      const auto rounds = udg_part1_rounds_ex(n, xi);
      const double theta1 = udg_initial_theta_ex(n, xi, 100.0);  // huge
      const double theta_last =
          theta1 * std::pow(2.0, static_cast<double>(rounds - 1));
      EXPECT_LE(theta_last, 0.5 + 1e-12) << "n=" << n << " xi=" << xi;
    }
  }
}

TEST(UdgParams, SmallerXiMeansMoreRounds) {
  EXPECT_GT(udg_part1_rounds_ex(10000, 1.2), udg_part1_rounds_ex(10000, 2.0));
}

TEST(UdgKmds, NonDefaultParamsStillProduceValidSets) {
  util::Rng rng(99);
  const auto udg = geom::uniform_udg_with_degree(300, 12.0, rng);
  for (double xi : {1.2, 2.0}) {
    for (double scale : {0.5, 2.0}) {
      UdgOptions opts;
      opts.k = 2;
      opts.xi = xi;
      opts.theta_scale = scale;
      const auto result = solve_udg_kmds(udg, opts, 99);
      EXPECT_TRUE(domination::is_k_dominating(
          udg.graph, result.leaders, 2,
          domination::Mode::kOpenForNonMembers))
          << "xi=" << xi << " scale=" << scale;
    }
  }
}

TEST(UdgKmds, ProcessMatchesMirrorWithNonDefaultParams) {
  util::Rng rng(17);
  const auto udg = geom::uniform_udg_with_degree(150, 10.0, rng);
  UdgOptions opts;
  opts.k = 2;
  opts.xi = 2.0;
  opts.theta_scale = 2.0;
  const auto mirror = solve_udg_kmds(udg, opts, 17);

  sim::SyncNetwork net(udg, 17);
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<UdgKmdsProcess>(opts); });
  net.run(2 * udg_part1_rounds_ex(udg.n(), opts.xi) + 3 * (udg.n() + 3));
  std::vector<NodeId> leaders;
  for (NodeId v = 0; v < udg.n(); ++v) {
    if (net.process_as<UdgKmdsProcess>(v).leader()) leaders.push_back(v);
  }
  EXPECT_EQ(leaders, mirror.leaders);
}

TEST(UdgKmds, MirrorMatchesProcessOnProbeBoundary) {
  // Two nodes on the Part-I probe boundary: n < 4 runs one round at
  // θ = 1/2, and the pair sits where the squared test dist² <= θ² and the
  // process's dist <= θ give different answers. The mirror must follow the
  // process: either both nodes see each other (one Part-I leader) or
  // neither does (two).
  ASSERT_EQ(udg_part1_rounds(2), 1);
  const double theta = udg_initial_theta(2);
  ASSERT_EQ(theta, 0.5);
  const geom::Point p{0.0, 0.0};
  std::vector<geom::Point> boundary;  // disagreeing points, both kinds
  bool seen[2] = {false, false};
  for (int i = 1; i < 10000 && !(seen[0] && seen[1]); ++i) {
    const double a = 0.0001 * i;
    const geom::Point on_circle{theta * std::cos(a), theta * std::sin(a)};
    for (const double toward : {1.0, -1.0}) {  // walk x up, then down
      geom::Point q = on_circle;
      for (int ulp = 0; ulp < 3; ++ulp) {
        const bool by_sqrt = geom::dist(p, q) <= theta;
        if ((geom::dist_sq(p, q) <= theta * theta) != by_sqrt &&
            !seen[by_sqrt]) {
          seen[by_sqrt] = true;
          boundary.push_back(q);
        }
        q.x = std::nextafter(q.x, toward);
      }
    }
  }
  ASSERT_FALSE(boundary.empty());
  for (const geom::Point& q : boundary) {
    const auto udg = geom::build_udg({p, q}, 1.0);
    ASSERT_TRUE(udg.graph.has_edge(0, 1));
    const std::size_t expected_part1 = udg.distance(0, 1) <= theta ? 1 : 2;
    for (std::int32_t k : {1, 2}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        UdgOptions opts;
        opts.k = k;
        const auto mirror = solve_udg_kmds(udg, opts, seed);
        EXPECT_EQ(mirror.part1_leaders.size(), expected_part1);

        sim::SyncNetwork net(udg, seed);
        net.set_all_processes(
            [&](NodeId) { return std::make_unique<UdgKmdsProcess>(k); });
        net.run(2 * udg_part1_rounds(udg.n()) + 3 * (udg.n() + 3));
        std::vector<NodeId> leaders, part1;
        for (NodeId v = 0; v < udg.n(); ++v) {
          const auto& proc = net.process_as<UdgKmdsProcess>(v);
          if (proc.leader()) leaders.push_back(v);
          if (proc.part1_leader()) part1.push_back(v);
        }
        EXPECT_EQ(part1, mirror.part1_leaders) << "k " << k << " seed " << seed;
        EXPECT_EQ(leaders, mirror.leaders) << "k " << k << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace ftc::algo
