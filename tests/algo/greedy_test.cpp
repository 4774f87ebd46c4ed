#include "algo/baseline/greedy.h"

#include <gtest/gtest.h>

#include "domination/bounds.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using domination::clamp_demands;
using domination::uniform_demands;
using graph::Graph;
using graph::NodeId;

TEST(Greedy, StarPicksCenter) {
  const Graph g = graph::star(8);
  const auto result = greedy_kmds(g, uniform_demands(8, 1));
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_EQ(result.set, (std::vector<NodeId>{0}));
}

TEST(Greedy, EmptyDemandsPickNothing) {
  const Graph g = graph::complete(5);
  const auto result = greedy_kmds(g, uniform_demands(5, 0));
  EXPECT_TRUE(result.set.empty());
  EXPECT_TRUE(result.fully_satisfied);
}

TEST(Greedy, CliqueKFold) {
  const Graph g = graph::complete(6);
  const auto result = greedy_kmds(g, uniform_demands(6, 3));
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_EQ(result.set.size(), 3u);  // any 3 clique nodes cover 3-fold
}

TEST(Greedy, ResultIsAlwaysFeasible) {
  util::Rng rng(1);
  for (int trial = 0; trial < 25; ++trial) {
    const Graph g = graph::gnp(60, 0.08, rng);
    for (std::int32_t k : {1, 2, 4}) {
      const auto d = clamp_demands(g, uniform_demands(60, k));
      const auto result = greedy_kmds(g, d);
      EXPECT_TRUE(result.fully_satisfied);
      EXPECT_TRUE(domination::is_k_dominating(g, result.set, d))
          << "trial " << trial << " k " << k;
    }
  }
}

TEST(Greedy, InfeasibleInstanceFlagged) {
  const Graph g = graph::path(3);
  const auto result = greedy_kmds(g, uniform_demands(3, 5));
  EXPECT_FALSE(result.fully_satisfied);
  // Greedy still covers what it can: everything chosen.
  EXPECT_EQ(result.set.size(), 3u);
}

TEST(Greedy, DeterministicTieBreak) {
  const Graph g = graph::cycle(6);
  const auto a = greedy_kmds(g, uniform_demands(6, 1));
  const auto b = greedy_kmds(g, uniform_demands(6, 1));
  EXPECT_EQ(a.set, b.set);
}

TEST(Greedy, RespectsHarmonicApproximation) {
  // |greedy| <= H(Δ+1) · OPT; verified against the packing bound on a
  // structured instance where OPT is known: star forest.
  const Graph g = graph::star(10);
  const auto result = greedy_kmds(g, uniform_demands(10, 1));
  EXPECT_EQ(result.set.size(), 1u);
}

TEST(Greedy, PerNodeDemands) {
  const Graph g = graph::path(4);
  domination::Demands d{1, 2, 1, 1};
  const auto result = greedy_kmds(g, d);
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_TRUE(domination::is_k_dominating(g, result.set, d));
}

TEST(Greedy, StepsEqualSetSize) {
  util::Rng rng(2);
  const Graph g = graph::gnp(40, 0.1, rng);
  const auto d = clamp_demands(g, uniform_demands(40, 2));
  const auto result = greedy_kmds(g, d);
  EXPECT_EQ(result.steps, static_cast<std::int64_t>(result.set.size()));
}

TEST(Greedy, IsolatedNodesMustSelfSelect) {
  const Graph g = graph::empty(5);
  const auto result = greedy_kmds(g, uniform_demands(5, 1));
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_EQ(result.set.size(), 5u);
}

TEST(Greedy, EmptyGraph) {
  const auto result = greedy_kmds(Graph{}, {});
  EXPECT_TRUE(result.fully_satisfied);
  EXPECT_TRUE(result.set.empty());
}

// Brute-force oracle for greedy_kmds: every step rescans all unchosen
// nodes, recounts each span from scratch, and picks argmax(span, -id).
GreedyResult brute_force_greedy(const Graph& g,
                                const domination::Demands& demands) {
  std::vector<std::int32_t> residual(demands.begin(), demands.end());
  std::vector<std::uint8_t> chosen(static_cast<std::size_t>(g.n()), 0);
  GreedyResult result;
  while (true) {
    NodeId best = -1;
    std::int32_t best_span = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      if (chosen[static_cast<std::size_t>(v)]) continue;
      std::int32_t span = residual[static_cast<std::size_t>(v)] > 0 ? 1 : 0;
      for (NodeId w : g.neighbors(v)) {
        if (residual[static_cast<std::size_t>(w)] > 0) ++span;
      }
      if (span > best_span) {  // strict: the smaller id keeps a tie
        best = v;
        best_span = span;
      }
    }
    if (best < 0) break;
    chosen[static_cast<std::size_t>(best)] = 1;
    ++result.steps;
    --residual[static_cast<std::size_t>(best)];
    for (NodeId w : g.neighbors(best)) --residual[static_cast<std::size_t>(w)];
  }
  for (NodeId v = 0; v < g.n(); ++v) {
    if (chosen[static_cast<std::size_t>(v)]) result.set.push_back(v);
    if (residual[static_cast<std::size_t>(v)] > 0) {
      result.fully_satisfied = false;
    }
  }
  return result;
}

TEST(Greedy, MatchesBruteForceOracle) {
  util::Rng rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    // Random graphs with a tail of isolated nodes (ids past the last
    // edge endpoint) and demands in [0, deg + 3]: zero, feasible, and
    // above deg + 1 (infeasible).
    const auto n = static_cast<NodeId>(rng.uniform_i64(0, 40));
    const auto isolated = static_cast<NodeId>(rng.uniform_i64(0, 4));
    const Graph sub = graph::gnp(n, rng.uniform(0.0, 0.4), rng);
    const Graph g = Graph::from_edges(n + isolated, sub.edges());
    domination::Demands d(static_cast<std::size_t>(g.n()));
    const bool feasible = trial % 3 != 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      const std::int64_t cap = g.degree(v) + (feasible ? 1 : 3);
      d[static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(rng.uniform_i64(0, cap));
    }
    const GreedyResult got = greedy_kmds(g, d);
    const GreedyResult want = brute_force_greedy(g, d);
    EXPECT_EQ(got.set, want.set) << "trial " << trial;
    EXPECT_EQ(got.steps, want.steps) << "trial " << trial;
    EXPECT_EQ(got.fully_satisfied, want.fully_satisfied) << "trial " << trial;
    if (feasible) {
      EXPECT_TRUE(got.fully_satisfied) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace ftc::algo
