// IncrementalMaintainer unit tests on hand-built topologies: every clause
// of the contract (coverage restoration, drops, demotion, locality,
// bounded promotion, determinism) plus the dyn.* metric publication. The
// fuzzed DynamicOracle (testing/dynamic.h) covers the same contract at
// scale; these pin exact small-case behavior.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "algo/baseline/greedy.h"
#include "algo/extensions/maintainer.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/plane.h"
#include "sim/mutation.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using graph::NodeId;
using sim::DynamicWorld;
using sim::Mutation;
using sim::MutationKind;

std::vector<sim::AppliedMutation> apply_all(DynamicWorld& world,
                                            const std::vector<Mutation>& ms) {
  std::vector<sim::AppliedMutation> batch;
  for (const Mutation& m : ms) batch.push_back(world.apply(m));
  return batch;
}

TEST(IncrementalMaintainer, LeaveDropsAndRepromotesLocally) {
  // Path 0-1-2, k=1, the center covers everyone. When it departs, both
  // stranded endpoints must self-promote (they are isolated afterwards).
  const graph::Graph g = graph::path(3);
  DynamicWorld world(g);
  const std::vector<NodeId> initial{1};
  IncrementalMaintainer maintainer(g.n(), initial, {.k = 1});

  Mutation leave;
  leave.kind = MutationKind::kLeave;
  leave.node = 1;
  const auto batch = apply_all(world, {leave});
  const MaintainResult r =
      maintainer.apply_batch(world.graph(), world.active_flags(), batch);

  EXPECT_EQ(r.dropped, 1);
  EXPECT_EQ(r.promoted, 2);
  EXPECT_EQ(r.demoted, 0);
  EXPECT_TRUE(r.fully_satisfied);
  EXPECT_EQ(maintainer.member_set(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(r.changed, (std::vector<NodeId>{0, 1, 2}));
}

TEST(IncrementalMaintainer, JoinTriggersDemotionOfRedundantMember) {
  // Complete(3) with two members; a join anchored at node 0 densifies the
  // neighborhood so one member becomes redundant and is released.
  const graph::Graph g = graph::complete(3);
  DynamicWorld world(g);
  const std::vector<NodeId> initial{0, 1};
  IncrementalMaintainer maintainer(g.n(), initial, {.k = 1});

  Mutation join;
  join.kind = MutationKind::kJoin;
  join.peer = 0;
  const auto batch = apply_all(world, {join});
  const MaintainResult r =
      maintainer.apply_batch(world.graph(), world.active_flags(), batch);

  EXPECT_EQ(r.promoted, 0);
  EXPECT_EQ(r.demoted, 1);
  EXPECT_EQ(maintainer.member_set(), (std::vector<NodeId>{1}));
  // Everyone is still covered.
  for (NodeId v = 0; v < world.n(); ++v) {
    bool covered = maintainer.is_member(v);
    for (NodeId w : world.graph().neighbors(v)) {
      covered = covered || maintainer.is_member(w);
    }
    EXPECT_TRUE(covered) << "node " << v;
  }
}

TEST(IncrementalMaintainer, DemotionRespectsHigherK) {
  // Complete(4), k=2, three members: still over-provisioned by one, and
  // only one may go — releasing two would break k=2 somewhere.
  const graph::Graph g = graph::complete(4);
  DynamicWorld world(g);
  const std::vector<NodeId> initial{0, 1, 2};
  IncrementalMaintainer maintainer(g.n(), initial, {.k = 2});

  Mutation flip;  // toggle {0,3} off and back on: a do-nothing batch shape
  flip.kind = MutationKind::kFlip;
  flip.node = 0;
  flip.peer = 3;
  auto batch = apply_all(world, {flip});
  batch = apply_all(world, {flip});  // restore the edge; seeds still {0,3}
  const MaintainResult r =
      maintainer.apply_batch(world.graph(), world.active_flags(), batch);
  EXPECT_EQ(r.promoted, 0);
  EXPECT_EQ(r.demoted, 1);
  EXPECT_EQ(maintainer.members(), 2);
  EXPECT_TRUE(domination::is_k_dominating(world.snapshot(),
                                          maintainer.member_set(), 2));
}

TEST(IncrementalMaintainer, MutationsOutsideComponentLeaveItUntouched) {
  // Two disjoint paths; churn in the left one must never touch the right
  // one's membership (the locality contract, exact version).
  const graph::Graph g =
      graph::Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  DynamicWorld world(g);
  const std::vector<NodeId> initial{1, 4};
  IncrementalMaintainer maintainer(g.n(), initial, {.k = 1});

  Mutation leave;
  leave.kind = MutationKind::kLeave;
  leave.node = 1;
  const auto batch = apply_all(world, {leave});
  const MaintainResult r =
      maintainer.apply_batch(world.graph(), world.active_flags(), batch);
  for (const NodeId v : r.changed) EXPECT_LT(v, 3) << "locality breached";
  EXPECT_TRUE(maintainer.is_member(4));
  EXPECT_FALSE(maintainer.is_member(1));
}

TEST(IncrementalMaintainer, NoPromotionModeReportsDeficiency) {
  const graph::Graph g = graph::path(3);
  DynamicWorld world(g);
  const std::vector<NodeId> initial{1};
  IncrementalMaintainer maintainer(g.n(), initial,
                                   {.k = 1, .promote = false});
  Mutation leave;
  leave.kind = MutationKind::kLeave;
  leave.node = 1;
  const auto batch = apply_all(world, {leave});
  const MaintainResult r =
      maintainer.apply_batch(world.graph(), world.active_flags(), batch);
  EXPECT_EQ(r.promoted, 0);
  EXPECT_FALSE(r.fully_satisfied);
  EXPECT_EQ(maintainer.members(), 0);
}

TEST(IncrementalMaintainer, IdenticalBatchesAreDeterministic) {
  const graph::Graph g = graph::cycle(12);
  auto run = [&] {
    DynamicWorld world(g);
    const std::vector<NodeId> initial{0, 3, 6, 9};
    IncrementalMaintainer maintainer(g.n(), initial, {.k = 1});
    std::vector<std::vector<NodeId>> changes;
    for (const NodeId victim : {3, 6, 0}) {
      Mutation leave;
      leave.kind = MutationKind::kLeave;
      leave.node = victim;
      const auto batch = apply_all(world, {leave});
      changes.push_back(
          maintainer
              .apply_batch(world.graph(), world.active_flags(), batch)
              .changed);
    }
    changes.push_back(maintainer.member_set());
    return changes;
  };
  EXPECT_EQ(run(), run());
}

TEST(IncrementalMaintainer, PublishesDynMetrics) {
  obs::Plane plane;
  const graph::Graph g = graph::path(3);
  DynamicWorld world(g);
  const std::vector<NodeId> initial{1};
  IncrementalMaintainer maintainer(g.n(), initial, {.k = 1});
  maintainer.bind_plane(&plane);

  Mutation leave;
  leave.kind = MutationKind::kLeave;
  leave.node = 1;
  const auto batch = apply_all(world, {leave});
  (void)maintainer.apply_batch(world.graph(), world.active_flags(), batch);

  auto& reg = plane.metrics();
  EXPECT_EQ(reg.value(reg.counter("dyn.batches")), 1);
  EXPECT_EQ(reg.value(reg.counter("dyn.mutations")), 1);
  EXPECT_EQ(reg.value(reg.counter("dyn.promotions")), 2);
  EXPECT_EQ(reg.value(reg.counter("dyn.dropped")), 1);
  EXPECT_EQ(reg.value(reg.gauge("dyn.members")), 2);
  EXPECT_EQ(maintainer.batches(), 1);
  EXPECT_EQ(maintainer.total_promoted(), 2);
}


// Golden digests: a hash of every batch's observable output (its edge
// delta, changed list, promoted/demoted/dropped, ball1/ball2) plus the final
// member set, over three seeded streams. The DynamicOracle only checks that
// each batch's set is valid; these pin the exact set the maintainer picks,
// so a drifting internal count that chose a different valid set fails here.
// An optimization must leave them unchanged; only a deliberate change of
// the maintainer's choices may re-record them.

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::int64_t word) {
    auto bits = static_cast<std::uint64_t>(word);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= bits & 0xFF;
      hash_ *= 0x100000001B3ULL;
      bits >>= 8;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

struct StreamSpec {
  bool geometric = true;
  NodeId n = 0;
  std::int32_t k = 1;
  int batches = 0;
  int batch_size = 1;
  std::uint64_t seed = 0;
};

/// Replays a seeded stream through DynamicWorld + IncrementalMaintainer and
/// digests every batch. Geometric streams draw joins and moves within one
/// radius of a random node (25% join, 35% leave, 40% move); combinatorial
/// streams draw anchored joins, leaves, re-anchoring moves and edge flips.
/// Targets are drawn from all ids, so some mutations are clamped no-ops.
std::uint64_t stream_digest(const StreamSpec& spec) {
  util::Rng rng(spec.seed);
  std::unique_ptr<DynamicWorld> world;
  graph::Graph g0;
  if (spec.geometric) {
    const geom::UnitDiskGraph udg =
        geom::uniform_udg_with_degree(spec.n, 12.0, rng);
    g0 = udg.graph;
    world = std::make_unique<DynamicWorld>(udg);
  } else {
    g0 = graph::gnp(spec.n, 8.0 / spec.n, rng);
    world = std::make_unique<DynamicWorld>(g0);
  }
  const auto demands = domination::clamp_demands(
      g0, domination::uniform_demands(g0.n(), spec.k));
  IncrementalMaintainer maintainer(g0.n(), greedy_kmds(g0, demands).set,
                                   {.k = spec.k});

  Digest digest;
  std::vector<sim::AppliedMutation> batch;
  for (int b = 0; b < spec.batches; ++b) {
    batch.clear();
    for (int i = 0; i < spec.batch_size; ++i) {
      const auto target = static_cast<NodeId>(
          rng.index(static_cast<std::size_t>(world->n())));
      const auto other = static_cast<NodeId>(
          rng.index(static_cast<std::size_t>(world->n())));
      const double u = rng.uniform01();
      Mutation m;
      if (spec.geometric) {
        const geom::Point anchor =
            world->udg()->positions()[static_cast<std::size_t>(target)];
        m.kind = u < 0.25   ? MutationKind::kJoin
                 : u < 0.60 ? MutationKind::kLeave
                            : MutationKind::kMove;
        m.node = m.kind == MutationKind::kJoin ? -1 : target;
        m.x = anchor.x + rng.uniform(-1.0, 1.0);
        m.y = anchor.y + rng.uniform(-1.0, 1.0);
      } else {
        m.kind = u < 0.25   ? MutationKind::kJoin
                 : u < 0.50 ? MutationKind::kLeave
                 : u < 0.65 ? MutationKind::kMove
                            : MutationKind::kFlip;
        m.node = m.kind == MutationKind::kJoin ? -1 : target;
        m.peer = other;
      }
      batch.push_back(world->apply(m));
    }
    const MaintainResult r =
        maintainer.apply_batch(world->graph(), world->active_flags(), batch);
    for (const sim::AppliedMutation& am : batch) {
      digest.add(am.applied);
      digest.add(am.m.node);
      for (const graph::Edge& e : am.delta.added) {
        digest.add(e.u);
        digest.add(e.v);
      }
      digest.add(-1);
      for (const graph::Edge& e : am.delta.removed) {
        digest.add(e.u);
        digest.add(e.v);
      }
      digest.add(-2);
    }
    digest.add(r.promoted);
    digest.add(r.demoted);
    digest.add(r.dropped);
    digest.add(r.ball1);
    digest.add(r.ball2);
    digest.add(r.fully_satisfied);
    digest.add(static_cast<std::int64_t>(r.changed.size()));
    for (const NodeId v : r.changed) digest.add(v);
  }
  for (const NodeId v : maintainer.member_set()) digest.add(v);
  digest.add(maintainer.members());
  return digest.value();
}

TEST(MaintainerGolden, GeometricSingleMutationBatches) {
  const StreamSpec spec{.geometric = true, .n = 2000, .k = 2,
                        .batches = 4000, .batch_size = 1, .seed = 0x61};
  EXPECT_EQ(stream_digest(spec), 12600792882603184726ULL);
}

TEST(MaintainerGolden, GeometricBatchesOfSevenGrowingN) {
  const StreamSpec spec{.geometric = true, .n = 2000, .k = 2,
                        .batches = 800, .batch_size = 7, .seed = 0x61};
  EXPECT_EQ(stream_digest(spec), 285067715559253363ULL);
}

TEST(MaintainerGolden, CombinatorialStreamWithFlips) {
  const StreamSpec spec{.geometric = false, .n = 400, .k = 3,
                        .batches = 1000, .batch_size = 3, .seed = 0x62};
  EXPECT_EQ(stream_digest(spec), 6524580288854781447ULL);
}

}  // namespace
}  // namespace ftc::algo
