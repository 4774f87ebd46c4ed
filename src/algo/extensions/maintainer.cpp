#include "algo/extensions/maintainer.h"

#include <algorithm>
#include <cassert>

#include "obs/plane.h"

namespace ftc::algo {

using graph::Edge;
using graph::NodeId;

IncrementalMaintainer::IncrementalMaintainer(
    NodeId n, std::span<const NodeId> initial_set, MaintainerOptions options)
    : options_(options), member_(static_cast<std::size_t>(n), 0) {
  assert(n >= 0 && options_.k >= 1);
  for (NodeId v : initial_set) {
    assert(v >= 0 && v < n);
    member_[static_cast<std::size_t>(v)] = 1;
  }
  for (std::uint8_t m : member_) members_ += m;
}

void IncrementalMaintainer::bind_plane(obs::Plane* plane) {
  plane_ = plane;
  if (plane_ == nullptr) return;
  auto& reg = plane_->metrics();
  batches_id_ = reg.counter("dyn.batches");
  mutations_id_ = reg.counter("dyn.mutations");
  promotions_id_ = reg.counter("dyn.promotions");
  demotions_id_ = reg.counter("dyn.demotions");
  dropped_id_ = reg.counter("dyn.dropped");
  members_id_ = reg.gauge("dyn.members");
  ball_hist_id_ = reg.histogram("dyn.ball_nodes", obs::pow2_bounds(0, 20));
  changed_hist_id_ =
      reg.histogram("dyn.changed_nodes", obs::pow2_bounds(0, 16));
}

std::vector<NodeId> IncrementalMaintainer::member_set() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < member_.size(); ++i) {
    if (member_[i]) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

void IncrementalMaintainer::update_cover(
    const graph::MutableGraph& g, std::span<const sim::AppliedMutation> batch) {
  if (!cover_ready_) {
    for (NodeId v = 0; v < g.n(); ++v) {
      std::int32_t c = member_[static_cast<std::size_t>(v)];
      for (NodeId w : g.neighbors(v)) c += member_[static_cast<std::size_t>(w)];
      cover_[static_cast<std::size_t>(v)] = c;
    }
    cover_ready_ = true;
    return;
  }
  // Membership is fixed while the deltas replay, so their order is
  // irrelevant: an edge added and removed within the batch cancels out.
  auto link = [&](const Edge& e, std::int32_t sign) {
    const auto u = static_cast<std::size_t>(e.u);
    const auto v = static_cast<std::size_t>(e.v);
    cover_[u] += sign * member_[v];
    cover_[v] += sign * member_[u];
  };
  for (const sim::AppliedMutation& am : batch) {
    for (const Edge& e : am.delta.added) link(e, 1);
    for (const Edge& e : am.delta.removed) link(e, -1);
  }
}

void IncrementalMaintainer::set_member(const graph::MutableGraph& g, NodeId v,
                                       bool member) {
  const std::int32_t sign = member ? 1 : -1;
  member_[static_cast<std::size_t>(v)] = member ? 1 : 0;
  members_ += sign;
  cover_[static_cast<std::size_t>(v)] += sign;
  for (NodeId w : g.neighbors(v)) cover_[static_cast<std::size_t>(w)] += sign;
  changed_.push_back(v);
}

MaintainResult IncrementalMaintainer::apply_batch(
    const graph::MutableGraph& g, std::span<const std::uint8_t> active,
    std::span<const sim::AppliedMutation> batch) {
  const auto n = static_cast<std::size_t>(g.n());
  assert(active.size() == n);
  assert(member_.size() <= n && "topologies only grow");
  member_.resize(n, 0);
  cover_.resize(n, 0);
  ball_.resize(n, 0);
  promoted_now_.resize(n, 0);
  update_cover(g, batch);

  MaintainResult result;
  changed_.clear();

  // Seeds: everything a mutation named plus every delta-edge endpoint. A
  // departed node's former neighbors are delta endpoints, so coverage lost
  // to the departure is rooted here. They open ball1, marked 2.
  ball1_.clear();
  auto add_seed = [&](NodeId v) {
    if (v < 0 || static_cast<std::size_t>(v) >= n) return;
    auto& mark = ball_[static_cast<std::size_t>(v)];
    if (mark != 2) {
      mark = 2;
      ball1_.push_back(v);
    }
  };
  for (const sim::AppliedMutation& am : batch) {
    add_seed(am.m.node);
    add_seed(am.m.peer);
    for (const Edge& e : am.delta.added) {
      add_seed(e.u);
      add_seed(e.v);
    }
    for (const Edge& e : am.delta.removed) {
      add_seed(e.u);
      add_seed(e.v);
    }
  }
  const std::size_t seed_count = ball1_.size();

  // Drop members that departed. Only seeds can have turned inactive: the
  // world deactivates nodes solely through leave mutations.
  for (std::size_t i = 0; i < seed_count; ++i) {
    const NodeId s = ball1_[i];
    if (member_[static_cast<std::size_t>(s)] &&
        !active[static_cast<std::size_t>(s)]) {
      set_member(g, s, false);
      ++result.dropped;
    }
  }

  // ball1 = seeds + 1 hop (coverage can only have changed there);
  // ball2 = ball1 + 1 hop (where promotion candidates live). Both in the
  // post-mutation graph.
  for (std::size_t i = 0; i < seed_count; ++i) {
    for (NodeId w : g.neighbors(ball1_[i])) {
      auto& mark = ball_[static_cast<std::size_t>(w)];
      if (mark != 2) {
        mark = 2;
        ball1_.push_back(w);
      }
    }
  }
  ball2_.assign(ball1_.begin(), ball1_.end());
  for (NodeId v : ball1_) {
    for (NodeId w : g.neighbors(v)) {
      auto& mark = ball_[static_cast<std::size_t>(w)];
      if (mark == 0) {
        mark = 1;
        ball2_.push_back(w);
      }
    }
  }
  std::sort(ball1_.begin(), ball1_.end());
  result.ball1 = static_cast<std::int64_t>(ball1_.size());
  result.ball2 = static_cast<std::int64_t>(ball2_.size());

  // Effective demand: the clamp_demands convention, recomputed against the
  // current degree (a move can change what is satisfiable).
  auto eff_demand = [&](NodeId v) -> std::int32_t {
    if (!active[static_cast<std::size_t>(v)]) return 0;
    return std::min(options_.k, g.degree(v) + 1);
  };
  // Residual demand. Outside ball1 the pre-batch full-coverage invariant
  // still holds, so the residual is 0 by construction — that is what
  // confines the wave.
  auto residual_of = [&](NodeId v) -> std::int32_t {
    const auto vi = static_cast<std::size_t>(v);
    if (ball_[vi] != 2 || !active[vi]) return 0;
    return std::max(0, eff_demand(v) - cover_[vi]);
  };

  // Promotion wave: same greedy as repair_after_failures — serve the
  // smallest deficient id first by promoting the closed neighbor spanning
  // the most deficient nodes, ties toward the smaller id. Deficient nodes
  // all lie in ball1, and a residual only falls during the wave, so one
  // ascending scan of ball1 visits them in exactly that order.
  if (!options_.promote) {
    // Mutant-harness mode: report the deficiency but leave it unrepaired.
    result.fully_satisfied = std::none_of(
        ball1_.begin(), ball1_.end(),
        [&](NodeId v) { return residual_of(v) > 0; });
  }
  for (std::size_t i = 0; options_.promote && i < ball1_.size();) {
    const NodeId v = ball1_[i];
    if (residual_of(v) <= 0) {
      ++i;
      continue;
    }
    NodeId best = -1;
    std::int64_t best_span = -1;
    auto consider = [&](NodeId c) {
      const auto ci = static_cast<std::size_t>(c);
      if (!active[ci] || member_[ci]) return;
      std::int64_t span = residual_of(c) > 0 ? 1 : 0;
      for (NodeId w : g.neighbors(c)) {
        if (residual_of(w) > 0) ++span;
      }
      if (span > best_span) {
        best_span = span;
        best = c;
      }
    };
    consider(v);
    for (NodeId w : g.neighbors(v)) consider(w);

    if (best == -1) {
      // Unreachable under clamped demands (a deficient node always has a
      // non-member in its closed neighborhood); defensive parity with the
      // repair oracle.
      result.fully_satisfied = false;
      ++i;
      continue;
    }
    set_member(g, best, true);
    promoted_now_[static_cast<std::size_t>(best)] = 1;
    ++result.promoted;
  }

  // Demotion wave: release members the batch made redundant (a join or a
  // move can over-cover a region). One ascending pass; a member may go if
  // every active node in its closed neighborhood stays at its effective
  // demand without it. Freshly-promoted nodes are exempt — promoting and
  // demoting the same node in one batch would thrash.
  if (options_.demote) {
    auto still_covered = [&](NodeId w) {
      if (!active[static_cast<std::size_t>(w)]) return true;
      return cover_[static_cast<std::size_t>(w)] - 1 >= eff_demand(w);
    };
    for (NodeId v : ball1_) {
      const auto vi = static_cast<std::size_t>(v);
      if (!member_[vi] || !active[vi] || promoted_now_[vi]) continue;
      if (!still_covered(v) ||
          !std::all_of(g.neighbors(v).begin(), g.neighbors(v).end(),
                       still_covered)) {
        continue;
      }
      set_member(g, v, false);
      ++result.demoted;
    }
  }

  // Leave the scratch all-zero for the next batch.
  for (NodeId v : ball2_) ball_[static_cast<std::size_t>(v)] = 0;
  for (NodeId v : changed_) promoted_now_[static_cast<std::size_t>(v)] = 0;

  std::sort(changed_.begin(), changed_.end());
  changed_.erase(std::unique(changed_.begin(), changed_.end()),
                 changed_.end());
  result.changed.assign(changed_.begin(), changed_.end());

  ++batches_;
  total_promoted_ += result.promoted;
  total_demoted_ += result.demoted;
  publish(result, batch.size());
  return result;
}

void IncrementalMaintainer::publish(const MaintainResult& result,
                                    std::size_t mutations) {
  if (plane_ == nullptr) return;
  auto& reg = plane_->metrics();
  reg.add(batches_id_, 1);
  reg.add(mutations_id_, static_cast<std::int64_t>(mutations));
  reg.add(promotions_id_, result.promoted);
  reg.add(demotions_id_, result.demoted);
  reg.add(dropped_id_, result.dropped);
  reg.set(members_id_, members());
  reg.record(ball_hist_id_, static_cast<double>(result.ball2));
  reg.record(changed_hist_id_, static_cast<double>(result.changed.size()));
}

}  // namespace ftc::algo
