#include "algo/baseline/greedy.h"

#include <algorithm>
#include <cassert>

namespace ftc::algo {

using graph::NodeId;

GreedyResult greedy_kmds(const graph::Graph& g,
                         const domination::Demands& demands) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  const auto n = static_cast<std::size_t>(g.n());

  GreedyResult result;
  // residual[i]: how many more dominators node i still needs.
  std::vector<std::int32_t> residual(demands.begin(), demands.end());
  std::vector<std::uint8_t> chosen(n, 0);

  // span[v]: number of closed neighbors with residual > 0 — the coverage
  // gain of picking v. A node can dominate each neighbor at most once, so
  // gain is the count of deficient closed neighbors, independent of how
  // deficient they are. Kept exact incrementally: when a node's residual
  // reaches 0, the span of each of its closed neighbors drops by one.
  std::vector<std::int32_t> span(n, 0);
  std::int64_t deficient_total = 0;
  auto add_to_spans = [&](NodeId u, std::int32_t delta) {
    span[static_cast<std::size_t>(u)] += delta;
    for (NodeId w : g.neighbors(u)) {
      span[static_cast<std::size_t>(w)] += delta;
    }
  };
  for (NodeId v = 0; v < g.n(); ++v) {
    if (residual[static_cast<std::size_t>(v)] > 0) {
      ++deficient_total;
      add_to_spans(v, 1);
    }
  }

  // Lazy bucket queue: bucket s holds nodes whose span was s when filed,
  // as an intrusive list (head[s], then next[v]). Spans only fall, so a
  // filed span is an upper bound and every unchosen node with a positive
  // span has exactly one entry. The top non-empty bucket is walked in
  // ascending id order: an entry still at span s is argmax(span, -id) and
  // is picked; one whose span fell is re-filed into its lower bucket
  // (never the one being walked).
  const std::int32_t top =
      span.empty() ? 0 : *std::max_element(span.begin(), span.end());
  std::vector<NodeId> head(static_cast<std::size_t>(top) + 1, -1);
  std::vector<NodeId> next(n, -1);
  auto file = [&](NodeId v, std::int32_t s) {
    next[static_cast<std::size_t>(v)] = head[static_cast<std::size_t>(s)];
    head[static_cast<std::size_t>(s)] = v;
  };
  for (NodeId v = 0; v < g.n(); ++v) {
    const std::int32_t s = span[static_cast<std::size_t>(v)];
    if (s > 0) file(v, s);
  }
  auto cover_one = [&](NodeId u) {
    auto& r = residual[static_cast<std::size_t>(u)];
    if (r > 0 && --r == 0) {
      --deficient_total;
      add_to_spans(u, -1);
    }
  };

  std::vector<NodeId> walk;  // the bucket being drained, sorted by id
  for (std::int32_t s = top; s > 0 && deficient_total > 0; --s) {
    walk.clear();
    for (NodeId v = head[static_cast<std::size_t>(s)]; v >= 0;
         v = next[static_cast<std::size_t>(v)]) {
      walk.push_back(v);
    }
    std::sort(walk.begin(), walk.end());
    for (NodeId v : walk) {
      if (deficient_total == 0) break;
      const std::int32_t actual = span[static_cast<std::size_t>(v)];
      if (actual < s) {
        if (actual > 0) file(v, actual);
        continue;
      }
      // Select v.
      chosen[static_cast<std::size_t>(v)] = 1;
      ++result.steps;
      cover_one(v);
      for (NodeId w : g.neighbors(v)) cover_one(w);
    }
  }

  result.fully_satisfied = deficient_total == 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (chosen[v]) result.set.push_back(static_cast<NodeId>(v));
  }
  return result;
}

}  // namespace ftc::algo
