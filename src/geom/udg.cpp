#include "geom/udg.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <numbers>
#include <unordered_map>

namespace ftc::geom {

using graph::Edge;
using graph::NodeId;

ProbeLists build_probe_lists(const UnitDiskGraph& udg, double tau) {
  const auto n = static_cast<std::size_t>(udg.n());
  ProbeLists lists;
  lists.offsets.assign(n + 1, 0);
  // Squared prefilter: dist = sqrt(dist_sq) is correctly rounded, so
  // dist <= tau implies dist_sq <= tau²·(1 + 2^-50); the slack below is
  // wider, so only the sqrt of a possible member is taken and no member
  // is lost.
  const double tau_sq_slack = tau * tau * (1.0 + 0x1p-40);
  for (NodeId v = 0; v < udg.n(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const Point pv = udg.positions[vi];
    for (NodeId w : udg.graph.neighbors(v)) {
      const double d_sq =
          dist_sq(pv, udg.positions[static_cast<std::size_t>(w)]);
      if (d_sq > tau_sq_slack) continue;
      const double d = std::sqrt(d_sq);  // == dist(pv, pw)
      if (d > tau) continue;
      // Insertion into the (short) sorted list; neighbors arrive in
      // ascending id, so equal distances keep ascending id.
      lists.entries.push_back({d, w});
      auto it = lists.entries.end() - 1;
      const auto first = lists.entries.begin() +
                         static_cast<std::ptrdiff_t>(lists.offsets[vi]);
      for (; it != first && (it - 1)->dist > d; --it) *it = *(it - 1);
      *it = {d, w};
    }
    lists.offsets[vi + 1] = lists.entries.size();
  }
  return lists;
}

std::int64_t cell_index(double coord, double radius) {
  const double cell = std::floor(coord / radius);
  if (!(std::fabs(cell) < 0x1p62)) {  // also catches NaN and ±inf
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "coordinate %.17g is not finite or off the cell grid",
                  coord);
    throw std::invalid_argument(buf);
  }
  return static_cast<std::int64_t>(cell);
}

UnitDiskGraph build_udg(std::vector<Point> points, double radius) {
  assert(radius > 0.0);
  const auto n = static_cast<NodeId>(points.size());

  // Spatial hash: cells of side `radius`; a node's neighbors lie in its own
  // or one of the 8 adjacent cells.
  struct CellKey {
    std::int64_t cx;
    std::int64_t cy;
    bool operator==(const CellKey&) const = default;
  };
  struct CellHash {
    std::size_t operator()(const CellKey& k) const noexcept {
      // 2D -> 1D mixing; constants from splitmix64.
      std::uint64_t h = static_cast<std::uint64_t>(k.cx) * 0x9E3779B97F4A7C15ULL;
      h ^= static_cast<std::uint64_t>(k.cy) * 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 29;
      return static_cast<std::size_t>(h);
    }
  };

  std::unordered_map<CellKey, std::vector<NodeId>, CellHash> cells;
  cells.reserve(static_cast<std::size_t>(n));
  auto cell_of = [radius](const Point& p) -> CellKey {
    return {cell_index(p.x, radius), cell_index(p.y, radius)};
  };
  for (NodeId v = 0; v < n; ++v) {
    cells[cell_of(points[static_cast<std::size_t>(v)])].push_back(v);
  }

  const double r_sq = radius * radius;
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    const Point pv = points[static_cast<std::size_t>(v)];
    const CellKey base = cell_of(pv);
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const auto it = cells.find({base.cx + dx, base.cy + dy});
        if (it == cells.end()) continue;
        for (NodeId w : it->second) {
          if (w <= v) continue;  // each pair once
          if (dist_sq(pv, points[static_cast<std::size_t>(w)]) <= r_sq) {
            edges.push_back({v, w});
          }
        }
      }
    }
  }

  UnitDiskGraph udg;
  udg.graph = graph::Graph::from_edges(n, edges);
  udg.positions = std::move(points);
  udg.radius = radius;
  return udg;
}

std::vector<Point> uniform_points(NodeId n, double side, util::Rng& rng) {
  assert(n >= 0 && side > 0.0);
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    points.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return points;
}

std::vector<Point> clustered_points(NodeId n, NodeId clusters, double side,
                                    double stddev, util::Rng& rng) {
  assert(n >= 0 && clusters >= 1 && side > 0.0 && stddev >= 0.0);
  std::vector<Point> centers;
  centers.reserve(static_cast<std::size_t>(clusters));
  for (NodeId c = 0; c < clusters; ++c) {
    centers.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const Point& c = centers[static_cast<std::size_t>(v % clusters)];
    Point p{c.x + stddev * rng.normal(), c.y + stddev * rng.normal()};
    p.x = std::clamp(p.x, 0.0, side);
    p.y = std::clamp(p.y, 0.0, side);
    points.push_back(p);
  }
  return points;
}

std::vector<Point> perturbed_grid_points(NodeId n, double side, double jitter,
                                         util::Rng& rng) {
  assert(n >= 0 && side > 0.0 && jitter >= 0.0);
  const auto k = static_cast<NodeId>(std::floor(std::sqrt(static_cast<double>(n))));
  std::vector<Point> points;
  if (k == 0) return points;
  const double step = side / static_cast<double>(k);
  points.reserve(static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
  for (NodeId r = 0; r < k; ++r) {
    for (NodeId c = 0; c < k; ++c) {
      Point p{(static_cast<double>(c) + 0.5) * step +
                  rng.uniform(-jitter, jitter),
              (static_cast<double>(r) + 0.5) * step +
                  rng.uniform(-jitter, jitter)};
      p.x = std::clamp(p.x, 0.0, side);
      p.y = std::clamp(p.y, 0.0, side);
      points.push_back(p);
    }
  }
  return points;
}

void save_udg(const std::string& path, const UnitDiskGraph& udg) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_udg: cannot open " + path);
  out.precision(17);
  out << udg.n() << ' ' << udg.radius << '\n';
  for (const Point& p : udg.positions) {
    out << p.x << ' ' << p.y << '\n';
  }
  if (!out) throw std::runtime_error("save_udg: write failed " + path);
}

UnitDiskGraph load_udg(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_udg: cannot open " + path);
  long long n = 0;
  double radius = 0.0;
  if (!(in >> n >> radius) || n < 0 || radius <= 0.0) {
    throw std::runtime_error("load_udg: bad header in " + path);
  }
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(n));
  for (long long i = 0; i < n; ++i) {
    Point p;
    if (!(in >> p.x >> p.y)) {
      throw std::runtime_error("load_udg: truncated point list in " + path);
    }
    points.push_back(p);
  }
  try {
    return build_udg(std::move(points), radius);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("load_udg: " + std::string(e.what()) +
                                " in " + path);
  }
}

graph::Graph quasi_udg(const UnitDiskGraph& udg, double sever,
                       double reflect_per_node, util::Rng& rng) {
  assert(sever >= 0.0 && sever <= 1.0);
  assert(reflect_per_node >= 0.0);
  std::vector<Edge> edges;
  for (const Edge& e : udg.graph.edges()) {
    if (!rng.bernoulli(sever)) edges.push_back(e);
  }
  const auto extra = static_cast<std::size_t>(
      reflect_per_node * static_cast<double>(udg.n()));
  for (std::size_t i = 0; i < extra; ++i) {
    const auto u =
        static_cast<NodeId>(rng.index(static_cast<std::size_t>(udg.n())));
    const auto v =
        static_cast<NodeId>(rng.index(static_cast<std::size_t>(udg.n())));
    if (u != v) edges.push_back({u, v});
  }
  return graph::Graph::from_edges(udg.n(), edges);
}

UnitDiskGraph uniform_udg_with_degree(NodeId n, double target_avg_degree,
                                      util::Rng& rng) {
  assert(n > 0 && target_avg_degree > 0.0);
  // Expected degree of a node in a uniform deployment of density ρ with
  // radius 1 is ρ·π (ignoring boundary effects). Choose the square side so
  // that ρ = n / side² gives the target.
  const double density = target_avg_degree / std::numbers::pi;
  const double side = std::sqrt(static_cast<double>(n) / density);
  return build_udg(uniform_points(n, side, rng), 1.0);
}

}  // namespace ftc::geom
