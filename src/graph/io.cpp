#include "graph/io.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ftc::graph {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.n() << ' ' << g.m() << '\n';
  for (const Edge& e : g.edges()) {
    os << e.u << ' ' << e.v << '\n';
  }
}

Graph read_edge_list(std::istream& is) {
  std::string line;
  long long line_no = 0;  // 1-based number of the line in `line`
  auto next_data_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  };
  auto fail = [&](long long at, const std::string& what) {
    throw std::runtime_error("read_edge_list: line " + std::to_string(at) +
                             ": " + what);
  };
  // True when nothing but whitespace is left on the line.
  auto at_end = [](std::istringstream& row) {
    std::string extra;
    return !(row >> extra);
  };

  if (!next_data_line()) fail(line_no + 1, "missing header");
  std::istringstream header(line);
  long long n = 0, m = 0;
  if (!(header >> n >> m) || n < 0 || m < 0 || !at_end(header)) {
    fail(line_no, "bad header '" + line + "'");
  }
  if (n > std::numeric_limits<NodeId>::max()) {
    fail(line_no, "node count " + std::to_string(n) + " exceeds " +
                      std::to_string(std::numeric_limits<NodeId>::max()));
  }
  // n <= 2^31 - 1, so n(n-1)/2 fits a long long.
  if (m > n * (n - 1) / 2) {
    fail(line_no, "edge count " + std::to_string(m) + " exceeds n(n-1)/2 = " +
                      std::to_string(n * (n - 1) / 2));
  }

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  for (long long i = 0; i < m; ++i) {
    if (!next_data_line()) {
      fail(line_no + 1, "expected " + std::to_string(m) + " edges, got " +
                            std::to_string(i));
    }
    std::istringstream row(line);
    long long u = 0, v = 0;
    if (!(row >> u >> v) || u < 0 || v < 0 || u >= n || v >= n || u == v ||
        !at_end(row)) {
      fail(line_no, "bad edge '" + line + "'");
    }
    edges.push_back(
        {static_cast<NodeId>(u), static_cast<NodeId>(v)});
  }
  return Graph::from_edges(static_cast<NodeId>(n), edges);
}

void save_edge_list(const std::string& path, const Graph& g) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_edge_list: cannot open " + path);
  write_edge_list(out, g);
  if (!out) throw std::runtime_error("save_edge_list: write failed " + path);
}

Graph load_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_edge_list: cannot open " + path);
  return read_edge_list(in);
}

void write_dot(std::ostream& os, const Graph& g,
               std::span<const NodeId> highlight) {
  std::vector<bool> marked(static_cast<std::size_t>(g.n()), false);
  for (NodeId v : highlight) marked[static_cast<std::size_t>(v)] = true;
  os << "graph G {\n";
  for (NodeId v = 0; v < g.n(); ++v) {
    os << "  " << v;
    if (marked[static_cast<std::size_t>(v)]) {
      os << " [style=filled, fillcolor=lightblue]";
    }
    os << ";\n";
  }
  for (const Edge& e : g.edges()) {
    os << "  " << e.u << " -- " << e.v << ";\n";
  }
  os << "}\n";
}

}  // namespace ftc::graph
