// Graph serialization: a plain edge-list text format plus Graphviz DOT
// export for visual inspection of small instances.
//
// Edge-list format:
//   line 1: "n m"           (node count, edge count)
//   next m lines: "u v"     (one undirected edge per line, 0-based ids)
// Lines starting with '#' are comments and ignored on read.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace ftc::graph {

/// Writes g in edge-list format.
void write_edge_list(std::ostream& os, const Graph& g);

/// Reads a graph in edge-list format. Throws std::runtime_error naming the
/// 1-based line on malformed input: a bad header, n past the NodeId range,
/// m > n(n-1)/2, an out-of-range endpoint or self-loop, trailing tokens on
/// a line, or fewer than m edge lines.
[[nodiscard]] Graph read_edge_list(std::istream& is);

/// Round-trips via files. write throws on IO failure.
void save_edge_list(const std::string& path, const Graph& g);
[[nodiscard]] Graph load_edge_list(const std::string& path);

/// Writes g as a Graphviz `graph { ... }`. Nodes listed in `highlight`
/// (e.g. a dominating set) render filled.
void write_dot(std::ostream& os, const Graph& g,
               std::span<const NodeId> highlight = {});

}  // namespace ftc::graph
