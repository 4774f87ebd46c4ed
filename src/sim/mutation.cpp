#include "sim/mutation.h"

#include <cassert>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace ftc::sim {

using graph::Edge;
using graph::EdgeDelta;
using graph::NodeId;

const char* mutation_kind_name(MutationKind k) noexcept {
  switch (k) {
    case MutationKind::kJoin:
      return "join";
    case MutationKind::kLeave:
      return "leave";
    case MutationKind::kMove:
      return "move";
    case MutationKind::kFlip:
      return "flip";
  }
  return "?";
}

std::string to_string(const MutationTrace& trace) {
  std::string out;
  char buf[128];
  for (const TimedMutation& t : trace) {
    // %.17g round-trips any double exactly.
    std::snprintf(buf, sizeof(buf), "%" PRId64 ":%d:%d:%d:%.17g:%.17g",
                  t.round, static_cast<int>(t.m.kind), t.m.node, t.m.peer,
                  t.m.x, t.m.y);
    if (!out.empty()) out += ';';
    out += buf;
  }
  return out;
}

MutationTrace parse_mutation_trace(const std::string& text) {
  MutationTrace trace;
  if (text.empty()) return trace;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = text.find(';', pos);
    const std::string entry =
        text.substr(pos, end == std::string::npos ? end : end - pos);
    TimedMutation t;
    int kind = 0;
    double x = 0.0;
    double y = 0.0;
    // sscanf: %lf accepts the full %.17g output range.
    if (std::sscanf(entry.c_str(), "%" SCNd64 ":%d:%d:%d:%lf:%lf", &t.round,
                    &kind, &t.m.node, &t.m.peer, &x, &y) != 6 ||
        kind < 0 || kind >= kMutationKindCount) {
      throw std::invalid_argument("parse_mutation_trace: bad entry '" + entry +
                                  "'");
    }
    t.m.kind = static_cast<MutationKind>(kind);
    t.m.x = x;
    t.m.y = y;
    trace.push_back(t);
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return trace;
}

namespace {

/// Capacity the reused delta vectors start with, so a typical mutation's
/// delta never grows them.
constexpr std::size_t kDeltaReserve = 64;

}  // namespace

DynamicWorld::DynamicWorld(const geom::UnitDiskGraph& udg)
    : udg_(std::make_unique<geom::DynamicUdg>(udg)) {
  applied_.delta.added.reserve(kDeltaReserve);
  applied_.delta.removed.reserve(kDeltaReserve);
}

DynamicWorld::DynamicWorld(const graph::Graph& g)
    : plain_(g), active_(static_cast<std::size_t>(g.n()), 1) {
  applied_.delta.added.reserve(kDeltaReserve);
  applied_.delta.removed.reserve(kDeltaReserve);
}

bool DynamicWorld::active(NodeId v) const noexcept {
  if (udg_) return udg_->active(v);
  return v >= 0 && v < n() && active_[static_cast<std::size_t>(v)] != 0;
}

NodeId DynamicWorld::active_count() const noexcept {
  const auto& flags = active_flags();
  NodeId count = 0;
  for (std::uint8_t a : flags) count += a;
  return count;
}

const AppliedMutation& DynamicWorld::apply(const Mutation& m) {
  AppliedMutation& out = applied_;
  out.m = m;
  out.applied = false;
  EdgeDelta& delta = out.delta;
  delta.added.clear();
  delta.removed.clear();
  auto norm = [](NodeId a, NodeId b) {
    return a < b ? Edge{a, b} : Edge{b, a};
  };

  if (udg_) {
    switch (m.kind) {
      case MutationKind::kJoin:
        out.m.node = udg_->node_join({m.x, m.y}, delta);
        out.applied = true;
        break;
      case MutationKind::kLeave:
        if (!udg_->active(m.node)) break;
        udg_->node_leave(m.node, delta);
        out.applied = true;
        break;
      case MutationKind::kMove:
        if (!udg_->active(m.node)) break;
        udg_->node_move(m.node, {m.x, m.y}, delta);
        out.applied = true;
        break;
      case MutationKind::kFlip:
        // A UDG's edges are a function of its embedding; see file header.
        break;
    }
    return out;
  }

  switch (m.kind) {
    case MutationKind::kJoin: {
      // Anchor to the peer's closed neighborhood when the peer is usable;
      // otherwise the node joins isolated (still a valid deployment — its
      // clamped demand is 1 and it can only cover itself). Decided before
      // v exists, so a peer naming v itself also joins isolated.
      const bool anchored = active(m.peer);
      const NodeId v = plain_.add_node(
          anchored ? static_cast<std::size_t>(plain_.degree(m.peer)) + 1 : 0);
      active_.push_back(1);
      out.m.node = v;
      if (anchored) {
        plain_.add_edge(v, m.peer);
        delta.added.push_back(norm(v, m.peer));
        // The peer's list was captured before v linked in, so iterate a
        // copy: add_edge(v, w) never touches peer's other neighbors.
        const auto nbrs = plain_.neighbors(m.peer);
        anchor_.assign(nbrs.begin(), nbrs.end());
        for (NodeId w : anchor_) {
          if (w == v) continue;
          if (plain_.add_edge(v, w)) delta.added.push_back(norm(v, w));
        }
      }
      out.applied = true;
      break;
    }
    case MutationKind::kLeave:
      if (!active(m.node)) break;
      active_[static_cast<std::size_t>(m.node)] = 0;
      plain_.isolate_into(m.node, delta.removed);
      out.applied = true;
      break;
    case MutationKind::kMove:
      // Re-anchor: drop all current edges, link to N[peer]. peer == node or
      // an unusable peer degrades to plain isolation — the node "moved out
      // of range of everyone".
      if (!active(m.node)) break;
      plain_.isolate_into(m.node, delta.removed);
      if (active(m.peer) && m.peer != m.node) {
        plain_.add_edge(m.node, m.peer);
        delta.added.push_back(norm(m.node, m.peer));
        const auto nbrs = plain_.neighbors(m.peer);
        anchor_.assign(nbrs.begin(), nbrs.end());
        for (NodeId w : anchor_) {
          if (w == m.node) continue;
          if (plain_.add_edge(m.node, w)) delta.added.push_back(norm(m.node, w));
        }
      }
      out.applied = true;
      break;
    case MutationKind::kFlip:
      if (!active(m.node) || !active(m.peer) || m.node == m.peer) break;
      if (plain_.remove_edge(m.node, m.peer)) {
        delta.removed.push_back(norm(m.node, m.peer));
      } else {
        plain_.add_edge(m.node, m.peer);
        delta.added.push_back(norm(m.node, m.peer));
      }
      out.applied = true;
      break;
  }
  return out;
}

}  // namespace ftc::sim
