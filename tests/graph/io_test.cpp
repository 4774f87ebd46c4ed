#include "graph/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "graph/generators.h"
#include "util/rng.h"

namespace ftc::graph {
namespace {

TEST(EdgeListIo, RoundTripStream) {
  util::Rng rng(1);
  const Graph g = gnp(40, 0.1, rng);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const Graph h = read_edge_list(buffer);
  EXPECT_EQ(h.n(), g.n());
  EXPECT_EQ(h.edges(), g.edges());
}

TEST(EdgeListIo, CommentsSkipped) {
  std::istringstream in("# a comment\n3 2\n# another\n0 1\n1 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.n(), 3);
  EXPECT_EQ(g.m(), 2u);
}

TEST(EdgeListIo, EmptyGraphRoundTrip) {
  std::stringstream buffer;
  write_edge_list(buffer, Graph{});
  const Graph g = read_edge_list(buffer);
  EXPECT_EQ(g.n(), 0);
  EXPECT_EQ(g.m(), 0u);
}

TEST(EdgeListIo, MissingHeaderThrows) {
  std::istringstream in("");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(EdgeListIo, BadHeaderThrows) {
  std::istringstream in("abc\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(EdgeListIo, TruncatedEdgeListThrows) {
  std::istringstream in("4 3\n0 1\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(EdgeListIo, OutOfRangeEndpointThrows) {
  std::istringstream in("3 1\n0 7\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(EdgeListIo, SelfLoopThrows) {
  std::istringstream in("3 1\n1 1\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(EdgeListIo, NodeCountPastNodeIdRangeThrows) {
  std::istringstream in("2147483648 0\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(EdgeListIo, EdgeCountPastSimpleGraphBoundThrows) {
  // A simple 10-node graph has at most 45 edges; the header alone decides,
  // even when 46 (necessarily repeated) edge lines follow.
  std::string text = "10 46\n";
  for (int i = 0; i < 46; ++i) text += "0 1\n";
  std::istringstream in(text);
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(EdgeListIo, TrailingHeaderTokenThrows) {
  std::istringstream in("3 1 x\n0 1\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(EdgeListIo, TrailingEdgeTokenThrows) {
  std::istringstream in("3 1\n0 1 extra\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(EdgeListIo, ErrorNamesTheLine) {
  std::istringstream in("# comment\n3 2\n0 1\n\n1 9\n");
  try {
    (void)read_edge_list(in);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5:"), std::string::npos)
        << e.what();
  }
}

TEST(EdgeListIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ftc_io_test.edges";
  util::Rng rng(2);
  const Graph g = gnp(25, 0.2, rng);
  save_edge_list(path, g);
  const Graph h = load_edge_list(path);
  EXPECT_EQ(h.edges(), g.edges());
  std::remove(path.c_str());
}

TEST(EdgeListIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_edge_list("/nonexistent_zzz/nope.edges"),
               std::runtime_error);
}

TEST(Dot, ContainsNodesAndEdges) {
  const Graph g =
      Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  std::ostringstream out;
  write_dot(out, g);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2;"), std::string::npos);
}

TEST(Dot, HighlightsMarkedNodes) {
  const Graph g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  std::ostringstream out;
  const std::vector<NodeId> marked{1};
  write_dot(out, g, marked);
  EXPECT_NE(out.str().find("1 [style=filled"), std::string::npos);
  EXPECT_EQ(out.str().find("0 [style=filled"), std::string::npos);
}

}  // namespace
}  // namespace ftc::graph
