#include <gtest/gtest.h>

#include "common/interner.h"
#include "hypergraph/hypergraph.h"
#include "sparql/parser.h"

namespace rwdt::hypergraph {
namespace {

Hypergraph H(std::vector<std::vector<uint32_t>> edges) {
  Hypergraph h;
  for (auto& e : edges) h.AddEdge(std::move(e));
  return h;
}

TEST(GyoTest, AcyclicCases) {
  EXPECT_TRUE(IsAcyclic(H({})));
  EXPECT_TRUE(IsAcyclic(H({{0, 1}})));
  EXPECT_TRUE(IsAcyclic(H({{0, 1}, {1, 2}})));                // path
  EXPECT_TRUE(IsAcyclic(H({{0, 1}, {0, 2}, {0, 3}})));        // star
  EXPECT_TRUE(IsAcyclic(H({{0, 1, 2}, {2, 3}, {3, 4, 5}})));  // tree-like
  // The triangle covered by a big edge is acyclic (alpha-acyclicity).
  EXPECT_TRUE(IsAcyclic(H({{0, 1}, {1, 2}, {0, 2}, {0, 1, 2}})));
}

TEST(GyoTest, CyclicCases) {
  EXPECT_FALSE(IsAcyclic(H({{0, 1}, {1, 2}, {0, 2}})));  // triangle
  EXPECT_FALSE(IsAcyclic(H({{0, 1}, {1, 2}, {2, 3}, {3, 0}})));  // square
}

TEST(JoinForestTest, AcceptsAcyclicShapes) {
  EXPECT_TRUE(BuildJoinForest(H({})).ok);
  EXPECT_TRUE(BuildJoinForest(H({{0, 1}})).ok);
  EXPECT_TRUE(BuildJoinForest(H({{0, 1}, {1, 2}, {2, 3}})).ok);  // chain
  EXPECT_TRUE(BuildJoinForest(H({{0, 1}, {0, 2}, {0, 3}})).ok);  // star
  EXPECT_TRUE(BuildJoinForest(H({{0, 1}, {2, 3}})).ok);  // disjoint
}

TEST(JoinForestTest, RejectsCycles) {
  EXPECT_FALSE(BuildJoinForest(H({{0, 1}, {1, 2}, {2, 0}})).ok);  // triangle
  EXPECT_FALSE(
      BuildJoinForest(H({{0, 1}, {1, 2}, {2, 3}, {3, 0}})).ok);  // square
}

TEST(JoinForestTest, KeepsEmptyAndDuplicateEdges) {
  // Edge i stays relation i. The duplicate pair and the empty edge (a
  // constant-only triple) are ears; each round removes the first ear in
  // edge order, under its first covering partner.
  const JoinForest f = BuildJoinForest(H({{0, 1}, {}, {0, 1}, {1, 2}}));
  ASSERT_TRUE(f.ok);
  EXPECT_EQ(f.order, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(f.parent, (std::vector<int>{2, 2, 3, -1}));
}

TEST(FreeConnexTest, ProjectionMatters) {
  // Path x-y-z: acyclic. Free vars {x, z} (endpoints) break free-connex
  // acyclicity; free vars {x, y} keep it.
  Hypergraph path = H({{0, 1}, {1, 2}});
  EXPECT_TRUE(IsFreeConnexAcyclic(path, {0, 1}, IsAcyclic(path)));
  EXPECT_TRUE(IsFreeConnexAcyclic(path, {0, 1, 2}, IsAcyclic(path)));
  EXPECT_FALSE(IsFreeConnexAcyclic(path, {0, 2}, IsAcyclic(path)));
  // Cyclic queries are never free-connex acyclic.
  const Hypergraph triangle = H({{0, 1}, {1, 2}, {0, 2}});
  EXPECT_FALSE(IsFreeConnexAcyclic(triangle, {0}, IsAcyclic(triangle)));
}

TEST(HtwTest, MatchesAcyclicityAtOne) {
  const std::vector<Hypergraph> acyclic = {
      H({{0, 1}, {1, 2}}), H({{0, 1, 2}, {2, 3}}), H({{0, 1}})};
  for (const auto& h : acyclic) {
    EXPECT_TRUE(HypertreeWidthAtMost(h, 1).value());
  }
  const Hypergraph triangle = H({{0, 1}, {1, 2}, {0, 2}});
  EXPECT_FALSE(HypertreeWidthAtMost(triangle, 1).value());
  EXPECT_TRUE(HypertreeWidthAtMost(triangle, 2).value());
}

TEST(HtwTest, GridNeedsWidthTwo) {
  // 2x3 grid of binary edges: treewidth 2, hypertree width 2.
  Hypergraph grid = H({{0, 1}, {1, 2}, {3, 4}, {4, 5},
                       {0, 3}, {1, 4}, {2, 5}});
  EXPECT_FALSE(HypertreeWidthAtMost(grid, 1).value());
  EXPECT_TRUE(HypertreeWidthAtMost(grid, 2).value());
}

TEST(HtwTest, CliqueOfBinaryEdges) {
  // K4 with binary edges: ghw = 2 (two edges cover each bag).
  Hypergraph k4 = H({{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_FALSE(HypertreeWidthAtMost(k4, 1).value());
  EXPECT_TRUE(HypertreeWidthAtMost(k4, 2).value());
}

class QueryShapeTest : public ::testing::Test {
 protected:
  sparql::Query Q(const std::string& text) {
    auto r = sparql::ParseSparql(text, &dict_);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    return r.ok() ? r.value() : sparql::Query{};
  }
  Interner dict_;
};

TEST_F(QueryShapeTest, CanonicalHypergraphFromQuery) {
  auto q = Q("SELECT ?x WHERE { ?x p ?y . ?y q ?z . "
             "FILTER(?x != ?z) }");
  Hypergraph h = BuildCanonicalHypergraph(q, /*include_filters=*/true);
  EXPECT_EQ(h.num_vertices, 3u);
  EXPECT_EQ(h.edges.size(), 3u);
  // The filter edge closes a cycle x-y-z-x.
  EXPECT_FALSE(IsAcyclic(h));
  Hypergraph no_filters =
      BuildCanonicalHypergraph(q, /*include_filters=*/false);
  EXPECT_TRUE(IsAcyclic(no_filters));
}

TEST_F(QueryShapeTest, ShapesFromQueries) {
  auto shape = [&](const std::string& text, bool with_constants) {
    return ClassifyShape(
        BuildCanonicalGraph(Q(text), with_constants));
  };
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p c1 }", true),
            GraphShape::kSingleEdge);
  // Without constants, the single triple's graph loses its only edge.
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p c1 }", false),
            GraphShape::kNoEdge);
  EXPECT_EQ(
      shape("SELECT ?x WHERE { ?x p ?y . ?y p ?z . ?z p ?w }", true),
      GraphShape::kChain);
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p ?a . ?x p ?b . ?x p ?c }",
                  true),
            GraphShape::kStar);
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p ?a . ?x p ?b . ?x p ?c . "
                  "?a q ?d . ?b q ?e }",
                  true),
            GraphShape::kStar);  // spider: one branching node
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p ?a . ?x p ?b . ?a q ?c . "
                  "?a q ?d . ?b q ?e . ?b q ?f }",
                  true),
            GraphShape::kTree);  // two branching nodes
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p ?y . ?z p ?w }", true),
            GraphShape::kForest);
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p ?y . ?y p ?z . ?z p ?x }",
                  true),
            GraphShape::kTreewidth2);
}

TEST_F(QueryShapeTest, ConstantsBecomeNodes) {
  // Triple graph includes constant endpoint nodes (paper: "nodes that
  // correspond to constant values").
  auto q = Q("SELECT ?x WHERE { ?x p c1 . ?x p c2 }");
  graph::SimpleGraph with = BuildCanonicalGraph(q, true);
  EXPECT_EQ(with.NumVertices(), 3u);
  EXPECT_EQ(with.NumEdges(), 2u);
  graph::SimpleGraph without = BuildCanonicalGraph(q, false);
  EXPECT_EQ(without.NumEdges(), 0u);
}

TEST_F(QueryShapeTest, BinaryFilterAddsEdge) {
  auto q = Q("SELECT ?x WHERE { ?x p ?y . FILTER(?x != ?y) }");
  graph::SimpleGraph g = BuildCanonicalGraph(q, true);
  // The filter edge {x,y} coincides with the triple edge.
  EXPECT_EQ(g.NumEdges(), 1u);
  auto q2 = Q("SELECT ?x WHERE { ?x p ?y . ?y p ?z . FILTER(?x != ?z) }");
  graph::SimpleGraph g2 = BuildCanonicalGraph(q2, true);
  EXPECT_EQ(g2.NumEdges(), 3u);  // triangle
  EXPECT_EQ(ClassifyShape(g2), GraphShape::kTreewidth2);
}

}  // namespace
}  // namespace rwdt::hypergraph
