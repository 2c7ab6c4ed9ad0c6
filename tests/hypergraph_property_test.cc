// Property sweeps on the hypergraph machinery: ghw<=1 coincides with GYO
// acyclicity, every GYO join forest passes an independent join-tree
// check, hypertree width is monotone in k, and shape classes nest as
// Table 7's cumulative presentation requires.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "graph/generators.h"
#include "hypergraph/hypergraph.h"

namespace rwdt::hypergraph {
namespace {

Hypergraph RandomHypergraph(Rng& rng, size_t vertices, size_t edges) {
  Hypergraph h;
  for (size_t e = 0; e < edges; ++e) {
    std::vector<uint32_t> edge;
    const size_t width = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < width; ++i) {
      edge.push_back(static_cast<uint32_t>(rng.NextBelow(vertices)));
    }
    h.AddEdge(std::move(edge));
  }
  return h;
}

/// RandomHypergraph plus empty edges and copies of earlier edges, each
/// inserted at a random position.
Hypergraph RandomHypergraphWithEmptyAndDuplicates(Rng& rng, size_t vertices,
                                                  size_t edges) {
  Hypergraph h = RandomHypergraph(rng, vertices, edges);
  const size_t extra = rng.NextBelow(4);
  for (size_t i = 0; i < extra; ++i) {
    std::vector<uint32_t> edge;
    if (rng.NextBool(0.5)) edge = h.edges[rng.NextBelow(h.edges.size())];
    h.edges.insert(h.edges.begin() + rng.NextBelow(h.edges.size() + 1),
                   std::move(edge));
  }
  return h;
}

/// Independent check that `f` is a join forest of `h`: `order` plus the
/// single root covers every edge exactly once, each parent is live when
/// its child is removed, and the edges containing any vertex form a
/// connected subtree (the running-intersection property).
::testing::AssertionResult IsJoinForestOf(const JoinForest& f,
                                          const Hypergraph& h) {
  const size_t n = h.edges.size();
  if (f.parent.size() != n) {
    return ::testing::AssertionFailure() << "parent has wrong size";
  }
  std::vector<int> covered(n, 0);
  for (size_t i : f.order) {
    if (i >= n) return ::testing::AssertionFailure() << "bad edge " << i;
    covered[i]++;
  }
  size_t roots = 0;
  for (size_t i = 0; i < n; ++i) {
    if (f.parent[i] == -1) {
      roots++;
      covered[i]++;
    }
  }
  if (n > 0 && roots != 1) {
    return ::testing::AssertionFailure() << roots << " roots";
  }
  for (size_t i = 0; i < n; ++i) {
    if (covered[i] != 1) {
      return ::testing::AssertionFailure()
             << "edge " << i << " covered " << covered[i] << " times";
    }
  }
  std::vector<bool> removed(n, false);
  for (size_t i : f.order) {
    const int p = f.parent[i];
    if (p < 0 || static_cast<size_t>(p) >= n || removed[p]) {
      return ::testing::AssertionFailure()
             << "edge " << i << " removed under dead parent " << p;
    }
    removed[i] = true;
  }
  // In a tree, k nodes joined by k - 1 parent links are connected.
  for (uint32_t v = 0; v < h.num_vertices; ++v) {
    auto holds = [&](int i) {
      return std::binary_search(h.edges[i].begin(), h.edges[i].end(), v);
    };
    size_t nodes = 0, links = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!holds(static_cast<int>(i))) continue;
      nodes++;
      if (f.parent[i] != -1 && holds(f.parent[i])) links++;
    }
    if (nodes > 0 && links + 1 != nodes) {
      return ::testing::AssertionFailure()
             << "edges holding vertex " << v << " are disconnected";
    }
  }
  return ::testing::AssertionSuccess();
}

class HgPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HgPropertyTest, JoinForestIsWitnessedJoinTree) {
  Rng rng(GetParam() + 400);
  for (int round = 0; round < 60; ++round) {
    const Hypergraph h =
        RandomHypergraphWithEmptyAndDuplicates(rng, 6, 1 + rng.NextBelow(8));
    const JoinForest f = BuildJoinForest(h);
    auto ghw1 = HypertreeWidthAtMost(h, 1);
    ASSERT_TRUE(ghw1.has_value());
    EXPECT_EQ(f.ok, *ghw1);
    if (f.ok) {
      EXPECT_TRUE(IsJoinForestOf(f, h));
    }
  }
}

TEST_P(HgPropertyTest, GhwOneIffAcyclic) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const Hypergraph h = RandomHypergraph(rng, 6, 2 + rng.NextBelow(7));
    auto ghw1 = HypertreeWidthAtMost(h, 1);
    ASSERT_TRUE(ghw1.has_value());
    EXPECT_EQ(*ghw1, IsAcyclic(h));
  }
}

TEST_P(HgPropertyTest, WidthIsMonotone) {
  Rng rng(GetParam() + 100);
  for (int round = 0; round < 25; ++round) {
    const Hypergraph h = RandomHypergraph(rng, 7, 3 + rng.NextBelow(8));
    bool previous = false;
    for (size_t k = 1; k <= 4; ++k) {
      auto at_most = HypertreeWidthAtMost(h, k);
      ASSERT_TRUE(at_most.has_value());
      if (previous) {
        EXPECT_TRUE(*at_most) << "monotonicity broke at " << k;
      }
      previous = *at_most;
    }
    // Every hypergraph with m edges has ghw <= m.
    auto all = HypertreeWidthAtMost(h, h.edges.size());
    ASSERT_TRUE(all.has_value());
    EXPECT_TRUE(*all);
  }
}

TEST_P(HgPropertyTest, FreeConnexImpliesAcyclic) {
  Rng rng(GetParam() + 200);
  for (int round = 0; round < 40; ++round) {
    const Hypergraph h = RandomHypergraph(rng, 6, 2 + rng.NextBelow(6));
    std::vector<uint32_t> free;
    for (uint32_t v = 0; v < h.num_vertices; ++v) {
      if (rng.NextBool(0.4)) free.push_back(v);
    }
    if (IsFreeConnexAcyclic(h, free, IsAcyclic(h))) {
      EXPECT_TRUE(IsAcyclic(h));
    }
    // All variables free: free-connex iff acyclic.
    std::vector<uint32_t> all;
    for (uint32_t v = 0; v < h.num_vertices; ++v) all.push_back(v);
    EXPECT_EQ(IsFreeConnexAcyclic(h, all, IsAcyclic(h)), IsAcyclic(h));
  }
}

TEST_P(HgPropertyTest, ShapeClassesNest) {
  // The shape taxonomy must respect the cumulative ordering of Table 7:
  // classifying a graph as some class means every later (more general)
  // class also admits it. Spot-check with the treewidth oracle.
  Rng rng(GetParam() + 300);
  for (int round = 0; round < 30; ++round) {
    graph::SimpleGraph g =
        graph::MakeRandomGraph(8, 2 + rng.NextBelow(12), rng);
    const GraphShape shape = ClassifyShape(g);
    const auto tw = graph::TreewidthExact(g);
    ASSERT_TRUE(tw.has_value());
    switch (shape) {
      case GraphShape::kNoEdge:
        EXPECT_EQ(g.NumEdges(), 0u);
        break;
      case GraphShape::kSingleEdge:
        EXPECT_EQ(g.NumEdges(), 1u);
        break;
      case GraphShape::kChain:
      case GraphShape::kStar:
      case GraphShape::kTree:
        EXPECT_TRUE(graph::IsForest(g));
        EXPECT_EQ(g.Components().size(), 1u);
        break;
      case GraphShape::kForest:
        EXPECT_TRUE(graph::IsForest(g));
        break;
      case GraphShape::kTreewidth2:
        EXPECT_FALSE(graph::IsForest(g));
        EXPECT_LE(*tw, 2u);
        break;
      case GraphShape::kTreewidth3:
        EXPECT_EQ(*tw, 3u);
        break;
      case GraphShape::kOther:
        EXPECT_GT(*tw, 3u);
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HgPropertyTest,
                         ::testing::Values(3, 17, 29, 41));

}  // namespace
}  // namespace rwdt::hypergraph
