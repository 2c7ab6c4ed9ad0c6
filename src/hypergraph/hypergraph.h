#ifndef RWDT_HYPERGRAPH_HYPERGRAPH_H_
#define RWDT_HYPERGRAPH_HYPERGRAPH_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "graph/treewidth.h"
#include "sparql/algebra.h"

namespace rwdt::hypergraph {

/// A hypergraph H = (V, E) with V = {0..num_vertices-1} and hyperedges as
/// sorted vertex sets (paper Section 9.5).
struct Hypergraph {
  size_t num_vertices = 0;
  std::vector<std::vector<uint32_t>> edges;

  void AddEdge(std::vector<uint32_t> edge);
};

/// The *triple hypergraph* of a CQ+F query: one hyperedge per triple
/// pattern holding its variables/blanks; the *canonical hypergraph* adds
/// one hyperedge per filter over the filter's variables (Section 9.5).
/// Variables are densely re-indexed; `var_of_vertex` maps back.
Hypergraph BuildCanonicalHypergraph(const sparql::Query& query,
                                    bool include_filters,
                                    std::vector<SymbolId>* var_of_vertex
                                    = nullptr);

/// A GYO join forest over the edges of a hypergraph. `parent[i]` is the
/// edge that covered edge i when i was removed as an ear (or -1 for the
/// root); `order` lists edges in removal order (leaves first, root
/// excluded). `ok` is false when some round finds no ear — the
/// hypergraph is cyclic.
struct JoinForest {
  std::vector<int> parent;
  std::vector<size_t> order;
  bool ok = false;
};

/// GYO ear removal, the library's one alpha-acyclicity decision. Each
/// round removes the first live edge, in edge order, whose vertices
/// shared with other live edges all lie in one other live edge; its
/// parent is the first such edge. Empty and duplicate edges stay edges
/// (an empty edge is an ear under any partner, a duplicate under its
/// twin), so edge i can stand for relation i of a join.
JoinForest BuildJoinForest(const Hypergraph& h);

/// True iff the hypergraph is alpha-acyclic (GYO reduction succeeds).
bool IsAcyclic(const Hypergraph& h);

/// Free-connex acyclicity (Bagan-Durand-Grandjean): the query is acyclic
/// AND the hypergraph extended with a hyperedge over the free (projected)
/// variables is acyclic. For SELECT * queries all variables are free.
/// `acyclic` must be IsAcyclic(h): callers that have decided it pass it
/// in, so GYO runs only on the extended hypergraph.
bool IsFreeConnexAcyclic(const Hypergraph& h,
                         const std::vector<uint32_t>& free_vertices,
                         bool acyclic);

/// Decides (generalized) hypertree width <= k by recursive separator
/// search with memoization — the library's stand-in for det-k-decomp.
/// For the acyclic case this agrees with GYO (ghw = 1 iff acyclic);
/// queries in logs are small, so exact search is practical. Returns
/// nullopt when the search exceeds `max_states`.
std::optional<bool> HypertreeWidthAtMost(const Hypergraph& h, size_t k,
                                         size_t max_states = 1u << 20);

/// The undirected shape classes of Table 7, most specific first.
enum class GraphShape {
  kNoEdge,
  kSingleEdge,  // <= 1 edge
  kChain,
  kStar,
  kTree,
  kForest,
  kTreewidth2,
  kTreewidth3,
  kOther,
};

std::string GraphShapeName(GraphShape shape);

/// Classifies an undirected graph into its most specific shape class.
GraphShape ClassifyShape(const graph::SimpleGraph& g);

/// The *canonical graph* of a graph-CQ+F query (Section 9.5): one node
/// per subject/object term, an edge per triple pattern, plus an edge per
/// binary filter; with `include_constants` false, nodes for IRIs/literals
/// and their incident edges are removed.
graph::SimpleGraph BuildCanonicalGraph(const sparql::Query& query,
                                       bool include_constants);

}  // namespace rwdt::hypergraph

#endif  // RWDT_HYPERGRAPH_HYPERGRAPH_H_
