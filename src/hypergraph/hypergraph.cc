#include "hypergraph/hypergraph.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>

namespace rwdt::hypergraph {

void Hypergraph::AddEdge(std::vector<uint32_t> edge) {
  std::sort(edge.begin(), edge.end());
  edge.erase(std::unique(edge.begin(), edge.end()), edge.end());
  for (uint32_t v : edge) {
    num_vertices = std::max<size_t>(num_vertices, v + 1);
  }
  edges.push_back(std::move(edge));
}

Hypergraph BuildCanonicalHypergraph(const sparql::Query& query,
                                    bool include_filters,
                                    std::vector<SymbolId>* var_of_vertex) {
  Hypergraph h;
  std::map<SymbolId, uint32_t> index;
  std::vector<SymbolId> vars;
  auto intern = [&](SymbolId var) {
    auto [it, inserted] =
        index.emplace(var, static_cast<uint32_t>(vars.size()));
    if (inserted) vars.push_back(var);
    return it->second;
  };
  if (query.pattern != nullptr) {
    std::vector<const sparql::TriplePattern*> triples;
    query.pattern->CollectTriples(&triples);
    for (const auto* t : triples) {
      std::vector<uint32_t> edge;
      for (const sparql::Term* term : {&t->s, &t->p, &t->o}) {
        if (term->ActsAsVar()) edge.push_back(intern(term->id));
      }
      if (!edge.empty()) h.AddEdge(std::move(edge));
    }
    // Property paths contribute their endpoint variables.
    std::vector<const sparql::PathTriple*> paths;
    query.pattern->CollectPathTriples(&paths);
    for (const auto* p : paths) {
      std::vector<uint32_t> edge;
      if (p->s.ActsAsVar()) edge.push_back(intern(p->s.id));
      if (p->o.ActsAsVar()) edge.push_back(intern(p->o.id));
      if (!edge.empty()) h.AddEdge(std::move(edge));
    }
    if (include_filters) {
      std::vector<sparql::FilterPtr> filters;
      query.pattern->CollectFilters(&filters);
      for (const auto& f : filters) {
        std::set<SymbolId> fvars;
        f->CollectVars(&fvars);
        if (fvars.empty()) continue;
        std::vector<uint32_t> edge;
        for (SymbolId v : fvars) edge.push_back(intern(v));
        h.AddEdge(std::move(edge));
      }
    }
  }
  h.num_vertices = vars.size();
  if (var_of_vertex != nullptr) *var_of_vertex = vars;
  return h;
}

JoinForest BuildJoinForest(const Hypergraph& h) {
  const size_t n = h.edges.size();
  JoinForest forest;
  forest.parent.assign(n, -1);
  // live[v]: live edges containing v. A vertex of edge i is shared with
  // another live edge iff live[v] > 1.
  std::vector<uint32_t> live(h.num_vertices, 0);
  for (const auto& e : h.edges) {
    for (uint32_t v : e) live[v]++;
  }
  std::vector<bool> removed(n, false);
  std::vector<uint32_t> shared;
  for (size_t round = 0; round + 1 < n; ++round) {
    bool found = false;
    for (size_t i = 0; i < n && !found; ++i) {
      if (removed[i]) continue;
      shared.clear();
      for (uint32_t v : h.edges[i]) {
        if (live[v] > 1) shared.push_back(v);
      }
      for (size_t j = 0; j < n && !found; ++j) {
        if (j == i || removed[j]) continue;
        if (std::includes(h.edges[j].begin(), h.edges[j].end(),
                          shared.begin(), shared.end())) {
          forest.parent[i] = static_cast<int>(j);
          forest.order.push_back(i);
          removed[i] = true;
          for (uint32_t v : h.edges[i]) live[v]--;
          found = true;
        }
      }
    }
    if (!found) return forest;  // cyclic: no ear
  }
  forest.ok = true;
  return forest;
}

bool IsAcyclic(const Hypergraph& h) { return BuildJoinForest(h).ok; }

bool IsFreeConnexAcyclic(const Hypergraph& h,
                         const std::vector<uint32_t>& free_vertices,
                         bool acyclic) {
  if (!acyclic || free_vertices.empty()) return acyclic;
  Hypergraph extended = h;
  extended.AddEdge(free_vertices);
  return IsAcyclic(extended);
}

namespace {

using VertexSet = std::vector<uint32_t>;  // sorted

VertexSet Union(const VertexSet& a, const VertexSet& b) {
  VertexSet out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

VertexSet Intersect(const VertexSet& a, const VertexSet& b) {
  VertexSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

bool Subset(const VertexSet& a, const VertexSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

class GhwSolver {
 public:
  GhwSolver(const Hypergraph& h, size_t k, size_t max_states)
      : h_(h), k_(k), max_states_(max_states) {}

  std::optional<bool> Solve() {
    VertexSet all;
    for (const auto& e : h_.edges) all = Union(all, e);
    auto r = Decompose(all, {});
    return r;
  }

 private:
  std::optional<bool> Decompose(const VertexSet& component,
                                const VertexSet& boundary) {
    if (component.empty()) return true;
    const auto key = std::make_pair(component, boundary);
    auto memo = memo_.find(key);
    if (memo != memo_.end()) return memo->second;
    if (memo_.size() > max_states_) return std::nullopt;
    memo_[key] = false;  // assume failure while in progress (cycle guard)

    // Candidate bag edges: those touching the component or boundary.
    std::vector<size_t> candidates;
    const VertexSet scope = Union(component, boundary);
    for (size_t i = 0; i < h_.edges.size(); ++i) {
      if (!Intersect(h_.edges[i], scope).empty()) candidates.push_back(i);
    }

    // Enumerate subsets of <= k candidate edges.
    std::vector<size_t> chosen;
    const std::optional<bool> found =
        EnumerateBags(candidates, 0, &chosen, component, boundary);
    if (found.has_value()) memo_[key] = *found;
    return found;
  }

  std::optional<bool> EnumerateBags(const std::vector<size_t>& candidates,
                                    size_t from, std::vector<size_t>* chosen,
                                    const VertexSet& component,
                                    const VertexSet& boundary) {
    if (!chosen->empty()) {
      VertexSet bag;
      for (size_t i : *chosen) bag = Union(bag, h_.edges[i]);
      auto r = TryBag(bag, component, boundary);
      if (!r.has_value()) return std::nullopt;  // resource limit
      if (*r) return true;
    }
    if (chosen->size() == k_) return false;
    for (size_t i = from; i < candidates.size(); ++i) {
      chosen->push_back(candidates[i]);
      auto r = EnumerateBags(candidates, i + 1, chosen, component,
                             boundary);
      chosen->pop_back();
      if (!r.has_value()) return std::nullopt;
      if (*r) return true;
    }
    return false;
  }

  std::optional<bool> TryBag(const VertexSet& bag,
                             const VertexSet& component,
                             const VertexSet& boundary) {
    if (!Subset(boundary, bag)) return false;
    // Split component \ bag into connected [component]-subcomponents.
    VertexSet rest;
    std::set_difference(component.begin(), component.end(), bag.begin(),
                        bag.end(), std::back_inserter(rest));
    if (rest.empty()) return true;
    // Union-find over rest vertices via edges.
    std::map<uint32_t, uint32_t> parent;
    for (uint32_t v : rest) parent[v] = v;
    std::function<uint32_t(uint32_t)> find = [&](uint32_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    for (const auto& e : h_.edges) {
      const VertexSet in_rest = Intersect(e, rest);
      for (size_t i = 1; i < in_rest.size(); ++i) {
        parent[find(in_rest[i])] = find(in_rest[0]);
      }
    }
    std::map<uint32_t, VertexSet> comps;
    for (uint32_t v : rest) comps[find(v)].push_back(v);
    for (auto& [root, comp] : comps) {
      (void)root;
      // New boundary: bag vertices adjacent to the component.
      VertexSet new_boundary;
      for (const auto& e : h_.edges) {
        if (Intersect(e, comp).empty()) continue;
        new_boundary = Union(new_boundary, Intersect(e, bag));
      }
      const VertexSet sub = Union(comp, new_boundary);
      auto r = Decompose(sub, new_boundary);
      if (!r.has_value()) return std::nullopt;
      if (!*r) return false;
    }
    return true;
  }

  const Hypergraph& h_;
  size_t k_;
  size_t max_states_;
  std::map<std::pair<VertexSet, VertexSet>, bool> memo_;
};

}  // namespace

std::optional<bool> HypertreeWidthAtMost(const Hypergraph& h, size_t k,
                                         size_t max_states) {
  if (k == 0) return h.edges.empty();
  GhwSolver solver(h, k, max_states);
  return solver.Solve();
}

std::string GraphShapeName(GraphShape shape) {
  switch (shape) {
    case GraphShape::kNoEdge:
      return "no edge";
    case GraphShape::kSingleEdge:
      return "<= 1 edge";
    case GraphShape::kChain:
      return "chain";
    case GraphShape::kStar:
      return "star";
    case GraphShape::kTree:
      return "tree";
    case GraphShape::kForest:
      return "forest";
    case GraphShape::kTreewidth2:
      return "tw <= 2";
    case GraphShape::kTreewidth3:
      return "tw <= 3";
    case GraphShape::kOther:
      return "other";
  }
  return "?";
}

GraphShape ClassifyShape(const graph::SimpleGraph& g) {
  const size_t m = g.NumEdges();
  if (m == 0) return GraphShape::kNoEdge;
  if (m == 1) return GraphShape::kSingleEdge;
  const auto components = g.Components();
  const bool connected = components.size() <= 1;
  const bool forest = graph::IsForest(g);
  if (connected && forest) {
    size_t high_degree = 0;
    bool all_low = true;
    for (uint32_t v = 0; v < g.NumVertices(); ++v) {
      const size_t d = g.Neighbors(v).size();
      if (d > 2) {
        ++high_degree;
        all_low = false;
      }
    }
    if (all_low) return GraphShape::kChain;
    if (high_degree <= 1) return GraphShape::kStar;
    return GraphShape::kTree;
  }
  if (forest) return GraphShape::kForest;
  if (graph::TreewidthAtMost(g, 2).value_or(false)) {
    return GraphShape::kTreewidth2;
  }
  if (graph::TreewidthAtMost(g, 3).value_or(false)) {
    return GraphShape::kTreewidth3;
  }
  return GraphShape::kOther;
}

graph::SimpleGraph BuildCanonicalGraph(const sparql::Query& query,
                                       bool include_constants) {
  // Collect endpoint terms of triple edges and binary-filter edges.
  struct TermKey {
    sparql::Term term;
    bool operator<(const TermKey& o) const { return term < o.term; }
  };
  std::vector<std::pair<sparql::Term, sparql::Term>> edge_list;
  if (query.pattern != nullptr) {
    std::vector<const sparql::TriplePattern*> triples;
    query.pattern->CollectTriples(&triples);
    for (const auto* t : triples) {
      edge_list.emplace_back(t->s, t->o);
    }
    std::vector<const sparql::PathTriple*> paths;
    query.pattern->CollectPathTriples(&paths);
    for (const auto* p : paths) {
      edge_list.emplace_back(p->s, p->o);
    }
    std::vector<sparql::FilterPtr> filters;
    query.pattern->CollectFilters(&filters);
    for (const auto& f : filters) {
      std::set<SymbolId> fvars;
      f->CollectVars(&fvars);
      if (fvars.size() == 2) {
        sparql::Term a, b;
        a.kind = sparql::Term::Kind::kVar;
        a.id = *fvars.begin();
        b.kind = sparql::Term::Kind::kVar;
        b.id = *std::next(fvars.begin());
        edge_list.emplace_back(a, b);
      }
    }
  }
  if (!include_constants) {
    std::vector<std::pair<sparql::Term, sparql::Term>> kept;
    for (const auto& [a, b] : edge_list) {
      if (a.ActsAsVar() && b.ActsAsVar()) kept.emplace_back(a, b);
    }
    edge_list = std::move(kept);
  }
  std::map<sparql::Term, uint32_t> index;
  for (const auto& [a, b] : edge_list) {
    if (a == b) continue;  // self-loops are not edges
    index.emplace(a, static_cast<uint32_t>(index.size()));
    index.emplace(b, static_cast<uint32_t>(index.size()));
  }
  // std::map::emplace with a stale size... rebuild indices densely.
  uint32_t next = 0;
  for (auto& [term, id] : index) {
    (void)term;
    id = next++;
  }
  graph::SimpleGraph g(index.size());
  for (const auto& [a, b] : edge_list) {
    if (a == b) continue;
    g.AddEdge(index[a], index[b]);
  }
  return g;
}

}  // namespace rwdt::hypergraph
