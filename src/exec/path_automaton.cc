#include "exec/path_automaton.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace rwdt::exec {
namespace {

/// Thompson construction over an epsilon-NFA; `inverted` compiles the
/// reversal with flipped step directions, which is exactly the relation
/// inverse `^e` (so nested `^` costs nothing at runtime).
class NfaBuilder {
 public:
  struct Frag {
    uint32_t in = 0;
    uint32_t out = 0;
  };

  Frag Build(const paths::Path& p, bool inverted) {
    using paths::PathOp;
    switch (p.op()) {
      case PathOp::kIri: {
        Frag f = NewFrag();
        AddEdge(f.in,
                {inverted ? PathNfa::EdgeKind::kInv : PathNfa::EdgeKind::kFwd,
                 p.iri(),
                 {},
                 f.out});
        return f;
      }
      case PathOp::kNegated: {
        // Forward-forbidden and inverse-forbidden sets, split the same
        // way Evaluator::EvalPathPairs splits them; inversion swaps the
        // roles of the two components.
        std::vector<SymbolId> fwd, inv;
        for (const auto& [iri, is_inv] : p.negated_set()) {
          (is_inv ? inv : fwd).push_back(iri);
        }
        std::sort(fwd.begin(), fwd.end());
        std::sort(inv.begin(), inv.end());
        Frag f = NewFrag();
        const bool has_fwd_component = inv.empty() || !fwd.empty();
        if (has_fwd_component) {
          AddEdge(f.in, {inverted ? PathNfa::EdgeKind::kNegInv
                                  : PathNfa::EdgeKind::kNegFwd,
                         kInvalidSymbol, fwd, f.out});
        }
        if (!inv.empty()) {
          AddEdge(f.in, {inverted ? PathNfa::EdgeKind::kNegFwd
                                  : PathNfa::EdgeKind::kNegInv,
                         kInvalidSymbol, inv, f.out});
        }
        return f;
      }
      case PathOp::kInverse:
        return Build(*p.child(), !inverted);
      case PathOp::kSeq: {
        Frag whole = NewFrag();
        uint32_t cur = whole.in;
        const auto& kids = p.children();
        for (size_t i = 0; i < kids.size(); ++i) {
          // Reversal distributes over concatenation in reverse order.
          const auto& child =
              inverted ? *kids[kids.size() - 1 - i] : *kids[i];
          Frag f = Build(child, inverted);
          AddEps(cur, f.in);
          cur = f.out;
        }
        AddEps(cur, whole.out);
        return whole;
      }
      case PathOp::kAlt: {
        Frag whole = NewFrag();
        for (const auto& c : p.children()) {
          Frag f = Build(*c, inverted);
          AddEps(whole.in, f.in);
          AddEps(f.out, whole.out);
        }
        return whole;
      }
      case PathOp::kStar: {
        Frag whole = NewFrag();
        Frag f = Build(*p.child(), inverted);
        AddEps(whole.in, f.in);
        AddEps(f.out, f.in);
        AddEps(f.out, whole.out);
        AddEps(whole.in, whole.out);
        return whole;
      }
      case PathOp::kPlus: {
        Frag whole = NewFrag();
        Frag f = Build(*p.child(), inverted);
        AddEps(whole.in, f.in);
        AddEps(f.out, f.in);
        AddEps(f.out, whole.out);
        return whole;
      }
      case PathOp::kOptional: {
        Frag whole = NewFrag();
        Frag f = Build(*p.child(), inverted);
        AddEps(whole.in, f.in);
        AddEps(f.out, whole.out);
        AddEps(whole.in, whole.out);
        return whole;
      }
    }
    return NewFrag();  // unreachable
  }

  /// Epsilon elimination: the final NFA has, for each state, the labeled
  /// out-edges of its epsilon closure, and accepts wherever the closure
  /// contains `final_state`.
  PathNfa Finish(Frag top) {
    PathNfa nfa;
    const size_t n = edges_.size();
    nfa.adj.resize(n);
    nfa.accept.assign(n, false);
    nfa.start = top.in;
    for (uint32_t q = 0; q < n; ++q) {
      std::vector<bool> in_closure(n, false);
      std::deque<uint32_t> queue{q};
      in_closure[q] = true;
      while (!queue.empty()) {
        const uint32_t r = queue.front();
        queue.pop_front();
        if (r == top.out) nfa.accept[q] = true;
        for (const auto& e : edges_[r]) nfa.adj[q].push_back(e);
        for (uint32_t nxt : eps_[r]) {
          if (!in_closure[nxt]) {
            in_closure[nxt] = true;
            queue.push_back(nxt);
          }
        }
      }
      // Distinct epsilon paths can copy the same labeled edge several
      // times; duplicates would multiply product-BFS work.
      auto& adj = nfa.adj[q];
      std::sort(adj.begin(), adj.end(),
                [](const PathNfa::Edge& a, const PathNfa::Edge& b) {
                  if (a.kind != b.kind) return a.kind < b.kind;
                  if (a.iri != b.iri) return a.iri < b.iri;
                  if (a.to != b.to) return a.to < b.to;
                  return a.negated < b.negated;
                });
      adj.erase(std::unique(adj.begin(), adj.end(),
                            [](const PathNfa::Edge& a, const PathNfa::Edge& b) {
                              return a.kind == b.kind && a.iri == b.iri &&
                                     a.to == b.to && a.negated == b.negated;
                            }),
                adj.end());
    }
    nfa.nullable = nfa.accept[nfa.start];
    return nfa;
  }

 private:
  uint32_t NewState() {
    edges_.emplace_back();
    eps_.emplace_back();
    return static_cast<uint32_t>(edges_.size() - 1);
  }
  Frag NewFrag() { return {NewState(), NewState()}; }
  void AddEdge(uint32_t from, PathNfa::Edge e) {
    edges_[from].push_back(std::move(e));
  }
  void AddEps(uint32_t from, uint32_t to) { eps_[from].push_back(to); }

  std::vector<std::vector<PathNfa::Edge>> edges_;
  std::vector<std::vector<uint32_t>> eps_;
};

/// One forward application of `e` from `t`: calls `visit(y)` for every
/// successor term, stepping through the store's zero-copy ranges.
template <typename Visit>
void ForEachSuccessor(const graph::TripleStore& store, const PathNfa::Edge& e,
                      SymbolId t, Visit&& visit) {
  switch (e.kind) {
    case PathNfa::EdgeKind::kFwd: {
      const auto [lo, hi] = store.RangeSP(t, e.iri);
      for (const graph::Triple* tr = lo; tr != hi; ++tr) visit(tr->o);
      return;
    }
    case PathNfa::EdgeKind::kInv: {
      const auto [lo, hi] = store.RangePO(e.iri, t);
      for (const graph::Triple* tr = lo; tr != hi; ++tr) visit(tr->s);
      return;
    }
    case PathNfa::EdgeKind::kNegFwd: {
      const auto [lo, hi] = store.RangeS(t);
      for (const graph::Triple* tr = lo; tr != hi; ++tr) {
        if (!std::binary_search(e.negated.begin(), e.negated.end(), tr->p)) {
          visit(tr->o);
        }
      }
      return;
    }
    case PathNfa::EdgeKind::kNegInv: {
      const auto [lo, hi] = store.RangeO(t);
      for (const graph::Triple* tr = lo; tr != hi; ++tr) {
        if (!std::binary_search(e.negated.begin(), e.negated.end(), tr->p)) {
          visit(tr->s);
        }
      }
      return;
    }
  }
}

/// The successors of every term under one labeled step (kFwd / kInv of
/// one IRI) in CSR form over dense term ids: the successors of t are
/// targets[offsets[t] .. offsets[t + 1]). The sweep from every term
/// repeats the same steps, so it pays one pass over the label's triples
/// instead of one index binary search per product step.
struct StepIndex {
  std::vector<uint32_t> offsets;
  std::vector<SymbolId> targets;
};

StepIndex BuildStepIndex(const graph::TripleStore& store,
                         const PathNfa::Edge& e, SymbolId max_id) {
  const bool fwd = e.kind == PathNfa::EdgeKind::kFwd;
  const std::vector<graph::Triple> triples =
      store.Match(kInvalidSymbol, e.iri, kInvalidSymbol);
  StepIndex idx;
  idx.offsets.assign(static_cast<size_t>(max_id) + 2, 0);
  for (const graph::Triple& t : triples) ++idx.offsets[(fwd ? t.s : t.o) + 1];
  for (size_t i = 1; i < idx.offsets.size(); ++i) {
    idx.offsets[i] += idx.offsets[i - 1];
  }
  idx.targets.resize(triples.size());
  std::vector<uint32_t> fill(idx.offsets.begin(), idx.offsets.end() - 1);
  for (const graph::Triple& t : triples) {
    idx.targets[fill[fwd ? t.s : t.o]++] = fwd ? t.o : t.s;
  }
  return idx;
}

/// One reverse application of `e` into `t` (the bound-object backward
/// sweep): calls `visit(x)` for every term x with x -e-> t.
template <typename Visit>
void ForEachPredecessor(const graph::TripleStore& store,
                        const PathNfa::Edge& e, SymbolId t, Visit&& visit) {
  switch (e.kind) {
    case PathNfa::EdgeKind::kFwd: {
      const auto [lo, hi] = store.RangePO(e.iri, t);
      for (const graph::Triple* tr = lo; tr != hi; ++tr) visit(tr->s);
      return;
    }
    case PathNfa::EdgeKind::kInv: {
      const auto [lo, hi] = store.RangeSP(t, e.iri);
      for (const graph::Triple* tr = lo; tr != hi; ++tr) visit(tr->o);
      return;
    }
    case PathNfa::EdgeKind::kNegFwd: {
      const auto [lo, hi] = store.RangeO(t);
      for (const graph::Triple* tr = lo; tr != hi; ++tr) {
        if (!std::binary_search(e.negated.begin(), e.negated.end(), tr->p)) {
          visit(tr->s);
        }
      }
      return;
    }
    case PathNfa::EdgeKind::kNegInv: {
      const auto [lo, hi] = store.RangeS(t);
      for (const graph::Triple* tr = lo; tr != hi; ++tr) {
        if (!std::binary_search(e.negated.begin(), e.negated.end(), tr->p)) {
          visit(tr->o);
        }
      }
      return;
    }
  }
}

}  // namespace

PathNfa CompilePathNfa(const paths::Path& path) {
  NfaBuilder b;
  NfaBuilder::Frag top = b.Build(path, /*inverted=*/false);
  return b.Finish(top);
}

std::vector<std::pair<SymbolId, SymbolId>> EvalPathNfa(
    const graph::TripleStore& store, const PathNfa& nfa,
    const std::vector<SymbolId>& all_terms, SymbolId s, SymbolId o) {
  std::vector<std::pair<SymbolId, SymbolId>> out;
  const uint32_t ns = static_cast<uint32_t>(nfa.num_states());
  if (ns == 0) return out;

  // Dense visited / emitted stamps over (term x state): every term the
  // sweeps can touch is a store term (all_terms is sorted) or one of the
  // bound endpoints, so ids are bounded and an epoch counter replaces
  // per-BFS set allocations.
  SymbolId max_id = all_terms.empty() ? 0 : all_terms.back();
  if (s != kInvalidSymbol) max_id = std::max(max_id, s);
  if (o != kInvalidSymbol) max_id = std::max(max_id, o);
  std::vector<uint32_t> visited(static_cast<size_t>(max_id + 1) * ns, 0);
  std::vector<uint32_t> emitted(static_cast<size_t>(max_id) + 1, 0);
  uint32_t epoch = 0;
  std::vector<std::pair<SymbolId, uint32_t>> work;

  // Per state and out-edge: its StepIndex, or null to step through the
  // store's ranges (negated sets, and the single sweeps of a bound end).
  std::map<std::pair<PathNfa::EdgeKind, SymbolId>, StepIndex> indexes;
  std::vector<std::vector<const StepIndex*>> step_index;
  auto for_each_step = [&](uint32_t state, size_t k, SymbolId term,
                           auto&& visit_term) {
    const PathNfa::Edge& e = nfa.adj[state][k];
    const StepIndex* idx =
        step_index.empty() ? nullptr : step_index[state][k];
    if (idx == nullptr) {
      ForEachSuccessor(store, e, term, visit_term);
      return;
    }
    for (uint32_t i = idx->offsets[term]; i < idx->offsets[term + 1]; ++i) {
      visit_term(idx->targets[i]);
    }
  };

  // One forward product sweep; emits (start, y) at every accepting
  // product node, including the seed (zero-length matches when
  // nullable). Traversal order is immaterial for reachability, so the
  // worklist is a stack.
  auto forward_from = [&](SymbolId start) {
    ++epoch;
    work.clear();
    auto visit = [&](SymbolId term, uint32_t state) {
      uint32_t& stamp = visited[static_cast<size_t>(term) * ns + state];
      if (stamp == epoch) return;
      stamp = epoch;
      work.emplace_back(term, state);
      if (nfa.accept[state] && (o == kInvalidSymbol || o == term) &&
          emitted[term] != epoch) {
        emitted[term] = epoch;
        out.emplace_back(start, term);
      }
    };
    visit(start, nfa.start);
    while (!work.empty()) {
      const auto [term, state] = work.back();
      work.pop_back();
      for (size_t k = 0; k < nfa.adj[state].size(); ++k) {
        const uint32_t to = nfa.adj[state][k].to;
        for_each_step(state, k, term, [&](SymbolId y) { visit(y, to); });
      }
    }
  };

  if (s != kInvalidSymbol) {
    forward_from(s);
  } else if (o != kInvalidSymbol) {
    // Backward sweep from the bound object over the reversed product;
    // reaching the start state at term x means x -> o in the path.
    // Callers must ensure o is in all_terms (see header).
    std::vector<std::vector<std::pair<uint32_t, const PathNfa::Edge*>>> radj(
        ns);
    for (uint32_t q = 0; q < ns; ++q) {
      for (const auto& e : nfa.adj[q]) radj[e.to].emplace_back(q, &e);
    }
    ++epoch;
    auto visit = [&](SymbolId term, uint32_t state) {
      uint32_t& stamp = visited[static_cast<size_t>(term) * ns + state];
      if (stamp == epoch) return;
      stamp = epoch;
      work.emplace_back(term, state);
      if (state == nfa.start && emitted[term] != epoch) {
        emitted[term] = epoch;
        out.emplace_back(term, o);
      }
    };
    for (uint32_t q = 0; q < ns; ++q) {
      if (nfa.accept[q]) visit(o, q);
    }
    while (!work.empty()) {
      const auto [term, state] = work.back();
      work.pop_back();
      for (const auto& [from, e] : radj[state]) {
        ForEachPredecessor(store, *e, term,
                           [&](SymbolId x) { visit(x, from); });
      }
    }
  } else {
    step_index.resize(ns);
    for (uint32_t q = 0; q < ns; ++q) {
      for (const PathNfa::Edge& e : nfa.adj[q]) {
        const StepIndex* idx = nullptr;
        if (e.kind == PathNfa::EdgeKind::kFwd ||
            e.kind == PathNfa::EdgeKind::kInv) {
          auto [it, fresh] = indexes.try_emplace({e.kind, e.iri});
          if (fresh) it->second = BuildStepIndex(store, e, max_id);
          idx = &it->second;
        }
        step_index[q].push_back(idx);
      }
    }
    // First-step precheck: without zero-length matches, a start term
    // with no store edge for any transition out of the start state
    // emits nothing, so its sweep is skipped.
    auto has_first_step = [&](SymbolId start) {
      bool any = false;
      for (size_t k = 0; k < nfa.adj[nfa.start].size() && !any; ++k) {
        for_each_step(nfa.start, k, start, [&](SymbolId) { any = true; });
      }
      return any;
    };
    for (SymbolId start : all_terms) {
      if (nfa.nullable || has_first_step(start)) forward_from(start);
    }
  }

  return out;
}

}  // namespace rwdt::exec
