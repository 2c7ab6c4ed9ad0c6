#ifndef RWDT_EXEC_OPERATORS_H_
#define RWDT_EXEC_OPERATORS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/json.h"
#include "common/status.h"
#include "exec/path_automaton.h"
#include "graph/rdf.h"
#include "hypergraph/hypergraph.h"
#include "sparql/algebra.h"
#include "sparql/eval.h"

namespace rwdt::exec {

using sparql::Binding;

/// A Volcano-style rowsource: Open prepares (and pulls any build-side
/// input), Next produces one solution mapping at a time, Close releases
/// state. Operators are single-threaded and reusable: Close then Open
/// restarts the stream.
///
/// The semantic contract is strict: every operator produces exactly the
/// multiset the reference `sparql::Evaluator` produces for the pattern
/// it was planned from (row order is unspecified). The differential
/// property test enforces this against random graphs and queries.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open() = 0;
  /// True and fills `*row` while rows remain; false at end-of-stream.
  virtual Result<bool> Next(Binding* row) = 0;
  virtual void Close() = 0;

  virtual const char* Name() const = 0;
  /// Appends this operator subtree as one JSON object (Plan::ToJson).
  virtual void Explain(JsonWriter* w) const = 0;

  /// Drains the full stream: Open, Next*, Close.
  Result<std::vector<Binding>> Drain();
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Merges two compatible bindings (left values win on shared vars; for
/// compatible mappings both agree, so the choice is immaterial).
Binding MergeBindings(const Binding& a, const Binding& b);

/// Leaf scan over one triple pattern; binds the pattern's variable
/// positions exactly like Evaluator::EvalTriple (including repeated-
/// variable consistency, e.g. `?x p ?x`).
class TripleScanOp : public Operator {
 public:
  TripleScanOp(const graph::TripleStore& store, const Interner& dict,
               sparql::TriplePattern pattern);

  Status Open() override;
  Result<bool> Next(Binding* row) override;
  void Close() override;
  const char* Name() const override { return "triple_scan"; }
  void Explain(JsonWriter* w) const override;

 private:
  const graph::TripleStore& store_;
  const Interner& dict_;
  sparql::TriplePattern pattern_;
  std::vector<Binding> rows_;
  size_t pos_ = 0;
};

/// Leaf scan over one property-path pattern via the reference
/// evaluator's recursive pair-set algorithm. The slow-but-exact leaf;
/// the planner prefers AutomatonPathScanOp for simple transitive
/// expressions.
class PathScanOp : public Operator {
 public:
  PathScanOp(const sparql::Evaluator& eval, const Interner& dict,
             sparql::PathTriple pattern);

  Status Open() override;
  Result<bool> Next(Binding* row) override;
  void Close() override;
  const char* Name() const override { return "path_scan"; }
  void Explain(JsonWriter* w) const override;

 private:
  const sparql::Evaluator& eval_;
  const Interner& dict_;
  sparql::PathTriple pattern_;
  std::vector<Binding> rows_;
  size_t pos_ = 0;
};

/// Leaf scan over one property-path pattern via NFA-product
/// reachability (CompilePathNfa / EvalPathNfa). Falls back to the
/// evaluator's pair-set algorithm for the one binding shape whose
/// zero-length semantics the product cannot reproduce exactly (subject
/// unbound, object bound to a term with no incident edges).
class AutomatonPathScanOp : public Operator {
 public:
  AutomatonPathScanOp(const graph::TripleStore& store,
                      const sparql::Evaluator& eval, const Interner& dict,
                      sparql::PathTriple pattern);

  Status Open() override;
  Result<bool> Next(Binding* row) override;
  void Close() override;
  const char* Name() const override { return "path_nfa_scan"; }
  void Explain(JsonWriter* w) const override;

 private:
  const graph::TripleStore& store_;
  const sparql::Evaluator& eval_;
  const Interner& dict_;
  sparql::PathTriple pattern_;
  PathNfa nfa_;
  std::vector<Binding> rows_;
  size_t pos_ = 0;
};

/// Hash join on an explicit variable list. Open drains the right (build)
/// child into a hash table keyed by the join variables; Next streams the
/// left (probe) child. The planner only emits this when every join
/// variable is definitely bound on both sides, in which case key
/// equality is exactly binding compatibility.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<SymbolId> join_vars, const Interner& dict);

  Status Open() override;
  Result<bool> Next(Binding* row) override;
  void Close() override;
  const char* Name() const override { return "hash_join"; }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr left_, right_;
  std::vector<SymbolId> join_vars_;
  const Interner& dict_;
  std::map<std::vector<SymbolId>, std::vector<Binding>> build_;
  Binding probe_;
  const std::vector<Binding>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// Hash left (outer) join: like HashJoinOp, but a probe row with no
/// build match is emitted unchanged — SPARQL OPTIONAL semantics.
class HashLeftJoinOp : public Operator {
 public:
  HashLeftJoinOp(OperatorPtr left, OperatorPtr right,
                 std::vector<SymbolId> join_vars, const Interner& dict);

  Status Open() override;
  Result<bool> Next(Binding* row) override;
  void Close() override;
  const char* Name() const override { return "hash_left_join"; }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr left_, right_;
  std::vector<SymbolId> join_vars_;
  const Interner& dict_;
  std::map<std::vector<SymbolId>, std::vector<Binding>> build_;
  Binding probe_;
  const std::vector<Binding>* matches_ = nullptr;
  size_t match_pos_ = 0;
  bool probe_pending_unmatched_ = false;
};

/// Nested-loop join with full Compatible() semantics; the safe join for
/// inputs that may produce partially-bound rows (OPTIONAL or UNION
/// below either side). Materializes the right child in Open.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                   bool left_outer = false);

  Status Open() override;
  Result<bool> Next(Binding* row) override;
  void Close() override;
  const char* Name() const override {
    return left_outer_ ? "nl_left_join" : "nl_join";
  }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr left_, right_;
  bool left_outer_;
  std::vector<Binding> build_;
  Binding probe_;
  size_t build_pos_ = 0;
  bool probe_live_ = false;
  bool probe_matched_ = false;
};

/// Filter at its exact pattern position; delegates the predicate to
/// Evaluator::EvalFilter so filter semantics (unbound-variable handling,
/// EXISTS against the full store) cannot drift from the reference.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, sparql::FilterPtr filter,
           const sparql::Evaluator& eval);

  Status Open() override;
  Result<bool> Next(Binding* row) override;
  void Close() override;
  const char* Name() const override { return "filter"; }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr child_;
  sparql::FilterPtr filter_;
  const sparql::Evaluator& eval_;
};

/// Bag union: streams each child in turn (SPARQL UNION).
class UnionOp : public Operator {
 public:
  explicit UnionOp(std::vector<OperatorPtr> children);

  Status Open() override;
  Result<bool> Next(Binding* row) override;
  void Close() override;
  const char* Name() const override { return "union"; }
  void Explain(JsonWriter* w) const override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

/// SPARQL MINUS: materializes the right child in Open, then streams left
/// rows that no right row both is compatible with and shares a bound
/// variable with (the shared-domain-variable rule).
class MinusOp : public Operator {
 public:
  MinusOp(OperatorPtr left, OperatorPtr right);

  Status Open() override;
  Result<bool> Next(Binding* row) override;
  void Close() override;
  const char* Name() const override { return "minus"; }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr left_, right_;
  std::vector<Binding> build_;
};

/// The Yannakakis semijoin program for an acyclic conjunction of triple
/// scans, given the GYO join forest of their variable sets (edge i of the
/// forest is triple i): Open materializes each relation, runs the two
/// semijoin reduction passes (leaf-to-root, then root-to-leaf), and joins
/// along the forest in removal order. Intermediate results never exceed
/// the final output size times the largest relation — the classic
/// acyclic-CQ guarantee. Produces the same bag as the evaluator's
/// left-fold of nested-loop joins.
class YannakakisOp : public Operator {
 public:
  YannakakisOp(const graph::TripleStore& store, const Interner& dict,
               std::vector<sparql::TriplePattern> triples,
               hypergraph::JoinForest forest);

  Status Open() override;
  Result<bool> Next(Binding* row) override;
  void Close() override;
  const char* Name() const override { return "yannakakis"; }
  void Explain(JsonWriter* w) const override;

 private:
  const graph::TripleStore& store_;
  const Interner& dict_;
  std::vector<sparql::TriplePattern> triples_;
  hypergraph::JoinForest forest_;
  std::vector<Binding> rows_;
  size_t pos_ = 0;
};

}  // namespace rwdt::exec

#endif  // RWDT_EXEC_OPERATORS_H_
