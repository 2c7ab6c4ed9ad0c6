#ifndef RWDT_EXEC_OPERATORS_H_
#define RWDT_EXEC_OPERATORS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
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

/// The plan-wide variable -> slot table. Every row the operators of one
/// plan pass is `width()` SymbolIds back to back: slot i holds the value
/// of the i-th added variable, or kInvalidSymbol when the row leaves it
/// unbound. The planner assigns the slots while it builds the operator
/// tree, so operators read `width()` only from Open on.
class SlotTable {
 public:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  /// The slot of `var`, appending a new one on first sight.
  uint32_t Add(SymbolId var);
  /// The slot of `var`, or kNoSlot when the plan never binds it.
  uint32_t SlotOf(SymbolId var) const;
  size_t width() const { return vars_.size(); }

  /// The solution mapping of `row`: its bound slots, by variable.
  Binding ToBinding(const SymbolId* row) const;

 private:
  std::vector<SymbolId> vars_;
  std::vector<uint32_t> by_var_;  // slots in increasing variable order
};

using SlotTablePtr = std::shared_ptr<const SlotTable>;

/// Fixed-width slot rows stored back to back in one vector.
class RowTable {
 public:
  explicit RowTable(size_t width = 0) : width_(width) {}

  size_t width() const { return width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const SymbolId* row(size_t i) const { return data_.data() + i * width_; }

  /// Appends a copy of `row`; returns the copy, valid until the next
  /// append.
  SymbolId* Push(const SymbolId* row);
  /// Appends an all-unbound row; same validity as Push.
  SymbolId* PushUnbound();
  void PopBack();
  /// Keeps, in order, the rows for which `keep(row)` holds.
  template <typename Keep>
  void Filter(Keep&& keep) {
    size_t kept = 0;
    for (size_t i = 0; i < size_; ++i) {
      SymbolId* r = data_.data() + i * width_;
      if (!keep(static_cast<const SymbolId*>(r))) continue;
      std::copy(r, r + width_, data_.data() + kept * width_);
      ++kept;
    }
    size_ = kept;
    data_.resize(kept * width_);
  }

 private:
  size_t width_;
  size_t size_ = 0;  // counted separately: width-0 rows take no storage
  std::vector<SymbolId> data_;
};

/// Whether no slot is bound to different values in `a` and `b` (SPARQL
/// solution-mapping compatibility, slot-wise).
bool CompatibleRows(const SymbolId* a, const SymbolId* b, size_t width);

/// Binds every slot of `a` that `b` binds and `a` leaves unbound (left
/// values win; for compatible rows both agree, so the choice is
/// immaterial).
void MergeRowInto(SymbolId* a, const SymbolId* b, size_t width);

/// A chained hash index over the rows of one RowTable, keyed by a list
/// of slots (the join variables: the same slots on both sides, since
/// slots are plan-wide). Chains keep build order.
class JoinIndex {
 public:
  static constexpr uint32_t kEnd = ~uint32_t{0};

  /// Indexes `rows`, which must outlive the index. Every key slot must
  /// be bound in every row; an unbound one is a planner bug (Internal).
  Status Build(const RowTable& rows, std::vector<uint32_t> key_slots);
  /// The first indexed row whose key equals `probe`'s, or kEnd.
  uint32_t Find(const SymbolId* probe) const;
  /// The next such row after row `i`, or kEnd.
  uint32_t FindNext(uint32_t i, const SymbolId* probe) const;

 private:
  uint64_t Bucket(const SymbolId* row) const;
  uint32_t Scan(uint32_t i, const SymbolId* probe) const;

  const RowTable* rows_ = nullptr;
  std::vector<uint32_t> key_slots_;
  std::vector<uint32_t> heads_;  // per bucket: first row, or kEnd
  std::vector<uint32_t> next_;   // per row: next row in its bucket
  uint64_t mask_ = 0;
};

/// A Volcano-style rowsource over slot rows: Open prepares (and pulls
/// any build-side input), Next produces one row at a time, Close
/// releases state. Operators are single-threaded and reusable: Close
/// then Open restarts the stream.
///
/// The semantic contract is strict: every operator produces exactly the
/// multiset the reference `sparql::Evaluator` produces for the pattern
/// it was planned from (row order is unspecified). The differential
/// property test enforces this against random graphs and queries.
class Operator {
 public:
  explicit Operator(SlotTablePtr slots) : slots_(std::move(slots)) {}
  virtual ~Operator() = default;

  virtual Status Open() = 0;
  /// True and fills all `width()` slots of `row` while rows remain;
  /// false at end-of-stream.
  virtual Result<bool> Next(SymbolId* row) = 0;
  virtual void Close() = 0;

  virtual const char* Name() const = 0;
  /// Appends this operator subtree as one JSON object (Plan::ToJson).
  virtual void Explain(JsonWriter* w) const = 0;

  /// Replaces `*out` with the full stream (Open, Next*, Close).
  Status DrainRows(RowTable* out);
  /// Drains the full stream as solution mappings: the one place where
  /// slot rows become Bindings (Executor::Execute, once per plan).
  Result<std::vector<Binding>> Drain();

  const SlotTablePtr& slots() const { return slots_; }
  size_t width() const { return slots_->width(); }

 protected:
  SlotTablePtr slots_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Base of the operators that compute their whole output in Open and
/// stream it from one RowTable.
class MaterializedOp : public Operator {
 public:
  using Operator::Operator;

  Status Open() final;
  Result<bool> Next(SymbolId* row) final;
  void Close() final;

 protected:
  /// Fills `*out`, an empty table of width `width()`, with the full
  /// output.
  virtual Status Fill(RowTable* out) = 0;

 private:
  RowTable rows_;
  size_t pos_ = 0;
};

/// The slots of a triple pattern's three positions (kNoSlot for
/// constants).
struct TripleSlots {
  uint32_t s = SlotTable::kNoSlot;
  uint32_t p = SlotTable::kNoSlot;
  uint32_t o = SlotTable::kNoSlot;
};

/// Leaf scan over one triple pattern; binds the pattern's variable
/// positions exactly like Evaluator::EvalTriple (including repeated-
/// variable consistency, e.g. `?x p ?x`).
class TripleScanOp : public MaterializedOp {
 public:
  TripleScanOp(const graph::TripleStore& store, const Interner& dict,
               SlotTablePtr slots, sparql::TriplePattern pattern);

  const char* Name() const override { return "triple_scan"; }
  void Explain(JsonWriter* w) const override;

 protected:
  Status Fill(RowTable* out) override;

 private:
  const graph::TripleStore& store_;
  const Interner& dict_;
  sparql::TriplePattern pattern_;
  TripleSlots slot_;
};

/// Leaf scan over one property-path pattern via the reference
/// evaluator's recursive pair-set algorithm. The slow-but-exact leaf;
/// the planner prefers AutomatonPathScanOp for simple transitive
/// expressions.
class PathScanOp : public MaterializedOp {
 public:
  PathScanOp(const sparql::Evaluator& eval, const Interner& dict,
             SlotTablePtr slots, sparql::PathTriple pattern);

  const char* Name() const override { return "path_scan"; }
  void Explain(JsonWriter* w) const override;

 protected:
  Status Fill(RowTable* out) override;

 private:
  const sparql::Evaluator& eval_;
  const Interner& dict_;
  sparql::PathTriple pattern_;
  uint32_t s_slot_, o_slot_;
};

/// Leaf scan over one property-path pattern via NFA-product
/// reachability (CompilePathNfa / EvalPathNfa), writing each pair
/// straight into the endpoint slots. Falls back to the evaluator's
/// pair-set algorithm for the one binding shape whose zero-length
/// semantics the product cannot reproduce exactly (subject unbound,
/// object bound to a term with no incident edges).
class AutomatonPathScanOp : public MaterializedOp {
 public:
  AutomatonPathScanOp(const graph::TripleStore& store,
                      const sparql::Evaluator& eval, const Interner& dict,
                      SlotTablePtr slots, sparql::PathTriple pattern);

  const char* Name() const override { return "path_nfa_scan"; }
  void Explain(JsonWriter* w) const override;

 protected:
  Status Fill(RowTable* out) override;

 private:
  const graph::TripleStore& store_;
  const sparql::Evaluator& eval_;
  const Interner& dict_;
  sparql::PathTriple pattern_;
  uint32_t s_slot_, o_slot_;
  PathNfa nfa_;
};

/// Hash (left outer) join on an explicit variable list. Open drains the
/// right (build) child into a JoinIndex keyed by the join slots; Next
/// streams the left (probe) child. The planner only emits this when
/// every join variable is definitely bound on both sides, in which case
/// key equality is exactly row compatibility. With `left_outer`, a
/// probe row with no build match is emitted unchanged — SPARQL OPTIONAL
/// semantics.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<SymbolId> join_vars, const Interner& dict,
             bool left_outer = false);

  Status Open() override;
  Result<bool> Next(SymbolId* row) override;
  void Close() override;
  const char* Name() const override {
    return left_outer_ ? "hash_left_join" : "hash_join";
  }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr left_, right_;
  std::vector<SymbolId> join_vars_;
  const Interner& dict_;
  bool left_outer_;
  std::vector<uint32_t> key_slots_;
  RowTable build_;
  JoinIndex index_;
  std::vector<SymbolId> probe_;
  uint32_t match_ = JoinIndex::kEnd;
};

/// Nested-loop join with full row-compatibility semantics; the safe join
/// for inputs that may produce partially-bound rows (OPTIONAL below
/// either side). Materializes the right child in Open.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                   bool left_outer = false);

  Status Open() override;
  Result<bool> Next(SymbolId* row) override;
  void Close() override;
  const char* Name() const override {
    return left_outer_ ? "nl_left_join" : "nl_join";
  }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr left_, right_;
  bool left_outer_;
  RowTable build_;
  std::vector<SymbolId> probe_;
  size_t build_pos_ = 0;
  bool probe_live_ = false;
  bool probe_matched_ = false;
};

/// Filter at its exact pattern position; delegates the predicate to
/// Evaluator::EvalFilter on a temporary Binding of the row, so filter
/// semantics (unbound-variable handling, EXISTS against the full store)
/// cannot drift from the reference.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, sparql::FilterPtr filter,
           const sparql::Evaluator& eval);

  Status Open() override;
  Result<bool> Next(SymbolId* row) override;
  void Close() override;
  const char* Name() const override { return "filter"; }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr child_;
  sparql::FilterPtr filter_;
  const sparql::Evaluator& eval_;
};

/// Bag union: streams each child in turn (SPARQL UNION). A branch's rows
/// leave the slots only other branches bind unbound.
class UnionOp : public Operator {
 public:
  UnionOp(SlotTablePtr slots, std::vector<OperatorPtr> children);

  Status Open() override;
  Result<bool> Next(SymbolId* row) override;
  void Close() override;
  const char* Name() const override { return "union"; }
  void Explain(JsonWriter* w) const override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

/// SPARQL MINUS: materializes the right child in Open, then streams left
/// rows that no right row both is compatible with and shares a bound
/// slot with (the shared-domain-variable rule).
class MinusOp : public Operator {
 public:
  MinusOp(OperatorPtr left, OperatorPtr right);

  Status Open() override;
  Result<bool> Next(SymbolId* row) override;
  void Close() override;
  const char* Name() const override { return "minus"; }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr left_, right_;
  RowTable build_;
};

/// The Yannakakis semijoin program for an acyclic conjunction of triple
/// scans, given the GYO join forest of their variable sets (edge i of the
/// forest is triple i): Open materializes each relation as a RowTable,
/// runs the two semijoin reduction passes (leaf-to-root, then
/// root-to-leaf), and joins along the forest in removal order, all on
/// JoinIndex hash tables. Intermediate results never exceed the final
/// output size times the largest relation — the classic acyclic-CQ
/// guarantee. Produces the same bag as the evaluator's left-fold of
/// nested-loop joins.
class YannakakisOp : public MaterializedOp {
 public:
  YannakakisOp(const graph::TripleStore& store, const Interner& dict,
               SlotTablePtr slots, std::vector<sparql::TriplePattern> triples,
               hypergraph::JoinForest forest);

  const char* Name() const override { return "yannakakis"; }
  void Explain(JsonWriter* w) const override;

 protected:
  Status Fill(RowTable* out) override;

 private:
  const graph::TripleStore& store_;
  const Interner& dict_;
  std::vector<sparql::TriplePattern> triples_;
  hypergraph::JoinForest forest_;
  std::vector<TripleSlots> triple_slots_;       // per triple
  std::vector<std::vector<uint32_t>> slotsets_;  // per triple, sorted
};

}  // namespace rwdt::exec

#endif  // RWDT_EXEC_OPERATORS_H_
