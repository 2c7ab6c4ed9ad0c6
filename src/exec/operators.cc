#include "exec/operators.h"

#include <algorithm>
#include <utility>

namespace rwdt::exec {
namespace {

/// Renders one pattern term for Explain output. Variable names are
/// interned with their leading "?" already.
std::string TermString(const sparql::Term& t, const Interner& dict) {
  if (t.kind == sparql::Term::Kind::kNone) return "_";
  return std::string(dict.Name(t.id));
}

std::string TripleString(const sparql::TriplePattern& t,
                         const Interner& dict) {
  return TermString(t.s, dict) + " " + TermString(t.p, dict) + " " +
         TermString(t.o, dict);
}

/// Evaluator::EvalTriple's binding construction, shared by the scans and
/// the Yannakakis relation loader: repeated variables must agree.
void BindTripleMatches(const std::vector<graph::Triple>& matches,
                       const sparql::TriplePattern& t,
                       std::vector<Binding>* out) {
  out->reserve(out->size() + matches.size());
  for (const auto& triple : matches) {
    Binding mu;
    bool consistent = true;
    auto bind = [&](const sparql::Term& term, SymbolId value) {
      if (!term.ActsAsVar()) return;
      auto [it, inserted] = mu.emplace(term.id, value);
      if (!inserted && it->second != value) consistent = false;
    };
    bind(t.s, triple.s);
    bind(t.p, triple.p);
    bind(t.o, triple.o);
    if (consistent) out->push_back(std::move(mu));
  }
}

/// Evaluator::EvalPath's binding construction from a pair set.
void BindPathPairs(const std::vector<std::pair<SymbolId, SymbolId>>& pairs,
                   const sparql::PathTriple& p, std::vector<Binding>* out) {
  out->reserve(pairs.size());
  for (const auto& [x, y] : pairs) {
    Binding mu;
    bool consistent = true;
    if (p.s.ActsAsVar()) mu[p.s.id] = x;
    if (p.o.ActsAsVar()) {
      auto [it, inserted] = mu.emplace(p.o.id, y);
      if (!inserted && it->second != y) consistent = false;
    }
    if (consistent) out->push_back(std::move(mu));
  }
}

/// Join-key of a row: the values of `vars`, which the planner guarantees
/// are all bound. A missing variable is a planner bug, not a data
/// condition.
Status ExtractKey(const Binding& row, const std::vector<SymbolId>& vars,
                  std::vector<SymbolId>* key) {
  key->clear();
  key->reserve(vars.size());
  for (SymbolId v : vars) {
    auto it = row.find(v);
    if (it == row.end()) {
      return Status::Internal(
          "hash join planned over a non-definite variable");
    }
    key->push_back(it->second);
  }
  return Status::Ok();
}

void ExplainJoinVars(const std::vector<SymbolId>& vars, const Interner& dict,
                     JsonWriter* w) {
  w->Key("join_vars").BeginArray();
  for (SymbolId v : vars) w->String(dict.Name(v));
  w->EndArray();
}

}  // namespace

Result<std::vector<Binding>> Operator::Drain() {
  RWDT_RETURN_IF_ERROR(Open());
  std::vector<Binding> rows;
  Binding row;
  while (true) {
    Result<bool> more = Next(&row);
    if (!more.ok()) {
      Close();
      return more.status();
    }
    if (!more.value()) break;
    rows.push_back(std::move(row));
    row.clear();
  }
  Close();
  return rows;
}

Binding MergeBindings(const Binding& a, const Binding& b) {
  Binding out = a;
  out.insert(b.begin(), b.end());
  return out;
}

// --- TripleScanOp ----------------------------------------------------

TripleScanOp::TripleScanOp(const graph::TripleStore& store,
                           const Interner& dict,
                           sparql::TriplePattern pattern)
    : store_(store), dict_(dict), pattern_(std::move(pattern)) {}

Status TripleScanOp::Open() {
  rows_.clear();
  pos_ = 0;
  const auto& t = pattern_;
  const SymbolId s = t.s.ActsAsVar() ? kInvalidSymbol : t.s.id;
  const SymbolId p = t.p.ActsAsVar() ? kInvalidSymbol : t.p.id;
  const SymbolId o = t.o.ActsAsVar() ? kInvalidSymbol : t.o.id;
  BindTripleMatches(store_.Match(s, p, o), t, &rows_);
  return Status::Ok();
}

Result<bool> TripleScanOp::Next(Binding* row) {
  if (pos_ >= rows_.size()) return false;
  *row = rows_[pos_++];
  return true;
}

void TripleScanOp::Close() {
  rows_.clear();
  pos_ = 0;
}

void TripleScanOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->StringField("pattern", TripleString(pattern_, dict_));
  w->EndObject();
}

// --- PathScanOp ------------------------------------------------------

PathScanOp::PathScanOp(const sparql::Evaluator& eval, const Interner& dict,
                       sparql::PathTriple pattern)
    : eval_(eval), dict_(dict), pattern_(std::move(pattern)) {}

Status PathScanOp::Open() {
  rows_.clear();
  pos_ = 0;
  const SymbolId s =
      pattern_.s.ActsAsVar() ? kInvalidSymbol : pattern_.s.id;
  const SymbolId o =
      pattern_.o.ActsAsVar() ? kInvalidSymbol : pattern_.o.id;
  BindPathPairs(eval_.EvalPathPairs(*pattern_.path, s, o), pattern_, &rows_);
  return Status::Ok();
}

Result<bool> PathScanOp::Next(Binding* row) {
  if (pos_ >= rows_.size()) return false;
  *row = rows_[pos_++];
  return true;
}

void PathScanOp::Close() {
  rows_.clear();
  pos_ = 0;
}

void PathScanOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->StringField("pattern", TermString(pattern_.s, dict_) + " " +
                                pattern_.path->ToString(dict_) + " " +
                                TermString(pattern_.o, dict_));
  w->EndObject();
}

// --- AutomatonPathScanOp ---------------------------------------------

AutomatonPathScanOp::AutomatonPathScanOp(const graph::TripleStore& store,
                                         const sparql::Evaluator& eval,
                                         const Interner& dict,
                                         sparql::PathTriple pattern)
    : store_(store),
      eval_(eval),
      dict_(dict),
      pattern_(std::move(pattern)),
      nfa_(CompilePathNfa(*pattern_.path)) {}

Status AutomatonPathScanOp::Open() {
  rows_.clear();
  pos_ = 0;
  const SymbolId s =
      pattern_.s.ActsAsVar() ? kInvalidSymbol : pattern_.s.id;
  const SymbolId o =
      pattern_.o.ActsAsVar() ? kInvalidSymbol : pattern_.o.id;

  // Sorted subjects-union-objects, as Evaluator::AllTerms computes it.
  std::vector<SymbolId> all_terms;
  {
    std::set<SymbolId> terms;
    for (const auto& t : store_.triples()) {
      terms.insert(t.s);
      terms.insert(t.o);
    }
    all_terms.assign(terms.begin(), terms.end());
  }

  if (s == kInvalidSymbol && o != kInvalidSymbol &&
      !std::binary_search(all_terms.begin(), all_terms.end(), o)) {
    // Zero-length semantics for an object with no incident edges depend
    // on the path's operator shape; defer to the reference algorithm.
    BindPathPairs(eval_.EvalPathPairs(*pattern_.path, s, o), pattern_,
                  &rows_);
    return Status::Ok();
  }
  BindPathPairs(EvalPathNfa(store_, nfa_, all_terms, s, o), pattern_,
                &rows_);
  return Status::Ok();
}

Result<bool> AutomatonPathScanOp::Next(Binding* row) {
  if (pos_ >= rows_.size()) return false;
  *row = rows_[pos_++];
  return true;
}

void AutomatonPathScanOp::Close() {
  rows_.clear();
  pos_ = 0;
}

void AutomatonPathScanOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->StringField("pattern", TermString(pattern_.s, dict_) + " " +
                                pattern_.path->ToString(dict_) + " " +
                                TermString(pattern_.o, dict_));
  w->UIntField("nfa_states", nfa_.num_states());
  w->EndObject();
}

// --- HashJoinOp ------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<SymbolId> join_vars, const Interner& dict)
    : left_(std::move(left)),
      right_(std::move(right)),
      join_vars_(std::move(join_vars)),
      dict_(dict) {}

Status HashJoinOp::Open() {
  build_.clear();
  matches_ = nullptr;
  match_pos_ = 0;
  RWDT_ASSIGN_OR_RETURN(std::vector<Binding> rows, right_->Drain());
  std::vector<SymbolId> key;
  for (auto& row : rows) {
    RWDT_RETURN_IF_ERROR(ExtractKey(row, join_vars_, &key));
    build_[key].push_back(std::move(row));
  }
  return left_->Open();
}

Result<bool> HashJoinOp::Next(Binding* row) {
  std::vector<SymbolId> key;
  while (true) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      *row = MergeBindings(probe_, (*matches_)[match_pos_++]);
      return true;
    }
    RWDT_ASSIGN_OR_RETURN(const bool more, left_->Next(&probe_));
    if (!more) return false;
    RWDT_RETURN_IF_ERROR(ExtractKey(probe_, join_vars_, &key));
    auto it = build_.find(key);
    matches_ = it == build_.end() ? nullptr : &it->second;
    match_pos_ = 0;
  }
}

void HashJoinOp::Close() {
  left_->Close();
  build_.clear();
  matches_ = nullptr;
}

void HashJoinOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  ExplainJoinVars(join_vars_, dict_, w);
  w->Key("left");
  left_->Explain(w);
  w->Key("right");
  right_->Explain(w);
  w->EndObject();
}

// --- HashLeftJoinOp --------------------------------------------------

HashLeftJoinOp::HashLeftJoinOp(OperatorPtr left, OperatorPtr right,
                               std::vector<SymbolId> join_vars,
                               const Interner& dict)
    : left_(std::move(left)),
      right_(std::move(right)),
      join_vars_(std::move(join_vars)),
      dict_(dict) {}

Status HashLeftJoinOp::Open() {
  build_.clear();
  matches_ = nullptr;
  match_pos_ = 0;
  probe_pending_unmatched_ = false;
  RWDT_ASSIGN_OR_RETURN(std::vector<Binding> rows, right_->Drain());
  std::vector<SymbolId> key;
  for (auto& row : rows) {
    RWDT_RETURN_IF_ERROR(ExtractKey(row, join_vars_, &key));
    build_[key].push_back(std::move(row));
  }
  return left_->Open();
}

Result<bool> HashLeftJoinOp::Next(Binding* row) {
  std::vector<SymbolId> key;
  while (true) {
    if (probe_pending_unmatched_) {
      probe_pending_unmatched_ = false;
      *row = probe_;
      return true;
    }
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      *row = MergeBindings(probe_, (*matches_)[match_pos_++]);
      return true;
    }
    matches_ = nullptr;
    RWDT_ASSIGN_OR_RETURN(const bool more, left_->Next(&probe_));
    if (!more) return false;
    RWDT_RETURN_IF_ERROR(ExtractKey(probe_, join_vars_, &key));
    auto it = build_.find(key);
    if (it == build_.end() || it->second.empty()) {
      probe_pending_unmatched_ = true;
    } else {
      matches_ = &it->second;
      match_pos_ = 0;
    }
  }
}

void HashLeftJoinOp::Close() {
  left_->Close();
  build_.clear();
  matches_ = nullptr;
  probe_pending_unmatched_ = false;
}

void HashLeftJoinOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  ExplainJoinVars(join_vars_, dict_, w);
  w->Key("left");
  left_->Explain(w);
  w->Key("right");
  right_->Explain(w);
  w->EndObject();
}

// --- NestedLoopJoinOp ------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   bool left_outer)
    : left_(std::move(left)), right_(std::move(right)),
      left_outer_(left_outer) {}

Status NestedLoopJoinOp::Open() {
  RWDT_ASSIGN_OR_RETURN(build_, right_->Drain());
  probe_live_ = false;
  return left_->Open();
}

Result<bool> NestedLoopJoinOp::Next(Binding* row) {
  while (true) {
    if (!probe_live_) {
      RWDT_ASSIGN_OR_RETURN(const bool more, left_->Next(&probe_));
      if (!more) return false;
      probe_live_ = true;
      probe_matched_ = false;
      build_pos_ = 0;
    }
    while (build_pos_ < build_.size()) {
      const Binding& other = build_[build_pos_++];
      if (sparql::Compatible(probe_, other)) {
        probe_matched_ = true;
        *row = MergeBindings(probe_, other);
        return true;
      }
    }
    probe_live_ = false;
    if (left_outer_ && !probe_matched_) {
      *row = probe_;
      return true;
    }
  }
}

void NestedLoopJoinOp::Close() {
  left_->Close();
  build_.clear();
  probe_live_ = false;
}

void NestedLoopJoinOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->Key("left");
  left_->Explain(w);
  w->Key("right");
  right_->Explain(w);
  w->EndObject();
}

// --- FilterOp --------------------------------------------------------

FilterOp::FilterOp(OperatorPtr child, sparql::FilterPtr filter,
                   const sparql::Evaluator& eval)
    : child_(std::move(child)), filter_(std::move(filter)), eval_(eval) {}

Status FilterOp::Open() { return child_->Open(); }

Result<bool> FilterOp::Next(Binding* row) {
  while (true) {
    RWDT_ASSIGN_OR_RETURN(const bool more, child_->Next(row));
    if (!more) return false;
    RWDT_ASSIGN_OR_RETURN(const bool pass, eval_.EvalFilter(*filter_, *row));
    if (pass) return true;
  }
}

void FilterOp::Close() { child_->Close(); }

void FilterOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->Key("child");
  child_->Explain(w);
  w->EndObject();
}

// --- UnionOp ---------------------------------------------------------

UnionOp::UnionOp(std::vector<OperatorPtr> children)
    : children_(std::move(children)) {}

Status UnionOp::Open() {
  current_ = 0;
  if (children_.empty()) return Status::Ok();
  return children_[0]->Open();
}

Result<bool> UnionOp::Next(Binding* row) {
  while (current_ < children_.size()) {
    RWDT_ASSIGN_OR_RETURN(const bool more, children_[current_]->Next(row));
    if (more) return true;
    children_[current_]->Close();
    ++current_;
    if (current_ < children_.size()) {
      RWDT_RETURN_IF_ERROR(children_[current_]->Open());
    }
  }
  return false;
}

void UnionOp::Close() {
  if (current_ < children_.size()) children_[current_]->Close();
  current_ = children_.size();
}

void UnionOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->Key("children").BeginArray();
  for (const auto& c : children_) c->Explain(w);
  w->EndArray();
  w->EndObject();
}

// --- MinusOp ---------------------------------------------------------

MinusOp::MinusOp(OperatorPtr left, OperatorPtr right)
    : left_(std::move(left)), right_(std::move(right)) {}

Status MinusOp::Open() {
  RWDT_ASSIGN_OR_RETURN(build_, right_->Drain());
  return left_->Open();
}

Result<bool> MinusOp::Next(Binding* row) {
  while (true) {
    RWDT_ASSIGN_OR_RETURN(const bool more, left_->Next(row));
    if (!more) return false;
    bool excluded = false;
    for (const Binding& other : build_) {
      if (!sparql::Compatible(*row, other)) continue;
      for (const auto& [var, val] : other) {
        (void)val;
        if (row->count(var) > 0) {
          excluded = true;
          break;
        }
      }
      if (excluded) break;
    }
    if (!excluded) return true;
  }
}

void MinusOp::Close() {
  left_->Close();
  build_.clear();
}

void MinusOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->Key("left");
  left_->Explain(w);
  w->Key("right");
  right_->Explain(w);
  w->EndObject();
}

// --- YannakakisOp ----------------------------------------------------

namespace {

std::vector<SymbolId> SharedVars(const std::set<SymbolId>& a,
                                 const std::set<SymbolId>& b) {
  std::vector<SymbolId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// rel := rel semijoin other (keep rows with >= 1 partner on `shared`).
void Semijoin(std::vector<Binding>* rel, const std::vector<Binding>& other,
              const std::vector<SymbolId>& shared) {
  std::set<std::vector<SymbolId>> keys;
  std::vector<SymbolId> key;
  for (const Binding& row : other) {
    key.clear();
    for (SymbolId v : shared) key.push_back(row.at(v));
    keys.insert(key);
  }
  std::vector<Binding> kept;
  kept.reserve(rel->size());
  for (Binding& row : *rel) {
    key.clear();
    for (SymbolId v : shared) key.push_back(row.at(v));
    if (keys.count(key) > 0) kept.push_back(std::move(row));
  }
  *rel = std::move(kept);
}

/// Bag hash join of two materialized relations on `shared`.
std::vector<Binding> HashJoinVec(const std::vector<Binding>& probe,
                                 const std::vector<Binding>& build,
                                 const std::vector<SymbolId>& shared) {
  std::map<std::vector<SymbolId>, std::vector<const Binding*>> table;
  std::vector<SymbolId> key;
  for (const Binding& row : build) {
    key.clear();
    for (SymbolId v : shared) key.push_back(row.at(v));
    table[key].push_back(&row);
  }
  std::vector<Binding> out;
  for (const Binding& row : probe) {
    key.clear();
    for (SymbolId v : shared) key.push_back(row.at(v));
    auto it = table.find(key);
    if (it == table.end()) continue;
    for (const Binding* other : it->second) {
      out.push_back(MergeBindings(row, *other));
    }
  }
  return out;
}

}  // namespace

YannakakisOp::YannakakisOp(const graph::TripleStore& store,
                           const Interner& dict,
                           std::vector<sparql::TriplePattern> triples,
                           hypergraph::JoinForest forest)
    : store_(store),
      dict_(dict),
      triples_(std::move(triples)),
      forest_(std::move(forest)) {}

Status YannakakisOp::Open() {
  rows_.clear();
  pos_ = 0;
  const size_t n = triples_.size();
  if (n == 0) {
    rows_ = {Binding{}};
    return Status::Ok();
  }
  if (!forest_.ok || forest_.parent.size() != n) {
    return Status::Internal("yannakakis planned without a join forest");
  }

  // Materialize the relations and their variable sets.
  std::vector<std::vector<Binding>> rel(n);
  std::vector<std::set<SymbolId>> varsets(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& t = triples_[i];
    const SymbolId s = t.s.ActsAsVar() ? kInvalidSymbol : t.s.id;
    const SymbolId p = t.p.ActsAsVar() ? kInvalidSymbol : t.p.id;
    const SymbolId o = t.o.ActsAsVar() ? kInvalidSymbol : t.o.id;
    BindTripleMatches(store_.Match(s, p, o), t, &rel[i]);
    for (const sparql::Term* term : {&t.s, &t.p, &t.o}) {
      if (term->ActsAsVar()) varsets[i].insert(term->id);
    }
  }

  // Semijoin reduction: leaves to root, then root to leaves. Removal
  // order guarantees every child of i has already reduced rel[i] when i
  // reduces its own parent.
  for (size_t i : forest_.order) {
    const size_t j = static_cast<size_t>(forest_.parent[i]);
    Semijoin(&rel[j], rel[i], SharedVars(varsets[i], varsets[j]));
  }
  for (auto it = forest_.order.rbegin(); it != forest_.order.rend(); ++it) {
    const size_t i = *it;
    const size_t j = static_cast<size_t>(forest_.parent[i]);
    Semijoin(&rel[i], rel[j], SharedVars(varsets[i], varsets[j]));
  }

  // Join along the forest, root first. The GYO ear property keeps each
  // relation's overlap with the accumulated result inside its parent's
  // variables, so every join here is a definite-key hash join.
  size_t root = n;
  for (size_t i = 0; i < n; ++i) {
    if (forest_.parent[i] == -1) root = i;
  }
  std::vector<Binding> acc = std::move(rel[root]);
  std::set<SymbolId> acc_vars = varsets[root];
  for (auto it = forest_.order.rbegin(); it != forest_.order.rend(); ++it) {
    const size_t i = *it;
    acc = HashJoinVec(acc, rel[i], SharedVars(varsets[i], acc_vars));
    acc_vars.insert(varsets[i].begin(), varsets[i].end());
    if (acc.empty()) break;
  }
  rows_ = std::move(acc);
  return Status::Ok();
}

Result<bool> YannakakisOp::Next(Binding* row) {
  if (pos_ >= rows_.size()) return false;
  *row = rows_[pos_++];
  return true;
}

void YannakakisOp::Close() {
  rows_.clear();
  pos_ = 0;
}

void YannakakisOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->Key("relations").BeginArray();
  for (const auto& t : triples_) w->String(TripleString(t, dict_));
  w->EndArray();
  w->EndObject();
}

}  // namespace rwdt::exec
