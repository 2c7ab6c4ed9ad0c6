#include "exec/operators.h"

#include <iterator>
#include <utility>

namespace rwdt::exec {
namespace {

constexpr uint32_t kNoSlot = SlotTable::kNoSlot;

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

/// The store lookup key of one pattern position: its constant, or the
/// wildcard for a variable.
SymbolId MatchKey(const sparql::Term& t) {
  return t.ActsAsVar() ? kInvalidSymbol : t.id;
}

uint32_t SlotOfTerm(const sparql::Term& t, const SlotTable& slots) {
  return t.ActsAsVar() ? slots.SlotOf(t.id) : kNoSlot;
}

TripleSlots SlotsOfTriple(const sparql::TriplePattern& t,
                          const SlotTable& slots) {
  return {SlotOfTerm(t.s, slots), SlotOfTerm(t.p, slots),
          SlotOfTerm(t.o, slots)};
}

/// Writes `value` into `slot` of `row`; false when a repeated variable
/// already holds a different value there.
bool BindSlot(SymbolId* row, uint32_t slot, SymbolId value) {
  if (slot == kNoSlot) return true;
  if (row[slot] == kInvalidSymbol) {
    row[slot] = value;
    return true;
  }
  return row[slot] == value;
}

/// Evaluator::EvalTriple's rows, shared by the scan and the Yannakakis
/// relation loader: repeated variables must agree.
void AppendTripleRows(const graph::TripleStore& store,
                      const sparql::TriplePattern& t,
                      const TripleSlots& slot, RowTable* out) {
  for (const graph::Triple& tr :
       store.Match(MatchKey(t.s), MatchKey(t.p), MatchKey(t.o))) {
    SymbolId* row = out->PushUnbound();
    if (!BindSlot(row, slot.s, tr.s) || !BindSlot(row, slot.p, tr.p) ||
        !BindSlot(row, slot.o, tr.o)) {
      out->PopBack();
    }
  }
}

/// Evaluator::EvalPath's rows from a pair set.
void AppendPathRows(const std::vector<std::pair<SymbolId, SymbolId>>& pairs,
                    uint32_t s_slot, uint32_t o_slot, RowTable* out) {
  for (const auto& [x, y] : pairs) {
    if (s_slot != kNoSlot && s_slot == o_slot && x != y) continue;
    SymbolId* row = out->PushUnbound();
    if (s_slot != kNoSlot) row[s_slot] = x;
    if (o_slot != kNoSlot) row[o_slot] = y;
  }
}

bool KeyBound(const SymbolId* row, const std::vector<uint32_t>& key_slots) {
  for (uint32_t s : key_slots) {
    if (row[s] == kInvalidSymbol) return false;
  }
  return true;
}

Status NonDefiniteKey() {
  return Status::Internal("hash join planned over a non-definite variable");
}

/// Open, Next until end-of-stream, Close; `emit` sees each row.
template <typename Emit>
Status Stream(Operator* op, Emit&& emit) {
  RWDT_RETURN_IF_ERROR(op->Open());
  std::vector<SymbolId> row(op->width());
  while (true) {
    Result<bool> more = op->Next(row.data());
    if (!more.ok()) {
      op->Close();
      return more.status();
    }
    if (!more.value()) break;
    emit(static_cast<const SymbolId*>(row.data()));
  }
  op->Close();
  return Status::Ok();
}

void ExplainJoinVars(const std::vector<SymbolId>& vars, const Interner& dict,
                     JsonWriter* w) {
  w->Key("join_vars").BeginArray();
  for (SymbolId v : vars) w->String(dict.Name(v));
  w->EndArray();
}

void ExplainBinary(const char* name, const Operator& left,
                   const Operator& right, JsonWriter* w) {
  w->StringField("op", name);
  w->Key("left");
  left.Explain(w);
  w->Key("right");
  right.Explain(w);
}

}  // namespace

// --- Slot rows -------------------------------------------------------

uint32_t SlotTable::Add(SymbolId var) {
  const uint32_t found = SlotOf(var);
  if (found != kNoSlot) return found;
  const uint32_t slot = static_cast<uint32_t>(vars_.size());
  vars_.push_back(var);
  by_var_.insert(std::lower_bound(by_var_.begin(), by_var_.end(), var,
                                  [&](uint32_t s, SymbolId v) {
                                    return vars_[s] < v;
                                  }),
                 slot);
  return slot;
}

uint32_t SlotTable::SlotOf(SymbolId var) const {
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i] == var) return static_cast<uint32_t>(i);
  }
  return kNoSlot;
}

Binding SlotTable::ToBinding(const SymbolId* row) const {
  Binding out;
  for (uint32_t s : by_var_) {
    if (row[s] != kInvalidSymbol) out.emplace_hint(out.end(), vars_[s], row[s]);
  }
  return out;
}

SymbolId* RowTable::Push(const SymbolId* row) {
  data_.insert(data_.end(), row, row + width_);
  return data_.data() + (size_++) * width_;
}

SymbolId* RowTable::PushUnbound() {
  data_.resize(data_.size() + width_, kInvalidSymbol);
  return data_.data() + (size_++) * width_;
}

void RowTable::PopBack() {
  --size_;
  data_.resize(size_ * width_);
}

bool CompatibleRows(const SymbolId* a, const SymbolId* b, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    if (a[i] != kInvalidSymbol && b[i] != kInvalidSymbol && a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

void MergeRowInto(SymbolId* a, const SymbolId* b, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    if (a[i] == kInvalidSymbol) a[i] = b[i];
  }
}

// --- JoinIndex -------------------------------------------------------

uint64_t JoinIndex::Bucket(const SymbolId* row) const {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (uint32_t s : key_slots_) {
    h = (h ^ row[s]) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
  }
  return h & mask_;
}

Status JoinIndex::Build(const RowTable& rows,
                        std::vector<uint32_t> key_slots) {
  rows_ = &rows;
  key_slots_ = std::move(key_slots);
  size_t buckets = 1;
  while (buckets < 2 * rows.size()) buckets <<= 1;
  mask_ = buckets - 1;
  heads_.assign(buckets, kEnd);
  next_.resize(rows.size());
  // Head insertion from the back leaves every chain in build order.
  for (size_t i = rows.size(); i-- > 0;) {
    const SymbolId* row = rows.row(i);
    if (!KeyBound(row, key_slots_)) return NonDefiniteKey();
    uint32_t& head = heads_[Bucket(row)];
    next_[i] = head;
    head = static_cast<uint32_t>(i);
  }
  return Status::Ok();
}

uint32_t JoinIndex::Scan(uint32_t i, const SymbolId* probe) const {
  for (; i != kEnd; i = next_[i]) {
    const SymbolId* row = rows_->row(i);
    bool equal = true;
    for (uint32_t s : key_slots_) equal = equal && row[s] == probe[s];
    if (equal) return i;
  }
  return kEnd;
}

uint32_t JoinIndex::Find(const SymbolId* probe) const {
  return heads_.empty() ? kEnd : Scan(heads_[Bucket(probe)], probe);
}

uint32_t JoinIndex::FindNext(uint32_t i, const SymbolId* probe) const {
  return Scan(next_[i], probe);
}

// --- Operator --------------------------------------------------------

Status Operator::DrainRows(RowTable* out) {
  *out = RowTable(width());
  return Stream(this, [&](const SymbolId* row) { out->Push(row); });
}

Result<std::vector<Binding>> Operator::Drain() {
  std::vector<Binding> rows;
  RWDT_RETURN_IF_ERROR(Stream(this, [&](const SymbolId* row) {
    rows.push_back(slots_->ToBinding(row));
  }));
  return rows;
}

Status MaterializedOp::Open() {
  rows_ = RowTable(width());
  pos_ = 0;
  return Fill(&rows_);
}

Result<bool> MaterializedOp::Next(SymbolId* row) {
  if (pos_ >= rows_.size()) return false;
  const SymbolId* r = rows_.row(pos_++);
  std::copy(r, r + rows_.width(), row);
  return true;
}

void MaterializedOp::Close() {
  rows_ = RowTable();
  pos_ = 0;
}

// --- TripleScanOp ----------------------------------------------------

TripleScanOp::TripleScanOp(const graph::TripleStore& store,
                           const Interner& dict, SlotTablePtr slots,
                           sparql::TriplePattern pattern)
    : MaterializedOp(std::move(slots)),
      store_(store),
      dict_(dict),
      pattern_(std::move(pattern)),
      slot_(SlotsOfTriple(pattern_, *slots_)) {}

Status TripleScanOp::Fill(RowTable* out) {
  AppendTripleRows(store_, pattern_, slot_, out);
  return Status::Ok();
}

void TripleScanOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->StringField("pattern", TripleString(pattern_, dict_));
  w->EndObject();
}

// --- PathScanOp ------------------------------------------------------

PathScanOp::PathScanOp(const sparql::Evaluator& eval, const Interner& dict,
                       SlotTablePtr slots, sparql::PathTriple pattern)
    : MaterializedOp(std::move(slots)),
      eval_(eval),
      dict_(dict),
      pattern_(std::move(pattern)),
      s_slot_(SlotOfTerm(pattern_.s, *slots_)),
      o_slot_(SlotOfTerm(pattern_.o, *slots_)) {}

Status PathScanOp::Fill(RowTable* out) {
  AppendPathRows(eval_.EvalPathPairs(*pattern_.path, MatchKey(pattern_.s),
                                     MatchKey(pattern_.o)),
                 s_slot_, o_slot_, out);
  return Status::Ok();
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
                                         SlotTablePtr slots,
                                         sparql::PathTriple pattern)
    : MaterializedOp(std::move(slots)),
      store_(store),
      eval_(eval),
      dict_(dict),
      pattern_(std::move(pattern)),
      s_slot_(SlotOfTerm(pattern_.s, *slots_)),
      o_slot_(SlotOfTerm(pattern_.o, *slots_)),
      nfa_(CompilePathNfa(*pattern_.path)) {}

Status AutomatonPathScanOp::Fill(RowTable* out) {
  const SymbolId s = MatchKey(pattern_.s);
  const SymbolId o = MatchKey(pattern_.o);
  const std::vector<SymbolId> all_terms = store_.Terms();
  if (s == kInvalidSymbol && o != kInvalidSymbol &&
      !std::binary_search(all_terms.begin(), all_terms.end(), o)) {
    // Zero-length semantics for an object with no incident edges depend
    // on the path's operator shape; defer to the reference algorithm.
    AppendPathRows(eval_.EvalPathPairs(*pattern_.path, s, o), s_slot_,
                   o_slot_, out);
    return Status::Ok();
  }
  AppendPathRows(EvalPathNfa(store_, nfa_, all_terms, s, o), s_slot_,
                 o_slot_, out);
  return Status::Ok();
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
                       std::vector<SymbolId> join_vars, const Interner& dict,
                       bool left_outer)
    : Operator(left->slots()),
      left_(std::move(left)),
      right_(std::move(right)),
      join_vars_(std::move(join_vars)),
      dict_(dict),
      left_outer_(left_outer) {
  for (SymbolId v : join_vars_) key_slots_.push_back(slots_->SlotOf(v));
}

Status HashJoinOp::Open() {
  match_ = JoinIndex::kEnd;
  probe_.assign(width(), kInvalidSymbol);
  RWDT_RETURN_IF_ERROR(right_->DrainRows(&build_));
  RWDT_RETURN_IF_ERROR(index_.Build(build_, key_slots_));
  return left_->Open();
}

Result<bool> HashJoinOp::Next(SymbolId* row) {
  while (true) {
    if (match_ != JoinIndex::kEnd) {
      std::copy(probe_.begin(), probe_.end(), row);
      MergeRowInto(row, build_.row(match_), probe_.size());
      match_ = index_.FindNext(match_, probe_.data());
      return true;
    }
    RWDT_ASSIGN_OR_RETURN(const bool more, left_->Next(probe_.data()));
    if (!more) return false;
    if (!KeyBound(probe_.data(), key_slots_)) return NonDefiniteKey();
    match_ = index_.Find(probe_.data());
    if (match_ == JoinIndex::kEnd && left_outer_) {
      std::copy(probe_.begin(), probe_.end(), row);
      return true;
    }
  }
}

void HashJoinOp::Close() {
  left_->Close();
  build_ = RowTable();
  match_ = JoinIndex::kEnd;
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

// --- NestedLoopJoinOp ------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   bool left_outer)
    : Operator(left->slots()),
      left_(std::move(left)),
      right_(std::move(right)),
      left_outer_(left_outer) {}

Status NestedLoopJoinOp::Open() {
  RWDT_RETURN_IF_ERROR(right_->DrainRows(&build_));
  probe_.assign(width(), kInvalidSymbol);
  probe_live_ = false;
  return left_->Open();
}

Result<bool> NestedLoopJoinOp::Next(SymbolId* row) {
  const size_t width = probe_.size();
  while (true) {
    if (!probe_live_) {
      RWDT_ASSIGN_OR_RETURN(const bool more, left_->Next(probe_.data()));
      if (!more) return false;
      probe_live_ = true;
      probe_matched_ = false;
      build_pos_ = 0;
    }
    while (build_pos_ < build_.size()) {
      const SymbolId* other = build_.row(build_pos_++);
      if (CompatibleRows(probe_.data(), other, width)) {
        probe_matched_ = true;
        std::copy(probe_.begin(), probe_.end(), row);
        MergeRowInto(row, other, width);
        return true;
      }
    }
    probe_live_ = false;
    if (left_outer_ && !probe_matched_) {
      std::copy(probe_.begin(), probe_.end(), row);
      return true;
    }
  }
}

void NestedLoopJoinOp::Close() {
  left_->Close();
  build_ = RowTable();
  probe_live_ = false;
}

void NestedLoopJoinOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  ExplainBinary(Name(), *left_, *right_, w);
  w->EndObject();
}

// --- FilterOp --------------------------------------------------------

FilterOp::FilterOp(OperatorPtr child, sparql::FilterPtr filter,
                   const sparql::Evaluator& eval)
    : Operator(child->slots()),
      child_(std::move(child)),
      filter_(std::move(filter)),
      eval_(eval) {}

Status FilterOp::Open() { return child_->Open(); }

Result<bool> FilterOp::Next(SymbolId* row) {
  while (true) {
    RWDT_ASSIGN_OR_RETURN(const bool more, child_->Next(row));
    if (!more) return false;
    RWDT_ASSIGN_OR_RETURN(const bool pass,
                          eval_.EvalFilter(*filter_, slots_->ToBinding(row)));
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

UnionOp::UnionOp(SlotTablePtr slots, std::vector<OperatorPtr> children)
    : Operator(std::move(slots)), children_(std::move(children)) {}

Status UnionOp::Open() {
  current_ = 0;
  if (children_.empty()) return Status::Ok();
  return children_[0]->Open();
}

Result<bool> UnionOp::Next(SymbolId* row) {
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
    : Operator(left->slots()),
      left_(std::move(left)),
      right_(std::move(right)) {}

Status MinusOp::Open() {
  RWDT_RETURN_IF_ERROR(right_->DrainRows(&build_));
  return left_->Open();
}

Result<bool> MinusOp::Next(SymbolId* row) {
  const size_t width = build_.width();
  // Excluded by `other` when compatible and sharing a bound slot.
  auto excludes = [&](const SymbolId* other) {
    bool shared = false;
    for (size_t i = 0; i < width; ++i) {
      if (row[i] == kInvalidSymbol || other[i] == kInvalidSymbol) continue;
      if (row[i] != other[i]) return false;
      shared = true;
    }
    return shared;
  };
  while (true) {
    RWDT_ASSIGN_OR_RETURN(const bool more, left_->Next(row));
    if (!more) return false;
    bool excluded = false;
    for (size_t i = 0; i < build_.size() && !excluded; ++i) {
      excluded = excludes(build_.row(i));
    }
    if (!excluded) return true;
  }
}

void MinusOp::Close() {
  left_->Close();
  build_ = RowTable();
}

void MinusOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  ExplainBinary(Name(), *left_, *right_, w);
  w->EndObject();
}

// --- YannakakisOp ----------------------------------------------------

namespace {

std::vector<uint32_t> SharedSlots(const std::vector<uint32_t>& a,
                                  const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// rel := rel semijoin other (keep rows with >= 1 partner on `shared`).
Status Semijoin(RowTable* rel, const RowTable& other,
                std::vector<uint32_t> shared) {
  JoinIndex index;
  RWDT_RETURN_IF_ERROR(index.Build(other, std::move(shared)));
  rel->Filter([&](const SymbolId* row) {
    return index.Find(row) != JoinIndex::kEnd;
  });
  return Status::Ok();
}

/// Bag hash join of two materialized relations on `shared`.
Result<RowTable> JoinRows(const RowTable& probe, const RowTable& build,
                          std::vector<uint32_t> shared) {
  JoinIndex index;
  RWDT_RETURN_IF_ERROR(index.Build(build, std::move(shared)));
  RowTable out(probe.width());
  for (size_t i = 0; i < probe.size(); ++i) {
    const SymbolId* row = probe.row(i);
    for (uint32_t m = index.Find(row); m != JoinIndex::kEnd;
         m = index.FindNext(m, row)) {
      MergeRowInto(out.Push(row), build.row(m), probe.width());
    }
  }
  return out;
}

}  // namespace

YannakakisOp::YannakakisOp(const graph::TripleStore& store,
                           const Interner& dict, SlotTablePtr slots,
                           std::vector<sparql::TriplePattern> triples,
                           hypergraph::JoinForest forest)
    : MaterializedOp(std::move(slots)),
      store_(store),
      dict_(dict),
      triples_(std::move(triples)),
      forest_(std::move(forest)) {
  for (const auto& t : triples_) {
    const TripleSlots ts = SlotsOfTriple(t, *slots_);
    triple_slots_.push_back(ts);
    std::vector<uint32_t> set;
    for (uint32_t s : {ts.s, ts.p, ts.o}) {
      if (s != kNoSlot) set.push_back(s);
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    slotsets_.push_back(std::move(set));
  }
}

Status YannakakisOp::Fill(RowTable* out) {
  const size_t n = triples_.size();
  if (n == 0) {
    out->PushUnbound();  // the join identity: one empty row
    return Status::Ok();
  }
  if (!forest_.ok || forest_.parent.size() != n) {
    return Status::Internal("yannakakis planned without a join forest");
  }

  std::vector<RowTable> rel(n, RowTable(width()));
  for (size_t i = 0; i < n; ++i) {
    AppendTripleRows(store_, triples_[i], triple_slots_[i], &rel[i]);
  }

  // Semijoin reduction: leaves to root, then root to leaves. Removal
  // order guarantees every child of i has already reduced rel[i] when i
  // reduces its own parent.
  for (size_t i : forest_.order) {
    const size_t j = static_cast<size_t>(forest_.parent[i]);
    RWDT_RETURN_IF_ERROR(
        Semijoin(&rel[j], rel[i], SharedSlots(slotsets_[i], slotsets_[j])));
  }
  for (auto it = forest_.order.rbegin(); it != forest_.order.rend(); ++it) {
    const size_t i = *it;
    const size_t j = static_cast<size_t>(forest_.parent[i]);
    RWDT_RETURN_IF_ERROR(
        Semijoin(&rel[i], rel[j], SharedSlots(slotsets_[i], slotsets_[j])));
  }

  // Join along the forest, root first. The GYO ear property keeps each
  // relation's overlap with the accumulated result inside its parent's
  // variables, so every join here is a definite-key hash join.
  size_t root = n;
  for (size_t i = 0; i < n; ++i) {
    if (forest_.parent[i] == -1) root = i;
  }
  RowTable acc = std::move(rel[root]);
  std::vector<uint32_t> acc_slots = slotsets_[root];
  for (auto it = forest_.order.rbegin(); it != forest_.order.rend(); ++it) {
    const size_t i = *it;
    RWDT_ASSIGN_OR_RETURN(
        acc, JoinRows(acc, rel[i], SharedSlots(slotsets_[i], acc_slots)));
    std::vector<uint32_t> merged;
    std::set_union(acc_slots.begin(), acc_slots.end(), slotsets_[i].begin(),
                   slotsets_[i].end(), std::back_inserter(merged));
    acc_slots = std::move(merged);
    if (acc.empty()) break;
  }
  *out = std::move(acc);
  return Status::Ok();
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
