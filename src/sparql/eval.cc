#include "sparql/eval.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <set>

namespace rwdt::sparql {

bool Compatible(const Binding& a, const Binding& b) {
  // Iterate the smaller one.
  const Binding& small = a.size() <= b.size() ? a : b;
  const Binding& large = a.size() <= b.size() ? b : a;
  for (const auto& [var, val] : small) {
    auto it = large.find(var);
    if (it != large.end() && it->second != val) return false;
  }
  return true;
}

Evaluator::Evaluator(const graph::TripleStore& store, Interner* dict,
                     const EvalLimits& limits)
    : store_(store), dict_(dict), limits_(limits) {}

Status Evaluator::Charge(uint64_t n) const {
  steps_ += n;
  if (steps_ > limits_.max_steps) {
    return Status::ResourceExhausted(
        "evaluation exceeded " + std::to_string(limits_.max_steps) +
        " steps");
  }
  return Status::Ok();
}

namespace {

/// Merges two compatible bindings.
Binding Merge(const Binding& a, const Binding& b) {
  Binding out = a;
  out.insert(b.begin(), b.end());
  return out;
}

/// True when the string names a literal (interned with quotes).
bool IsLiteralName(std::string_view name) {
  return !name.empty() && name[0] == '"';
}

/// Numeric value of a literal, if it parses.
bool NumericValue(std::string_view name, double* out) {
  std::string body(name);
  if (IsLiteralName(body) && body.size() >= 2) {
    body = body.substr(1, body.size() - 2);
  }
  if (body.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(body.c_str(), &end);
  return end == body.c_str() + body.size();
}

}  // namespace

std::vector<SymbolId> Evaluator::AllTerms() const {
  std::set<SymbolId> terms;
  for (const auto& t : store_.triples()) {
    terms.insert(t.s);
    terms.insert(t.o);
  }
  return {terms.begin(), terms.end()};
}

Result<std::vector<Binding>> Evaluator::EvalTriple(
    const TriplePattern& t) const {
  const SymbolId s = t.s.ActsAsVar() ? kInvalidSymbol : t.s.id;
  const SymbolId p = t.p.ActsAsVar() ? kInvalidSymbol : t.p.id;
  const SymbolId o = t.o.ActsAsVar() ? kInvalidSymbol : t.o.id;
  std::vector<Binding> out;
  const auto matches = store_.Match(s, p, o);
  RWDT_RETURN_IF_ERROR(Charge(matches.size()));
  for (const auto& triple : matches) {
    Binding mu;
    bool consistent = true;
    auto bind = [&](const Term& term, SymbolId value) {
      if (!term.ActsAsVar()) return;
      auto [it, inserted] = mu.emplace(term.id, value);
      if (!inserted && it->second != value) consistent = false;
    };
    bind(t.s, triple.s);
    bind(t.p, triple.p);
    bind(t.o, triple.o);
    if (consistent) out.push_back(std::move(mu));
  }
  return out;
}

std::vector<std::pair<SymbolId, SymbolId>> Evaluator::EvalPathPairs(
    const paths::Path& path, SymbolId s, SymbolId o) const {
  using paths::PathOp;
  switch (path.op()) {
    case PathOp::kIri: {
      std::vector<std::pair<SymbolId, SymbolId>> out;
      for (const auto& t : store_.Match(s, path.iri(), o)) {
        out.emplace_back(t.s, t.o);
      }
      return out;
    }
    case PathOp::kNegated: {
      std::vector<std::pair<SymbolId, SymbolId>> out;
      // Forward-forbidden and inverse-forbidden sets.
      std::set<SymbolId> fwd, inv;
      for (const auto& [iri, inverted] : path.negated_set()) {
        (inverted ? inv : fwd).insert(iri);
      }
      if (inv.empty() || !fwd.empty()) {
        for (const auto& t : store_.Match(s, kInvalidSymbol, o)) {
          if (fwd.count(t.p) == 0) out.emplace_back(t.s, t.o);
        }
      }
      if (!inv.empty()) {
        for (const auto& t : store_.Match(o, kInvalidSymbol, s)) {
          if (inv.count(t.p) == 0) out.emplace_back(t.o, t.s);
        }
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }
    case PathOp::kInverse: {
      auto pairs = EvalPathPairs(*path.child(), o, s);
      std::vector<std::pair<SymbolId, SymbolId>> out;
      out.reserve(pairs.size());
      for (const auto& [x, y] : pairs) out.emplace_back(y, x);
      return out;
    }
    case PathOp::kSeq: {
      // Fold left; keep intermediate endpoints unrestricted.
      std::vector<std::pair<SymbolId, SymbolId>> acc =
          EvalPathPairs(*path.children()[0], s, kInvalidSymbol);
      for (size_t i = 1; i < path.children().size(); ++i) {
        const bool last = i + 1 == path.children().size();
        std::set<std::pair<SymbolId, SymbolId>> next;
        for (const auto& [x, mid] : acc) {
          for (const auto& [m2, y] : EvalPathPairs(
                   *path.children()[i], mid, last ? o : kInvalidSymbol)) {
            (void)m2;
            next.emplace(x, y);
          }
        }
        acc.assign(next.begin(), next.end());
      }
      return acc;
    }
    case PathOp::kAlt: {
      std::set<std::pair<SymbolId, SymbolId>> out;
      for (const auto& c : path.children()) {
        for (const auto& pr : EvalPathPairs(*c, s, o)) out.insert(pr);
      }
      return {out.begin(), out.end()};
    }
    case PathOp::kOptional: {
      std::set<std::pair<SymbolId, SymbolId>> out;
      for (const auto& pr : EvalPathPairs(*path.child(), s, o)) {
        out.insert(pr);
      }
      // Zero-length matches: every graph term (restricted by s/o).
      if (s != kInvalidSymbol) {
        if (o == kInvalidSymbol || o == s) out.emplace(s, s);
      } else if (o != kInvalidSymbol) {
        out.emplace(o, o);
      } else {
        for (SymbolId t : AllTerms()) out.emplace(t, t);
      }
      return {out.begin(), out.end()};
    }
    case PathOp::kStar:
    case PathOp::kPlus: {
      // BFS closure from each candidate start.
      std::vector<SymbolId> starts;
      if (s != kInvalidSymbol) {
        starts.push_back(s);
      } else if (o != kInvalidSymbol && path.op() == PathOp::kPlus) {
        // Evaluate the reversed problem from o and flip.
        // (Simpler: fall through to all-starts when both unbound.)
        starts = AllTerms();
      } else {
        starts = AllTerms();
      }
      std::set<std::pair<SymbolId, SymbolId>> out;
      for (SymbolId start : starts) {
        std::set<SymbolId> seen;
        std::deque<SymbolId> queue;
        if (path.op() == PathOp::kStar) {
          if (o == kInvalidSymbol || o == start) out.emplace(start, start);
        }
        queue.push_back(start);
        seen.insert(start);
        while (!queue.empty()) {
          const SymbolId cur = queue.front();
          queue.pop_front();
          for (const auto& [x, y] :
               EvalPathPairs(*path.child(), cur, kInvalidSymbol)) {
            (void)x;
            if (seen.insert(y).second) queue.push_back(y);
            if (o == kInvalidSymbol || o == y) out.emplace(start, y);
          }
        }
      }
      // Deduplicate star self-pairs already handled; plus excludes them
      // unless reachable in >= 1 step (handled by construction).
      return {out.begin(), out.end()};
    }
  }
  return {};
}

Result<std::vector<Binding>> Evaluator::EvalPath(const PathTriple& p) const {
  const SymbolId s = p.s.ActsAsVar() ? kInvalidSymbol : p.s.id;
  const SymbolId o = p.o.ActsAsVar() ? kInvalidSymbol : p.o.id;
  std::vector<Binding> out;
  const auto pairs = EvalPathPairs(*p.path, s, o);
  RWDT_RETURN_IF_ERROR(Charge(pairs.size()));
  for (const auto& [x, y] : pairs) {
    Binding mu;
    bool consistent = true;
    if (p.s.ActsAsVar()) mu[p.s.id] = x;
    if (p.o.ActsAsVar()) {
      auto [it, inserted] = mu.emplace(p.o.id, y);
      if (!inserted && it->second != y) consistent = false;
    }
    if (consistent) out.push_back(std::move(mu));
  }
  return out;
}

Result<std::vector<Binding>> Evaluator::Join(
    const std::vector<Binding>& a, const std::vector<Binding>& b) const {
  std::vector<Binding> out;
  for (const auto& mu1 : a) {
    RWDT_RETURN_IF_ERROR(Charge(b.size()));
    for (const auto& mu2 : b) {
      if (Compatible(mu1, mu2)) out.push_back(Merge(mu1, mu2));
    }
  }
  return out;
}

Result<std::vector<Binding>> Evaluator::LeftJoin(
    const std::vector<Binding>& a, const std::vector<Binding>& b) const {
  std::vector<Binding> out;
  for (const auto& mu1 : a) {
    RWDT_RETURN_IF_ERROR(Charge(b.size()));
    bool any = false;
    for (const auto& mu2 : b) {
      if (Compatible(mu1, mu2)) {
        out.push_back(Merge(mu1, mu2));
        any = true;
      }
    }
    if (!any) out.push_back(mu1);
  }
  return out;
}

Result<std::vector<Binding>> Evaluator::MinusOp(
    const std::vector<Binding>& a, const std::vector<Binding>& b) const {
  std::vector<Binding> out;
  for (const auto& mu1 : a) {
    RWDT_RETURN_IF_ERROR(Charge(b.size()));
    bool excluded = false;
    for (const auto& mu2 : b) {
      if (!Compatible(mu1, mu2)) continue;
      // MINUS requires a shared domain variable.
      for (const auto& [var, val] : mu2) {
        (void)val;
        if (mu1.count(var) > 0) {
          excluded = true;
          break;
        }
      }
      if (excluded) break;
    }
    if (!excluded) out.push_back(mu1);
  }
  return out;
}

Result<bool> Evaluator::EvalFilter(const FilterExpr& f,
                                   const Binding& mu) const {
  switch (f.kind) {
    case FilterExpr::Kind::kUnaryTest: {
      if (!f.operand.ActsAsVar()) return true;
      auto it = mu.find(f.operand.id);
      if (f.function == "bound" || f.function == "BOUND") {
        return it != mu.end();
      }
      if (it == mu.end()) return false;  // error -> not selected
      const std::string_view name = dict_->Name(it->second);
      if (f.function == "isIRI" || f.function == "isURI") {
        return !IsLiteralName(name) && name.substr(0, 2) != "_:";
      }
      if (f.function == "isLiteral") return IsLiteralName(name);
      if (f.function == "isBlank") return name.substr(0, 2) == "_:";
      if (f.function == "lang") {
        return name.find("@" + f.argument) != std::string::npos ||
               (f.argument.size() >= 2 &&
                name.find("@" + f.argument.substr(1, f.argument.size() - 2)) !=
                    std::string::npos);
      }
      if (f.function == "regex" || f.function == "contains" ||
          f.function == "strstarts" || f.function == "STRSTARTS" ||
          f.function == "CONTAINS" || f.function == "REGEX") {
        std::string needle = f.argument;
        if (needle.size() >= 2 && needle.front() == '"') {
          needle = needle.substr(1, needle.size() - 2);
        }
        return name.find(needle) != std::string::npos;
      }
      // Unknown unary tests pass when the variable is bound.
      return true;
    }
    case FilterExpr::Kind::kComparison: {
      auto value = [&](const Term& t, SymbolId* out) {
        if (t.kind == Term::Kind::kNone) return false;
        if (!t.ActsAsVar()) {
          *out = t.id;
          return true;
        }
        auto it = mu.find(t.id);
        if (it == mu.end()) return false;
        *out = it->second;
        return true;
      };
      SymbolId l, r;
      if (!value(f.lhs, &l) || !value(f.rhs, &r)) return false;
      if (f.cmp == FilterExpr::CmpOp::kEq) return l == r;
      if (f.cmp == FilterExpr::CmpOp::kNe) return l != r;
      const std::string_view ln = dict_->Name(l);
      const std::string_view rn = dict_->Name(r);
      double lv, rv;
      int c;
      if (NumericValue(ln, &lv) && NumericValue(rn, &rv)) {
        c = lv < rv ? -1 : (lv > rv ? 1 : 0);
      } else {
        c = ln.compare(rn);
      }
      switch (f.cmp) {
        case FilterExpr::CmpOp::kLt:
          return c < 0;
        case FilterExpr::CmpOp::kLe:
          return c <= 0;
        case FilterExpr::CmpOp::kGt:
          return c > 0;
        case FilterExpr::CmpOp::kGe:
          return c >= 0;
        default:
          return false;
      }
    }
    case FilterExpr::Kind::kAnd:
      for (const auto& c : f.children) {
        RWDT_ASSIGN_OR_RETURN(const bool pass, EvalFilter(*c, mu));
        if (!pass) return false;
      }
      return true;
    case FilterExpr::Kind::kOr:
      for (const auto& c : f.children) {
        RWDT_ASSIGN_OR_RETURN(const bool pass, EvalFilter(*c, mu));
        if (pass) return true;
      }
      return false;
    case FilterExpr::Kind::kNot: {
      RWDT_ASSIGN_OR_RETURN(const bool pass, EvalFilter(*f.children[0], mu));
      return !pass;
    }
    case FilterExpr::Kind::kExistsPattern:
    case FilterExpr::Kind::kNotExistsPattern: {
      RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> results,
                            EvalPatternImpl(*f.pattern));
      bool exists = false;
      for (const auto& mu2 : results) {
        if (Compatible(mu, mu2)) {
          exists = true;
          break;
        }
      }
      return f.kind == FilterExpr::Kind::kExistsPattern ? exists : !exists;
    }
  }
  return Status::Unsupported("unknown filter kind");
}

Result<std::vector<Binding>> Evaluator::EvalPattern(const Pattern& p) const {
  steps_ = 0;
  return EvalPatternImpl(p);
}

Result<std::vector<Binding>> Evaluator::EvalPatternImpl(
    const Pattern& p) const {
  switch (p.op) {
    case Pattern::Op::kTriple:
      return EvalTriple(p.triple);
    case Pattern::Op::kPath:
      return EvalPath(p.path);
    case Pattern::Op::kAnd: {
      std::vector<Binding> acc = {Binding{}};
      for (const auto& c : p.children) {
        RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> rows,
                              EvalPatternImpl(*c));
        RWDT_ASSIGN_OR_RETURN(acc, Join(acc, rows));
        if (acc.empty()) break;
      }
      return acc;
    }
    case Pattern::Op::kFilter: {
      std::vector<Binding> out;
      RWDT_ASSIGN_OR_RETURN(std::vector<Binding> rows,
                            EvalPatternImpl(*p.children[0]));
      for (auto& mu : rows) {
        RWDT_ASSIGN_OR_RETURN(const bool pass, EvalFilter(*p.filter, mu));
        if (pass) out.push_back(std::move(mu));
      }
      return out;
    }
    case Pattern::Op::kUnion: {
      RWDT_ASSIGN_OR_RETURN(std::vector<Binding> out,
                            EvalPatternImpl(*p.children[0]));
      RWDT_ASSIGN_OR_RETURN(std::vector<Binding> right,
                            EvalPatternImpl(*p.children[1]));
      for (auto& mu : right) out.push_back(std::move(mu));
      return out;
    }
    case Pattern::Op::kOptional: {
      RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> left,
                            EvalPatternImpl(*p.children[0]));
      RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> right,
                            EvalPatternImpl(*p.children[1]));
      return LeftJoin(left, right);
    }
    case Pattern::Op::kMinus: {
      RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> left,
                            EvalPatternImpl(*p.children[0]));
      RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> right,
                            EvalPatternImpl(*p.children[1]));
      return MinusOp(left, right);
    }
    case Pattern::Op::kGraph:
    case Pattern::Op::kService: {
      // Single default graph; a variable name binds to the default IRI.
      RWDT_ASSIGN_OR_RETURN(std::vector<Binding> inner,
                            EvalPatternImpl(*p.children[0]));
      if (p.graph_name.ActsAsVar()) {
        const SymbolId def = dict_->Intern("urn:rwdt:default");
        for (auto& mu : inner) mu.emplace(p.graph_name.id, def);
      }
      return inner;
    }
    case Pattern::Op::kBind: {
      std::vector<Binding> inner;
      if (p.children.empty()) {
        inner = {Binding{}};
      } else {
        RWDT_ASSIGN_OR_RETURN(inner, EvalPatternImpl(*p.children[0]));
      }
      for (auto& mu : inner) {
        if (!p.bind_var.ActsAsVar()) continue;
        if (p.bind_source.kind == Term::Kind::kNone) continue;
        if (p.bind_source.ActsAsVar()) {
          auto it = mu.find(p.bind_source.id);
          if (it != mu.end()) mu.emplace(p.bind_var.id, it->second);
        } else {
          mu.emplace(p.bind_var.id, p.bind_source.id);
        }
      }
      return inner;
    }
    case Pattern::Op::kValues: {
      std::vector<Binding> out;
      for (const auto& row : p.values_rows) {
        Binding mu;
        for (size_t i = 0; i < row.size() && i < p.values_vars.size();
             ++i) {
          if (row[i].kind == Term::Kind::kNone) continue;  // UNDEF
          if (p.values_vars[i].ActsAsVar()) {
            mu[p.values_vars[i].id] = row[i].id;
          }
        }
        out.push_back(std::move(mu));
      }
      return out;
    }
    case Pattern::Op::kSubquery:
      if (p.subquery == nullptr) {
        return Status::Internal("subquery pattern without a query");
      }
      return EvalQueryImpl(*p.subquery);
  }
  return Status::Unsupported("unsupported pattern operator");
}

Result<std::vector<Binding>> Evaluator::ApplyModifiers(
    const Query& q, std::vector<Binding> rows) const {
  // Grouping and aggregation for queries that use them.
  const bool has_aggregates = std::any_of(
      q.projection.begin(), q.projection.end(),
      [](const SelectItem& item) { return item.aggregate.has_value(); });
  if (has_aggregates || !q.modifiers.group_by.empty()) {
    // Group key = values of group-by variables.
    std::map<std::vector<SymbolId>, std::vector<Binding>> groups;
    for (auto& mu : rows) {
      std::vector<SymbolId> key;
      for (const Term& g : q.modifiers.group_by) {
        auto it = mu.find(g.id);
        key.push_back(it == mu.end() ? kInvalidSymbol : it->second);
      }
      groups[key].push_back(std::move(mu));
    }
    if (groups.empty() && q.modifiers.group_by.empty()) {
      groups[{}] = {};  // aggregates over the empty solution set
    }

    std::vector<Binding> grouped;
    for (auto& [key, members] : groups) {
      Binding mu;
      for (size_t i = 0; i < q.modifiers.group_by.size(); ++i) {
        if (key[i] != kInvalidSymbol) {
          mu[q.modifiers.group_by[i].id] = key[i];
        }
      }
      for (const auto& item : q.projection) {
        if (!item.aggregate.has_value()) continue;
        double acc = 0;
        uint64_t count = 0;
        bool first = true;
        for (const auto& member : members) {
          SymbolId value = kInvalidSymbol;
          if (item.aggregate_arg.kind == Term::Kind::kNone) {
            ++count;  // COUNT(*)
            continue;
          }
          auto it = member.find(item.aggregate_arg.id);
          if (it == member.end()) continue;
          value = it->second;
          ++count;
          double v = 0;
          std::string body(dict_->Name(value));
          if (!body.empty() && body[0] == '"' && body.size() >= 2) {
            body = body.substr(1, body.size() - 2);
          }
          char* end = nullptr;
          v = std::strtod(body.c_str(), &end);
          const bool numeric = end == body.c_str() + body.size() &&
                               !body.empty();
          switch (*item.aggregate) {
            case Aggregate::kCount:
              break;
            case Aggregate::kSum:
            case Aggregate::kAvg:
              if (numeric) acc += v;
              break;
            case Aggregate::kMin:
              if (numeric && (first || v < acc)) acc = v;
              break;
            case Aggregate::kMax:
              if (numeric && (first || v > acc)) acc = v;
              break;
          }
          first = false;
        }
        double result = acc;
        if (*item.aggregate == Aggregate::kCount) {
          result = static_cast<double>(count);
        } else if (*item.aggregate == Aggregate::kAvg && count > 0) {
          result = acc / static_cast<double>(count);
        }
        char buf[32];
        if (result == static_cast<uint64_t>(result)) {
          std::snprintf(buf, sizeof(buf), "\"%llu\"",
                        static_cast<unsigned long long>(result));
        } else {
          std::snprintf(buf, sizeof(buf), "\"%g\"", result);
        }
        if (item.var.ActsAsVar()) mu[item.var.id] = dict_->Intern(buf);
      }
      grouped.push_back(std::move(mu));
    }
    rows = std::move(grouped);
  }

  if (q.modifiers.having != nullptr) {
    std::vector<Binding> kept;
    for (auto& mu : rows) {
      RWDT_ASSIGN_OR_RETURN(const bool pass,
                            EvalFilter(*q.modifiers.having, mu));
      if (pass) kept.push_back(std::move(mu));
    }
    rows = std::move(kept);
  }

  // Projection (Select with explicit variables).
  if (q.form == QueryForm::kSelect && !q.select_star &&
      !q.projection.empty()) {
    for (auto& mu : rows) {
      Binding projected;
      for (const auto& item : q.projection) {
        auto it = mu.find(item.var.id);
        if (it != mu.end()) projected.emplace(it->first, it->second);
      }
      mu = std::move(projected);
    }
  }

  // Order by (term-name order; numeric literals numerically).
  if (!q.modifiers.order_by.empty()) {
    std::stable_sort(
        rows.begin(), rows.end(),
        [&](const Binding& a, const Binding& b) {
          for (size_t i = 0; i < q.modifiers.order_by.size(); ++i) {
            const SymbolId var = q.modifiers.order_by[i].id;
            auto ita = a.find(var);
            auto itb = b.find(var);
            const std::string_view na =
                ita == a.end() ? "" : dict_->Name(ita->second);
            const std::string_view nb =
                itb == b.end() ? "" : dict_->Name(itb->second);
            double va, vb;
            int c;
            if (NumericValue(na, &va) && NumericValue(nb, &vb)) {
              c = va < vb ? -1 : (va > vb ? 1 : 0);
            } else {
              c = na.compare(nb);
            }
            const bool desc = i < q.modifiers.order_desc.size() &&
                              q.modifiers.order_desc[i];
            if (c != 0) return desc ? c > 0 : c < 0;
          }
          return false;
        });
  }

  if (q.modifiers.distinct || q.modifiers.reduced) {
    std::set<Binding> seen;
    std::vector<Binding> unique;
    for (auto& mu : rows) {
      if (seen.insert(mu).second) unique.push_back(std::move(mu));
    }
    rows = std::move(unique);
  }

  const uint64_t offset = q.modifiers.offset.value_or(0);
  if (offset > 0) {
    if (offset >= rows.size()) {
      rows.clear();
    } else {
      rows.erase(rows.begin(), rows.begin() + static_cast<long>(offset));
    }
  }
  if (q.modifiers.limit.has_value() && rows.size() > *q.modifiers.limit) {
    rows.resize(*q.modifiers.limit);
  }
  return rows;
}

Result<std::vector<Binding>> Evaluator::EvalQuery(const Query& q) const {
  steps_ = 0;
  return EvalQueryImpl(q);
}

Result<std::vector<Binding>> Evaluator::EvalQueryImpl(const Query& q) const {
  std::vector<Binding> rows;
  if (q.pattern != nullptr) {
    RWDT_ASSIGN_OR_RETURN(rows, EvalPatternImpl(*q.pattern));
  } else {
    rows = {Binding{}};
  }
  return ApplyModifiers(q, std::move(rows));
}

Result<bool> Evaluator::Ask(const Query& q) const {
  RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> rows, EvalQuery(q));
  return !rows.empty();
}

}  // namespace rwdt::sparql
