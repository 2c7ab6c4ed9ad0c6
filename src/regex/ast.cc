#include "regex/ast.h"

#include <algorithm>

namespace rwdt::regex {

size_t Regex::Size() const {
  size_t n = 1;
  for (const auto& c : children_) n += c->Size();
  return n;
}

size_t Regex::Depth() const {
  size_t d = 0;
  for (const auto& c : children_) d = std::max(d, c->Depth());
  return d + 1;
}

void Regex::CollectAlphabet(std::set<SymbolId>* out) const {
  if (op_ == Op::kSymbol) out->insert(symbol_);
  for (const auto& c : children_) c->CollectAlphabet(out);
}

std::set<SymbolId> Regex::Alphabet() const {
  std::set<SymbolId> out;
  CollectAlphabet(&out);
  return out;
}

std::map<SymbolId, size_t> Regex::SymbolOccurrences() const {
  std::map<SymbolId, size_t> counts;
  // Non-recursive DFS to keep stack use bounded on deep expressions.
  std::vector<const Regex*> stack = {this};
  while (!stack.empty()) {
    const Regex* e = stack.back();
    stack.pop_back();
    if (e->op_ == Op::kSymbol) counts[e->symbol_]++;
    for (const auto& c : e->children_) stack.push_back(c.get());
  }
  return counts;
}

size_t Regex::MaxSymbolOccurrences() const {
  size_t best = 0;
  for (const auto& [sym, count] : SymbolOccurrences()) {
    (void)sym;
    best = std::max(best, count);
  }
  return best;
}

bool Regex::Nullable() const {
  switch (op_) {
    case Op::kEmpty:
    case Op::kSymbol:
      return false;
    case Op::kEpsilon:
    case Op::kStar:
    case Op::kOptional:
      return true;
    case Op::kPlus:
      return children_[0]->Nullable();
    case Op::kConcat:
      for (const auto& c : children_) {
        if (!c->Nullable()) return false;
      }
      return true;
    case Op::kUnion:
      for (const auto& c : children_) {
        if (c->Nullable()) return true;
      }
      return false;
  }
  return false;
}

namespace {

// Binding strength for parenthesization: union < concat < postfix.
int Precedence(Op op) {
  switch (op) {
    case Op::kUnion:
      return 0;
    case Op::kConcat:
      return 1;
    default:
      return 2;
  }
}

void Render(const Regex& e, const Interner& dict, int parent_prec,
            std::string* out) {
  const int prec = Precedence(e.op());
  const bool need_parens = prec < parent_prec;
  if (need_parens) *out += '(';
  switch (e.op()) {
    case Op::kEmpty:
      *out += "<empty>";
      break;
    case Op::kEpsilon:
      *out += "<eps>";
      break;
    case Op::kSymbol: {
      *out += dict.Name(e.symbol());
      break;
    }
    case Op::kConcat: {
      bool first = true;
      for (const auto& c : e.children()) {
        if (!first) *out += ' ';
        first = false;
        Render(*c, dict, 2, out);
      }
      break;
    }
    case Op::kUnion: {
      bool first = true;
      for (const auto& c : e.children()) {
        if (!first) *out += '|';
        first = false;
        Render(*c, dict, 1, out);
      }
      break;
    }
    case Op::kStar:
      Render(*e.child(), dict, 3, out);
      *out += '*';
      break;
    case Op::kPlus:
      Render(*e.child(), dict, 3, out);
      *out += '+';
      break;
    case Op::kOptional:
      Render(*e.child(), dict, 3, out);
      *out += '?';
      break;
  }
  if (need_parens) *out += ')';
}

}  // namespace

std::string Regex::ToString(const Interner& dict) const {
  std::string out;
  Render(*this, dict, 0, &out);
  return out;
}

RegexPtr Regex::Empty() { return RegexPtr(new Regex(Op::kEmpty, kInvalidSymbol, {})); }

RegexPtr Regex::Epsilon() { return RegexPtr(new Regex(Op::kEpsilon, kInvalidSymbol, {})); }

RegexPtr Regex::Symbol(SymbolId s) { return RegexPtr(new Regex(Op::kSymbol, s, {})); }

RegexPtr Regex::Concat(std::vector<RegexPtr> parts) {
  std::vector<RegexPtr> flat;
  for (auto& p : parts) {
    if (p->op() == Op::kConcat) {
      for (const auto& c : p->children()) flat.push_back(c);
    } else {
      flat.push_back(std::move(p));
    }
  }
  if (flat.empty()) return Epsilon();
  if (flat.size() == 1) return flat[0];
  return RegexPtr(new Regex(Op::kConcat, kInvalidSymbol, std::move(flat)));
}

RegexPtr Regex::Concat(RegexPtr a, RegexPtr b) {
  return Concat(std::vector<RegexPtr>{std::move(a), std::move(b)});
}

RegexPtr Regex::Union(std::vector<RegexPtr> parts) {
  std::vector<RegexPtr> flat;
  for (auto& p : parts) {
    if (p->op() == Op::kUnion) {
      for (const auto& c : p->children()) flat.push_back(c);
    } else {
      flat.push_back(std::move(p));
    }
  }
  if (flat.empty()) return Empty();
  if (flat.size() == 1) return flat[0];
  return RegexPtr(new Regex(Op::kUnion, kInvalidSymbol, std::move(flat)));
}

RegexPtr Regex::Union(RegexPtr a, RegexPtr b) {
  return Union(std::vector<RegexPtr>{std::move(a), std::move(b)});
}

RegexPtr Regex::Star(RegexPtr e) {
  return RegexPtr(new Regex(Op::kStar, kInvalidSymbol, {std::move(e)}));
}

RegexPtr Regex::Plus(RegexPtr e) {
  return RegexPtr(new Regex(Op::kPlus, kInvalidSymbol, {std::move(e)}));
}

RegexPtr Regex::Optional(RegexPtr e) {
  return RegexPtr(new Regex(Op::kOptional, kInvalidSymbol, {std::move(e)}));
}

bool StructurallyEqual(const RegexPtr& a, const RegexPtr& b) {
  if (a.get() == b.get()) return true;
  if (a->op() != b->op()) return false;
  if (a->op() == Op::kSymbol) return a->symbol() == b->symbol();
  if (a->children().size() != b->children().size()) return false;
  for (size_t i = 0; i < a->children().size(); ++i) {
    if (!StructurallyEqual(a->children()[i], b->children()[i])) return false;
  }
  return true;
}

}  // namespace rwdt::regex
