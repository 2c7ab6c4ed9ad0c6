#include "paths/path.h"

#include <cctype>
#include <functional>

namespace rwdt::paths {

size_t Path::Size() const {
  size_t n = 1;
  for (const auto& c : children_) n += c->Size();
  return n;
}

bool Path::IsTransitive() const {
  if (op_ == PathOp::kStar || op_ == PathOp::kPlus) return true;
  for (const auto& c : children_) {
    if (c->IsTransitive()) return true;
  }
  return false;
}

bool Path::UsesInverse() const {
  if (op_ == PathOp::kInverse) return true;
  for (const auto& [iri, inverted] : negated_) {
    (void)iri;
    if (inverted) return true;
  }
  for (const auto& c : children_) {
    if (c->UsesInverse()) return true;
  }
  return false;
}

namespace {

int Precedence(PathOp op) {
  switch (op) {
    case PathOp::kAlt:
      return 0;
    case PathOp::kSeq:
      return 1;
    default:
      return 2;
  }
}

}  // namespace

std::string Path::ToString(const Interner& dict) const {
  std::string out;
  std::function<void(const Path&, int)> render = [&](const Path& e,
                                                     int parent) {
    const int prec = Precedence(e.op());
    const bool parens = prec < parent;
    if (parens) out += '(';
    switch (e.op()) {
      case PathOp::kIri:
        out += dict.Name(e.iri());
        break;
      case PathOp::kInverse:
        out += '^';
        render(*e.child(), 2);
        break;
      case PathOp::kSeq: {
        bool first = true;
        for (const auto& c : e.children()) {
          if (!first) out += '/';
          first = false;
          render(*c, 2);
        }
        break;
      }
      case PathOp::kAlt: {
        bool first = true;
        for (const auto& c : e.children()) {
          if (!first) out += '|';
          first = false;
          render(*c, 1);
        }
        break;
      }
      case PathOp::kStar:
        render(*e.child(), 3);
        out += '*';
        break;
      case PathOp::kPlus:
        render(*e.child(), 3);
        out += '+';
        break;
      case PathOp::kOptional:
        render(*e.child(), 3);
        out += '?';
        break;
      case PathOp::kNegated: {
        out += "!(";
        bool first = true;
        for (const auto& [iri, inverted] : e.negated_set()) {
          if (!first) out += '|';
          first = false;
          if (inverted) out += '^';
          out += dict.Name(iri);
        }
        out += ')';
        break;
      }
    }
    if (parens) out += ')';
  };
  render(*this, 0);
  return out;
}

PathPtr Path::Iri(SymbolId iri) {
  return PathPtr(new Path(PathOp::kIri, iri, {}, {}));
}
PathPtr Path::Inverse(PathPtr e) {
  return PathPtr(new Path(PathOp::kInverse, kInvalidSymbol, {std::move(e)},
                          {}));
}
PathPtr Path::Seq(std::vector<PathPtr> parts) {
  if (parts.size() == 1) return parts[0];
  std::vector<PathPtr> flat;
  for (auto& p : parts) {
    if (p->op() == PathOp::kSeq) {
      for (const auto& c : p->children()) flat.push_back(c);
    } else {
      flat.push_back(std::move(p));
    }
  }
  return PathPtr(new Path(PathOp::kSeq, kInvalidSymbol, std::move(flat),
                          {}));
}
PathPtr Path::Alt(std::vector<PathPtr> parts) {
  if (parts.size() == 1) return parts[0];
  std::vector<PathPtr> flat;
  for (auto& p : parts) {
    if (p->op() == PathOp::kAlt) {
      for (const auto& c : p->children()) flat.push_back(c);
    } else {
      flat.push_back(std::move(p));
    }
  }
  return PathPtr(new Path(PathOp::kAlt, kInvalidSymbol, std::move(flat),
                          {}));
}
PathPtr Path::Star(PathPtr e) {
  return PathPtr(new Path(PathOp::kStar, kInvalidSymbol, {std::move(e)},
                          {}));
}
PathPtr Path::Plus(PathPtr e) {
  return PathPtr(new Path(PathOp::kPlus, kInvalidSymbol, {std::move(e)},
                          {}));
}
PathPtr Path::Optional(PathPtr e) {
  return PathPtr(new Path(PathOp::kOptional, kInvalidSymbol,
                          {std::move(e)}, {}));
}
PathPtr Path::Negated(std::vector<std::pair<SymbolId, bool>> forbidden) {
  return PathPtr(new Path(PathOp::kNegated, kInvalidSymbol, {},
                          std::move(forbidden)));
}

namespace {

bool IsIriChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == ':' ||
         c == '_' || c == '.' || c == '-' || c == '#';
}

class PathParser {
 public:
  PathParser(std::string_view input, Interner* dict)
      : input_(input), dict_(dict) {}

  Result<PathPtr> Parse() {
    RWDT_ASSIGN_OR_RETURN(PathPtr e, ParseAlt());
    SkipSpace();
    if (pos_ != input_.size()) {
      return Status::ParseError("trailing path characters at offset " +
                                std::to_string(pos_));
    }
    return e;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }
  char Peek() {
    SkipSpace();
    return pos_ < input_.size() ? input_[pos_] : '\0';
  }

  Result<PathPtr> ParseAlt() {
    RWDT_ASSIGN_OR_RETURN(PathPtr first, ParseSeq());
    std::vector<PathPtr> parts = {std::move(first)};
    while (Peek() == '|') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(PathPtr next, ParseSeq());
      parts.push_back(std::move(next));
    }
    return Path::Alt(std::move(parts));
  }

  Result<PathPtr> ParseSeq() {
    RWDT_ASSIGN_OR_RETURN(PathPtr first, ParsePostfix());
    std::vector<PathPtr> parts = {std::move(first)};
    while (Peek() == '/') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(PathPtr next, ParsePostfix());
      parts.push_back(std::move(next));
    }
    return Path::Seq(std::move(parts));
  }

  Result<PathPtr> ParsePostfix() {
    RWDT_ASSIGN_OR_RETURN(PathPtr e, ParseAtom());
    for (;;) {
      const char c = pos_ < input_.size() ? input_[pos_] : '\0';
      if (c == '*') {
        e = Path::Star(e);
        ++pos_;
      } else if (c == '+') {
        e = Path::Plus(e);
        ++pos_;
      } else if (c == '?') {
        e = Path::Optional(e);
        ++pos_;
      } else {
        break;
      }
    }
    return e;
  }

  Result<PathPtr> ParseAtom() {
    const char c = Peek();
    if (c == '(') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(PathPtr inner, ParseAlt());
      if (Peek() != ')') return Status::ParseError("expected ')'");
      ++pos_;
      return inner;
    }
    if (c == '^') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(PathPtr inner, ParsePostfix());
      return Path::Inverse(std::move(inner));
    }
    if (c == '!') {
      ++pos_;
      return ParseNegatedSet();
    }
    return ParseIriAtom();
  }

  Result<PathPtr> ParseNegatedSet() {
    std::vector<std::pair<SymbolId, bool>> forbidden;
    auto one = [&]() -> Status {
      bool inverted = false;
      if (Peek() == '^') {
        ++pos_;
        inverted = true;
      }
      RWDT_ASSIGN_OR_RETURN(const SymbolId iri, ParseIriName());
      forbidden.emplace_back(iri, inverted);
      return Status::Ok();
    };
    if (Peek() == '(') {
      ++pos_;
      RWDT_RETURN_IF_ERROR(one());
      while (Peek() == '|') {
        ++pos_;
        RWDT_RETURN_IF_ERROR(one());
      }
      if (Peek() != ')') return Status::ParseError("expected ')' in !()");
      ++pos_;
    } else {
      RWDT_RETURN_IF_ERROR(one());
    }
    return Path::Negated(std::move(forbidden));
  }

  Result<PathPtr> ParseIriAtom() {
    RWDT_ASSIGN_OR_RETURN(const SymbolId iri, ParseIriName());
    return Path::Iri(iri);
  }

  Result<SymbolId> ParseIriName() {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == '<') {
      const size_t end = input_.find('>', pos_);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated <iri>");
      }
      const std::string name(input_.substr(pos_ + 1, end - pos_ - 1));
      pos_ = end + 1;
      return dict_->Intern(name);
    }
    std::string name;
    while (pos_ < input_.size() && IsIriChar(input_[pos_])) {
      name += input_[pos_++];
    }
    if (name.empty()) {
      return Status::ParseError("expected IRI at offset " +
                                std::to_string(pos_));
    }
    return dict_->Intern(name);
  }

  std::string_view input_;
  Interner* dict_;
  size_t pos_ = 0;
};

}  // namespace

Result<PathPtr> ParsePath(std::string_view input, Interner* dict) {
  return PathParser(input, dict).Parse();
}

}  // namespace rwdt::paths
