#ifndef RWDT_PATHS_PATH_H_
#define RWDT_PATHS_PATH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"

namespace rwdt::paths {

/// SPARQL 1.1 property path AST (paper Section 9.2/9.6): SPARQL's version
/// of (two-way) regular path queries. Concatenation is '/', alternation
/// '|', inverse '^', closure '*' '+' '?', negated property sets '!p' /
/// '!(p|^q)'.
enum class PathOp {
  kIri,       // a predicate IRI
  kInverse,   // ^e
  kSeq,       // e1 / e2 / ...
  kAlt,       // e1 | e2 | ...
  kStar,      // e*
  kPlus,      // e+
  kOptional,  // e?
  kNegated,   // !(...) negated property set
};

class Path;
using PathPtr = std::shared_ptr<const Path>;

class Path {
 public:
  PathOp op() const { return op_; }
  SymbolId iri() const { return iri_; }
  const std::vector<PathPtr>& children() const { return children_; }
  const PathPtr& child() const { return children_[0]; }
  /// kNegated: forbidden (iri, inverted) pairs.
  const std::vector<std::pair<SymbolId, bool>>& negated_set() const {
    return negated_;
  }

  size_t Size() const;
  std::string ToString(const Interner& dict) const;

  /// True when the path can match arbitrarily long paths (uses * or +) —
  /// "transitive" in the Table 8 taxonomy.
  bool IsTransitive() const;

  /// True when the path uses the inverse operator '^' somewhere.
  bool UsesInverse() const;

  static PathPtr Iri(SymbolId iri);
  static PathPtr Inverse(PathPtr e);
  static PathPtr Seq(std::vector<PathPtr> parts);
  static PathPtr Alt(std::vector<PathPtr> parts);
  static PathPtr Star(PathPtr e);
  static PathPtr Plus(PathPtr e);
  static PathPtr Optional(PathPtr e);
  static PathPtr Negated(std::vector<std::pair<SymbolId, bool>> forbidden);

 private:
  Path(PathOp op, SymbolId iri, std::vector<PathPtr> children,
       std::vector<std::pair<SymbolId, bool>> negated)
      : op_(op),
        iri_(iri),
        children_(std::move(children)),
        negated_(std::move(negated)) {}

  PathOp op_;
  SymbolId iri_ = kInvalidSymbol;
  std::vector<PathPtr> children_;
  std::vector<std::pair<SymbolId, bool>> negated_;
};

/// Parses SPARQL property path syntax over IRIs written either as
/// prefixed names (wdt:P31), <angle-bracket> IRIs, or bare identifiers.
Result<PathPtr> ParsePath(std::string_view input, Interner* dict);

}  // namespace rwdt::paths

#endif  // RWDT_PATHS_PATH_H_
