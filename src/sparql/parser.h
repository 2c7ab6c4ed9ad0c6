#ifndef RWDT_SPARQL_PARSER_H_
#define RWDT_SPARQL_PARSER_H_

#include <string_view>

#include "common/interner.h"
#include "common/status.h"
#include "sparql/algebra.h"

namespace rwdt::sparql {

/// Per-query resource guards. Real logs contain adversarially large
/// queries; the parser refuses to run away and instead returns
/// `Code::kResourceExhausted`, which the ingest pipeline counts under
/// its error taxonomy.
struct ParseLimits {
  /// Queries longer than this many bytes are rejected up front.
  size_t max_query_bytes = 1 << 20;  // 1 MiB
  /// Budget on parser steps (~= AST nodes + tokens). Each term, pattern
  /// node, filter node, and path expression consumes one step, including
  /// inside subqueries; 0 is invalid (use Validate()).
  size_t max_parser_steps = 1 << 20;

  /// Rejects nonsensical limits (a zero budget would fail every query).
  Status Validate() const;
};

/// Parses a SPARQL(-subset) query into the algebra of algebra.h.
///
/// Supported: PREFIX/BASE headers (prefixes are kept as written, not
/// expanded), SELECT (DISTINCT/REDUCED, projections, aggregates as
/// "(AGG(?x) AS ?y)"), ASK, CONSTRUCT, DESCRIBE; group graph patterns
/// with triple blocks ('.', ';', ',' notation), property paths in
/// predicate position, FILTER (comparisons, unary built-ins, && || !,
/// (NOT) EXISTS), OPTIONAL, UNION, GRAPH, BIND, VALUES, MINUS, SERVICE,
/// subqueries; solution modifiers GROUP BY / HAVING / ORDER BY / LIMIT /
/// OFFSET.
///
/// Variables, IRIs, and literals are interned into `dict`; variables are
/// interned with their '?' prefix so they never collide with IRIs.
///
/// Errors carry a `Code` that maps onto the ingest taxonomy: kLexError
/// for malformed tokens, kParseError for grammar violations,
/// kUnsupported for recognized-but-unsupported syntax, and
/// kResourceExhausted when `limits` are exceeded.
///
/// The engine's hot path keeps one dictionary per worker and Clear()s it
/// between queries, so a warmed-up parse interns without allocating.
Result<Query> ParseSparql(std::string_view input, Interner* dict);
Result<Query> ParseSparql(std::string_view input, Interner* dict,
                          const ParseLimits& limits);

}  // namespace rwdt::sparql

#endif  // RWDT_SPARQL_PARSER_H_
