#include "sparql/parser.h"

#include <algorithm>
#include <cctype>

namespace rwdt::sparql {
namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == ':' || c == '.' || c == '-' || c == '#';
}

/// Characters that turn a predicate expression into a property path.
bool IsPathOperatorChar(char c) {
  return c == '/' || c == '|' || c == '^' || c == '*' || c == '+' ||
         c == '?' || c == '!' || c == '(';
}

class SparqlParser {
 public:
  /// `steps` is the shared step budget, decremented across subquery
  /// parsers so nesting cannot multiply the budget.
  SparqlParser(std::string_view input, Interner* dict,
               const ParseLimits& limits, size_t* steps)
      : input_(input), dict_(dict), limits_(limits), steps_(steps) {}

  Result<Query> Parse() {
    if (input_.size() > limits_.max_query_bytes) {
      return Status::ResourceExhausted(
          "query of " + std::to_string(input_.size()) +
          " bytes exceeds max_query_bytes=" +
          std::to_string(limits_.max_query_bytes));
    }
    Query query;
    if (!SkipHeaders()) return Error("bad PREFIX/BASE header");

    if (LitWord("SELECT")) {
      query.form = QueryForm::kSelect;
      RWDT_RETURN_IF_ERROR(ParseSelectClause(&query));
      LitWord("WHERE");
      RWDT_ASSIGN_OR_RETURN(query.pattern, ParseGroupGraphPattern());
    } else if (LitWord("ASK")) {
      query.form = QueryForm::kAsk;
      LitWord("WHERE");
      RWDT_ASSIGN_OR_RETURN(query.pattern, ParseGroupGraphPattern());
    } else if (LitWord("CONSTRUCT")) {
      query.form = QueryForm::kConstruct;
      RWDT_RETURN_IF_ERROR(ParseConstructTemplate(&query));
      LitWord("WHERE");
      RWDT_ASSIGN_OR_RETURN(query.pattern, ParseGroupGraphPattern());
    } else if (LitWord("DESCRIBE")) {
      query.form = QueryForm::kDescribe;
      // DESCRIBE terms, optional WHERE pattern.
      for (;;) {
        SkipSpace();
        if (pos_ >= input_.size() || Peek() == '{') break;
        const size_t mark = pos_;
        auto t = ParseTerm();
        if (!t.ok()) {
          if (t.status().code() == Code::kResourceExhausted) {
            return t.status();
          }
          pos_ = mark;
          break;
        }
        query.describe_terms.push_back(t.value());
        if (LitWord("WHERE") || Peek() == '{') break;
      }
      if (LitWord("WHERE") || Peek() == '{') {
        RWDT_ASSIGN_OR_RETURN(query.pattern, ParseGroupGraphPattern());
      }
    } else {
      return Error("expected SELECT/ASK/CONSTRUCT/DESCRIBE");
    }

    RWDT_RETURN_IF_ERROR(ParseSolutionModifiers(&query.modifiers));
    SkipSpace();
    if (pos_ != input_.size()) {
      return Error("trailing characters");
    }
    return query;
  }

 private:
  Status Error(const std::string& what) {
    return Status::ParseError(what + " at offset " + std::to_string(pos_));
  }

  /// Token-level breakage (bad characters, unterminated tokens) — a
  /// distinct taxonomy class from grammar-level parse errors.
  Status LexErr(const std::string& what) {
    return Status::LexError(what + " at offset " + std::to_string(pos_));
  }

  /// Consumes one unit of the shared step budget (~one token/AST node).
  Status ConsumeStep() {
    if (*steps_ == 0) {
      return Status::ResourceExhausted(
          "query exceeds max_parser_steps=" +
          std::to_string(limits_.max_parser_steps));
    }
    --*steps_;
    return Status::Ok();
  }

  void SkipSpace() {
    for (;;) {
      while (pos_ < input_.size() &&
             std::isspace(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
      if (pos_ < input_.size() && input_[pos_] == '#') {
        // Line comment.
        while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  char Peek() {
    SkipSpace();
    return pos_ < input_.size() ? input_[pos_] : '\0';
  }

  bool Lit(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Case-insensitive keyword match (not followed by a name character).
  bool LitWord(std::string_view word) {
    SkipSpace();
    if (pos_ + word.size() > input_.size()) return false;
    for (size_t i = 0; i < word.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(input_[pos_ + i])) !=
          std::toupper(static_cast<unsigned char>(word[i]))) {
        return false;
      }
    }
    const size_t after = pos_ + word.size();
    if (after < input_.size() && IsNameChar(input_[after]) &&
        input_[after] != ':') {
      return false;
    }
    pos_ = after;
    return true;
  }

  bool SkipHeaders() {
    for (;;) {
      if (LitWord("PREFIX")) {
        // prefix name ':' '<iri>'
        SkipSpace();
        while (pos_ < input_.size() && input_[pos_] != '<') ++pos_;
        if (!Lit('<')) return false;
        while (pos_ < input_.size() && input_[pos_] != '>') ++pos_;
        if (pos_ >= input_.size()) return false;
        ++pos_;
        continue;
      }
      if (LitWord("BASE")) {
        SkipSpace();
        if (!Lit('<')) return false;
        while (pos_ < input_.size() && input_[pos_] != '>') ++pos_;
        if (pos_ >= input_.size()) return false;
        ++pos_;
        continue;
      }
      return true;
    }
  }

  Status ParseSelectClause(Query* query) {
    if (LitWord("DISTINCT")) query->modifiers.distinct = true;
    if (LitWord("REDUCED")) query->modifiers.reduced = true;
    if (Lit('*')) {
      query->select_star = true;
      return Status::Ok();
    }
    for (;;) {
      SkipSpace();
      const char c = Peek();
      if (c == '?' || c == '$') {
        SelectItem item;
        RWDT_ASSIGN_OR_RETURN(item.var, ParseTerm());
        query->projection.push_back(item);
        continue;
      }
      if (c == '(') {
        ++pos_;
        RWDT_ASSIGN_OR_RETURN(SelectItem item, ParseAggregateItem());
        if (!Lit(')')) return Error("expected ')' in select item");
        query->projection.push_back(item);
        continue;
      }
      break;
    }
    if (query->projection.empty()) {
      return Error("SELECT needs projection or *");
    }
    return Status::Ok();
  }

  Result<SelectItem> ParseAggregateItem() {
    SelectItem item;
    static const std::pair<const char*, Aggregate> kAggs[] = {
        {"COUNT", Aggregate::kCount}, {"SUM", Aggregate::kSum},
        {"AVG", Aggregate::kAvg},     {"MIN", Aggregate::kMin},
        {"MAX", Aggregate::kMax},
    };
    bool found = false;
    for (const auto& [name, agg] : kAggs) {
      if (LitWord(name)) {
        item.aggregate = agg;
        found = true;
        break;
      }
    }
    if (!found) return Error("expected aggregate function");
    if (!Lit('(')) return Error("expected '(' after aggregate");
    LitWord("DISTINCT");
    if (Lit('*')) {
      item.aggregate_arg = Term{};  // COUNT(*)
    } else {
      RWDT_ASSIGN_OR_RETURN(item.aggregate_arg, ParseTerm());
    }
    if (!Lit(')')) return Error("expected ')' after aggregate arg");
    if (!LitWord("AS")) return Error("expected AS");
    RWDT_ASSIGN_OR_RETURN(item.var, ParseTerm());
    return item;
  }

  Status ParseConstructTemplate(Query* query) {
    if (!Lit('{')) return Error("expected '{' after CONSTRUCT");
    while (Peek() != '}') {
      RWDT_ASSIGN_OR_RETURN(Term s, ParseTerm());
      RWDT_ASSIGN_OR_RETURN(Term p, ParseTerm());
      RWDT_ASSIGN_OR_RETURN(Term o, ParseTerm());
      query->construct_template.push_back({s, p, o});
      Lit('.');
      if (Peek() == '\0') return Error("unterminated CONSTRUCT template");
    }
    ++pos_;  // '}'
    return Status::Ok();
  }

  // --- Terms ---------------------------------------------------------

  Result<Term> ParseTerm() {
    RWDT_RETURN_IF_ERROR(ConsumeStep());
    SkipSpace();
    if (pos_ >= input_.size()) return Error("expected term");
    const char c = input_[pos_];
    Term term;
    if (c == '?' || c == '$') {
      ++pos_;
      std::string name = "?";
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_')) {
        name += input_[pos_++];
      }
      if (name.size() == 1) return LexErr("empty variable name");
      term.kind = Term::Kind::kVar;
      term.id = dict_->Intern(name);
      return term;
    }
    if (c == '<') {
      const size_t end = input_.find('>', pos_);
      if (end == std::string_view::npos) return LexErr("unterminated IRI");
      term.kind = Term::Kind::kIri;
      term.id = dict_->Intern(input_.substr(pos_ + 1, end - pos_ - 1));
      pos_ = end + 1;
      return term;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++pos_;
      std::string text;
      while (pos_ < input_.size() && input_[pos_] != quote) {
        if (input_[pos_] == '\\' && pos_ + 1 < input_.size()) ++pos_;
        text += input_[pos_++];
      }
      if (pos_ >= input_.size()) return LexErr("unterminated literal");
      ++pos_;
      // Language tag / datatype.
      if (pos_ < input_.size() && input_[pos_] == '@') {
        ++pos_;
        text += "@";
        while (pos_ < input_.size() &&
               (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
                input_[pos_] == '-')) {
          text += input_[pos_++];
        }
      } else if (input_.substr(pos_, 2) == "^^") {
        pos_ += 2;
        RWDT_ASSIGN_OR_RETURN(const Term type, ParseTerm());
        text += "^^";
        text += dict_->Name(type.id);
      }
      term.kind = Term::Kind::kLiteral;
      term.id = dict_->Intern("\"" + text + "\"");
      return term;
    }
    if (c == '_' && pos_ + 1 < input_.size() && input_[pos_ + 1] == ':') {
      pos_ += 2;
      std::string name = "_:";
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_')) {
        name += input_[pos_++];
      }
      term.kind = Term::Kind::kBlank;
      term.id = dict_->Intern(name);
      return term;
    }
    if (c == '[') {
      ++pos_;
      SkipSpace();
      if (pos_ < input_.size() && input_[pos_] == ']') {
        ++pos_;
        term.kind = Term::Kind::kBlank;
        term.id = dict_->Intern("_:anon" + std::to_string(blank_counter_++));
        return term;
      }
      return Status::Unsupported(
          "non-empty blank node property lists are unsupported at offset " +
          std::to_string(pos_));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
        c == '+') {
      std::string num;
      num += input_[pos_++];
      while (pos_ < input_.size() &&
             (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '.' || input_[pos_] == 'e' ||
              input_[pos_] == 'E')) {
        num += input_[pos_++];
      }
      term.kind = Term::Kind::kLiteral;
      term.id = dict_->Intern("\"" + num + "\"");
      return term;
    }
    if (LitWord("true") || LitWord("false")) {
      term.kind = Term::Kind::kLiteral;
      term.id = dict_->Intern(
          std::string("\"") +
          (input_[pos_ - 1] == 'e' && input_[pos_ - 2] == 'u' ? "true"
                                                              : "false") +
          "\"");
      return term;
    }
    // Prefixed or bare name (IRI). The bare keyword 'a' is rdf:type.
    if (IsNameChar(c)) {
      std::string name;
      while (pos_ < input_.size() && IsNameChar(input_[pos_])) {
        name += input_[pos_++];
      }
      if (name == "a") name = "rdf:type";
      term.kind = Term::Kind::kIri;
      term.id = dict_->Intern(name);
      return term;
    }
    return LexErr(std::string("unexpected character '") + c + "'");
  }

  // --- Patterns ------------------------------------------------------

  Result<PatternPtr> ParseGroupGraphPattern() {
    if (!Lit('{')) return Error("expected '{'");
    std::vector<PatternPtr> conjuncts;
    std::vector<FilterPtr> filters;

    auto current = [&]() -> PatternPtr {
      if (conjuncts.empty()) {
        // Empty pattern: a unit VALUES with one empty row.
        auto unit = std::make_shared<Pattern>();
        unit->op = Pattern::Op::kValues;
        unit->values_rows.push_back({});
        return unit;
      }
      if (conjuncts.size() == 1) return conjuncts[0];
      auto node = std::make_shared<Pattern>();
      node->op = Pattern::Op::kAnd;
      node->children = conjuncts;
      return node;
    };

    while (Peek() != '}') {
      if (Peek() == '\0') return Error("unterminated group pattern");
      RWDT_RETURN_IF_ERROR(ConsumeStep());

      if (LitWord("FILTER")) {
        RWDT_ASSIGN_OR_RETURN(FilterPtr f, ParseConstraint());
        filters.push_back(std::move(f));
        Lit('.');
        continue;
      }
      if (LitWord("OPTIONAL")) {
        RWDT_ASSIGN_OR_RETURN(PatternPtr rhs, ParseGroupGraphPattern());
        auto node = std::make_shared<Pattern>();
        node->op = Pattern::Op::kOptional;
        node->children = {current(), std::move(rhs)};
        conjuncts = {node};
        Lit('.');
        continue;
      }
      if (LitWord("MINUS")) {
        RWDT_ASSIGN_OR_RETURN(PatternPtr rhs, ParseGroupGraphPattern());
        auto node = std::make_shared<Pattern>();
        node->op = Pattern::Op::kMinus;
        node->children = {current(), std::move(rhs)};
        conjuncts = {node};
        Lit('.');
        continue;
      }
      if (LitWord("GRAPH")) {
        RWDT_ASSIGN_OR_RETURN(Term name, ParseTerm());
        RWDT_ASSIGN_OR_RETURN(PatternPtr inner, ParseGroupGraphPattern());
        auto node = std::make_shared<Pattern>();
        node->op = Pattern::Op::kGraph;
        node->graph_name = name;
        node->children = {std::move(inner)};
        conjuncts.push_back(node);
        Lit('.');
        continue;
      }
      if (LitWord("SERVICE")) {
        LitWord("SILENT");
        RWDT_ASSIGN_OR_RETURN(Term name, ParseTerm());
        RWDT_ASSIGN_OR_RETURN(PatternPtr inner, ParseGroupGraphPattern());
        auto node = std::make_shared<Pattern>();
        node->op = Pattern::Op::kService;
        node->graph_name = name;
        node->children = {std::move(inner)};
        conjuncts.push_back(node);
        Lit('.');
        continue;
      }
      if (LitWord("BIND")) {
        if (!Lit('(')) return Error("expected '(' after BIND");
        RWDT_ASSIGN_OR_RETURN(Term src, ParseBindSource());
        if (!LitWord("AS")) return Error("expected AS in BIND");
        RWDT_ASSIGN_OR_RETURN(Term var, ParseTerm());
        if (!Lit(')')) return Error("expected ')' after BIND");
        auto node = std::make_shared<Pattern>();
        node->op = Pattern::Op::kBind;
        node->bind_source = src;
        node->bind_var = var;
        node->children = {current()};
        conjuncts = {node};
        Lit('.');
        continue;
      }
      if (LitWord("VALUES")) {
        RWDT_ASSIGN_OR_RETURN(PatternPtr v, ParseValues());
        conjuncts.push_back(std::move(v));
        Lit('.');
        continue;
      }
      if (Peek() == '{') {
        // Subselect or group-or-union.
        const size_t mark = pos_;
        ++pos_;
        if (LitWord("SELECT")) {
          pos_ = mark;
          RWDT_ASSIGN_OR_RETURN(PatternPtr sub, ParseSubSelect());
          conjuncts.push_back(std::move(sub));
          Lit('.');
          continue;
        }
        pos_ = mark;
        RWDT_ASSIGN_OR_RETURN(PatternPtr acc, ParseGroupGraphPattern());
        while (LitWord("UNION")) {
          RWDT_ASSIGN_OR_RETURN(PatternPtr next, ParseGroupGraphPattern());
          auto node = std::make_shared<Pattern>();
          node->op = Pattern::Op::kUnion;
          node->children = {acc, std::move(next)};
          acc = node;
        }
        conjuncts.push_back(acc);
        Lit('.');
        continue;
      }
      // Triples block entry.
      RWDT_ASSIGN_OR_RETURN(auto triples, ParseTriplesSameSubject());
      for (auto& t : triples) conjuncts.push_back(std::move(t));
      if (!Lit('.')) {
        // A triple block must be followed by '.' or '}' or a keyword.
        SkipSpace();
      }
    }
    ++pos_;  // '}'

    PatternPtr result = current();
    for (const auto& f : filters) {
      auto node = std::make_shared<Pattern>();
      node->op = Pattern::Op::kFilter;
      node->children = {result};
      node->filter = f;
      result = node;
    }
    return result;
  }

  Result<PatternPtr> ParseSubSelect() {
    if (!Lit('{')) return Error("expected '{'");
    // Re-parse a full query from here until the matching '}'.
    // Find the matching close brace.
    size_t depth = 1;
    size_t end = pos_;
    while (end < input_.size() && depth > 0) {
      if (input_[end] == '{') ++depth;
      if (input_[end] == '}') --depth;
      ++end;
    }
    if (depth != 0) return Error("unterminated subquery");
    const std::string_view body = input_.substr(pos_, end - 1 - pos_);
    // The subparser draws from the same step budget, so nesting cannot
    // multiply the resource guard.
    SparqlParser sub(body, dict_, limits_, steps_);
    RWDT_ASSIGN_OR_RETURN(Query q, sub.Parse());
    pos_ = end;
    auto node = std::make_shared<Pattern>();
    node->op = Pattern::Op::kSubquery;
    node->subquery = std::make_shared<Query>(std::move(q));
    return node;
  }

  Result<PatternPtr> ParseValues() {
    auto node = std::make_shared<Pattern>();
    node->op = Pattern::Op::kValues;
    if (Lit('(')) {
      while (Peek() != ')') {
        RWDT_ASSIGN_OR_RETURN(Term v, ParseTerm());
        node->values_vars.push_back(v);
      }
      ++pos_;
      if (!Lit('{')) return Error("expected '{' in VALUES");
      while (Peek() != '}') {
        if (!Lit('(')) return Error("expected '(' in VALUES row");
        std::vector<Term> row;
        while (Peek() != ')') {
          if (LitWord("UNDEF")) {
            row.push_back(Term{});
            continue;
          }
          RWDT_ASSIGN_OR_RETURN(Term v, ParseTerm());
          row.push_back(v);
        }
        ++pos_;
        node->values_rows.push_back(std::move(row));
      }
      ++pos_;
    } else {
      RWDT_ASSIGN_OR_RETURN(Term var, ParseTerm());
      node->values_vars.push_back(var);
      if (!Lit('{')) return Error("expected '{' in VALUES");
      while (Peek() != '}') {
        if (LitWord("UNDEF")) {
          node->values_rows.push_back({Term{}});
          continue;
        }
        RWDT_ASSIGN_OR_RETURN(Term v, ParseTerm());
        node->values_rows.push_back({v});
      }
      ++pos_;
    }
    return node;
  }

  Result<Term> ParseBindSource() {
    // Either a term or a function call whose first term argument we keep.
    SkipSpace();
    const size_t mark = pos_;
    auto t = ParseTerm();
    if (t.ok()) {
      SkipSpace();
      if (pos_ < input_.size() && input_[pos_] == '(') {
        // It was a function name; scan its arguments for a term.
        pos_ = mark;
        return ParseCallFirstArg();
      }
      return t;
    }
    pos_ = mark;
    return ParseCallFirstArg();
  }

  Result<Term> ParseCallFirstArg() {
    // name '(' args ')': return the first variable inside, or a none term.
    while (pos_ < input_.size() && input_[pos_] != '(') ++pos_;
    if (pos_ >= input_.size()) return Error("expected function call");
    size_t depth = 0;
    Term found;
    do {
      if (input_[pos_] == '(') ++depth;
      if (input_[pos_] == ')') --depth;
      if (input_[pos_] == '?' || input_[pos_] == '$') {
        if (found.kind == Term::Kind::kNone) {
          auto v = ParseTerm();
          if (v.ok()) found = v.value();
          continue;
        }
      }
      ++pos_;
    } while (pos_ < input_.size() && depth > 0);
    return found;
  }

  /// Parses "subject predicateObjectList" with ';' and ',' sugar.
  Result<std::vector<PatternPtr>> ParseTriplesSameSubject() {
    RWDT_ASSIGN_OR_RETURN(Term subject, ParseTerm());
    std::vector<PatternPtr> out;
    for (;;) {
      // Verb: variable or property path (a bare IRI is a trivial path).
      RWDT_ASSIGN_OR_RETURN(auto verb, ParseVerb());
      for (;;) {
        RWDT_ASSIGN_OR_RETURN(Term object, ParseTerm());
        auto node = std::make_shared<Pattern>();
        if (verb.first.kind != Term::Kind::kNone) {
          node->op = Pattern::Op::kTriple;
          node->triple = {subject, verb.first, object};
        } else {
          node->op = Pattern::Op::kPath;
          node->path = {subject, verb.second, object};
        }
        out.push_back(std::move(node));
        if (!Lit(',')) break;
      }
      if (!Lit(';')) break;
      SkipSpace();
      if (Peek() == '.' || Peek() == '}') break;  // dangling ';'
    }
    return out;
  }

  /// Returns (term, null) for plain predicates (IRI or variable), or
  /// (none, path) for property paths.
  Result<std::pair<Term, paths::PathPtr>> ParseVerb() {
    SkipSpace();
    const char c = Peek();
    if (c == '?' || c == '$') {
      RWDT_ASSIGN_OR_RETURN(Term v, ParseTerm());
      return std::make_pair(v, paths::PathPtr());
    }
    // Scan ahead to the end of the verb token sequence to decide whether
    // it is a path: collect until whitespace that precedes a term, being
    // careful with parentheses.
    const size_t start = pos_;
    size_t end = pos_;
    size_t depth = 0;
    bool is_path = (c == '^' || c == '!' || c == '(');
    while (end < input_.size()) {
      const char ch = input_[end];
      if (ch == '(') {
        ++depth;
        is_path = true;
      } else if (ch == ')') {
        if (depth == 0) break;
        --depth;
      } else if (ch == '<') {
        const size_t close = input_.find('>', end);
        if (close == std::string_view::npos) break;
        end = close;
      } else if (depth == 0 &&
                 (std::isspace(static_cast<unsigned char>(ch)))) {
        break;
      } else if (IsPathOperatorChar(ch)) {
        is_path = true;
      } else if (!IsNameChar(ch) && ch != '^' && ch != '!') {
        break;
      }
      ++end;
    }
    const std::string_view verb_text = input_.substr(start, end - start);
    if (!is_path) {
      RWDT_ASSIGN_OR_RETURN(Term t, ParseTerm());
      return std::make_pair(t, paths::PathPtr());
    }
    RWDT_ASSIGN_OR_RETURN(paths::PathPtr path,
                          paths::ParsePath(verb_text, dict_));
    pos_ = end;
    // Trivial one-IRI paths degrade to plain triple patterns.
    if (path->op() == paths::PathOp::kIri) {
      Term t;
      t.kind = Term::Kind::kIri;
      t.id = path->iri();
      return std::make_pair(t, paths::PathPtr());
    }
    return std::make_pair(Term{}, path);
  }

  // --- Filter constraints ---------------------------------------------

  Result<FilterPtr> ParseConstraint() { return ParseOrExpr(); }

  Result<FilterPtr> ParseOrExpr() {
    RWDT_ASSIGN_OR_RETURN(FilterPtr first, ParseAndExpr());
    std::vector<FilterPtr> parts = {std::move(first)};
    while (Lit('|')) {
      if (!Lit('|')) return Error("expected '||'");
      RWDT_ASSIGN_OR_RETURN(FilterPtr next, ParseAndExpr());
      parts.push_back(std::move(next));
    }
    if (parts.size() == 1) return parts[0];
    auto node = std::make_shared<FilterExpr>();
    node->kind = FilterExpr::Kind::kOr;
    node->children = std::move(parts);
    return FilterPtr(node);
  }

  Result<FilterPtr> ParseAndExpr() {
    RWDT_ASSIGN_OR_RETURN(FilterPtr first, ParseUnaryExpr());
    std::vector<FilterPtr> parts = {std::move(first)};
    while (Lit('&')) {
      if (!Lit('&')) return Error("expected '&&'");
      RWDT_ASSIGN_OR_RETURN(FilterPtr next, ParseUnaryExpr());
      parts.push_back(std::move(next));
    }
    if (parts.size() == 1) return parts[0];
    auto node = std::make_shared<FilterExpr>();
    node->kind = FilterExpr::Kind::kAnd;
    node->children = std::move(parts);
    return FilterPtr(node);
  }

  Result<FilterPtr> ParseUnaryExpr() {
    RWDT_RETURN_IF_ERROR(ConsumeStep());
    SkipSpace();
    if (Lit('!')) {
      if (Peek() == '=') return Error("unexpected '!='");
      RWDT_ASSIGN_OR_RETURN(FilterPtr inner, ParseUnaryExpr());
      auto node = std::make_shared<FilterExpr>();
      node->kind = FilterExpr::Kind::kNot;
      node->children = {std::move(inner)};
      return FilterPtr(node);
    }
    if (LitWord("NOT")) {
      if (!LitWord("EXISTS")) return Error("expected EXISTS after NOT");
      RWDT_ASSIGN_OR_RETURN(PatternPtr p, ParseGroupGraphPattern());
      auto node = std::make_shared<FilterExpr>();
      node->kind = FilterExpr::Kind::kNotExistsPattern;
      node->pattern = std::move(p);
      return FilterPtr(node);
    }
    if (LitWord("EXISTS")) {
      RWDT_ASSIGN_OR_RETURN(PatternPtr p, ParseGroupGraphPattern());
      auto node = std::make_shared<FilterExpr>();
      node->kind = FilterExpr::Kind::kExistsPattern;
      node->pattern = std::move(p);
      return FilterPtr(node);
    }
    if (Peek() == '(') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(FilterPtr inner, ParseOrExpr());
      if (!Lit(')')) return Error("expected ')'");
      return MaybeComparison(std::move(inner));
    }
    return ParsePrimaryConstraint();
  }

  /// A parenthesized expression may still be the lhs of a comparison in
  /// real queries; treat "(expr) op term" as the inner expression (the
  /// classifications only need variable sets).
  Result<FilterPtr> MaybeComparison(FilterPtr inner) { return inner; }

  Result<FilterPtr> ParsePrimaryConstraint() {
    SkipSpace();
    // Function call or term, optionally compared to another.
    Term first_term;
    std::string function;
    if (Peek() == '?' || Peek() == '$' || Peek() == '"' || Peek() == '<' ||
        std::isdigit(static_cast<unsigned char>(Peek()))) {
      RWDT_ASSIGN_OR_RETURN(first_term, ParseTerm());
    } else {
      // Function name.
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_')) {
        function += input_[pos_++];
      }
      if (function.empty()) return Error("expected filter expression");
      if (!Lit('(')) return Error("expected '(' after " + function);
      // First term argument (if any), then skip to matching ')'.
      size_t depth = 1;
      while (pos_ < input_.size() && depth > 0) {
        const char ch = input_[pos_];
        if (ch == '(') {
          ++depth;
          ++pos_;
        } else if (ch == ')') {
          --depth;
          ++pos_;
        } else if ((ch == '?' || ch == '$') &&
                   first_term.kind == Term::Kind::kNone) {
          RWDT_ASSIGN_OR_RETURN(first_term, ParseTerm());
        } else {
          ++pos_;
        }
      }
    }
    // Comparison operator?
    SkipSpace();
    FilterExpr::CmpOp op;
    bool has_cmp = true;
    if (input_.substr(pos_, 2) == "!=") {
      op = FilterExpr::CmpOp::kNe;
      pos_ += 2;
    } else if (input_.substr(pos_, 2) == "<=") {
      op = FilterExpr::CmpOp::kLe;
      pos_ += 2;
    } else if (input_.substr(pos_, 2) == ">=") {
      op = FilterExpr::CmpOp::kGe;
      pos_ += 2;
    } else if (Peek() == '=') {
      op = FilterExpr::CmpOp::kEq;
      ++pos_;
    } else if (Peek() == '<') {
      op = FilterExpr::CmpOp::kLt;
      ++pos_;
    } else if (Peek() == '>') {
      op = FilterExpr::CmpOp::kGt;
      ++pos_;
    } else {
      has_cmp = false;
    }
    auto node = std::make_shared<FilterExpr>();
    if (!has_cmp) {
      node->kind = FilterExpr::Kind::kUnaryTest;
      node->operand = first_term;
      node->function = function.empty() ? "test" : function;
      return FilterPtr(node);
    }
    // Right-hand side: term or function-wrapped term.
    Term rhs_term;
    SkipSpace();
    if (std::isalpha(static_cast<unsigned char>(Peek())) &&
        input_.substr(pos_).find('(') != std::string_view::npos &&
        Peek() != '?') {
      const size_t mark = pos_;
      auto t = ParseTerm();
      SkipSpace();
      if (t.ok() && pos_ < input_.size() && input_[pos_] == '(') {
        pos_ = mark;
        RWDT_ASSIGN_OR_RETURN(rhs_term, ParseCallFirstArg());
      } else if (t.ok()) {
        rhs_term = t.value();
      } else {
        return t.status();
      }
    } else {
      RWDT_ASSIGN_OR_RETURN(rhs_term, ParseTerm());
    }
    if (!function.empty()) {
      // fn(?x) = literal: model as a unary test on ?x when the rhs is a
      // constant; otherwise a comparison between the two variables.
      if (rhs_term.kind != Term::Kind::kVar) {
        node->kind = FilterExpr::Kind::kUnaryTest;
        node->operand = first_term;
        node->function = function;
        node->argument = rhs_term.id == kInvalidSymbol
                             ? std::string()
                             : std::string(dict_->Name(rhs_term.id));
        return FilterPtr(node);
      }
    }
    node->kind = FilterExpr::Kind::kComparison;
    node->cmp = op;
    node->lhs = first_term;
    node->rhs = rhs_term;
    return FilterPtr(node);
  }

  // --- Solution modifiers ----------------------------------------------

  Status ParseSolutionModifiers(SolutionModifiers* mods) {
    for (;;) {
      if (LitWord("GROUP")) {
        if (!LitWord("BY")) return Error("expected BY after GROUP");
        for (;;) {
          SkipSpace();
          if (Peek() != '?' && Peek() != '$') break;
          RWDT_ASSIGN_OR_RETURN(Term v, ParseTerm());
          mods->group_by.push_back(v);
        }
        continue;
      }
      if (LitWord("HAVING")) {
        RWDT_ASSIGN_OR_RETURN(mods->having, ParseConstraint());
        continue;
      }
      if (LitWord("ORDER")) {
        if (!LitWord("BY")) return Error("expected BY after ORDER");
        for (;;) {
          SkipSpace();
          bool desc = false;
          if (LitWord("DESC")) {
            desc = true;
            if (!Lit('(')) return Error("expected '(' after DESC");
          } else if (LitWord("ASC")) {
            if (!Lit('(')) return Error("expected '(' after ASC");
          } else if (Peek() == '?' || Peek() == '$') {
            RWDT_ASSIGN_OR_RETURN(Term v, ParseTerm());
            mods->order_by.push_back(v);
            mods->order_desc.push_back(false);
            continue;
          } else {
            break;
          }
          RWDT_ASSIGN_OR_RETURN(Term v, ParseTerm());
          if (!Lit(')')) return Error("expected ')'");
          mods->order_by.push_back(v);
          mods->order_desc.push_back(desc);
        }
        continue;
      }
      if (LitWord("LIMIT")) {
        RWDT_ASSIGN_OR_RETURN(mods->limit, ParseNumber());
        continue;
      }
      if (LitWord("OFFSET")) {
        RWDT_ASSIGN_OR_RETURN(mods->offset, ParseNumber());
        continue;
      }
      return Status::Ok();
    }
  }

  Result<uint64_t> ParseNumber() {
    SkipSpace();
    uint64_t n = 0;
    bool any = false;
    while (pos_ < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
      n = n * 10 + static_cast<uint64_t>(input_[pos_] - '0');
      ++pos_;
      any = true;
    }
    if (!any) return Error("expected number");
    return n;
  }

  std::string_view input_;
  Interner* dict_;
  ParseLimits limits_;
  size_t* steps_;  // shared budget, owned by the root ParseSparql call
  size_t pos_ = 0;
  size_t blank_counter_ = 0;
};

}  // namespace

Status ParseLimits::Validate() const {
  if (max_query_bytes == 0) {
    return Status::InvalidArgument("ParseLimits: max_query_bytes must be > 0");
  }
  if (max_parser_steps == 0) {
    return Status::InvalidArgument(
        "ParseLimits: max_parser_steps must be > 0");
  }
  return Status::Ok();
}

Result<Query> ParseSparql(std::string_view input, Interner* dict) {
  return ParseSparql(input, dict, ParseLimits{});
}

Result<Query> ParseSparql(std::string_view input, Interner* dict,
                          const ParseLimits& limits) {
  size_t steps = limits.max_parser_steps;
  return SparqlParser(input, dict, limits, &steps).Parse();
}

}  // namespace rwdt::sparql
