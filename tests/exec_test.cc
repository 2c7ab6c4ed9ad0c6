// Unit tests for rwdt::exec: per-operator semantics against the
// reference evaluator, the NFA-product path evaluator against
// EvalPathPairs across path shapes and binding shapes, and the planner's
// verdict dispatch (each certified fragment picks its strategy,
// everything else falls back).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "exec/operators.h"
#include "exec/path_automaton.h"
#include "exec/planner.h"
#include "graph/generators.h"
#include "obs/registry.h"
#include "paths/path.h"
#include "sparql/eval.h"
#include "sparql/parser.h"

namespace rwdt::exec {
namespace {

using sparql::Binding;

std::vector<Binding> Sorted(std::vector<Binding> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    store_ = graph::MakeRdfDataset(80, 3, 3, &dict_, rng);
    // Overlay a denser graph on predicates p0..p5 so hand-written
    // queries join non-trivially.
    for (int i = 0; i < 150; ++i) {
      store_.Add(dict_.Intern("ent:" + std::to_string(rng.NextBelow(30))),
                 dict_.Intern("p" + std::to_string(rng.NextBelow(6))),
                 dict_.Intern("ent:" + std::to_string(rng.NextBelow(30))));
    }
  }

  sparql::Query Parse(const std::string& text) {
    auto q = sparql::ParseSparql(text, &dict_);
    EXPECT_TRUE(q.ok()) << text;
    return q.value();
  }

  /// Plans `text`, checks the chosen strategy, and checks the executor
  /// produces the reference evaluator's bag of solutions.
  void ExpectStrategyAndAgreement(const std::string& text,
                                  Strategy want_strategy) {
    Executor exec(store_, &dict_);
    const sparql::Query q = Parse(text);
    auto plan = exec.MakePlan(q);
    ASSERT_TRUE(plan.ok()) << text;
    EXPECT_EQ(StrategyName(plan.value().strategy),
              std::string(StrategyName(want_strategy)))
        << text << "\nreason: " << plan.value().reason;
    if (want_strategy == Strategy::kFallback) {
      EXPECT_EQ(plan.value().root, nullptr) << text;
    } else {
      EXPECT_NE(plan.value().root, nullptr) << text;
    }
    auto got = exec.Execute(plan.value());
    ASSERT_TRUE(got.ok()) << text;
    sparql::Evaluator eval(store_, &dict_);
    auto want = eval.EvalQuery(q);
    ASSERT_TRUE(want.ok()) << text;
    EXPECT_EQ(Sorted(got.value()), Sorted(want.value())) << text;
  }

  std::vector<SymbolId> AllTerms() const {
    std::set<SymbolId> terms;
    for (const auto& t : store_.triples()) {
      terms.insert(t.s);
      terms.insert(t.o);
    }
    return {terms.begin(), terms.end()};
  }

  Interner dict_;
  graph::TripleStore store_;
};

// --- Planner dispatch ------------------------------------------------

TEST_F(ExecTest, AcyclicCqRunsYannakakis) {
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0 ?y . ?y p1 ?z }",
                             Strategy::kYannakakis);
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?a . ?x p1 ?b . ?x p2 ?c }",
      Strategy::kYannakakis);
  // A triple without variables is an empty edge of the join forest: an
  // ear under any partner, joined as a filter on the rest.
  const graph::Triple& t = store_.triples().front();
  const std::string present =
      "SELECT * WHERE { ?x p0 ?y . " + std::string(dict_.Name(t.s)) + " " +
      std::string(dict_.Name(t.p)) + " " + std::string(dict_.Name(t.o)) +
      " . ?y p1 ?z }";
  ExpectStrategyAndAgreement(present, Strategy::kYannakakis);
  auto rows = Executor(store_, &dict_).Run(Parse(present));
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(rows.value().empty()) << present;
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y . ent:0 no_such_predicate ent:1 }",
      Strategy::kYannakakis);
  // No variable at all: the plan's rows have width 0, and a present
  // triple still yields one (empty) solution.
  const std::string ground = "SELECT * WHERE { " +
                             std::string(dict_.Name(t.s)) + " " +
                             std::string(dict_.Name(t.p)) + " " +
                             std::string(dict_.Name(t.o)) + " }";
  ExpectStrategyAndAgreement(ground, Strategy::kYannakakis);
  auto one = Executor(store_, &dict_).Run(Parse(ground));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().size(), 1u) << ground;
}

TEST_F(ExecTest, DisjointConjunctionIsAcyclic) {
  // A cartesian product is (trivially) acyclic; Yannakakis handles it.
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0 ?y . ?z p5 ?w }",
                             Strategy::kYannakakis);
}

TEST_F(ExecTest, TriangleRunsHtwJoinOrder) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y . ?y p1 ?z . ?z p2 ?x }",
      Strategy::kHtwJoinOrder);
}

TEST_F(ExecTest, FilteredCqRunsHtwJoinOrder) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y . ?y p1 ?z . FILTER (?x != ?z) }",
      Strategy::kHtwJoinOrder);
}

TEST_F(ExecTest, TransitivePathRunsNfaProduct) {
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0+ ?y }",
                             Strategy::kNfaPathProduct);
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0* ?y . ?y p1 ?z }",
      Strategy::kNfaPathProduct);
}

TEST_F(ExecTest, WellDesignedOptionalRunsPatternTree) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } }",
      Strategy::kPatternTree);
}

TEST_F(ExecTest, UnionFallsBack) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { { ?x p0 ?y } UNION { ?x p1 ?y } }",
      Strategy::kFallback);
}

TEST_F(ExecTest, RepeatedVariableTriple) {
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0 ?x }",
                             Strategy::kYannakakis);
}

TEST_F(ExecTest, EmptyMatchStillAgrees) {
  // p59 never occurs in the store; every strategy must produce the
  // empty bag, not crash.
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p59 ?y . ?y p0 ?z }",
                             Strategy::kYannakakis);
}

TEST_F(ExecTest, ExistsFilterKeepsItsScope) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y . FILTER EXISTS { ?y p1 ?z } }",
      Strategy::kHtwJoinOrder);
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y . FILTER NOT EXISTS { ?y p1 ?z } }",
      Strategy::kHtwJoinOrder);
}

TEST_F(ExecTest, ModifiersAreSharedWithTheEvaluator) {
  ExpectStrategyAndAgreement(
      "SELECT ?x (COUNT(?y) AS ?c) WHERE { ?x p0 ?y } "
      "GROUP BY ?x ORDER BY ?x LIMIT 5",
      Strategy::kYannakakis);
  // OFFSET/LIMIT without ORDER BY slices an unspecified row order, so it
  // is only compared under a deterministic sort key.
  ExpectStrategyAndAgreement(
      "SELECT DISTINCT ?x WHERE { ?x p0 ?y . ?y p1 ?z } "
      "ORDER BY ?x OFFSET 2 LIMIT 7",
      Strategy::kYannakakis);
}

TEST_F(ExecTest, PlanToJsonNamesStrategyAndFragment) {
  Executor exec(store_, &dict_);
  auto plan = exec.MakePlan(Parse("SELECT * WHERE { ?x p0 ?y . ?y p1 ?z }"));
  ASSERT_TRUE(plan.ok());
  const std::string json = plan.value().ToJson();
  EXPECT_NE(json.find("\"strategy\":\"yannakakis\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"fragment\":\"cq\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"op\":\"yannakakis\""), std::string::npos) << json;

  auto fb = exec.MakePlan(
      Parse("SELECT * WHERE { { ?x p0 ?y } UNION { ?x p1 ?y } }"));
  ASSERT_TRUE(fb.ok());
  const std::string fb_json = fb.value().ToJson();
  EXPECT_NE(fb_json.find("\"strategy\":\"fallback\""), std::string::npos)
      << fb_json;
  EXPECT_NE(fb_json.find("\"plan\":null"), std::string::npos) << fb_json;
}

TEST_F(ExecTest, PlansAreMetered) {
  auto* c = obs::MetricRegistry::Global().GetCounter(
      "rwdt_exec_plans_total",
      "Physical plans produced, by planner strategy.",
      {{"strategy", "yannakakis"}});
  const uint64_t before = c->value();
  Executor exec(store_, &dict_);
  ASSERT_TRUE(
      exec.MakePlan(Parse("SELECT * WHERE { ?x p0 ?y . ?y p1 ?z }")).ok());
  EXPECT_EQ(c->value(), before + 1);
}

TEST_F(ExecTest, ResourceLimitsSurfaceAsErrors) {
  ExecOptions options;
  options.limits.max_steps = 1;
  Executor exec(store_, &dict_);
  Executor tiny(store_, &dict_, options);
  // The fallback path inherits the evaluator's budget...
  auto fb = tiny.Run(
      Parse("SELECT * WHERE { { ?x p0 ?y } UNION { ?x p1 ?y } }"));
  ASSERT_FALSE(fb.ok());
  EXPECT_EQ(fb.status().code(), Code::kResourceExhausted);
  // ...and an unconstrained executor over the same store succeeds.
  ASSERT_TRUE(
      exec.Run(Parse("SELECT * WHERE { { ?x p0 ?y } UNION { ?x p1 ?y } }"))
          .ok());
}

// --- NFA-product path evaluation ------------------------------------

TEST_F(ExecTest, PathNfaMatchesEvalPathPairs) {
  sparql::Evaluator eval(store_, &dict_);
  const std::vector<SymbolId> terms = AllTerms();
  EXPECT_EQ(store_.Terms(), terms);
  // One subject and one object that certainly occur in the store.
  const SymbolId some_s = store_.triples().front().s;
  const SymbolId some_o = store_.triples().front().o;
  for (const std::string text :
       {"p0", "^p0", "p0/p1", "p0|p1", "p0*", "p0+", "p0?", "(p0|p1)+",
        "(^p0)*", "!(p0)", "!(p0|^p1)", "p0/p1*", "^p0/p0", "(p0/p1)+",
        "!(^p2)+"}) {
    auto path = paths::ParsePath(text, &dict_);
    ASSERT_TRUE(path.ok()) << text;
    const PathNfa nfa = CompilePathNfa(*path.value());
    const struct {
      SymbolId s, o;
    } shapes[] = {
        {kInvalidSymbol, kInvalidSymbol},
        {some_s, kInvalidSymbol},
        {kInvalidSymbol, some_o},
        {some_s, some_o},
        {some_s, some_s},
    };
    for (const auto& shape : shapes) {
      // Pair order is unspecified on both sides (the evaluator's base
      // cases return index order); compare as sorted sets.
      auto got = EvalPathNfa(store_, nfa, terms, shape.s, shape.o);
      auto want = eval.EvalPathPairs(*path.value(), shape.s, shape.o);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << text << " s=" << shape.s << " o=" << shape.o;
    }
  }
}

TEST_F(ExecTest, PathNfaZeroLengthCornerFallsBackInOperator) {
  // `p0?` with the object bound to a constant that is not a term of the
  // store: the evaluator's bare-`e?` zero-length rule emits (o, o) even
  // then. AutomatonPathScanOp must reproduce that via its documented
  // fallback, end to end.
  dict_.Intern("c_unseen");
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0? c_unseen }",
                             Strategy::kNfaPathProduct);
}

// --- Operator units --------------------------------------------------

TEST_F(ExecTest, DrainIsRepeatable) {
  // Close-then-Open restarts the stream: Drain twice, same bag.
  Executor exec(store_, &dict_);
  auto plan =
      exec.MakePlan(Parse("SELECT * WHERE { ?x p0 ?y . ?y p1 ?z }"));
  ASSERT_TRUE(plan.ok());
  auto once = plan.value().root->Drain();
  auto twice = plan.value().root->Drain();
  ASSERT_TRUE(once.ok() && twice.ok());
  EXPECT_EQ(Sorted(once.value()), Sorted(twice.value()));
}

TEST_F(ExecTest, MergeRowsPrefersAgreedValues) {
  // Slots 0..2 hold variables 1..3; the rows bind {1, 2} and {2, 3}.
  SlotTable slots;
  for (SymbolId v : {1, 2, 3}) slots.Add(v);
  SymbolId a[] = {10, 20, kInvalidSymbol};
  const SymbolId b[] = {kInvalidSymbol, 20, 30};
  ASSERT_TRUE(CompatibleRows(a, b, 3));
  MergeRowInto(a, b, 3);
  EXPECT_EQ(slots.ToBinding(a), (Binding{{1, 10}, {2, 20}, {3, 30}}));
  const SymbolId c[] = {kInvalidSymbol, 21, kInvalidSymbol};
  EXPECT_FALSE(CompatibleRows(a, c, 3));
}

TEST_F(ExecTest, NestedOptionalStaysExact) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z OPTIONAL "
      "{ ?z p2 ?w } } }",
      Strategy::kPatternTree);
}

TEST_F(ExecTest, OptionalWithPathLeaf) {
  // OPTIONAL whose inner block is a path: planner must still produce the
  // evaluator's bag (nested-loop left join when hash keys are unsafe).
  Executor exec(store_, &dict_);
  const sparql::Query q =
      Parse("SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1+ ?z } }");
  auto got = exec.Run(q);
  ASSERT_TRUE(got.ok());
  sparql::Evaluator eval(store_, &dict_);
  auto want = eval.EvalQuery(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(Sorted(got.value()), Sorted(want.value()));
}

// --- Slot rows -------------------------------------------------------

/// Builds operators straight from a pattern tree, every join a
/// nested-loop join, and UNION and MINUS included (the planner leaves
/// both to the evaluator), so each operator's slot handling is checked
/// on its own.
OperatorPtr DirectOperators(const sparql::Pattern& p,
                            const std::shared_ptr<SlotTable>& slots,
                            const graph::TripleStore& store,
                            const Interner& dict,
                            const sparql::Evaluator& eval) {
  using Op = sparql::Pattern::Op;
  auto child = [&](size_t i) {
    return DirectOperators(*p.children[i], slots, store, dict, eval);
  };
  switch (p.op) {
    case Op::kTriple:
      for (const sparql::Term* t : {&p.triple.s, &p.triple.p, &p.triple.o}) {
        if (t->ActsAsVar()) slots->Add(t->id);
      }
      return std::make_unique<TripleScanOp>(store, dict, slots, p.triple);
    case Op::kAnd: {
      OperatorPtr acc = child(0);
      for (size_t i = 1; i < p.children.size(); ++i) {
        acc = std::make_unique<NestedLoopJoinOp>(std::move(acc), child(i));
      }
      return acc;
    }
    case Op::kOptional:
      return std::make_unique<NestedLoopJoinOp>(child(0), child(1),
                                                /*left_outer=*/true);
    case Op::kMinus:
      return std::make_unique<MinusOp>(child(0), child(1));
    case Op::kFilter:
      return std::make_unique<FilterOp>(child(0), p.filter, eval);
    case Op::kUnion: {
      std::vector<OperatorPtr> children;
      for (size_t i = 0; i < p.children.size(); ++i) {
        children.push_back(child(i));
      }
      return std::make_unique<UnionOp>(slots, std::move(children));
    }
    default:
      ADD_FAILURE() << "no direct operator for this pattern";
      return nullptr;
  }
}

TEST_F(ExecTest, SlotRowCornersMatchTheEvaluator) {
  // Self-loops so that `?x p ?x` scans are not vacuous.
  for (const char* e : {"ent:1", "ent:2", "ent:3"}) {
    store_.Add(dict_.Intern(e), dict_.Intern("p0"), dict_.Intern(e));
  }
  sparql::Evaluator eval(store_, &dict_);
  for (const std::string text : {
           // OPTIONAL leaves ?z unbound; the join on ?z must treat it
           // as compatible with every right row.
           "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } . ?z p2 ?w }",
           // A repeated variable binds one slot twice.
           "SELECT * WHERE { ?x p0 ?x . ?x p1 ?y }",
           // bound() sees an unbound slot as an absent variable.
           "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } "
           "FILTER (!bound(?z)) }",
           // MINUS removes a row only on a shared bound slot: rows with
           // ?z unbound survive every right row.
           "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } "
           "MINUS { ?z p2 ?w } }",
           // Two shared slots: a right row removes a left row only
           // when both agree.
           "SELECT * WHERE { ?x p0 ?y MINUS { ?x p1 ?y } }",
           // Right rows of MINUS with unbound slots: the branch over
           // ?v ?u shares no variable and never removes anything.
           "SELECT * WHERE { ?x p0 ?y MINUS { { ?y p1 ?z } UNION "
           "{ ?v p2 ?u } } }",
           // UNION branches bind different slot sets.
           "SELECT * WHERE { { ?x p0 ?y } UNION { ?y p1 ?z } }",
       }) {
    const sparql::Query q = Parse(text);
    auto slots = std::make_shared<SlotTable>();
    OperatorPtr op = DirectOperators(*q.pattern, slots, store_, dict_, eval);
    ASSERT_NE(op, nullptr) << text;
    auto got = op->Drain();
    ASSERT_TRUE(got.ok()) << text;
    auto want = eval.EvalPattern(*q.pattern);
    ASSERT_TRUE(want.ok()) << text;
    EXPECT_FALSE(want.value().empty()) << text;
    EXPECT_EQ(Sorted(got.value()), Sorted(want.value())) << text;
  }
}

TEST_F(ExecTest, PlannedRepeatedVariablesMatchTheEvaluator) {
  for (const char* e : {"ent:1", "ent:2", "ent:3"}) {
    store_.Add(dict_.Intern(e), dict_.Intern("p0"), dict_.Intern(e));
  }
  // Repeated variables inside Yannakakis and in a cyclic plan's scan.
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0 ?x . ?x p1 ?y }",
                             Strategy::kYannakakis);
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y . ?y p1 ?z . ?z p2 ?x . ?x p0 ?x }",
      Strategy::kHtwJoinOrder);
  // Partially bound rows never reach a planned join: well-designed
  // OPTIONAL keeps every join variable definite, and the other shapes
  // fall back (SlotRowCornersMatchTheEvaluator drives those operators
  // directly).
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } "
      "FILTER (!bound(?z)) }",
      Strategy::kFallback);
}

// --- Explain goldens ---------------------------------------------------

/// The exec_fragments benchmark store at its tiny size, seed 1: random
/// p0..p2 layers of 300 edges over 240 nodes plus p3 chains of 12.
graph::TripleStore FragmentStore(Interner* dict) {
  graph::TripleStore store;
  Rng rng(1);
  constexpr uint64_t kNodes = 240, kEdges = 300;
  auto node = [&](uint64_t i) {
    return dict->Intern("n" + std::to_string(i));
  };
  for (const char* pred : {"p0", "p1", "p2"}) {
    const SymbolId p = dict->Intern(pred);
    for (uint64_t i = 0; i < kEdges; ++i) {
      const SymbolId s = node(rng.NextBelow(kNodes));
      store.Add(s, p, node(rng.NextBelow(kNodes)));
    }
  }
  const SymbolId p3 = dict->Intern("p3");
  for (uint64_t i = 0; i + 1 < kNodes; ++i) {
    if ((i + 1) % 12 == 0) continue;  // chains of 12
    store.Add(node(i), p3, node(i + 1));
  }
  return store;
}

TEST(ExecExplainTest, FragmentPlansMatchGoldens) {
  // Plan::ToJson is the explain output and the serve slow-log's
  // plan_json; the row representation must not leak into it.
  const struct {
    const char* query;
    const char* json;
  } kGoldens[] = {
      {"SELECT * WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d }",
       R"({"strategy":"yannakakis","fragment":"cq","form":"select","htw_le":1,"well_designed":true,"reason":"acyclic conjunctive query: Yannakakis semijoin program","plan":{"op":"yannakakis","relations":["?a p0 ?b","?b p1 ?c","?c p2 ?d"]}})"},
      {"SELECT * WHERE { ?x p0 ?y . ?y p1 ?z . ?z p2 ?x }",
       R"({"strategy":"htw_join_order","fragment":"cq","form":"select","htw_le":2,"well_designed":true,"reason":"CQ+F with certified htw <= 2: decomposition-guided join order","plan":{"op":"hash_join","join_vars":["?x","?z"],"left":{"op":"hash_join","join_vars":["?y"],"left":{"op":"triple_scan","pattern":"?x p0 ?y"},"right":{"op":"triple_scan","pattern":"?y p1 ?z"}},"right":{"op":"triple_scan","pattern":"?z p2 ?x"}}})"},
      {"SELECT * WHERE { ?x p3* ?y . ?y p1 ?z }",
       R"({"strategy":"nfa_path_product","fragment":"c2rpq_f","form":"select","htw_le":0,"well_designed":true,"paths":1,"paths_ste":1,"reason":"C2RPQ+F with simple transitive paths: NFA-product reachability","plan":{"op":"hash_join","join_vars":["?y"],"left":{"op":"path_nfa_scan","pattern":"?x (p3)* ?y","nfa_states":4},"right":{"op":"triple_scan","pattern":"?y p1 ?z"}}})"},
      {"SELECT * WHERE { ?x p0/p3* ?y }",
       R"({"strategy":"nfa_path_product","fragment":"c2rpq_f","form":"select","htw_le":0,"well_designed":true,"paths":1,"paths_ste":1,"reason":"C2RPQ+F with simple transitive paths: NFA-product reachability","plan":{"op":"path_nfa_scan","pattern":"?x p0/(p3)* ?y","nfa_states":8}})"},
      {"SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } }",
       R"({"strategy":"pattern_tree","fragment":"other","form":"select","htw_le":0,"well_designed":true,"reason":"well-designed OPTIONAL: pattern-tree evaluation","plan":{"op":"hash_left_join","join_vars":["?y"],"left":{"op":"triple_scan","pattern":"?x p0 ?y"},"right":{"op":"triple_scan","pattern":"?y p1 ?z"}}})"},
  };
  Interner dict;
  const graph::TripleStore store = FragmentStore(&dict);
  Executor exec(store, &dict);
  sparql::Evaluator eval(store, &dict);
  for (const auto& g : kGoldens) {
    auto q = sparql::ParseSparql(g.query, &dict);
    ASSERT_TRUE(q.ok()) << g.query;
    auto plan = exec.MakePlan(q.value());
    ASSERT_TRUE(plan.ok()) << g.query;
    EXPECT_EQ(plan.value().ToJson(), g.json) << g.query;
    auto got = exec.Execute(plan.value());
    auto want = eval.EvalQuery(q.value());
    ASSERT_TRUE(got.ok() && want.ok()) << g.query;
    EXPECT_EQ(Sorted(got.value()), Sorted(want.value())) << g.query;
  }
}

}  // namespace
}  // namespace rwdt::exec
