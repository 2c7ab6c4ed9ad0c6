// Unit tests for rwdt::exec: per-operator semantics against the
// reference evaluator, the NFA-product path evaluator against
// EvalPathPairs across path shapes and binding shapes, and the planner's
// verdict dispatch (each certified fragment picks its strategy,
// everything else falls back).

#include <gtest/gtest.h>

#include <algorithm>
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
  const std::string present = "SELECT * WHERE { ?x p0 ?y . " +
                              dict_.Name(t.s) + " " + dict_.Name(t.p) +
                              " " + dict_.Name(t.o) + " . ?y p1 ?z }";
  ExpectStrategyAndAgreement(present, Strategy::kYannakakis);
  auto rows = Executor(store_, &dict_).Run(Parse(present));
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(rows.value().empty()) << present;
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y . ent:0 no_such_predicate ent:1 }",
      Strategy::kYannakakis);
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

TEST_F(ExecTest, MergeBindingsPrefersAgreedValues) {
  Binding a{{1, 10}, {2, 20}};
  Binding b{{2, 20}, {3, 30}};
  const Binding m = MergeBindings(a, b);
  EXPECT_EQ(m, (Binding{{1, 10}, {2, 20}, {3, 30}}));
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

}  // namespace
}  // namespace rwdt::exec
