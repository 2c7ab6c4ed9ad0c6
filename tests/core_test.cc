#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "core/log_study.h"
#include "core/query_analysis.h"
#include "core/studies.h"
#include "graph/generators.h"
#include "hypergraph/hypergraph.h"
#include "sparql/parser.h"

namespace rwdt::core {
namespace {

TEST(LogStudyTest, BasicInvariants) {
  loggen::SourceProfile p = loggen::ExampleProfile(1500);
  const SourceStudy study = AnalyzeLog(p, 101);
  EXPECT_EQ(study.total, 1500u);
  EXPECT_LE(study.valid, study.total);
  EXPECT_LE(study.unique, study.valid);
  EXPECT_GT(study.unique, 0u);
  // Valid aggregate counts every valid query once.
  EXPECT_EQ(study.valid_agg.queries, study.valid);
  EXPECT_EQ(study.unique_agg.queries, study.unique);
  // Histogram sums to the Select/Ask/Construct count.
  uint64_t hist = 0;
  for (uint64_t h : study.valid_agg.triple_histogram) hist += h;
  EXPECT_EQ(hist, study.valid_agg.select_ask_construct);
}

TEST(LogStudyTest, FragmentContainments) {
  loggen::SourceProfile p = loggen::ExampleProfile(1500);
  const SourceStudy s = AnalyzeLog(p, 55);
  const LogAggregates& a = s.valid_agg;
  // CQ subseteq CQ+F subseteq C2RPQ+F.
  EXPECT_LE(a.cq, a.cq_f);
  EXPECT_LE(a.cq_f, a.c2rpq_f);
  // Operator-set rows sum into the fragment subtotals.
  EXPECT_EQ(a.cq, a.ops_none + a.ops_and);
  EXPECT_EQ(a.cq_f,
            a.ops_none + a.ops_and + a.ops_filter + a.ops_and_filter);
  // Well-designed subseteq AFO-only.
  EXPECT_LE(a.well_designed, a.afo_only);
  // Most AFO queries are well-designed (paper: ~98%).
  if (a.afo_only > 100) {
    EXPECT_GT(10 * a.well_designed, 9 * a.afo_only);
  }
  // Cumulative hypergraph classes.
  EXPECT_LE(a.cq_fca, a.cq_htw1);
  EXPECT_LE(a.cq_htw1, a.cq_htw2);
  EXPECT_LE(a.cq_htw2, a.cq_htw3);
  EXPECT_LE(a.cqf_htw2, a.cqf_htw3);
  EXPECT_LE(a.cq_htw3, a.cq);
  EXPECT_LE(a.cqf_htw3, a.cq_f);
}

TEST(LogStudyTest, ShapesDominatedBySimpleOnes) {
  loggen::SourceProfile p = loggen::ExampleProfile(2000);
  const SourceStudy s = AnalyzeLog(p, 77);
  const LogAggregates& a = s.valid_agg;
  ASSERT_GT(a.graph_cqf, 100u);
  uint64_t simple = 0, total = 0;
  for (const auto& [shape, count] : a.shapes_with_constants) {
    total += count;
    if (shape <= hypergraph::GraphShape::kStar) simple += count;
  }
  EXPECT_EQ(total, a.graph_cqf);
  // Chains and stars dominate (Table 7: ~98-99%).
  EXPECT_GT(simple * 100, total * 85);
}

TEST(LogStudyTest, WikidataProfileShowsPaths) {
  auto profiles = loggen::Table2Profiles(/*scale=*/500000);
  const loggen::SourceProfile* wiki = nullptr;
  for (const auto& p : profiles) {
    if (p.name == "WikiRobot/OK") wiki = &p;
  }
  ASSERT_NE(wiki, nullptr);
  loggen::SourceProfile scaled = *wiki;
  scaled.total_queries = 2500;
  const SourceStudy s = AnalyzeLog(scaled, 31);
  const LogAggregates& a = s.valid_agg;
  // Property paths prominent (paper: 24% of Wikidata queries).
  const uint64_t with_paths =
      a.feature_counts.count(sparql::Feature::kPropertyPaths) > 0
          ? a.feature_counts.at(sparql::Feature::kPropertyPaths)
          : 0;
  EXPECT_GT(with_paths * 100, a.select_ask_construct * 10);
  // a* dominates the type distribution (Table 8: 50%).
  ASSERT_GT(a.property_paths, 50u);
  const uint64_t astar =
      a.path_types.count(paths::Table8Type::kAStar) > 0
          ? a.path_types.at(paths::Table8Type::kAStar)
          : 0;
  EXPECT_GT(astar * 100, a.property_paths * 30);
  // Nearly all paths are simple transitive expressions (>98%).
  EXPECT_GT(a.path_ste * 100, a.property_paths * 95);
}

TEST(LogStudyTest, MergeAddsUp) {
  loggen::SourceProfile p = loggen::ExampleProfile(500);
  SourceStudy a = AnalyzeLog(p, 1);
  SourceStudy b = AnalyzeLog(p, 2);
  SourceStudy merged = a;
  MergeSource(b, &merged);
  EXPECT_EQ(merged.total, a.total + b.total);
  EXPECT_EQ(merged.valid_agg.queries,
            a.valid_agg.queries + b.valid_agg.queries);
  EXPECT_EQ(merged.valid_agg.cq_f, a.valid_agg.cq_f + b.valid_agg.cq_f);
}

// The classifier's acyclicity and free-connex verdicts against the
// independent width search (ghw <= 1 iff acyclic), over a generated log.
TEST(QueryAnalysisTest, VerdictsMatchWidthSearchOracle) {
  std::vector<std::string> corpus;
  for (const auto& entry :
       loggen::GenerateLog(loggen::ExampleProfile(3000), /*seed=*/23)) {
    corpus.push_back(entry.text);
  }
  // The generator projects prefixes of its chains and stars, which stay
  // free-connex; these acyclic queries drop an inner variable and do not.
  corpus.push_back("SELECT ?x ?z WHERE { ?x p ?y . ?y q ?z }");
  corpus.push_back(
      "SELECT ?a ?c WHERE { ?a p ?b . ?b q ?c . FILTER(?b != c0) }");

  const LogStudyOptions options;
  Interner dict;
  size_t checked = 0, cq = 0, acyclic = 0, fca = 0;
  for (const std::string& text : corpus) {
    auto parsed = sparql::ParseSparql(text, &dict);
    if (!parsed.ok()) continue;
    const sparql::Query& q = parsed.value();
    const QueryAnalysis a = AnalyzeQuery(q, options);
    if (!a.ops.IsCqF() || q.pattern == nullptr ||
        a.triples > options.max_triples_for_htw) {
      continue;
    }
    std::vector<SymbolId> var_of_vertex;
    const hypergraph::Hypergraph h = hypergraph::BuildCanonicalHypergraph(
        q, /*include_filters=*/true, &var_of_vertex);
    std::set<SymbolId> projected;
    for (const auto& item : q.projection) {
      if (item.var.ActsAsVar()) projected.insert(item.var.id);
    }
    std::vector<uint32_t> free;
    for (uint32_t v = 0; v < var_of_vertex.size(); ++v) {
      if (q.select_star || projected.count(var_of_vertex[v]) > 0) {
        free.push_back(v);
      }
    }
    hypergraph::Hypergraph extended = h;
    extended.AddEdge(free);
    const auto htw1 = hypergraph::HypertreeWidthAtMost(h, 1);
    const auto extended_htw1 = hypergraph::HypertreeWidthAtMost(extended, 1);
    ASSERT_TRUE(htw1.has_value() && extended_htw1.has_value()) << text;
    EXPECT_EQ(a.cqf_htw1, *htw1) << text;
    EXPECT_EQ(a.cqf_fca, *htw1 && *extended_htw1) << text;
    if (a.ops.IsCq()) {
      const auto triple_htw1 = hypergraph::HypertreeWidthAtMost(
          hypergraph::BuildCanonicalHypergraph(q, /*include_filters=*/false),
          1);
      ASSERT_TRUE(triple_htw1.has_value()) << text;
      EXPECT_EQ(a.cq_htw1, *triple_htw1) << text;
      EXPECT_EQ(a.cq_fca, a.cqf_fca) << text;
      EXPECT_EQ(a.cq_htw1, a.cqf_htw1) << text;
      EXPECT_EQ(a.cq_htw2, a.cqf_htw2) << text;
      EXPECT_EQ(a.cq_htw3, a.cqf_htw3) << text;
      cq++;
    }
    checked++;
    acyclic += a.cqf_htw1;
    fca += a.cqf_fca;
  }
  // The corpus must exercise every branch of the oracle.
  EXPECT_GT(cq, 0u);
  EXPECT_GT(checked, cq);
  EXPECT_GT(acyclic, fca);
  EXPECT_GT(fca, 0u);
  EXPECT_GT(checked, acyclic);
}

TEST(DtdStudyTest, MatchesGeneratorKnobs) {
  Interner dict;
  loggen::DtdCorpusOptions options;
  options.num_dtds = 103;  // the Bex et al. corpus size
  auto corpus = loggen::GenerateDtdCorpus(options, &dict, 13);
  const DtdStudyResult r = RunDtdStudy(corpus, dict);
  EXPECT_EQ(r.num_dtds, 103u);
  EXPECT_GT(r.num_expressions, 500u);
  // >92% chain, >99% SORE, few nondeterministic (paper Sections 4.2.2-3).
  EXPECT_GT(r.chain_expressions * 100, r.num_expressions * 85);
  EXPECT_GT(r.sores * 100, r.num_expressions * 94);
  EXPECT_GT(r.deterministic * 100, r.num_expressions * 90);
  EXPECT_LE(r.sores, r.kore2);
  EXPECT_GE(r.max_parse_depth, 2u);
  EXPECT_LE(r.max_parse_depth, 9u);
}

TEST(XmlQualityStudyTest, TopCategoriesDominate) {
  Interner dict;
  loggen::XmlCorpusOptions options;
  options.num_documents = 800;
  auto corpus = loggen::GenerateXmlCorpus(options, &dict, 21);
  const XmlQualityResult r = RunXmlQualityStudy(corpus);
  EXPECT_EQ(r.documents, 800u);
  // ~85% well-formed (the study's headline number).
  EXPECT_GT(r.well_formed * 100, r.documents * 75);
  EXPECT_LT(r.well_formed, r.documents);
  // The top three categories cover most errors (paper: 79.9%).
  uint64_t errors = 0;
  for (const auto& [cat, count] : r.error_histogram) {
    (void)cat;
    errors += count;
  }
  const uint64_t top3 =
      r.error_histogram.count(tree::XmlErrorCategory::kTagMismatch)
          ? r.error_histogram.at(tree::XmlErrorCategory::kTagMismatch)
          : 0;
  EXPECT_GT(errors, 0u);
  EXPECT_GT(top3 * 10, errors * 2);  // tag mismatch alone > 20%
}

TEST(XPathStudyTest, FragmentsNestProperly) {
  Interner dict;
  loggen::XPathCorpusOptions options;
  options.num_queries = 1000;
  auto corpus = loggen::GenerateXPathCorpus(options, 29);
  const XPathStudyResult r = RunXPathStudy(corpus, &dict);
  EXPECT_EQ(r.parsed, r.queries);
  // Tree patterns are positive and downward by definition.
  EXPECT_LE(r.tree_patterns, r.downward);
  EXPECT_LE(r.tree_patterns, r.positive);
  EXPECT_GT(r.downward, r.queries / 2);
  // child is the most used axis (Baelde: 31.1% of axis uses).
  auto count_of = [&](const std::string& axis) -> uint64_t {
    auto it = r.axis_counts.find(axis);
    return it == r.axis_counts.end() ? 0 : it->second;
  };
  EXPECT_GT(count_of("child"), count_of("parent"));
}

TEST(TreewidthStudyTest, BoundsOrdered) {
  Rng rng(3);
  graph::SimpleGraph road = graph::MakeRoadNetwork(20, 8, 0.1, 0.05, rng);
  const TreewidthRow row = MeasureTreewidth("road", road, true);
  EXPECT_EQ(row.nodes, 160u);
  EXPECT_LE(row.lower, row.upper);
  EXPECT_GT(row.upper, 0u);
}

}  // namespace
}  // namespace rwdt::core
