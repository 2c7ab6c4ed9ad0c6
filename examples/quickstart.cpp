// Quickstart: parse a SPARQL query, run the paper's per-query analyses,
// and execute it over a tiny RDF graph with an explained,
// classifier-dispatched plan.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <cstring>

#include "rwdt.h"

int main(int argc, char** argv) {
  using namespace rwdt;
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", common::BuildInfo::Get().ToString().c_str());
    return 0;
  }
  Interner dict;

  // The paper's Wikidata example: "Locations of archaeological sites".
  const std::string text =
      "SELECT ?label ?coord ?subj WHERE { "
      "  ?subj wdt:P31/wdt:P279* wd:Q839954 . "
      "  ?subj wdt:P625 ?coord . "
      "  ?subj rdfs:label ?label FILTER(lang(?label)=\"en\") }";
  std::printf("query:\n%s\n\n", text.c_str());

  auto parsed = sparql::ParseSparql(text, &dict);
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const sparql::Query& query = parsed.value();

  // --- classify like the log studies do -------------------------------
  std::printf("triple patterns: %zu\n",
              query.pattern->NumTriplePatterns());
  std::printf("features:");
  for (sparql::Feature f : sparql::ExtractFeatures(query)) {
    std::printf(" [%s]", sparql::FeatureName(f).c_str());
  }
  const sparql::OperatorSet ops = sparql::ExtractOperatorSet(query);
  std::printf("\nfragment: %s\n",
              ops.IsCq()      ? "CQ"
              : ops.IsCqF()   ? "CQ+F"
              : ops.IsC2RpqF() ? "C2RPQ+F"
                               : "beyond C2RPQ+F");

  hypergraph::Hypergraph h =
      hypergraph::BuildCanonicalHypergraph(query, true);
  std::printf("canonical hypergraph: %zu vertices, %zu edges; acyclic: %s\n",
              h.num_vertices, h.edges.size(),
              hypergraph::IsAcyclic(h) ? "yes" : "no");
  std::printf("canonical graph shape: %s\n",
              hypergraph::GraphShapeName(
                  hypergraph::ClassifyShape(hypergraph::BuildCanonicalGraph(
                      query, /*include_constants=*/true)))
                  .c_str());

  std::vector<const sparql::PathTriple*> path_triples;
  query.pattern->CollectPathTriples(&path_triples);
  for (const auto* pt : path_triples) {
    std::printf("property path %s : type %s, %s\n",
                pt->path->ToString(dict).c_str(),
                paths::Table8TypeName(paths::ClassifyTable8(*pt->path))
                    .c_str(),
                paths::IsSimpleTransitiveExpression(*pt->path)
                    ? "simple transitive expression"
                    : "not an STE");
  }

  // --- evaluate over a toy graph ---------------------------------------
  graph::TripleStore store;
  auto add = [&](const char* s, const char* p, const char* o) {
    store.Add(dict.Intern(s), dict.Intern(p), dict.Intern(o));
  };
  add("site:giza", "wdt:P31", "class:pyramid_field");
  add("class:pyramid_field", "wdt:P279", "class:arch_site_type");
  add("class:arch_site_type", "wdt:P279", "wd:Q839954");
  add("site:giza", "wdt:P625", "\"29.97N 31.13E\"");
  add("site:giza", "rdfs:label", "\"Giza Necropolis\"@en");
  add("site:troy", "wdt:P31", "wd:Q839954");
  add("site:troy", "wdt:P625", "\"39.95N 26.23E\"");
  add("site:troy", "rdfs:label", "\"Troy\"@en");

  // The executor plans on the same classification verdict the studies
  // (and /v1/classify) compute, and explains which certified fragment
  // picked the plan.
  exec::Executor executor(store, &dict);
  auto plan = executor.MakePlan(query);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\nplan (%s): %s\n", exec::StrategyName(plan.value().strategy),
              plan.value().reason.c_str());
  std::printf("%s\n", plan.value().ToJson().c_str());

  const auto result = executor.Execute(plan.value());
  if (!result.ok()) {
    std::fprintf(stderr, "evaluation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const auto& rows = result.value();
  std::printf("\n%zu solutions:\n", rows.size());
  for (const auto& mu : rows) {
    for (const auto& [var, value] : mu) {
      std::printf("  %s = %s", std::string(dict.Name(var)).c_str(),
                  std::string(dict.Name(value)).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
