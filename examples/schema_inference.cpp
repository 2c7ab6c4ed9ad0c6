// Schema inference end to end (paper Sections 3-4): parse XML documents,
// infer a DTD with the RWR (SORE) algorithm, check determinism and
// fragment membership of the inferred content models, and validate the
// corpus against its own inferred schema.
//
//   $ ./build/examples/schema_inference

#include <cstdio>
#include <cstring>
#include <map>

#include "rwdt.h"

int main(int argc, char** argv) {
  using namespace rwdt;
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", common::BuildInfo::Get().ToString().c_str());
    return 0;
  }
  Interner dict;

  const std::vector<std::string> documents = {
      "<persons>"
      "<person pers_id='1'><name>Aretha</name>"
      "<birthplace><city>Memphis</city><state>Tennessee</state>"
      "<country>US</country></birthplace></person>"
      "</persons>",
      "<persons>"
      "<person pers_id='2'><name>Miles</name>"
      "<birthplace><city>Alton</city><state>Illinois</state>"
      "</birthplace></person>"
      "<person pers_id='3'><name>Nina</name>"
      "<birthplace><city>Tryon</city><state>NC</state>"
      "<country>US</country></birthplace></person>"
      "</persons>",
      "<persons/>",
  };

  // Parse the corpus and collect, per element label, the sample of child
  // words (the input to DTD inference).
  std::vector<tree::Tree> trees;
  std::map<SymbolId, std::vector<std::vector<SymbolId>>> samples;
  SymbolId root_label = kInvalidSymbol;
  for (const auto& text : documents) {
    auto parsed = tree::ParseXml(text, &dict);
    if (!parsed.ok()) {
      std::printf("document rejected: %s\n", parsed.error_message().c_str());
      continue;
    }
    tree::XmlDocument doc = std::move(parsed).value();
    root_label = doc.tree.node(doc.tree.root()).label;
    for (tree::NodeId id : doc.tree.PreOrder()) {
      samples[doc.tree.node(id).label].push_back(doc.tree.ChildLabels(id));
    }
    trees.push_back(std::move(doc.tree));
  }
  std::printf("parsed %zu documents\n\n", trees.size());

  // Infer one SORE per element (the RWR algorithm of Section 4.2.3).
  schema::Dtd dtd;
  dtd.start.insert(root_label);
  for (const auto& [label, words] : samples) {
    const auto result = inference::InferSore(words);
    dtd.rules[label] = result.expression;
    std::printf("%-12s -> %-28s [%s%s%s]\n",
                std::string(dict.Name(label)).c_str(),
                result.expression->ToString(dict).c_str(),
                regex::IsDeterministic(result.expression)
                    ? "deterministic"
                    : "NON-deterministic",
                regex::IsSore(result.expression) ? ", SORE" : "",
                regex::ToChainRegex(result.expression).has_value()
                    ? ", chain"
                    : "");
  }

  std::printf("\ninferred DTD:\n%s\n",
              schema::DtdToString(dtd, dict).c_str());

  // Soundness: every sampled document validates.
  schema::DtdValidator validator(dtd);
  for (size_t i = 0; i < trees.size(); ++i) {
    const auto v = validator.Validate(trees[i]);
    std::printf("document %zu validates: %s\n", i,
                v.valid ? "yes" : v.message.c_str());
  }

  // Streaming validation with bounded memory (Segoufin-Vianu).
  if (auto depth = schema::MaxDocumentDepth(dtd); depth.has_value()) {
    std::printf(
        "\nDTD is non-recursive; max document depth %zu, so streaming\n"
        "validation runs with a constant-size stack.\n",
        *depth);
  }
  return 0;
}
