#include "ingest/ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "loggen/corruptor.h"
#include "obs/registry.h"
#include "loggen/log_text.h"
#include "loggen/sparql_gen.h"
#include "sparql/parser.h"
#include "tree/xml.h"

namespace rwdt::ingest {
namespace {

uint64_t ErrorCount(const core::SourceStudy& study, ErrorClass c) {
  return study.errors[static_cast<size_t>(c)];
}

uint64_t TotalErrors(const core::SourceStudy& study) {
  uint64_t n = 0;
  for (const uint64_t e : study.errors) n += e;
  return n;
}

// Golden mapping: each kind of broken line lands in exactly the taxonomy
// class the design doc promises.
TEST(IngestTest, ClassifiesBrokenLinesIntoTaxonomy) {
  std::stringstream in;
  in << "SELECT ?x WHERE { ?x a ?y }\n"            // valid
     << "SELECT ?x WHERE { ?x \"unterminated }\n"  // lex: bad literal
     << "SELECT ?x WHERE {\n"                      // parse: open group
     << "SELECT ?x WHERE { [ a ?y ] }\n"           // unsupported: bnode list
     << "SELECT ?x WHERE { ?x a \xff\xfe }\n"      // encoding: bad UTF-8
     << "SELECT ?x WHERE { ?x a ?y }\n";           // duplicate of line 1

  auto r = IngestStream(in);
  ASSERT_TRUE(r.ok()) << r.error_message();
  const IngestReport& report = r.value();

  EXPECT_EQ(report.lines_read, 6u);
  EXPECT_EQ(report.study.total, 6u);
  EXPECT_EQ(report.study.valid, 2u);
  EXPECT_EQ(report.study.unique, 1u);
  EXPECT_EQ(ErrorCount(report.study, ErrorClass::kLexError), 1u);
  EXPECT_EQ(ErrorCount(report.study, ErrorClass::kParseError), 1u);
  EXPECT_EQ(ErrorCount(report.study, ErrorClass::kUnsupportedFeature), 1u);
  EXPECT_EQ(ErrorCount(report.study, ErrorClass::kEncodingError), 1u);
  EXPECT_EQ(report.study.total, report.study.valid + TotalErrors(report.study));
}

TEST(IngestTest, OversizeLineRejectedAsResourceExhausted) {
  IngestOptions opts;
  opts.max_line_bytes = 32;
  std::stringstream in;
  in << "SELECT ?x WHERE { ?x a ?y }\n"
     << std::string(1000, 'x') << "\n"
     << "SELECT ?x WHERE { ?x a ?y }\n";

  auto r = IngestStream(in, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().study.total, 3u);
  EXPECT_EQ(r.value().study.valid, 2u);
  EXPECT_EQ(ErrorCount(r.value().study, ErrorClass::kResourceExhausted), 1u);
  // The whole stream was consumed even though the long line wasn't kept.
  EXPECT_EQ(r.value().bytes_read, 28u + 1001u + 28u);
}

TEST(IngestTest, ParserStepBudgetRejectsAsResourceExhausted) {
  IngestOptions opts;
  opts.engine.parse_limits.max_parser_steps = 4;
  std::stringstream in;
  in << "ASK { ?x a ?y }\n"  // fits in four steps? no — also rejected
     << "SELECT ?a ?b ?c WHERE { ?a ?b ?c . ?c ?b ?a . ?b ?a ?c }\n";

  auto r = IngestStream(in, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().study.total, 2u);
  // Everything over budget lands in resource_exhausted, nothing aborts.
  EXPECT_EQ(r.value().study.valid +
                ErrorCount(r.value().study, ErrorClass::kResourceExhausted),
            2u);
  EXPECT_GE(ErrorCount(r.value().study, ErrorClass::kResourceExhausted), 1u);
}

TEST(IngestTest, TsvFormatSplitsSourceColumn) {
  IngestOptions opts;
  opts.format = LogFormat::kTsv;
  std::stringstream in;
  in << "alpha\tSELECT ?x WHERE { ?x a ?y }\n"
     << "alpha\tSELECT ?y WHERE { ?y a ?x }\n"
     << "beta\tASK { ?s ?p ?o }\n"
     << "no tab on this line\n";

  auto r = IngestStream(in, opts);
  ASSERT_TRUE(r.ok());
  const IngestReport& report = r.value();
  EXPECT_EQ(report.study.total, 4u);
  EXPECT_EQ(report.study.valid, 3u);
  EXPECT_EQ(ErrorCount(report.study, ErrorClass::kParseError), 1u);
  ASSERT_EQ(report.per_source.size(), 2u);
  EXPECT_EQ(report.per_source.at("alpha"), 2u);
  EXPECT_EQ(report.per_source.at("beta"), 1u);
}

TEST(IngestTest, BlankLinesSkippedWithoutCounting) {
  std::stringstream in;
  in << "\n"
     << "   \t \n"
     << "ASK { ?s ?p ?o }\n"
     << "\n";
  auto r = IngestStream(in);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().lines_read, 4u);
  EXPECT_EQ(r.value().blank_lines, 3u);
  EXPECT_EQ(r.value().study.total, 1u);
  EXPECT_EQ(r.value().study.valid, 1u);
}

TEST(IngestTest, MetricsJsonCarriesErrorCounts) {
  std::stringstream in;
  in << "ASK { ?s ?p ?o }\n"
     << "\xff not utf8\n";
  auto r = IngestStream(in);
  ASSERT_TRUE(r.ok());
  const std::string json = r.value().metrics.ToJson();
  EXPECT_NE(json.find("\"errors\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"encoding_error\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"entries_valid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"entries_rejected\":1"), std::string::npos) << json;
}

TEST(IngestTest, RejectsNonsensicalOptions) {
  IngestOptions zero_chunk;
  zero_chunk.chunk_entries = 0;
  EXPECT_FALSE(zero_chunk.Validate().ok());

  IngestOptions zero_line;
  zero_line.max_line_bytes = 0;
  EXPECT_FALSE(zero_line.Validate().ok());

  IngestOptions bad_engine;
  bad_engine.engine.parse_limits.max_parser_steps = 0;
  EXPECT_FALSE(bad_engine.Validate().ok());

  std::stringstream in;
  in << "ASK { ?s ?p ?o }\n";
  EXPECT_FALSE(IngestStream(in, zero_chunk).ok());
}

TEST(IngestTest, MissingFileIsNotFound) {
  auto r = IngestFile("/nonexistent/query.log");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kNotFound);
}

TEST(CorruptorTest, DeterministicInSeed) {
  loggen::SourceProfile profile = loggen::ExampleProfile(200);
  const auto pristine = loggen::GenerateLog(profile, 5);

  auto a = pristine, b = pristine, c = pristine;
  const auto sa = loggen::CorruptLog(&a, 17);
  const auto sb = loggen::CorruptLog(&b, 17);
  const auto sc = loggen::CorruptLog(&c, 18);
  EXPECT_EQ(sa.corrupted_indices, sb.corrupted_indices);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].text, b[i].text);
  // A different seed picks a different victim set (overwhelmingly likely
  // for 200 entries at the default 20% rate).
  EXPECT_NE(sa.corrupted_indices, sc.corrupted_indices);
}

TEST(CorruptorTest, EnsureInvalidMeansCorruptedNeverParses) {
  loggen::SourceProfile profile = loggen::ExampleProfile(200);
  auto log = loggen::GenerateLog(profile, 5);
  loggen::CorruptionOptions opts;
  opts.rate = 1.0;
  const auto summary = loggen::CorruptLog(&log, 23, opts);
  EXPECT_EQ(summary.corrupted, log.size());
  Interner dict;
  for (const auto& entry : log) {
    EXPECT_FALSE(sparql::ParseSparql(entry.text, &dict).ok())
        << "still parses: " << entry.text;
  }
}

// The tentpole property: corruption at ANY rate never changes what the
// engine reports for the surviving queries. The Valid-subset aggregates
// of a corrupted ingest run are bit-identical to analyzing only the
// uncorrupted entries directly — for every thread count and chunk size.
TEST(IngestTest, CorruptionNeverPerturbsValidSubsetAggregates) {
  loggen::SourceProfile profile = loggen::ExampleProfile(300);
  const auto pristine = loggen::GenerateLog(profile, 11);

  for (const double rate : {0.0, 0.2, 0.5, 1.0}) {
    auto corrupted = pristine;
    loggen::CorruptionOptions copts;
    copts.rate = rate;
    const auto summary = loggen::CorruptLog(&corrupted, 29, copts);

    // Reference: the surviving (untouched) entries through the engine.
    std::vector<loggen::LogEntry> surviving;
    size_t next_corrupt = 0;
    for (size_t i = 0; i < pristine.size(); ++i) {
      if (next_corrupt < summary.corrupted_indices.size() &&
          summary.corrupted_indices[next_corrupt] == i) {
        ++next_corrupt;
        continue;
      }
      surviving.push_back(pristine[i]);
    }
    engine::Engine reference{engine::EngineOptions{}};
    const core::SourceStudy expected =
        reference.AnalyzeEntries("ref", false, surviving);

    const std::string text = [&corrupted] {
      std::stringstream out;
      loggen::WriteLogText(corrupted, out);
      return out.str();
    }();

    core::SourceStudy first;
    bool have_first = false;
    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const size_t chunk : {size_t{1}, size_t{64}, size_t{4096}}) {
        IngestOptions opts;
        opts.source_name = "ref";
        opts.engine.threads = threads;
        opts.chunk_entries = chunk;
        std::stringstream in(text);
        auto r = IngestStream(in, opts);
        ASSERT_TRUE(r.ok()) << r.error_message();
        const core::SourceStudy& got = r.value().study;

        EXPECT_EQ(got.total, pristine.size());
        EXPECT_EQ(got.valid, expected.valid) << "rate " << rate;
        EXPECT_EQ(got.unique, expected.unique) << "rate " << rate;
        EXPECT_TRUE(got.valid_agg == expected.valid_agg) << "rate " << rate;
        EXPECT_TRUE(got.unique_agg == expected.unique_agg)
            << "rate " << rate;
        if (!have_first) {
          first = got;
          have_first = true;
        } else {
          // Full study (including per-class error counts) is identical
          // across every thread count and chunk size.
          EXPECT_TRUE(got == first)
              << "rate " << rate << " threads " << threads << " chunk "
              << chunk;
        }
      }
    }
  }
}

// --- Reader differential tests -----------------------------------------
//
// The block pipeline (BlockReader + SWAR LineScanner + string_view
// chunks) must be observationally identical to a naive splitter that
// follows the documented line semantics: same study, same line/byte
// accounting, same per-source split — for every line-ending dialect and
// every block size, including the degenerate 1-byte blocks that put a
// boundary inside every record, every CRLF pair, and every UTF-8
// sequence.

IngestReport MustIngest(const std::string& text, const IngestOptions& opts) {
  std::stringstream in(text);
  auto r = IngestStream(in, opts);
  EXPECT_TRUE(r.ok()) << r.error_message();
  return std::move(r).value();
}

/// The oracle: splits `text` on '\n' with std::string::find, keeps at
/// most `max_line_bytes` of each line (flagging the rest as overflow),
/// strips one trailing '\r' from the kept bytes, and counts bytes
/// terminator included. Then the blank, TSV and UTF-8 rules, in the
/// documented order, decide which texts a 1-thread stream is fed and
/// which it is told to reject.
IngestReport NaiveIngest(const std::string& text, const IngestOptions& opts) {
  IngestReport report;
  engine::EngineOptions eopts = opts.engine;
  eopts.threads = 1;
  engine::Engine engine(eopts);
  engine::EngineStream stream =
      engine.OpenStream(opts.source_name, opts.wikidata_like);
  std::vector<std::string> fed;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    const bool terminated = end != std::string::npos;
    if (!terminated) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = terminated ? end + 1 : end;
    report.bytes_read += line.size() + (terminated ? 1 : 0);
    report.lines_read++;
    const bool overflow = line.size() > opts.max_line_bytes;
    line.resize(std::min(line.size(), opts.max_line_bytes));
    if (!line.empty() && line.back() == '\r') line.pop_back();

    if (opts.skip_blank_lines &&
        line.find_first_not_of(" \t") == std::string::npos) {
      report.blank_lines++;
      continue;
    }
    if (overflow) {
      stream.Reject(ErrorClass::kResourceExhausted);
      continue;
    }
    std::string query = line;
    if (opts.format == LogFormat::kTsv) {
      const size_t tab = line.find('\t');
      if (tab == std::string::npos) {
        stream.Reject(ErrorClass::kParseError);
        continue;
      }
      report.per_source[line.substr(0, tab)]++;
      query = line.substr(tab + 1);
    }
    if (opts.validate_utf8 && !tree::IsValidUtf8(query)) {
      stream.Reject(ErrorClass::kEncodingError);
      continue;
    }
    fed.push_back(std::move(query));
  }
  const std::vector<std::string_view> views(fed.begin(), fed.end());
  stream.Feed(views);
  report.study = stream.Finish();
  return report;
}

void ExpectSameObservables(const IngestReport& expected,
                           const IngestReport& got,
                           const std::string& context) {
  EXPECT_TRUE(expected.study == got.study) << context;
  EXPECT_EQ(expected.lines_read, got.lines_read) << context;
  EXPECT_EQ(expected.blank_lines, got.blank_lines) << context;
  EXPECT_EQ(expected.bytes_read, got.bytes_read) << context;
  EXPECT_EQ(expected.per_source, got.per_source) << context;
}

TEST(IngestReaderDifferentialTest, BitIdenticalOnCorruptedLogsAllDialects) {
  loggen::SourceProfile profile = loggen::ExampleProfile(150);
  auto log = loggen::GenerateLog(profile, 19);
  loggen::CorruptionOptions copts;
  copts.rate = 0.3;
  loggen::CorruptLog(&log, 31, copts);

  for (const bool tsv : {false, true}) {
    for (const bool crlf : {false, true}) {
      for (const bool final_newline : {false, true}) {
        loggen::LogTextOptions lopts;
        lopts.crlf = crlf;
        lopts.final_newline = final_newline;
        std::stringstream out;
        if (tsv) {
          loggen::WriteLogTsv(log, "src", out, lopts);
        } else {
          loggen::WriteLogText(log, out, lopts);
        }
        const std::string text = out.str();

        IngestOptions opts;
        opts.format = tsv ? LogFormat::kTsv : LogFormat::kPlain;
        opts.engine.threads = 1;
        const IngestReport expected = NaiveIngest(text, opts);

        for (const size_t block_bytes :
             {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64},
              size_t{4096}, size_t{1} << 20}) {
          opts.block_bytes = block_bytes;
          const IngestReport block = MustIngest(text, opts);
          const std::string context =
              "tsv=" + std::to_string(tsv) + " crlf=" + std::to_string(crlf) +
              " final_newline=" + std::to_string(final_newline) +
              " block_bytes=" + std::to_string(block_bytes);
          ExpectSameObservables(expected, block, context);
          EXPECT_FALSE(block.used_mmap) << context;  // istream fallback
          if (block_bytes < 64) {
            // Tiny blocks force records across boundaries: the carry
            // path must actually have run for this sweep to mean much.
            EXPECT_GT(block.carry_stitches, 0u) << context;
          }
        }
      }
    }
  }
}

TEST(IngestReaderDifferentialTest, OverflowSpanningBlocksMatchesOracle) {
  // A 100-byte line against max_line_bytes=16 and block_bytes=32: the
  // overflow is detected mid-carry and the tail still has to be drained
  // with exact byte accounting.
  std::string text = "ASK { ?s ?p ?o }\n";
  text += std::string(100, 'x') + "\n";
  text += "ASK { ?s ?p ?o }\n";

  IngestOptions opts;
  opts.engine.threads = 1;
  opts.max_line_bytes = 16;
  const IngestReport expected = NaiveIngest(text, opts);
  EXPECT_EQ(ErrorCount(expected.study, ErrorClass::kResourceExhausted), 1u);

  for (const size_t block_bytes : {size_t{1}, size_t{16}, size_t{32}}) {
    opts.block_bytes = block_bytes;
    const IngestReport block = MustIngest(text, opts);
    ExpectSameObservables(expected, block,
                          "block_bytes=" + std::to_string(block_bytes));
  }
}

TEST(IngestReaderDifferentialTest, Utf8AndCrSplitAcrossBlockEdges) {
  // Multibyte UTF-8 ("Ü" = 0xC3 0x9C) inside a literal and a CRLF pair:
  // 1..8-byte blocks place a boundary inside both. The query must stay
  // valid and '\r' stripping must not eat real bytes.
  const std::string query = "SELECT ?x WHERE { ?x a \"\xc3\x9c\" }";
  const std::string text = query + "\r\n" + query + "\r\n";

  IngestOptions opts;
  opts.engine.threads = 1;
  const IngestReport expected = NaiveIngest(text, opts);
  EXPECT_EQ(expected.study.valid, 2u);
  EXPECT_EQ(expected.study.unique, 1u);

  for (size_t block_bytes = 1; block_bytes <= 8; ++block_bytes) {
    opts.block_bytes = block_bytes;
    const IngestReport block = MustIngest(text, opts);
    ExpectSameObservables(expected, block,
                          "block_bytes=" + std::to_string(block_bytes));
  }
}

TEST(IngestReaderDifferentialTest, EmbeddedNulsPassThroughIdentically) {
  std::string text = "ASK { ?s ?p ?o }\n";
  text += std::string("bad\0query", 9) + "\n";
  text += std::string("\0", 1) + "\n";

  for (const size_t block_bytes : {size_t{1}, size_t{4096}}) {
    IngestOptions opts;
    opts.engine.threads = 1;
    const IngestReport expected = NaiveIngest(text, opts);
    opts.block_bytes = block_bytes;
    const IngestReport block = MustIngest(text, opts);
    ExpectSameObservables(expected, block,
                          "block_bytes=" + std::to_string(block_bytes));
    // NUL-bearing lines are real records, not terminators.
    EXPECT_EQ(block.lines_read, 3u);
  }
}

TEST(IngestReaderDifferentialTest, EmptyAndNewlinelessInputs) {
  for (const std::string& text :
       {std::string{}, std::string{"ASK { ?s ?p ?o }"},  // no final '\n'
        std::string{"\n"}, std::string{"\r\n"}}) {
    IngestOptions opts;
    opts.engine.threads = 1;
    const IngestReport expected = NaiveIngest(text, opts);
    opts.block_bytes = 4;
    const IngestReport block = MustIngest(text, opts);
    ExpectSameObservables(expected, block, "text=" + text);
  }
}

TEST(IngestReaderDifferentialTest, FileIngestUsesMmapAndMatchesOracle) {
  loggen::SourceProfile profile = loggen::ExampleProfile(120);
  auto log = loggen::GenerateLog(profile, 23);
  loggen::CorruptionOptions copts;
  copts.rate = 0.25;
  loggen::CorruptLog(&log, 37, copts);

  std::stringstream text;
  loggen::WriteLogText(log, text);
  const std::string path =
      ::testing::TempDir() + "/rwdt_ingest_differential.log";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << text.str();
  }

  IngestOptions opts;
  opts.engine.threads = 1;
  auto block = IngestFile(path, opts);
  ASSERT_TRUE(block.ok()) << block.error_message();
  std::remove(path.c_str());

  ExpectSameObservables(NaiveIngest(text.str(), opts), block.value(),
                        "file ingest");
  // Regular file => the mapped zero-copy path, in one 1 MiB block.
  EXPECT_TRUE(block.value().used_mmap);
  EXPECT_EQ(block.value().blocks_read, 1u);
  EXPECT_EQ(block.value().carry_stitches, 0u);
}

TEST(IngestTest, BlockReaderCountersReachMetricRegistry) {
  // The PR 5 registry carries the block pipeline's provenance series:
  // blocks by acquisition mode, carry stitches, and runs.
  std::stringstream in;
  in << "ASK { ?s ?p ?o }\nASK { ?s ?p ?o }\n";
  IngestOptions opts;
  opts.engine.threads = 1;
  opts.block_bytes = 4;  // forces carry stitches
  auto r = IngestStream(in, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().carry_stitches, 0u);

  const std::string om = obs::MetricRegistry::Global().RenderOpenMetrics();
  EXPECT_NE(om.find("rwdt_ingest_blocks_total{io=\"read\"}"),
            std::string::npos)
      << om;
  EXPECT_NE(om.find("rwdt_ingest_carry_stitches_total"), std::string::npos);
  EXPECT_NE(om.find("rwdt_ingest_runs_total"), std::string::npos);
}

TEST(IngestTest, ReportJsonCarriesReaderProvenance) {
  std::stringstream in;
  in << "ASK { ?s ?p ?o }\n";
  IngestOptions opts;
  opts.engine.threads = 1;
  auto r = IngestStream(in, opts);
  ASSERT_TRUE(r.ok());
  const std::string json = r.value().ToJson();
  EXPECT_NE(json.find("\"used_mmap\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"blocks_read\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"carry_stitches\":"), std::string::npos) << json;
}

}  // namespace
}  // namespace rwdt::ingest
