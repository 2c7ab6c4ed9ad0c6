#include "replay.h"

#include <fstream>
#include <unordered_map>

#include "common/flat_interner.h"
#include "common/status.h"
#include "core/query_analysis.h"
#include "harness.h"
#include "obs/trace.h"
#include "sparql/parser.h"
#include "tree/xml.h"

namespace perfbench {

namespace {

// ingest::IngestOptions::max_line_bytes default.
constexpr size_t kMaxLineBytes = size_t{1} << 20;

bool IsBlank(const std::string& s) {
  for (const char c : s) {
    if (c != ' ' && c != '\t') return false;
  }
  return true;
}

}  // namespace

WeightedLog ReadWeightedLog(const std::string& path) {
  WeightedLog log;
  std::unordered_map<std::string, size_t> index;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    log.physical_lines++;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (IsBlank(line)) continue;
    log.entries++;
    if (line.size() > kMaxLineBytes) {
      log.oversize_rejects++;
      continue;
    }
    if (!rwdt::tree::IsValidUtf8(line)) {
      log.encoding_rejects++;
      continue;
    }
    auto [it, inserted] = index.try_emplace(line, log.texts.size());
    if (inserted) {
      log.texts.push_back(line);
      log.weights.push_back(0);
    }
    log.weights[it->second]++;
  }
  return log;
}

rwdt::core::SourceStudy ReplayDistinct(const WeightedLog& log,
                                       const std::string& name,
                                       ReplayTimings* timings) {
  using rwdt::ErrorClass;
  rwdt::core::SourceStudy study;
  study.name = name;
  study.total = log.entries;
  study.errors[static_cast<size_t>(ErrorClass::kEncodingError)] +=
      log.encoding_rejects;
  study.errors[static_cast<size_t>(ErrorClass::kResourceExhausted)] +=
      log.oversize_rejects;

  const rwdt::sparql::ParseLimits limits;
  const rwdt::core::LogStudyOptions options;
  rwdt::FlatInterner dict;
  const bool timed = timings != nullptr;
  for (size_t i = 0; i < log.texts.size(); ++i) {
    const uint64_t weight = log.weights[i];
    dict.Clear();
    const uint64_t t0 = timed ? NowNs() : 0;
    auto parsed = rwdt::sparql::ParseSparql(log.texts[i], &dict, limits);
    const uint64_t t1 = timed ? NowNs() : 0;
    if (timed) {
      timings->parse_ns += t1 - t0;
      timings->parse_us.push_back((t1 - t0) / 1e3);
      rwdt::obs::EmitSpan("sparql.ParseSparql", t0, t1 - t0);
    }
    if (!parsed.ok()) {
      study.errors[static_cast<size_t>(
          rwdt::ClassifyStatus(parsed.status()))] += weight;
      if (timed) timings->parse_failures++;
      continue;
    }
    rwdt::core::StageTimings st;
    const rwdt::core::QueryAnalysis a = rwdt::core::AnalyzeQuery(
        parsed.value(), options, timed ? &st : nullptr);
    const uint64_t t2 = timed ? NowNs() : 0;
    study.valid += weight;
    study.unique += 1;
    rwdt::core::AddToAggregates(a, weight, &study.valid_agg);
    rwdt::core::AddToAggregates(a, 1, &study.unique_agg);
    if (timed) {
      const uint64_t t3 = NowNs();
      timings->classify_ns += t2 - t1;
      timings->features_ns += st.feature_ns;
      timings->hypergraph_ns += st.hypergraph_ns;
      timings->paths_ns += st.path_ns;
      timings->aggregate_ns += t3 - t2;
      timings->hypergraph_us.push_back(st.hypergraph_ns / 1e3);
      rwdt::obs::EmitSpan("core.AnalyzeQuery", t1, t2 - t1);
      rwdt::obs::EmitSpan("core.AddToAggregates", t2, t3 - t2);
    }
  }
  return study;
}

void SetReplayMetrics(uint64_t distinct_texts, const ReplayTimings& t,
                      Outcome* out) {
  out->Set("sparql.parse_s", t.parse_ns / 1e9);
  out->Set("sparql.parse_p50_us", Median(t.parse_us));
  out->Set("sparql.parse_p99_us", Quantile(t.parse_us, 0.99));
  out->Set("sparql.parse_fail_ratio",
           distinct_texts == 0 ? 0
                               : static_cast<double>(t.parse_failures) /
                                     static_cast<double>(distinct_texts));
  out->Set("core.classify_s", t.classify_ns / 1e9);
  out->Set("core.features_s", t.features_ns / 1e9);
  out->Set("core.aggregate_s", t.aggregate_ns / 1e9);
  out->Set("hypergraph.analysis_s", t.hypergraph_ns / 1e9);
  out->Set("hypergraph.p99_us", Quantile(t.hypergraph_us, 0.99));
  out->Set("paths.analysis_s", t.paths_ns / 1e9);
}

}  // namespace perfbench
