// Replay (b) of the log workloads: every distinct query text, with its
// multiplicity, through sparql::ParseSparql -> core::AnalyzeQuery ->
// core::AddToAggregates. Run untimed it is the independent reference the
// program's SourceStudy must equal; run traced it times the parse,
// classify and aggregate layers one call at a time.
#ifndef RWDT_PERFBENCH_REPLAY_H_
#define RWDT_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/log_study.h"
#include "harness.h"

namespace perfbench {

/// A log reduced to its distinct texts and their multiplicities, plus
/// the entries rejected before parsing.
struct WeightedLog {
  std::vector<std::string> texts;
  std::vector<uint64_t> weights;
  uint64_t physical_lines = 0;
  uint64_t entries = 0;           // non-blank lines (study.total)
  uint64_t encoding_rejects = 0;  // invalid UTF-8
  uint64_t oversize_rejects = 0;  // longer than the ingest line cap
};

/// Reads `path` with plain std::getline framing (no BlockReader, no
/// LineScanner) and the ingest rules: strip one trailing '\r', skip
/// blank lines, reject over-long lines and invalid UTF-8.
WeightedLog ReadWeightedLog(const std::string& path);

/// Per-layer time of one traced replay, in nanoseconds.
struct ReplayTimings {
  uint64_t parse_ns = 0;
  uint64_t classify_ns = 0;  // whole AnalyzeQuery
  uint64_t features_ns = 0;
  uint64_t hypergraph_ns = 0;
  uint64_t paths_ns = 0;
  uint64_t aggregate_ns = 0;
  uint64_t parse_failures = 0;
  std::vector<double> parse_us;       // one per distinct text
  std::vector<double> hypergraph_us;  // one per parsed text
};

/// The SourceStudy of `log`. `timings` null = untimed reference run;
/// otherwise each call is clocked and recorded as an obs span.
rwdt::core::SourceStudy ReplayDistinct(const WeightedLog& log,
                                       const std::string& name,
                                       ReplayTimings* timings);

/// Sets the sparql, core, hypergraph and paths per-layer metrics of a
/// traced replay of logs with `distinct_texts` texts in all.
void SetReplayMetrics(uint64_t distinct_texts, const ReplayTimings& timings,
                      Outcome* out);

}  // namespace perfbench

#endif  // RWDT_PERFBENCH_REPLAY_H_
