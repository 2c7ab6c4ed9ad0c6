#include "engine/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <utility>

#include "common/json.h"
#include "common/table.h"
#include "obs/openmetrics.h"

namespace rwdt::engine {
namespace {

using obs::FamilySnapshot;
using obs::Labels;
using obs::MetricType;

/// Geometric midpoint of bucket b (values in [2^(b-1), 2^b)).
uint64_t BucketMid(size_t b) {
  if (b == 0) return 0;
  const double lo = static_cast<double>(uint64_t{1} << (b - 1));
  return static_cast<uint64_t>(lo * 1.41421356237);
}

/// Value at quantile q in [0,1] of a bucketed histogram with n samples.
uint64_t Quantile(const std::array<uint64_t, 64>& buckets, uint64_t n,
                  double q) {
  if (n == 0) return 0;
  const uint64_t rank = static_cast<uint64_t>(q * (n - 1));
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen > rank) return BucketMid(b);
  }
  return BucketMid(buckets.size() - 1);
}

std::string NsHuman(double ns) {
  char buf[32];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  }
  return buf;
}

void AppendJsonField(std::string* out, const char* key, double v,
                     bool trailing_comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, v);
  *out += buf;
  if (trailing_comma) *out += ',';
}

FamilySnapshot CounterFamily(const char* name, const char* help,
                             const Labels& labels, double value) {
  FamilySnapshot f;
  f.name = name;
  f.help = help;
  f.type = MetricType::kCounter;
  f.samples.push_back({"_total", labels, value});
  return f;
}

FamilySnapshot GaugeFamily(const char* name, const char* help,
                           const Labels& labels, double value) {
  FamilySnapshot f;
  f.name = name;
  f.help = help;
  f.type = MetricType::kGauge;
  f.samples.push_back({"", labels, value});
  return f;
}

Labels WithLabel(const Labels& labels, const char* key, const char* value) {
  Labels out = labels;
  out.emplace_back(key, value);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

const char* StageName(Stage s) {
  switch (s) {
    case Stage::kGenerate:
      return "generate";
    case Stage::kParse:
      return "parse";
    case Stage::kFeatures:
      return "features";
    case Stage::kHypergraph:
      return "hypergraph";
    case Stage::kPaths:
      return "paths";
    case Stage::kAggregate:
      return "aggregate";
  }
  return "?";
}

void LocalMetrics::Record(Stage stage, uint64_t ns) {
  const size_t s = static_cast<size_t>(stage);
  const size_t b = std::bit_width(ns);  // 0 -> bucket 0, else floor(log2)+1
  histogram[s][b < kLatencyBuckets ? b : kLatencyBuckets - 1]++;
  stage_total_ns[s] += ns;
  if (ns > stage_max_ns[s]) stage_max_ns[s] = ns;
}

void LocalMetrics::Add(const LocalMetrics& other) {
  entries += other.entries;
  analyzed += other.analyzed;
  parse_failures += other.parse_failures;
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  wall_ns += other.wall_ns;
  for (size_t c = 0; c < kNumErrorClasses; ++c) errors[c] += other.errors[c];
  for (size_t s = 0; s < kNumStages; ++s) {
    stage_total_ns[s] += other.stage_total_ns[s];
    stage_max_ns[s] = std::max(stage_max_ns[s], other.stage_max_ns[s]);
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      histogram[s][b] += other.histogram[s][b];
    }
  }
}

MetricsSnapshot Summarize(const LocalMetrics& totals) {
  MetricsSnapshot snap;
  snap.entries_processed = totals.entries;
  snap.queries_analyzed = totals.analyzed;
  snap.parse_failures = totals.parse_failures;
  snap.errors = totals.errors;
  snap.cache_hits = totals.hits;
  snap.cache_misses = totals.misses;
  snap.cache_evictions = totals.evictions;
  snap.wall_ns = totals.wall_ns;
  for (size_t s = 0; s < kNumStages; ++s) {
    const auto& buckets = totals.histogram[s];
    uint64_t count = 0;
    for (const uint64_t n : buckets) count += n;
    StageStats& st = snap.stages[s];
    st.count = count;
    st.total_ns = totals.stage_total_ns[s];
    st.mean_ns = count == 0 ? 0.0 : static_cast<double>(st.total_ns) / count;
    st.p50_ns = Quantile(buckets, count, 0.50);
    st.p90_ns = Quantile(buckets, count, 0.90);
    st.p99_ns = Quantile(buckets, count, 0.99);
    st.max_ns = totals.stage_max_ns[s];
    st.buckets = buckets;
  }
  return snap;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "engine metrics: %s entries, %s analyzed, %s parse errors, "
                "%u thread(s)\n",
                WithThousands(entries_processed).c_str(),
                WithThousands(queries_analyzed).c_str(),
                WithThousands(parse_failures).c_str(), threads);
  out += line;
  std::snprintf(line, sizeof(line),
                "  throughput: %.0f queries/sec over %s wall\n",
                QueriesPerSec(), NsHuman(static_cast<double>(wall_ns)).c_str());
  out += line;
  std::snprintf(line, sizeof(line),
                "  cache: %.1f%% hit rate (%s hits / %s misses), "
                "%s resident, %s evicted\n",
                100.0 * CacheHitRate(), WithThousands(cache_hits).c_str(),
                WithThousands(cache_misses).c_str(),
                WithThousands(cache_size).c_str(),
                WithThousands(cache_evictions).c_str());
  out += line;
  if (TotalErrors() > 0) {
    // Total vs Valid, the paper's Table 2 shape: every rejected entry is
    // attributed to exactly one taxonomy class.
    std::snprintf(line, sizeof(line),
                  "  rejected: %s of %s entries (%s valid) by class:\n",
                  WithThousands(TotalErrors()).c_str(),
                  WithThousands(entries_processed).c_str(),
                  WithThousands(entries_processed - TotalErrors()).c_str());
    out += line;
    for (size_t c = 0; c < kNumErrorClasses; ++c) {
      if (errors[c] == 0) continue;
      std::snprintf(line, sizeof(line), "    %-20s %s\n",
                    ErrorClassName(static_cast<ErrorClass>(c)),
                    WithThousands(errors[c]).c_str());
      out += line;
    }
  }

  AsciiTable table(
      {"Stage", "Count", "Total", "Mean", "p50", "p90", "p99", "Max"});
  for (size_t s = 0; s < kNumStages; ++s) {
    const StageStats& st = stages[s];
    if (st.count == 0) continue;
    table.AddRow({StageName(static_cast<Stage>(s)), WithThousands(st.count),
                  NsHuman(static_cast<double>(st.total_ns)),
                  NsHuman(st.mean_ns),
                  NsHuman(static_cast<double>(st.p50_ns)),
                  NsHuman(static_cast<double>(st.p90_ns)),
                  NsHuman(static_cast<double>(st.p99_ns)),
                  NsHuman(static_cast<double>(st.max_ns))});
  }
  out += table.Render();
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  AppendJsonField(&out, "entries_processed",
                  static_cast<double>(entries_processed));
  AppendJsonField(&out, "queries_analyzed",
                  static_cast<double>(queries_analyzed));
  AppendJsonField(&out, "parse_failures", static_cast<double>(parse_failures));
  AppendJsonField(&out, "cache_hits", static_cast<double>(cache_hits));
  AppendJsonField(&out, "cache_misses", static_cast<double>(cache_misses));
  AppendJsonField(&out, "cache_evictions",
                  static_cast<double>(cache_evictions));
  AppendJsonField(&out, "cache_size", static_cast<double>(cache_size));
  AppendJsonField(&out, "cache_hit_rate", CacheHitRate());
  AppendJsonField(&out, "queries_per_sec", QueriesPerSec());
  AppendJsonField(&out, "wall_ms", wall_ns / 1e6);
  AppendJsonField(&out, "threads", static_cast<double>(threads));
  AppendJsonField(&out, "interner_bytes", static_cast<double>(interner_bytes));
  AppendJsonField(&out, "dedup_entries", static_cast<double>(dedup_entries));
  AppendJsonField(&out, "entries_valid",
                  static_cast<double>(entries_processed - TotalErrors()));
  AppendJsonField(&out, "entries_rejected",
                  static_cast<double>(TotalErrors()));
  out += "\"errors\":{";
  for (size_t c = 0; c < kNumErrorClasses; ++c) {
    AppendJsonField(&out,
                    JsonEscape(ErrorClassName(static_cast<ErrorClass>(c)))
                        .c_str(),
                    static_cast<double>(errors[c]),
                    /*trailing_comma=*/c + 1 < kNumErrorClasses);
  }
  out += "},";
  out += "\"stages\":{";
  bool first = true;
  for (size_t s = 0; s < kNumStages; ++s) {
    const StageStats& st = stages[s];
    if (st.count == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(StageName(static_cast<Stage>(s)), &out);
    out += "\":{";
    AppendJsonField(&out, "count", static_cast<double>(st.count));
    AppendJsonField(&out, "total_ms", st.total_ns / 1e6);
    AppendJsonField(&out, "mean_us", st.mean_ns / 1e3);
    AppendJsonField(&out, "p50_us", st.p50_ns / 1e3);
    AppendJsonField(&out, "p90_us", st.p90_ns / 1e3);
    AppendJsonField(&out, "p99_us", st.p99_ns / 1e3);
    AppendJsonField(&out, "max_us", st.max_ns / 1e3, false);
    out += '}';
  }
  out += "}}";
  return out;
}

void AppendEngineFamilies(const MetricsSnapshot& snap, uint64_t queue_depth,
                          const Labels& labels,
                          std::vector<FamilySnapshot>* out) {
  out->push_back(CounterFamily("rwdt_engine_entries",
                               "Log entries streamed through the engine.",
                               labels,
                               static_cast<double>(snap.entries_processed)));
  out->push_back(CounterFamily(
      "rwdt_engine_queries_analyzed",
      "Full parse+analyze executions of valid texts.", labels,
      static_cast<double>(snap.queries_analyzed)));
  out->push_back(CounterFamily("rwdt_engine_parse_failures",
                               "Distinct query texts that failed to parse.",
                               labels,
                               static_cast<double>(snap.parse_failures)));
  out->push_back(CounterFamily(
      "rwdt_engine_wall_seconds",
      "Cumulative wall time inside AnalyzeEntries/Feed.", labels,
      static_cast<double>(snap.wall_ns) / 1e9));

  {
    FamilySnapshot errors;
    errors.name = "rwdt_engine_errors";
    errors.help = "Rejected entries by taxonomy class.";
    errors.type = MetricType::kCounter;
    for (size_t c = 0; c < kNumErrorClasses; ++c) {
      errors.samples.push_back(
          {"_total",
           WithLabel(labels, "class",
                     ErrorClassName(static_cast<ErrorClass>(c))),
           static_cast<double>(snap.errors[c])});
    }
    out->push_back(std::move(errors));
  }

  out->push_back(CounterFamily("rwdt_engine_cache_hits",
                               "First-in-stream texts served from the memo.",
                               labels,
                               static_cast<double>(snap.cache_hits)));
  out->push_back(CounterFamily("rwdt_engine_cache_misses",
                               "Texts parsed and analyzed.", labels,
                               static_cast<double>(snap.cache_misses)));
  out->push_back(CounterFamily("rwdt_engine_cache_evictions",
                               "Texts dropped by a memo bound reset.",
                               labels,
                               static_cast<double>(snap.cache_evictions)));
  out->push_back(GaugeFamily("rwdt_engine_cache_size",
                             "Texts the engine's memos retain.", labels,
                             static_cast<double>(snap.cache_size)));
  out->push_back(GaugeFamily(
      "rwdt_engine_cache_hit_ratio", "Memo hit ratio in [0,1].",
      labels, snap.CacheHitRate()));
  out->push_back(GaugeFamily("rwdt_engine_threads", "Engine worker threads.",
                             labels, static_cast<double>(snap.threads)));
  out->push_back(GaugeFamily(
      "rwdt_engine_interner_bytes",
      "Bytes reserved by the memos' dedup interners and parse "
      "dictionaries.",
      labels, static_cast<double>(snap.interner_bytes)));
  out->push_back(GaugeFamily(
      "rwdt_engine_dedup_entries",
      "Distinct query texts the memos retain.",
      labels, static_cast<double>(snap.dedup_entries)));
  out->push_back(GaugeFamily(
      "rwdt_engine_queue_depth",
      "Shard tasks queued or running on the engine's thread pool.", labels,
      static_cast<double>(queue_depth)));

  // Stage latency histograms. The engine's power-of-two buckets map onto
  // exact inclusive `le` bounds: bucket b counts samples with
  // bit_width(ns) == b, i.e. ns in [2^(b-1), 2^b - 1], so le = 2^b - 1
  // (bucket 0 is ns == 0 -> le = 0). The empty tail above the highest
  // non-empty bucket of any stage is collapsed into +Inf to keep the
  // exposition compact; cumulativity is unaffected.
  size_t max_bucket = 0;
  for (size_t s = 0; s < kNumStages; ++s) {
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      if (snap.stages[s].buckets[b] != 0) max_bucket = std::max(max_bucket, b);
    }
  }
  std::vector<double> bounds;
  bounds.reserve(max_bucket + 1);
  for (size_t b = 0; b <= max_bucket; ++b) {
    bounds.push_back(b == 0 ? 0.0
                            : static_cast<double>((uint64_t{1} << b) - 1));
  }
  FamilySnapshot latency;
  latency.name = "rwdt_engine_stage_latency_ns";
  latency.help = "Per-stage pipeline latency in nanoseconds.";
  latency.type = MetricType::kHistogram;
  for (size_t s = 0; s < kNumStages; ++s) {
    const StageStats& st = snap.stages[s];
    if (st.count == 0) continue;
    obs::AppendHistogramSamples(
        bounds,
        [&](size_t i) {
          if (i < bounds.size()) return st.buckets[i];
          uint64_t tail = 0;  // anything past the collapsed range
          for (size_t b = bounds.size(); b < kLatencyBuckets; ++b) {
            tail += st.buckets[b];
          }
          return tail;
        },
        static_cast<double>(st.total_ns),
        WithLabel(labels, "stage", StageName(static_cast<Stage>(s))),
        &latency.samples);
  }
  out->push_back(std::move(latency));
}

}  // namespace rwdt::engine
