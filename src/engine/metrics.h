#ifndef RWDT_ENGINE_METRICS_H_
#define RWDT_ENGINE_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/registry.h"

namespace rwdt::engine {

/// Pipeline stages the engine instruments. `kGenerate` is the synthetic
/// log generator; the rest are the per-query analysis stages of the
/// paper's study pipeline.
enum class Stage : size_t {
  kGenerate = 0,   // loggen::GenerateLog (one sample per log)
  kParse,          // SPARQL text -> algebra
  kFeatures,       // Table 3/4/5 feature + operator-set extraction
  kHypergraph,     // Table 6/7 acyclicity, htw <= k, shape classes
  kPaths,          // Table 8 property-path classification
  kAggregate,      // folding one analysis into LogAggregates
};
inline constexpr size_t kNumStages = 6;

/// Latency histogram buckets: bucket b counts samples in [2^(b-1), 2^b) ns.
inline constexpr size_t kLatencyBuckets = 64;

const char* StageName(Stage s);

/// The engine's counter store: one plain (non-atomic) slab type used
/// both per worker and for the engine's totals.
///
/// Each shard task fills a stack-resident slab and adds it into
/// `Engine`'s totals under one mutex when the task ends, before
/// `EngineStream::Feed` returns, so the per-query path touches no shared
/// cache line (shared atomic RMWs per query once inflated parse totals
/// 4x at 4 threads). `entries`, `evictions` and `wall_ns` are set only by
/// the feeding thread, directly on the totals.
///
/// Layout constraint: alignas(64) so a slab never shares a cache line
/// with a neighbor when slabs are stored contiguously (false sharing
/// would silently reintroduce the contention this type exists to kill).
struct alignas(64) LocalMetrics {
  uint64_t entries = 0;  // log entries streamed through
  uint64_t analyzed = 0;
  uint64_t parse_failures = 0;
  uint64_t hits = 0;       // first-in-stream texts served from the memo
  uint64_t misses = 0;     // texts parsed and analyzed (analyzed + failures)
  uint64_t evictions = 0;  // texts dropped by a memo bound reset
  uint64_t wall_ns = 0;    // cumulative wall time inside Feed
  std::array<uint64_t, kNumErrorClasses> errors{};
  std::array<uint64_t, kNumStages> stage_total_ns{};
  std::array<uint64_t, kNumStages> stage_max_ns{};
  std::array<std::array<uint64_t, kLatencyBuckets>, kNumStages> histogram{};

  /// Records one latency sample for a stage: bucket bit_width(ns), the
  /// stage total, and the exact maximum.
  void Record(Stage stage, uint64_t ns);
  void AddError(ErrorClass c, uint64_t n = 1) {
    errors[static_cast<size_t>(c)] += n;
  }
  /// Adds every counter of `other` into this slab (maxima take the max).
  void Add(const LocalMetrics& other);
};

/// Summary of one stage's latency histogram. Percentiles are
/// reconstructed from power-of-two buckets (geometric bucket midpoint),
/// so they are exact to within a factor of sqrt(2).
struct StageStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  double mean_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p90_ns = 0;
  uint64_t p99_ns = 0;
  /// Exact observed maximum (tracked per sample, not reconstructed
  /// from the histogram buckets).
  uint64_t max_ns = 0;
  /// Raw (non-cumulative) bucket counts: bucket b holds samples with
  /// ns in [2^(b-1), 2^b). Carried so AppendEngineFamilies can expose
  /// real histogram series; ToText/ToJson ignore it (formats unchanged).
  std::array<uint64_t, kLatencyBuckets> buckets{};
};

/// A point-in-time copy of all engine counters, safe to read, print, and
/// serialize with no further synchronization.
struct MetricsSnapshot {
  uint64_t entries_processed = 0;  // log entries streamed through
  uint64_t queries_analyzed = 0;   // full parse+analyze executions
  uint64_t parse_failures = 0;     // distinct failing texts computed
  /// Rejected entries per taxonomy class (duplicates and ingest-level
  /// rejects included) — the Total-vs-Valid gap of the paper's Table 2,
  /// broken down by cause.
  std::array<uint64_t, kNumErrorClasses> errors{};
  /// Shard-memo accounting. A hit is a text's first occurrence in a
  /// stream served from the memo (an earlier stream computed it); a miss
  /// is a text parsed and analyzed; an eviction is a text dropped when a
  /// shard memo over its share of `cache_capacity` was cleared at Finish;
  /// size is the texts the memos retain (== dedup_entries).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_size = 0;
  uint64_t wall_ns = 0;  // cumulative wall time inside AnalyzeEntries
  unsigned threads = 1;
  /// Occupancy of the engine's shard memos (interner + parse-dictionary
  /// bytes reserved, distinct texts retained). Updated once per Feed
  /// chunk and after Finish's bound check — a gauge, not a counter.
  uint64_t interner_bytes = 0;
  uint64_t dedup_entries = 0;

  double CacheHitRate() const {
    const uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache_hits) / lookups;
  }
  /// Total rejected entries across all error classes.
  uint64_t TotalErrors() const {
    uint64_t sum = 0;
    for (const uint64_t e : errors) sum += e;
    return sum;
  }
  double QueriesPerSec() const {
    return wall_ns == 0 ? 0.0 : entries_processed * 1e9 / wall_ns;
  }

  std::array<StageStats, kNumStages> stages{};

  /// Human-readable multi-line report (ASCII table).
  std::string ToText() const;
  /// Machine-readable single JSON object.
  std::string ToJson() const;
};

/// Summarizes a counter slab: per-stage quantiles from the buckets, the
/// exact max, and the raw buckets. `threads`, `cache_size` and the
/// occupancy gauges are left at their defaults; the engine overlays them.
MetricsSnapshot Summarize(const LocalMetrics& totals);

/// Appends the scrape-time `rwdt_engine_*` registry families for one
/// snapshot:
///
///   rwdt_engine_entries_total / queries_analyzed_total /
///   parse_failures_total / wall_seconds_total        counters
///   rwdt_engine_errors_total{class="parse_error"}    counter per class
///   rwdt_engine_cache_{hits,misses,evictions}_total  counters
///   rwdt_engine_cache_size / cache_hit_ratio /
///   threads / interner_bytes / dedup_entries /
///   queue_depth                                      gauges
///   rwdt_engine_stage_latency_ns{stage="parse"}      histograms
///
/// `labels` (the engine's {{"engine","<ordinal>"}}) are stamped on every
/// sample so several live engines expose disjoint series.
void AppendEngineFamilies(const MetricsSnapshot& snap, uint64_t queue_depth,
                          const obs::Labels& labels,
                          std::vector<obs::FamilySnapshot>* out);

}  // namespace rwdt::engine

#endif  // RWDT_ENGINE_METRICS_H_
