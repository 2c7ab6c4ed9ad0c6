#ifndef RWDT_ENGINE_ENGINE_H_
#define RWDT_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <atomic>

#include "common/status.h"
#include "core/log_study.h"
#include "engine/metrics.h"
#include "engine/thread_pool.h"
#include "loggen/sparql_gen.h"
#include "obs/admin_server.h"
#include "obs/proc_stats.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/registry.h"
#include "sparql/parser.h"

namespace rwdt::engine {

struct EngineOptions {
  /// Worker threads. 0 = one per hardware thread. 1 = run inline on the
  /// calling thread (the historical single-threaded path).
  unsigned threads = 0;

  /// Work shards. Entries are routed to shards by query-text hash, so
  /// all duplicates of a text land in one shard and per-shard dedup is
  /// exact. 0 = one shard per thread.
  size_t num_shards = 0;

  /// Distinct query texts the engine's memo keeps between streams,
  /// split evenly across work shards: when a stream finishes, a shard
  /// whose memo holds more than ceil(cache_capacity / num_shards) texts
  /// is cleared. Within one stream every distinct text is kept, so the
  /// bound never changes a result, only what the next stream reuses.
  size_t cache_capacity = 1 << 16;

  /// Record per-stage latency histograms (two steady_clock reads per
  /// stage per analyzed query; disable for maximum throughput). Per-stage
  /// trace spans (obs::TraceCollector) also piggyback on these readings,
  /// so tracing a run requires this to stay on.
  bool collect_stage_timings = true;

  /// Embedded admin server (GET /metrics, /healthz, /readyz, /statusz,
  /// /tracez). 0 (the default) = no server: no thread, no socket, and —
  /// because the engine's registry families are built only at scrape
  /// time — zero added work on the analysis hot path. 1-65535 = that
  /// TCP port; kAdminPortAuto = let the kernel pick a free port (tests;
  /// read it back via `admin_server()->port()`). Examples and benches
  /// populate this from the RWDT_ADMIN_PORT environment variable.
  uint32_t admin_port = 0;

  /// Admin bind address. Defaults to loopback: the admin endpoints
  /// expose engine internals and must be tunneled, not exposed.
  std::string admin_bind = "127.0.0.1";

  /// Sentinel for `admin_port`: bind an ephemeral kernel-assigned port.
  static constexpr uint32_t kAdminPortAuto = 65536;

  /// Live run reporting: while a stream is open (AnalyzeLog,
  /// AnalyzeEntries, OpenStream..Finish), a background thread takes a
  /// Snapshot every `progress.interval_ms` and logs a one-line summary;
  /// on Finish a JSON run report goes to `progress.report_path` if set.
  /// Disabled by default (interval 0, empty path).
  obs::ProgressOptions progress;

  /// Self-profiling: when non-empty, the engine starts a sampling CPU
  /// profile (obs::StartProfiling) at construction and writes
  /// flamegraph.pl collapsed stacks to this path at destruction.
  /// Profiling is process-global; if another capture is already running
  /// the engine logs and continues unprofiled. Tools populate this from
  /// the RWDT_PROFILE environment variable. Empty (default) = off: no
  /// timer, no handler, zero overhead.
  std::string profile_path;

  /// Sampling frequency for `profile_path` captures, in Hz of process
  /// CPU time. Must be in [1, 1000].
  double profile_hz = 99;

  /// Per-query analysis knobs, forwarded to core::AnalyzeQuery.
  core::LogStudyOptions study;

  /// Per-query resource guards, forwarded to sparql::ParseSparql.
  /// Violations are classified as `ErrorClass::kResourceExhausted`.
  sparql::ParseLimits parse_limits;

  /// Rejects nonsensical configurations (zero parse limits, degenerate
  /// shard/thread counts) before any work is scheduled. The ingest layer
  /// calls this up front so misconfiguration fails fast, not mid-stream.
  Status Validate() const;

  /// JSON object of the serving-relevant knobs — the "options" block of
  /// the admin server's /statusz.
  std::string ToJson() const;
};

class Engine;

/// One log entry routed to a shard, carrying the `common::Hash64` of its
/// text. The hash is computed exactly once (in EngineStream::Feed) and
/// reused for shard routing and the shard memo's lookup — the hash-once
/// pipeline. The text is borrowed, never owned: it may
/// point into a caller's LogEntry, an mmapped log file, or a chunk
/// arena, and only needs to stay valid for the duration of the Feed
/// call that routed it (everything downstream copies on retention).
struct RoutedEntry {
  std::string_view text;
  uint64_t hash;
};

/// An incremental feed into the engine: per-shard counts persist across
/// `Feed` calls, so a log streamed in bounded-memory chunks
/// yields exactly the same SourceStudy as a single materialized vector.
///
/// Obtained from `Engine::OpenStream`. Feed/Reject/Finish must be called
/// from one thread (the engine parallelizes internally); Finish
/// invalidates the stream. A stream dropped without Finish leaves no
/// counts behind, only memo entries. Only one stream per engine may be
/// open at a time, and AnalyzeLog/AnalyzeEntries must not run while one
/// is open.
class EngineStream {
 public:
  EngineStream(EngineStream&&) noexcept;
  EngineStream& operator=(EngineStream&&) noexcept;
  ~EngineStream();

  EngineStream(const EngineStream&) = delete;
  EngineStream& operator=(const EngineStream&) = delete;

  /// Routes one chunk of entries through the shard pipeline. Chunk
  /// boundaries never affect results.
  void Feed(const std::vector<loggen::LogEntry>& chunk);

  /// Zero-copy variant: the views are borrowed for the duration of the
  /// call only (the block ingest path feeds views straight out of an
  /// mmapped log). Produces bit-identical results to the LogEntry
  /// overload for the same texts in the same order.
  void Feed(std::span<const std::string_view> chunk);

  /// Counts `n` entries rejected before parsing (oversized lines,
  /// invalid UTF-8, ...). Rejects appear in `total` and in the per-class
  /// error counters, never in valid/unique.
  void Reject(ErrorClass c, uint64_t n = 1);

  /// Reduces shard state into the final study. Invariant on the result:
  /// total == valid + sum(errors).
  core::SourceStudy Finish();

 private:
  friend class Engine;
  struct Impl;
  explicit EngineStream(std::unique_ptr<Impl> impl);
  /// Shared routing pipeline: `for_each_text` invokes its callback once
  /// per entry text, in order. Both Feed overloads funnel through here
  /// so they cannot diverge.
  template <typename ForEachText>
  void FeedImpl(size_t count, ForEachText&& for_each_text);
  std::unique_ptr<Impl> impl_;
};

/// A parallel, memoizing streaming log-analysis engine.
///
/// The engine runs the paper's per-query classifier battery (Tables 3-8,
/// Figure 3) over query logs with three production-minded properties the
/// plain `core::AnalyzeLog` loop lacked:
///
///  1. **Sharded parallelism.** Entries are partitioned by query-text
///     hash across `num_shards` shards executed on a fixed thread pool.
///     Aggregates are pure uint64 sums reduced through `core::Merge` in
///     shard order, so results are bit-identical for a given seed
///     regardless of thread or shard count.
///  2. **Memoization.** Each work shard keeps a memo from query text to
///     its verdict and analysis, so every distinct text is parsed and
///     analyzed once — the Valid/Unique gap of the paper's Table 2
///     (duplication factors of 2-100x) costs a table lookup per
///     duplicate. The memo outlives the stream (bounded by
///     `cache_capacity`), so repeated studies and a serve worker's
///     repeated request bodies warm-start.
///  3. **Observability.** Each shard task counts into a private
///     `LocalMetrics` slab, per-stage latency histograms included, and
///     adds it into the engine's totals under one mutex when it ends.
///     The totals are read as a `MetricsSnapshot` (text or JSON) and,
///     at scrape time, as the `rwdt_engine_*` registry families.
///
/// Thread-safe for metrics reads; `AnalyzeLog`/`AnalyzeEntries` must not
/// be called concurrently on the same engine.
class Engine {
 public:
  explicit Engine(const EngineOptions& options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Generates the log for `profile` at `seed` and streams it through
  /// the pipeline. Equivalent to core::AnalyzeLog for any thread count.
  core::SourceStudy AnalyzeLog(const loggen::SourceProfile& profile,
                               uint64_t seed);

  /// Streams an already-materialized log through the pipeline.
  /// Implemented as OpenStream + one Feed + Finish.
  core::SourceStudy AnalyzeEntries(const std::string& name,
                                   bool wikidata_like,
                                   const std::vector<loggen::LogEntry>& entries);

  /// Opens an incremental stream for a log too large to materialize.
  /// See EngineStream for the contract.
  EngineStream OpenStream(std::string name, bool wikidata_like);

  /// Cumulative counters since construction, including memo statistics.
  MetricsSnapshot Snapshot() const;

  unsigned threads() const { return threads_; }
  size_t num_shards() const { return num_shards_; }
  const EngineOptions& options() const { return options_; }

  /// Shard tasks queued or running on the pool (0 when single-threaded).
  size_t queue_depth() const;

  /// This engine's `engine="<ordinal>"` label value on /metrics: unique
  /// among the engines of one process.
  uint64_t ordinal() const { return ordinal_; }

  /// The embedded admin server, or null when `admin_port == 0` or the
  /// bind failed (failure is logged, never fatal — an engine must not
  /// die because a port was taken).
  obs::AdminServer* admin_server() const { return admin_.get(); }

 private:
  friend class EngineStream;
  struct ShardMemo;
  struct ShardTally;
  void ProcessShard(const std::vector<RoutedEntry>& entries, ShardMemo* memo,
                    ShardTally* tally);
  /// Clears every shard memo over its share of `cache_capacity`.
  void TrimMemos();
  /// Adds the feeding thread's counts to the totals and publishes the
  /// memos' footprint to the occupancy gauges, under one lock.
  void AddFeedTotals(uint64_t entries, uint64_t wall_ns, uint64_t evictions);
  void StartAdminServer();

  EngineOptions options_;
  unsigned threads_;
  size_t num_shards_;
  /// One memo per work shard, kept across streams. `hash % num_shards_`
  /// is fixed per engine, so a text always returns to the same memo.
  std::vector<ShardMemo> memos_;
  std::unique_ptr<ThreadPool> pool_;  // null when threads_ == 1

  /// The engine's counters and memo occupancy gauges. Every writer is
  /// off the per-query path: one `Add` per shard task, plus per-Feed,
  /// per-Reject and per-Finish updates from the feeding thread.
  mutable std::mutex metrics_mu_;
  LocalMetrics totals_;
  uint64_t interner_bytes_ = 0;
  uint64_t dedup_entries_ = 0;

  uint64_t start_ns_ = 0;  // construction time, for /statusz uptime
  uint64_t ordinal_ = 0;
  /// /readyz: true once the constructor completes (the engine accepts
  /// Feed), false again the moment destruction begins.
  std::shared_ptr<std::atomic<bool>> ready_;
  /// Scrape-time collector on the global registry: the engine's
  /// `rwdt_engine_*` families, built from Snapshot().
  obs::ScopedCollector registry_collector_;
  /// Process-footprint gauges (rwdt_proc_*) on /metrics while this
  /// engine's admin server is up; inert if another collector (e.g. a
  /// serve front end) already installed one.
  std::unique_ptr<obs::ProcStatsCollector> proc_stats_;
  std::unique_ptr<obs::AdminServer> admin_;
  /// RWDT_PROFILE / EngineOptions::profile_path self-profile: started
  /// at construction, collapsed stacks written at destruction.
  std::unique_ptr<obs::ScopedSelfProfile> self_profile_;
};

}  // namespace rwdt::engine

#endif  // RWDT_ENGINE_ENGINE_H_
