#ifndef RWDT_INGEST_INGEST_H_
#define RWDT_INGEST_INGEST_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "common/status.h"
#include "core/log_study.h"
#include "engine/engine.h"
#include "obs/progress.h"

namespace rwdt::ingest {

/// How raw log lines are interpreted.
enum class LogFormat {
  /// One query per line; the whole line is the query text.
  kPlain,
  /// Tab-separated "source<TAB>query"; lines without a tab are rejected
  /// as parse errors. The source column feeds IngestReport::per_source.
  kTsv,
};

struct IngestOptions {
  LogFormat format = LogFormat::kPlain;

  /// Block granularity of the reader. Tests shrink it to a few
  /// bytes to sweep records across every block-boundary alignment.
  size_t block_bytes = size_t{1} << 20;

  /// Entries buffered per EngineStream::Feed call — the memory bound.
  /// Peak resident query text is roughly chunk_entries * mean line
  /// length, independent of the log size.
  size_t chunk_entries = 4096;

  /// Lines longer than this are rejected as kResourceExhausted without
  /// buffering the full line.
  size_t max_line_bytes = 1 << 20;  // 1 MiB

  /// Lines that are not valid UTF-8 are rejected as kEncodingError
  /// before they reach the parser.
  bool validate_utf8 = true;

  /// Skip lines that are empty (or whitespace-only) instead of feeding
  /// them to the parser. They are not counted at all.
  bool skip_blank_lines = true;

  /// Engine configuration: threads, shards, memo bound, parse limits.
  engine::EngineOptions engine;

  /// Live run reporting for this ingest (independent of
  /// `engine.progress`, which covers engine-level streams): a background
  /// thread logs entries/sec, cache hit rate, and reject counts every
  /// `interval_ms`, and `report_path` receives the final JSON run
  /// report. Disabled by default.
  obs::ProgressOptions progress;

  /// Name recorded on the resulting SourceStudy.
  std::string source_name = "ingest";
  bool wikidata_like = false;

  /// Rejects nonsensical configurations (zero chunk size, zero line
  /// budget, invalid engine options).
  Status Validate() const;
};

/// Everything one ingest run produces.
struct IngestReport {
  /// Total / Valid / Unique aggregates plus per-class error counts.
  /// study.total == study.valid + sum(study.errors).
  core::SourceStudy study;
  /// Engine counters at the end of the run (includes error classes,
  /// cache statistics, stage latencies). Serialize with ToJson/ToText.
  engine::MetricsSnapshot metrics;

  uint64_t lines_read = 0;     // physical lines consumed (incl. skipped)
  uint64_t blank_lines = 0;    // skipped, not counted in study.total
  uint64_t bytes_read = 0;     // payload bytes consumed
  /// kTsv only: entry count per source column value.
  std::map<std::string, uint64_t> per_source;

  /// Reader provenance: how the bytes were acquired and stitched.
  bool used_mmap = false;       // file was mapped, not read(2)
  uint64_t blocks_read = 0;     // blocks handed out
  uint64_t carry_stitches = 0;  // records straddling a block boundary

  /// Single JSON object: study counts (total/valid/unique + per-class
  /// errors), reader counters, per-source counts (keys escaped — source
  /// columns of corrupt logs may contain anything), and the full metrics
  /// snapshot.
  std::string ToJson() const;
};

/// Streams a raw query log through the engine in bounded-memory chunks.
///
/// The reader is a zero-copy block pipeline: a BlockReader (mmap for
/// regular files, buffered read otherwise) feeds a SWAR LineScanner,
/// and query text flows borrowed into the engine. It never materializes
/// the log: it buffers at most `chunk_entries` lines (each capped at
/// `max_line_bytes`) before handing them to the engine and releasing
/// them. Malformed lines are
/// classified into the error taxonomy and counted — a corrupt log
/// streams end-to-end without aborting, and the valid subset's
/// aggregates are bit-identical to analyzing only the surviving queries,
/// for any thread count and any chunk size.
Result<IngestReport> IngestStream(std::istream& in,
                                  const IngestOptions& options = {});

/// As above, but runs on a caller-owned engine, whose memo stays warm
/// across logs. `options.engine` is ignored.
Result<IngestReport> IngestStream(std::istream& in, engine::Engine* engine,
                                  const IngestOptions& options);

/// Opens `path` and ingests it. Fails with kNotFound if unreadable.
Result<IngestReport> IngestFile(const std::string& path,
                                const IngestOptions& options = {});

}  // namespace rwdt::ingest

#endif  // RWDT_INGEST_INGEST_H_
