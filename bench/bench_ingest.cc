// Ingest throughput bench (the ISSUE's acceptance scenario): write a
// large generated log with 20% fault injection to disk as raw text,
// then stream it back through rwdt::ingest in bounded-memory chunks on
// a fresh engine. Reports throughput, the Total-vs-Valid split, and
// per-class error counts, and writes BENCH_ingest.json for the cross-PR
// perf trail (its one `runs` entry keeps the `"reader":"block"` tag so
// the `runs.block.*` trajectory series continues).
//
//   $ ./build/bench/bench_ingest [num_lines] [threads]
//
// Defaults to 1,000,000 lines and one thread (the single-thread number
// is the gated one; scale threads explicitly to measure parallelism).
// RWDT_BENCH_ENTRIES overrides the default line count when no argv is
// given — CI shrinks the run with it. RWDT_BENCH_JSON overrides the
// output path; the temporary log file is removed on exit.
// Observability: RWDT_TRACE=<file> records a Chrome/Perfetto trace,
// RWDT_PROGRESS=<ms> enables live progress logging at that interval,
// and RWDT_REPORT overrides where the final JSON run report is written
// (default BENCH_ingest_report.json).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "rwdt.h"
#include "study_util.h"

int main(int argc, char** argv) {
  using namespace rwdt;
  using Clock = std::chrono::steady_clock;

  const char* entries_env = std::getenv("RWDT_BENCH_ENTRIES");
  const uint64_t default_n =
      entries_env != nullptr ? std::strtoull(entries_env, nullptr, 10)
                             : 1000000;
  const uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                              : default_n;
  const unsigned threads =
      argc > 2 ? static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10))
               : 1;

  loggen::SourceProfile profile = loggen::ExampleProfile(n);
  profile.name = "bench-ingest";
  // Valid/Unique ratio of the generated log. The default (2.0) is far
  // more distinct-heavy than the paper's organic or robotic traffic
  // (Valid/Unique ~ 4-27); raise it to measure the duplicate hot path,
  // where throughput is bounded by scan+hash+dedup rather than parsing.
  const char* dup_env = std::getenv("RWDT_BENCH_DUP_FACTOR");
  if (dup_env != nullptr) {
    profile.duplicate_factor = std::strtod(dup_env, nullptr);
  }
  auto entries = loggen::GenerateLog(profile, 2022);

  loggen::CorruptionOptions copts;  // default rate = 0.2
  // Corrupted lines are mostly distinct, so the fault rate directly
  // sets how much parse work a duplicate-heavy log still carries.
  const char* corrupt_env = std::getenv("RWDT_BENCH_CORRUPT_RATE");
  if (corrupt_env != nullptr) {
    copts.rate = std::strtod(corrupt_env, nullptr);
  }
  const auto summary = loggen::CorruptLog(&entries, 7, copts);

  const std::string log_path = "BENCH_ingest.log.tmp";
  uint64_t log_bytes = 0;
  {
    std::ofstream out(log_path, std::ios::binary);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot write %s\n", log_path.c_str());
      return 1;
    }
    loggen::WriteLogText(entries, out);
    out.flush();
    log_bytes = static_cast<uint64_t>(out.tellp());
  }
  std::printf("log: %zu lines (%.1f MiB), %llu corrupted (%.1f%%)\n\n",
              entries.size(), log_bytes / (1024.0 * 1024.0),
              static_cast<unsigned long long>(summary.corrupted),
              100.0 * static_cast<double>(summary.corrupted) /
                  static_cast<double>(entries.size()));
  entries.clear();
  entries.shrink_to_fit();  // the stream is the only copy from here on

  auto trace = bench::MaybeStartBenchTrace();
  auto self_profile = bench::MaybeStartBenchProfile("profile.collapsed");

  ingest::IngestOptions opts;
  opts.source_name = profile.name;
  opts.wikidata_like = profile.wikidata_like;
  opts.engine.threads = threads;
  const char* progress_env = std::getenv("RWDT_PROGRESS");
  if (progress_env != nullptr) {
    opts.progress.interval_ms =
        static_cast<uint32_t>(std::strtoul(progress_env, nullptr, 10));
  }
  const char* report_env = std::getenv("RWDT_REPORT");
  opts.progress.report_path =
      report_env != nullptr ? report_env : "BENCH_ingest_report.json";

  const auto t0 = Clock::now();
  auto r = ingest::IngestFile(log_path, opts);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  std::remove(log_path.c_str());
  if (!r.ok()) {
    RWDT_LOG(ERROR) << "ingest failed: " << r.error_message();
    return 1;
  }
  const ingest::IngestReport& report = r.value();
  const double queries_per_sec = report.study.total / (wall_ms / 1000.0);
  const double bytes_per_sec = report.bytes_read / (wall_ms / 1000.0);
  std::printf("ingest: %.1f ms, %s queries/s, %.1f MiB/s (threads=%u%s)\n\n",
              wall_ms,
              WithThousands(static_cast<uint64_t>(queries_per_sec)).c_str(),
              bytes_per_sec / (1024.0 * 1024.0), threads,
              report.used_mmap ? ", mmap" : "");

  AsciiTable table({"Row", "Queries", "Rel"});
  table.AddRow({"Total", WithThousands(report.study.total), "100.0%"});
  table.AddRow({"Valid", WithThousands(report.study.valid),
                Percent(report.study.valid, report.study.total)});
  table.AddRow({"Unique", WithThousands(report.study.unique),
                Percent(report.study.unique, report.study.total)});
  for (size_t c = 0; c < kNumErrorClasses; ++c) {
    if (report.study.errors[c] == 0) continue;
    table.AddRow({std::string("  ") + ErrorClassName(ErrorClass(c)),
                  WithThousands(report.study.errors[c]),
                  Percent(report.study.errors[c], report.study.total)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("%s\n", report.metrics.ToText().c_str());

  const char* json_env = std::getenv("RWDT_BENCH_JSON");
  const std::string path =
      json_env != nullptr ? json_env : "BENCH_ingest.json";
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"bench\":\"ingest\",\"provenance\":%s,\"corrupted\":%llu,"
               "\"threads\":%u,\"runs\":[",
               bench::ProvenanceJson().c_str(),
               static_cast<unsigned long long>(summary.corrupted),
               threads);
  std::fprintf(
      out,
      "{\"reader\":\"block\",\"wall_ms\":%.3f,\"queries_per_sec\":%.0f,"
      "\"bytes_per_sec\":%.0f,\"used_mmap\":%s,\"blocks_read\":%llu,"
      "\"carry_stitches\":%llu}",
      wall_ms, queries_per_sec, bytes_per_sec,
      report.used_mmap ? "true" : "false",
      static_cast<unsigned long long>(report.blocks_read),
      static_cast<unsigned long long>(report.carry_stitches));
  std::fprintf(out,
               "],\"wall_ms\":%.3f,\"lines_per_sec\":%.0f,\"report\":%s}\n",
               wall_ms, report.lines_read / (wall_ms / 1000.0),
               report.ToJson().c_str());
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  bench::FinishBenchTrace(std::move(trace));
  bench::FinishBenchProfile(std::move(self_profile));
  return 0;
}
