// log_distinct and log_dup: a generated raw query log on disk, in one or
// more files, each ingested by ingest::IngestFile (log file ->
// SourceStudy).
//
// Untraced, a child process runs IngestFile on a one-line file (set-up)
// and then on each file of the log in turn, repeatedly, for the run's
// seconds, timing each call in CPU time of the process; each file's
// study must equal replay (b) of that file. Traced, the program path is
// replayed from public calls (replay (a): BlockReader + LineScanner,
// EngineStream::Feed per chunk, Finish, ~Engine) next to replay (b), and
// all three studies of each file must agree.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "engine/engine.h"
#include "ingest/block_reader.h"
#include "ingest/ingest.h"
#include "ingest/line_scanner.h"
#include "loggen/corruptor.h"
#include "loggen/log_text.h"
#include "loggen/sparql_gen.h"
#include "obs/trace.h"
#include "replay.h"
#include "serve/verdict.h"
#include "tree/xml.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rwdt::core::SourceStudy;

struct LogSpec {
  const char* name;
  double duplicate_factor;
  double corrupt_rate;
  unsigned threads;
  uint64_t files;  // each with its own seed
  uint64_t lines;  // per file
  uint64_t tiny_lines;
  // Quantile of each file's IngestFile CPU times that is reported.
  double quantile;
};

// The machine this benchmark runs on is shared, and other tenants disturb
// it in two ways. The hypervisor takes a vCPU away for milliseconds at a
// time (steal): the wall time of a call grows, its CPU time does not. And
// for a fraction of a second to seconds at a time the vCPUs run the same
// instructions up to 50% slower, which CPU time shows too. So the log
// workloads time IngestFile in CPU time of the process, all threads, and
// keep each call short, so that a run holds hundreds to thousands of
// them. log_distinct runs on one thread and reports each file's minimum:
// the same work on an undisturbed vCPU, which every run reaches. Over
// five runs, the minimum of one 2,000-line file spread 2%, that of one
// 5,000-line file 4%; but a 2,000-line log of one seed can take 14% less
// work than that of another, so log_distinct is 16 such files.
// log_dup runs three threads whose CPU times add up, and one call rarely
// has all three undisturbed, so it reports the median. It was 1,000,000
// lines first (an 81 MiB file), whose wall times spread 30% between runs.
constexpr LogSpec kLogSpecs[] = {
    {"log_distinct", 2.0, 0.2, 1, 16, 2000, 300, 0.0},
    {"log_dup", 100.0, 0.005, 2, 1, 200000, 20000, 0.5},
};

// Set-up repetitions before each round over the log's files, so they
// sample the whole run rather than one moment of it.
constexpr int kSetupPerRep = 4;

bool Invariant(const SourceStudy& s) {
  uint64_t errors = 0;
  for (const uint64_t e : s.errors) errors += e;
  return s.total == s.valid + errors;
}

rwdt::ingest::IngestOptions ProgramOptions(const std::string& name,
                                           unsigned threads) {
  rwdt::ingest::IngestOptions opts;
  opts.source_name = name;
  opts.engine.threads = threads;
  return opts;
}

/// Writes the seeded log for `spec`, one file per entry of `paths`, and
/// a one-line log (the first line of the first file) to `setup_path`.
void GenerateLogFiles(const LogSpec& spec, const Options& options,
                      const std::vector<std::string>& paths,
                      const std::string& setup_path) {
  rwdt::loggen::SourceProfile profile = rwdt::loggen::ExampleProfile(
      options.size == Size::kTiny ? spec.tiny_lines : spec.lines);
  profile.name = spec.name;
  profile.duplicate_factor = spec.duplicate_factor;
  for (size_t k = 0; k < paths.size(); ++k) {
    const uint64_t seed = options.seed + k * 0x9e3779b97f4a7c15ull;
    auto entries = rwdt::loggen::GenerateLog(profile, seed);
    rwdt::loggen::CorruptionOptions copts;
    copts.rate = spec.corrupt_rate;
    rwdt::loggen::CorruptLog(&entries, seed ^ 0x5eed, copts);
    std::ofstream out(paths[k], std::ios::binary);
    rwdt::loggen::WriteLogText(entries, out);
    if (k == 0) {
      std::ofstream setup(setup_path, std::ios::binary);
      rwdt::loggen::WriteLogText({entries.front()}, setup);
    }
  }
}

bool IsBlank(std::string_view s) {
  for (const char c : s) {
    if (c != ' ' && c != '\t') return false;
  }
  return true;
}

/// Replay (a): the body of ingest::IngestFile rebuilt from the public
/// ingest and engine APIs, with one span and one clock pair per call.
struct ProgramReplay {
  bool ok = false;
  SourceStudy study;
  uint64_t wall_ns = 0, scan_ns = 0, feed_ns = 0, finish_ns = 0,
           teardown_ns = 0;
  uint64_t bytes = 0, carry_stitches = 0;
};

ProgramReplay ReplayProgramPath(const std::string& path, const std::string& name,
                                unsigned threads) {
  namespace ingest = rwdt::ingest;
  ProgramReplay r;
  const ingest::IngestOptions opts = ProgramOptions(name, threads);
  const uint64_t t_start = NowNs();
  auto engine = std::make_unique<rwdt::engine::Engine>(opts.engine);
  {
    rwdt::engine::EngineStream stream = engine->OpenStream(name, false);
    ingest::BlockReader::Options bopts;
    bopts.block_bytes = opts.block_bytes;
    auto opened = ingest::BlockReader::OpenFile(path, bopts);
    if (!opened.ok()) return r;
    ingest::BlockReader reader = std::move(opened).value();
    rwdt::Arena arena;
    std::vector<std::string_view> chunk;
    chunk.reserve(opts.chunk_entries);
    ingest::LineScanner scanner(&reader, opts.max_line_bytes, &arena);
    uint64_t scan_from = NowNs();
    auto flush = [&] {
      const uint64_t t0 = NowNs();
      r.scan_ns += t0 - scan_from;
      rwdt::obs::EmitSpan("ingest.LineScanner", scan_from, t0 - scan_from);
      if (!chunk.empty()) {
        rwdt::obs::Span span("engine.Feed");
        stream.Feed(std::span<const std::string_view>(chunk));
        chunk.clear();
      }
      arena.Clear();
      scan_from = NowNs();
      r.feed_ns += scan_from - t0;
    };
    scanner.set_release_hook(flush);
    ingest::LineScanner::Line rec;
    while (scanner.Next(&rec, &r.bytes)) {
      if (opts.skip_blank_lines && IsBlank(rec.text)) continue;
      if (rec.overflow) {
        stream.Reject(rwdt::ErrorClass::kResourceExhausted);
      } else if (opts.validate_utf8 && !rwdt::tree::IsValidUtf8(rec.text)) {
        stream.Reject(rwdt::ErrorClass::kEncodingError);
      } else {
        chunk.push_back(rec.text);
        if (chunk.size() >= opts.chunk_entries) flush();
      }
    }
    flush();
    r.carry_stitches = scanner.carry_stitches();
    const uint64_t t0 = NowNs();
    {
      rwdt::obs::Span span("engine.Finish");
      r.study = stream.Finish();
    }
    r.finish_ns = NowNs() - t0;
  }
  const uint64_t t0 = NowNs();
  {
    rwdt::obs::Span span("engine.~Engine");
    engine.reset();
  }
  const uint64_t t1 = NowNs();
  r.teardown_ns = t1 - t0;
  r.wall_ns = t1 - t_start;
  r.ok = true;
  return r;
}

const LogSpec* FindSpec(const std::string& name) {
  for (const LogSpec& s : kLogSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

void RunUntraced(const LogSpec& spec, const Options& options,
                 const WorkDir& wd, const std::vector<std::string>& paths,
                 const std::string& setup_path,
                 const std::vector<SourceStudy>& references,
                 const std::vector<WeightedLog>& logs, Outcome* out) {
  const std::string out_path = wd.Path("child.out");
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%.3f", options.seconds);
  std::vector<std::string> argv = {SelfExe(), "--child", "ingest", setup_path,
                                   std::to_string(spec.threads), seconds,
                                   spec.name};
  argv.insert(argv.end(), paths.begin(), paths.end());
  Child child(argv, options.cpus.program, out_path, wd.Path("child.err"));
  double peak_rss_mb = 0;
  const bool exited_ok = child.Wait(150, &peak_rss_mb);
  out->Check(exited_ok, "ingest child exited non-zero or timed out");
  if (!exited_ok) {
    std::fprintf(stderr, "%s", ReadFile(wd.Path("child.err")).c_str());
    return;
  }
  // One cpu_ns, wall_ns, lines_read and study line per file, in order.
  const std::string text = ReadFile(out_path);
  const auto setup = Field(text, "setup_cpu_ns");
  const auto cpus = Field(text, "cpu_ns");
  const auto walls = Field(text, "wall_ns");
  const auto lines = Field(text, "lines_read");
  const auto bad = Field(text, "bad_reps");
  const auto studies = Field(text, "study");
  const size_t n = paths.size();
  if (setup.empty() || bad.empty() || cpus.size() != n || walls.size() != n ||
      lines.size() != n || studies.size() != n) {
    out->Check(false, "ingest child output incomplete");
    return;
  }
  uint64_t calls = 0, failed_calls = Numbers(bad[0]).at(0);
  double lines_read = 0, cpu_ns = 0, cpu_median_ns = 0, wall_median_ns = 0;
  for (size_t k = 0; k < n; ++k) {
    const std::vector<double> file_cpu_ns = Numbers(cpus[k]);
    calls += file_cpu_ns.size();
    if (studies[k] != rwdt::serve::StudyToJson(references[k])) {
      failed_calls += file_cpu_ns.size();
    }
    const double file_lines = Numbers(lines[k]).at(0);
    out->Check(file_lines == static_cast<double>(logs[k].physical_lines),
               "IngestFile lines_read != physical lines of the file");
    lines_read += file_lines;
    cpu_ns += Quantile(file_cpu_ns, spec.quantile);
    cpu_median_ns += Median(file_cpu_ns);
    wall_median_ns += Median(Numbers(walls[k]));
  }
  out->Count(calls, std::min(failed_calls, calls),
             "IngestFile study != replay (b) reference");
  std::fprintf(stderr,
               "perf_rwdt: %" PRIu64 " IngestFile calls over %zu file(s); "
               "per pass over the log: reported CPU %.2f ms, median CPU "
               "%.2f ms, median wall %.2f ms\n",
               calls, n, cpu_ns / 1e6, cpu_median_ns / 1e6,
               wall_median_ns / 1e6);

  out->Set("throughput_per_s", lines_read / (cpu_ns / 1e9));
  out->Set("latency_ms", cpu_ns / 1e6 / static_cast<double>(n));
  out->Set("setup_s", Median(Numbers(setup[0])) / 1e9);
  out->Set("peak_rss_mb", peak_rss_mb);
}

void RunTraced(const LogSpec& spec, const Options& options,
               const std::vector<std::string>& paths,
               const std::vector<WeightedLog>& logs, Outcome* out) {
  RunOn(options.cpus.program);  // the program runs in this process
  const rwdt::ingest::IngestOptions opts =
      ProgramOptions(spec.name, spec.threads);
  // Untraced passes over the log first: the denominator of the trace
  // overhead.
  std::vector<double> untraced_ns;
  std::vector<SourceStudy> program(paths.size());
  const uint64_t budget_ns = static_cast<uint64_t>(options.seconds * 0.5e9);
  uint64_t spent_ns = 0;
  while (untraced_ns.size() < 2 || spent_ns < budget_ns) {
    const uint64_t t0 = NowNs();
    for (size_t k = 0; k < paths.size(); ++k) {
      auto report = rwdt::ingest::IngestFile(paths[k], opts);
      out->Check(report.ok(), "IngestFile failed");
      if (!report.ok()) return;
      program[k] = report.value().study;
    }
    const uint64_t dt = NowNs() - t0;
    spent_ns += dt;
    untraced_ns.push_back(static_cast<double>(dt));
  }

  rwdt::obs::TraceCollector trace(BenchTraceOptions());
  ProgramReplay a;  // summed over the files
  ReplayTimings tb;
  uint64_t texts = 0, fed = 0;
  for (size_t k = 0; k < paths.size(); ++k) {
    const ProgramReplay ak = ReplayProgramPath(paths[k], spec.name, spec.threads);
    out->Check(ak.ok, "replay (a) could not open the log");
    SourceStudy b;
    {
      rwdt::obs::Span span("replay_b");
      b = ReplayDistinct(logs[k], spec.name, &tb);
    }
    if (options.perturb == Perturb::kAggregate && k == 0) {
      b.valid_agg.queries += 1;
    }
    out->Check(program[k] == b, "IngestFile study != replay (b)");
    out->Check(ak.study == b, "replay (a) study != replay (b)");
    out->Check(Invariant(program[k]), "total != valid + sum(errors)");
    out->Check(program[k].total == logs[k].entries,
               "study.total != non-blank lines");
    a.wall_ns += ak.wall_ns;
    a.scan_ns += ak.scan_ns;
    a.feed_ns += ak.feed_ns;
    a.finish_ns += ak.finish_ns;
    a.teardown_ns += ak.teardown_ns;
    a.bytes += ak.bytes;
    a.carry_stitches += ak.carry_stitches;
    texts += logs[k].texts.size();
    fed += logs[k].entries - logs[k].encoding_rejects -
           logs[k].oversize_rejects;
  }
  WriteTrace(trace, options, out);

  const double feed_s = a.feed_ns / 1e9;
  out->Set("ingest.scan_s", a.scan_ns / 1e9);
  out->Set("ingest.scan_mib_per_s",
           a.bytes / (1024.0 * 1024.0) / (a.scan_ns / 1e9));
  out->Set("ingest.carry_stitches", static_cast<double>(a.carry_stitches));
  out->Set("engine.feed_s", feed_s);
  out->Set("engine.finish_s", a.finish_ns / 1e9);
  out->Set("engine.teardown_s", a.teardown_ns / 1e9);
  out->Set("engine.unattributed_s",
           feed_s -
               (tb.parse_ns + tb.classify_ns + tb.aggregate_ns) / 1e9);
  out->Set("engine.distinct_ratio",
           fed == 0 ? 0 : static_cast<double>(texts) / fed);
  SetReplayMetrics(texts, tb, out);
  out->Set("obs.trace_overhead_ratio", a.wall_ns / Median(untraced_ns));
}

}  // namespace

bool RunLogWorkload(const Options& options, Outcome* out) {
  const LogSpec* spec = FindSpec(options.workload);
  if (spec == nullptr) return false;
  WorkDir wd(spec->name);
  std::vector<std::string> paths;
  for (uint64_t k = 0; k < spec->files; ++k) {
    paths.push_back(wd.Path("log-" + std::to_string(k) + ".txt"));
  }
  const std::string setup_path = wd.Path("setup.txt");
  GenerateLogFiles(*spec, options, paths, setup_path);
  std::vector<WeightedLog> logs;
  for (const std::string& path : paths) logs.push_back(ReadWeightedLog(path));
  if (options.trace) {
    RunTraced(*spec, options, paths, logs, out);
    return true;
  }
  std::vector<SourceStudy> references;
  for (const WeightedLog& log : logs) {
    references.push_back(ReplayDistinct(log, spec->name, nullptr));
  }
  if (options.perturb == Perturb::kAggregate) {
    references[0].valid_agg.queries += 1;
  }
  RunUntraced(*spec, options, wd, paths, setup_path, references, logs, out);
  return true;
}

// args: setup threads seconds name log...
int IngestChildMain(const std::vector<std::string>& args) {
  if (args.size() < 5) return 2;
  const std::string& setup_path = args[0];
  const unsigned threads = static_cast<unsigned>(std::stoul(args[1]));
  const double seconds = std::stod(args[2]);
  const std::string& name = args[3];
  const std::vector<std::string> paths(args.begin() + 4, args.end());
  const rwdt::ingest::IngestOptions opts = ProgramOptions(name, threads);

  std::string setup_line = "setup_cpu_ns";
  std::vector<std::string> cpu_lines(paths.size(), "cpu_ns");
  std::vector<std::string> wall_lines(paths.size(), "wall_ns");
  std::vector<SourceStudy> first(paths.size());
  std::vector<uint64_t> lines_read(paths.size());
  uint64_t bad_reps = 0;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (int round = 0; round < 3 || NowNs() < deadline; ++round) {
    for (int i = 0; i < kSetupPerRep; ++i) {
      const uint64_t c0 = CpuNs();
      auto report = rwdt::ingest::IngestFile(setup_path, opts);
      const uint64_t dc = CpuNs() - c0;
      if (!report.ok()) return 1;
      setup_line += " " + std::to_string(dc);
    }
    for (size_t k = 0; k < paths.size(); ++k) {
      const uint64_t t0 = NowNs();
      const uint64_t c0 = CpuNs();
      auto report = rwdt::ingest::IngestFile(paths[k], opts);
      const uint64_t dc = CpuNs() - c0;
      const uint64_t dt = NowNs() - t0;
      if (!report.ok()) return 1;
      cpu_lines[k] += " " + std::to_string(dc);
      wall_lines[k] += " " + std::to_string(dt);
      const rwdt::ingest::IngestReport& r = report.value();
      if (round == 0) {
        first[k] = r.study;
        lines_read[k] = r.lines_read;
      }
      if (!(r.study == first[k]) || !Invariant(r.study) ||
          r.lines_read != lines_read[k]) {
        bad_reps++;
      }
    }
  }
  std::printf("%s\nbad_reps %" PRIu64 "\n", setup_line.c_str(), bad_reps);
  for (size_t k = 0; k < paths.size(); ++k) {
    std::printf("%s\n%s\nlines_read %" PRIu64 "\nstudy %s\n",
                cpu_lines[k].c_str(), wall_lines[k].c_str(), lines_read[k],
                rwdt::serve::StudyToJson(first[k]).c_str());
  }
  return 0;
}

}  // namespace perfbench
