// perf_rwdt: the rwdt benchmark harness.
//
//   perf_rwdt --workload <log_distinct|log_dup|serve_mixed|exec_fragments>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--size tiny] [--perturb aggregate|body|row]
//
// Prints diagnostics on stderr and, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"} with every metric
// measured: the end-to-end ones untraced (--trace 0), the per-layer ones
// traced (--trace 1). run.py turns it into the benchmark's result line.
// Exits 1 when any output differs from its reference. --size tiny and
// --perturb exist for the benchmark's own tests (test_perfbench.py).
// Run it from the checkout root: scratch files go to .bench_build/.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/log.h"
#include "workloads.h"

namespace perfbench {

rwdt::obs::TraceOptions BenchTraceOptions() {
  rwdt::obs::TraceOptions opts;
  opts.events_per_thread = size_t{1} << 16;
  opts.process_name = "perf_rwdt";
  return opts;
}

void WriteTrace(const rwdt::obs::TraceCollector& trace, const Options& options,
                Outcome* out) {
  std::filesystem::create_directories(".bench_build/traces");
  const std::string path = ".bench_build/traces/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".json";
  const rwdt::Status written = trace.WriteChromeJson(path);
  out->Check(trace.installed() && written.ok(), "Chrome trace export failed");
  std::fprintf(stderr, "perf_rwdt: Chrome trace (%llu spans, %llu dropped) "
               "written to %s\n",
               static_cast<unsigned long long>(trace.events_recorded()),
               static_cast<unsigned long long>(trace.events_dropped()),
               path.c_str());
}

namespace {

/// CPU placement. The log and exec programs run in a child process on
/// one CPU per thread they compute on (log_dup: the feeding thread and 2
/// engine threads), apart from the harness, which only waits for them.
/// serve_mixed's client shares rwdt_serve's two CPUs (its 2 workers): on
/// the 4-vCPU VM the benchmark was built on, a client on CPUs of its own
/// sent every request across vCPUs through the hypervisor, which raised
/// the p50 latency by a third and made it vary more between runs.
/// serve.client_cpu_share reports the client's part of those CPUs.
CpuSplit CpuPlan(const std::string& workload) {
  if (workload == "serve_mixed") return SplitCpus(2, /*shared=*/true);
  return SplitCpus(workload == "log_dup" ? 3 : 1, /*shared=*/false);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perf_rwdt --workload <log_distinct|log_dup|"
               "serve_mixed|exec_fragments> --seed <n> --seconds <s> "
               "--trace <0|1> [--size tiny] [--perturb aggregate|body|row]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "tiny" && value != "full") return false;
      o->size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--perturb") {
      if (value == "aggregate") {
        o->perturb = Perturb::kAggregate;
      } else if (value == "body") {
        o->perturb = Perturb::kBody;
      } else if (value == "row") {
        o->perturb = Perturb::kRow;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // The program's INFO lines (one per ingest) would drown the report.
  rwdt::obs::Logger::Global().set_min_level(rwdt::obs::LogLevel::kWarn);
  if (argc >= 3 && std::string(argv[1]) == "--child") {
    const std::vector<std::string> args(argv + 3, argv + argc);
    const std::string mode = argv[2];
    if (mode == "ingest") return IngestChildMain(args);
    if (mode == "exec") return ExecChildMain(args);
    if (mode == "spin") return SpinChildMain(args);
    return Usage();
  }
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage();
  options.cpus = CpuPlan(options.workload);
  RunOn(options.cpus.harness);

  Outcome out;
  if (options.workload == "serve_mixed") {
    RunServeWorkload(options, &out);
  } else if (options.workload == "exec_fragments") {
    RunExecWorkload(options, &out);
  } else if (!RunLogWorkload(options, &out)) {
    return Usage();
  }
  out.Set("error_rate", out.attempted() == 0
                            ? 0
                            : static_cast<double>(out.failed()) /
                                  static_cast<double>(out.attempted()));
  const std::string json = out.ToJson();
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
