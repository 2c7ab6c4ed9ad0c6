// The four workloads. Each generates its inputs from the seed, runs the
// program under test on them, checks every output against an
// independent reference, and fills the Outcome with the metrics of the
// selected mode (untraced end-to-end, or traced per-layer).
#ifndef RWDT_PERFBENCH_WORKLOADS_H_
#define RWDT_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

/// Returns false when `options.workload` is not a log workload.
bool RunLogWorkload(const Options& options, Outcome* out);
void RunServeWorkload(const Options& options, Outcome* out);
void RunExecWorkload(const Options& options, Outcome* out);

/// Child-process entry points: the program under test runs alone in a
/// fresh process, so its peak RSS excludes input generation and
/// references. `args` follow the mode name.
int IngestChildMain(const std::vector<std::string>& args);
int ExecChildMain(const std::vector<std::string>& args);
/// Spins on each CPU it may use at SCHED_IDLE priority for `args[0]`
/// seconds; see KeepCpusAwake in serve_workload.cc.
int SpinChildMain(const std::vector<std::string>& args);

/// Collector for a traced run: rings large enough to keep the spans of a
/// whole tiny run, the most recent window of a full one.
rwdt::obs::TraceOptions BenchTraceOptions();

/// Writes `trace` as Chrome JSON to .bench_build/traces/ and logs the
/// path on stderr. A failed write is a failed run.
void WriteTrace(const rwdt::obs::TraceCollector& trace, const Options& options,
                Outcome* out);

}  // namespace perfbench

#endif  // RWDT_PERFBENCH_WORKLOADS_H_
