// Shared plumbing of the rwdt benchmark: command-line options, the
// result record every workload fills, quantiles, child processes, and
// the scratch directory a run works in.
#ifndef RWDT_PERFBENCH_HARNESS_H_
#define RWDT_PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Input scale. kTiny is for the benchmark's own tests: every code path
/// and every oracle runs, on inputs small enough to finish in seconds.
enum class Size { kFull, kTiny };

/// Which reference a negative test corrupts before comparing. A run
/// with a perturbed reference must report at least one failure.
enum class Perturb { kNone, kAggregate, kBody, kRow };

/// CPU placement: the CPUs the program under test runs on, and those of
/// the benchmark itself (inputs, references, the serve client). Both
/// lists are empty (no placement) when the process may use a single CPU.
struct CpuSplit {
  std::vector<int> program;
  std::vector<int> harness;
};

/// Splits the CPUs this process may use: the first `program_cpus` (at
/// most all but one) for the program, the rest for the harness; with
/// `shared`, the harness runs on the program's CPUs instead.
CpuSplit SplitCpus(int program_cpus, bool shared);

/// Runs the calling thread, and the threads and children it starts
/// later, on `cpus`; a no-op when `cpus` is empty.
void RunOn(const std::vector<int>& cpus);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  Perturb perturb = Perturb::kNone;
  CpuSplit cpus;  // set from the workload, not from the command line
};

/// One run's verdict and numbers, printed as the last stdout line.
class Outcome {
 public:
  /// Counts one checked operation; a false `ok` is a failure and `what`
  /// is logged to stderr (the first few only).
  void Check(bool ok, const std::string& what);
  /// Counts `n` operations of which `bad` failed.
  void Count(uint64_t n, uint64_t bad, const std::string& what);
  void Set(const std::string& name, double value);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// The result object with every metric that was Set() to a finite
  /// value, as {"name": value}. run.py selects the metrics of the run's
  /// mode from BENCHMARK.json and adds their units.
  std::string ToJson() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t logged_ = 0;
  std::vector<std::pair<std::string, double>> values_;
};

/// Steady-clock nanoseconds, the clock obs spans use.
uint64_t NowNs();

/// CPU nanoseconds of this process, all threads. On a VM with paravirt
/// steal accounting, time the hypervisor gave to other guests is not in it.
uint64_t CpuNs();

/// Quantile with linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// One timed unit of work: when it started and how long it took.
struct Timed {
  uint64_t start_ns;
  double value;
};

/// Cuts [t0, t1) into windows of `window_ns` by start time and returns,
/// per full window holding at least `min_samples` units, the
/// `q`-quantile of their values.
std::vector<double> WindowQuantiles(const std::vector<Timed>& units,
                                    uint64_t t0, uint64_t t1,
                                    uint64_t window_ns, double q,
                                    size_t min_samples);

/// Scratch directory for one run, under .bench_build/ of the working
/// directory; removed with everything in it on destruction.
class WorkDir {
 public:
  explicit WorkDir(const std::string& tag);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  std::string Path(const std::string& name) const;

 private:
  std::string dir_;
};

/// A child process with stdout/stderr redirected to files. The
/// destructor kills and reaps a child that was not waited for, so no
/// run leaves a process behind on an error path.
class Child {
 public:
  /// Starts `argv` on `cpus` (see RunOn).
  Child(const std::vector<std::string>& argv, const std::vector<int>& cpus,
        const std::string& out_path, const std::string& err_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool started() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  /// Waits up to `timeout_s` (then SIGKILLs). Returns true when the
  /// child exited with status 0. `*peak_rss_mb` receives the child's
  /// peak resident set (getrusage ru_maxrss).
  bool Wait(double timeout_s, double* peak_rss_mb);

 private:
  pid_t pid_ = -1;
};

/// Absolute path of the running executable, for re-spawning it in a
/// child mode; `sibling` resolves a binary next to it.
std::string SelfExe();
std::string SiblingExe(const std::string& name);

std::string ReadFile(const std::string& path);

/// Lines of `text` starting with `key` + ' ', with the key stripped.
std::vector<std::string> Field(const std::string& text, const std::string& key);
std::vector<double> Numbers(const std::string& line);

}  // namespace perfbench

#endif  // RWDT_PERFBENCH_HARNESS_H_
