#include "harness.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/trace.h"

extern char** environ;

namespace perfbench {

void Outcome::Check(bool ok, const std::string& what) {
  Count(1, ok ? 0 : 1, what);
}

void Outcome::Count(uint64_t n, uint64_t bad, const std::string& what) {
  attempted_ += n;
  failed_ += bad;
  if (bad > 0 && logged_++ < 8) {
    std::fprintf(stderr, "perf_rwdt: MISMATCH: %s (%" PRIu64 " of %" PRIu64
                 ")\n", what.c_str(), bad, n);
  }
}

void Outcome::Set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

std::string Outcome::ToJson() const {
  std::string metrics;
  for (const auto& [name, value] : values_) {
    if (!std::isfinite(value)) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g",
                  metrics.empty() ? "" : ", ", name.c_str(), value);
    metrics += buf;
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct() ? "true" : "false", attempted_, failed_);
  return head + metrics + "}}";
}

uint64_t NowNs() { return rwdt::obs::TraceNowNs(); }

uint64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::vector<double> WindowQuantiles(const std::vector<Timed>& units,
                                    uint64_t t0, uint64_t t1,
                                    uint64_t window_ns, double q,
                                    size_t min_samples) {
  const uint64_t n = t1 > t0 ? (t1 - t0) / window_ns : 0;
  std::vector<std::vector<double>> windows(n);
  for (const Timed& u : units) {
    if (u.start_ns < t0) continue;
    const uint64_t w = (u.start_ns - t0) / window_ns;
    if (w < n) windows[w].push_back(u.value);
  }
  std::vector<double> out;
  for (auto& values : windows) {
    if (values.size() >= min_samples && !values.empty()) {
      out.push_back(Quantile(std::move(values), q));
    }
  }
  return out;
}

WorkDir::WorkDir(const std::string& tag) {
  dir_ = ".bench_build/work/" + tag + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

std::string WorkDir::Path(const std::string& name) const {
  return dir_ + "/" + name;
}

CpuSplit SplitCpus(int program_cpus, bool shared) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return {};
  const size_t n = std::min<size_t>(static_cast<size_t>(program_cpus),
                                    cpus.size() - 1);
  const std::vector<int> program(cpus.begin(),
                                 cpus.begin() + static_cast<ptrdiff_t>(n));
  if (shared) return {program, program};
  return {program, {cpus.begin() + static_cast<ptrdiff_t>(n), cpus.end()}};
}

void RunOn(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

Child::Child(const std::vector<std::string>& argv, const std::vector<int>& cpus,
             const std::string& out_path, const std::string& err_path) {
  // A spawned process inherits the calling thread's CPUs: move there for
  // the spawn, then back.
  cpu_set_t saved;
  const bool restore =
      !cpus.empty() && sched_getaffinity(0, sizeof(saved), &saved) == 0;
  RunOn(cpus);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  if (posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ) ==
      0) {
    pid_ = pid;
  }
  posix_spawn_file_actions_destroy(&actions);
  if (restore) sched_setaffinity(0, sizeof(saved), &saved);
}

Child::~Child() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

bool Child::Wait(double timeout_s, double* peak_rss_mb) {
  if (pid_ <= 0) return false;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(timeout_s * 1e9);
  int status = 0;
  struct rusage usage {};
  for (;;) {
    const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
    if (r == pid_) break;
    if (r < 0) {
      pid_ = -1;
      return false;
    }
    if (NowNs() > deadline) {
      std::fprintf(stderr, "perf_rwdt: child %d timed out, killing\n",
                   static_cast<int>(pid_));
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::fprintf(stderr,
               "perf_rwdt: child %d: user %.3f s, sys %.3f s, minflt %ld, "
               "majflt %ld, ctx switches %ld voluntary %ld involuntary\n",
               static_cast<int>(pid_),
               usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6,
               usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6,
               usage.ru_minflt, usage.ru_majflt, usage.ru_nvcsw,
               usage.ru_nivcsw);
  pid_ = -1;
  if (peak_rss_mb != nullptr) {
    *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string SelfExe() {
  return std::filesystem::read_symlink("/proc/self/exe").string();
}

std::string SiblingExe(const std::string& name) {
  return (std::filesystem::path(SelfExe()).parent_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> Field(const std::string& text,
                               const std::string& key) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ' ') {
      out.push_back(line.substr(key.size() + 1));
    }
  }
  return out;
}

std::vector<double> Numbers(const std::string& line) {
  std::vector<double> out;
  std::istringstream in(line);
  double v = 0;
  while (in >> v) out.push_back(v);
  return out;
}

}  // namespace perfbench
