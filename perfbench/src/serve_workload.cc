// serve_mixed: rwdt_serve as a child process (2 workers) driven over
// loopback by an in-process client with 4 keep-alive connections. The
// mix is 95% POST /v1/classify (loggen queries, some corrupt -> 422) and
// 5% POST /v1/classify_batch (~200-line raw logs). An open-loop phase at
// a fixed offered rate gives latency, timed from each request's due
// instant; a closed-loop phase gives capacity, per CPU-second of the
// server. The client shares the server's CPUs. Every response body is
// byte-compared with serve::ClassifyToJson / serve::StudyToJson of the
// same text, computed before the server starts.

#include <arpa/inet.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "ingest/ingest.h"
#include "loggen/corruptor.h"
#include "loggen/log_text.h"
#include "loggen/sparql_gen.h"
#include "obs/trace.h"
#include "replay.h"
#include "serve/verdict.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Offered rate of the open-loop phase: about a sixth of the closed-loop
// wall capacity (20,000-29,000 replies/s on a 4-vCPU x86-64 VM, see
// perfbench/README.md). Higher rates turned the host's vCPU stalls into
// backlogs lasting seconds. Frozen: changing it changes the workload.
constexpr double kOpenLoopRate = 4000;
constexpr int kConnections = 4;
constexpr int kWorkers = 2;
constexpr int kSetupReps = 10;  // before the load, and again after it
constexpr uint64_t kBatchPerMille = 50;  // 5% classify_batch
// Tail latency is reported by traced runs only, twice: the p99 of the
// whole open loop, and the median over windows of 400 arrivals (0.1 s)
// of each window's p99, which the batch requests set. Neither is steady
// enough to bound: on the VM above the host stalls each vCPU for 1-12 ms
// a few times a second, and between runs of the same code the first
// ranged from 0.55 to 7 ms, the second from 0.54 to 1.5 ms.
constexpr uint64_t kWindowNs = 100'000'000;
constexpr double kTailQuantile = 0.99;
constexpr size_t kWindowMinSamples = 390;

// ---------------------------------------------------------------------------
// Inputs and references

struct Request {
  std::string wire;  // full HTTP request
  int want_status = 200;
  std::string want_body;
  const std::string* text = nullptr;  // classify: the query text
};

struct Inputs {
  std::vector<std::string> texts;
  std::vector<Request> classify;
  std::vector<Request> batch;
  uint64_t seed = 0;

  /// The request sent as arrival `i` (deterministic in seed and i).
  const Request& Pick(uint64_t i, bool* is_batch) const {
    const uint64_t h = rwdt::obs::MixBits(seed * 0x9e3779b97f4a7c15ull + i);
    *is_batch = h % 1000 < kBatchPerMille;
    return *is_batch ? batch[(h >> 16) % batch.size()]
                     : classify[(h >> 16) % classify.size()];
  }
};

std::string Wire(const char* path, const std::string& body) {
  return std::string("POST ") + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
         "Content-Type: text/plain\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// The 422 body the server renders for a query that does not parse.
std::string ErrorJson(const rwdt::Status& status) {
  std::string out;
  rwdt::JsonWriter w(&out);
  w.BeginObject()
      .BoolField("valid", false)
      .StringField("error_class",
                   rwdt::ErrorClassName(rwdt::ClassifyStatus(status)))
      .StringField("error", status.message())
      .EndObject();
  return out;
}

Inputs MakeInputs(const Options& options) {
  Inputs in;
  in.seed = options.seed;
  const bool tiny = options.size == Size::kTiny;
  rwdt::loggen::CorruptionOptions copts;  // 20% corrupt
  {
    auto profile = rwdt::loggen::ExampleProfile(tiny ? 300 : 3000);
    profile.name = "serve_mixed";
    auto entries = rwdt::loggen::GenerateLog(profile, options.seed);
    rwdt::loggen::CorruptLog(&entries, options.seed ^ 0x5eed, copts);
    for (auto& e : entries) {
      if (!e.text.empty()) in.texts.push_back(std::move(e.text));
    }
  }
  in.classify.reserve(in.texts.size());
  for (const std::string& text : in.texts) {
    Request r;
    r.text = &text;
    r.wire = Wire("/v1/classify", text);
    auto verdict = rwdt::serve::ClassifyToJson(
        text, rwdt::serve::QueryLang::kSparql, {}, {});
    if (verdict.ok()) {
      r.want_body = std::move(verdict).value();
    } else {
      r.want_status = 422;
      r.want_body = ErrorJson(verdict.status());
    }
    in.classify.push_back(std::move(r));
  }
  const int batches = tiny ? 4 : 24;
  for (int k = 0; k < batches; ++k) {
    auto profile = rwdt::loggen::ExampleProfile(200);
    profile.name = "serve_batch";
    const uint64_t seed = options.seed * 1000 + static_cast<uint64_t>(k) + 1;
    auto entries = rwdt::loggen::GenerateLog(profile, seed);
    rwdt::loggen::CorruptLog(&entries, seed ^ 0x5eed, copts);
    std::ostringstream body;
    rwdt::loggen::WriteLogText(entries, body);
    Request r;
    r.wire = Wire("/v1/classify_batch", body.str());
    rwdt::ingest::IngestOptions iopts;  // the server's: plain, source "http"
    iopts.source_name = "http";
    iopts.engine.threads = 1;
    std::istringstream log(body.str());
    auto report = rwdt::ingest::IngestStream(log, iopts);
    r.want_body = report.ok() ? rwdt::serve::StudyToJson(report.value().study)
                              : "reference ingest failed";
    in.batch.push_back(std::move(r));
  }
  if (options.perturb == Perturb::kBody) {
    bool is_batch = false;
    const_cast<Request&>(in.Pick(0, &is_batch)).want_body += ' ';
  }
  return in;
}

// ---------------------------------------------------------------------------
// HTTP client

struct Reply {
  int status = 0;
  bool close = false;
  std::string body;
  uint64_t first_byte_ns = 0;
};

/// One keep-alive connection. Honors `Connection: close`: the caller
/// reconnects before its next request instead of writing into a socket
/// the server has finished with.
class Conn {
 public:
  explicit Conn(uint16_t port) : port_(port) {}
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool open() const { return fd_ >= 0; }

  bool Connect() {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  /// Sends `request` and reads one response. False on any transport
  /// error; the connection is closed then.
  bool RoundTrip(const std::string& request, Reply* reply) {
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return Fail();
      sent += static_cast<size_t>(n);
    }
    reply->first_byte_ns = 0;
    size_t head_end = std::string::npos;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill(reply)) return Fail();
    }
    const std::string_view head(buf_.data(), head_end);
    if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) return Fail();
    reply->status = std::atoi(std::string(head.substr(9, 3)).c_str());
    size_t length = 0;
    reply->close = false;
    size_t pos = head.find("\r\n");
    while (pos != std::string_view::npos && pos < head.size()) {
      const size_t next = head.find("\r\n", pos + 2);
      const std::string_view line =
          head.substr(pos + 2, (next == std::string_view::npos ? head.size()
                                                               : next) -
                                   pos - 2);
      if (HasName(line, "content-length")) {
        length = std::strtoull(std::string(Value(line)).c_str(), nullptr, 10);
      } else if (HasName(line, "connection")) {
        reply->close = Value(line) == "close";
      }
      pos = next;
    }
    const size_t total = head_end + 4 + length;
    while (buf_.size() < total) {
      if (!Fill(reply)) return Fail();
    }
    reply->body.assign(buf_, head_end + 4, length);
    buf_.erase(0, total);
    return true;
  }

 private:
  static bool HasName(std::string_view line, std::string_view name) {
    if (line.size() <= name.size() || line[name.size()] != ':') return false;
    for (size_t i = 0; i < name.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(line[i])) != name[i]) {
        return false;
      }
    }
    return true;
  }
  static std::string_view Value(std::string_view line) {
    std::string_view v = line.substr(line.find(':') + 1);
    while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
    return v;
  }
  bool Fill(Reply* reply) {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    if (reply->first_byte_ns == 0) reply->first_byte_ns = NowNs();
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }
  bool Fail() {
    Close();
    return false;
  }

  uint16_t port_;
  int fd_ = -1;
  std::string buf_;
};

/// A one-shot GET on a fresh connection; the body, or "" on failure.
std::string Get(uint16_t port, const std::string& path, int* status) {
  Conn conn(port);
  Reply reply;
  *status = 0;
  if (!conn.Connect() ||
      !conn.RoundTrip("GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                      "Connection: close\r\n\r\n",
                      &reply)) {
    return "";
  }
  *status = reply.status;
  return reply.body;
}

// ---------------------------------------------------------------------------
// The server process

class Server {
 public:
  /// Spawns rwdt_serve on an ephemeral port and waits for the first 200
  /// on /readyz; `setup_ns` is spawn-to-ready.
  Server(const WorkDir& wd, int index, const std::vector<int>& cpus) {
    const std::string err = wd.Path("serve" + std::to_string(index) + ".err");
    const uint64_t t0 = NowNs();
    child_ = std::make_unique<Child>(
        std::vector<std::string>{SiblingExe("rwdt_serve"), "--port=0",
                                 "--workers=" + std::to_string(kWorkers)},
        cpus, wd.Path("serve" + std::to_string(index) + ".out"), err);
    const uint64_t deadline = t0 + 20'000'000'000ull;
    while (port_ == 0 && NowNs() < deadline && child_->started()) {
      const std::string log = ReadFile(err);
      const size_t at = log.find("rwdt_serve: listening on ");
      const size_t paren = log.find(" (", at);
      if (at != std::string::npos && paren != std::string::npos) {
        const size_t colon = log.rfind(':', paren);
        port_ = static_cast<uint16_t>(std::atoi(log.c_str() + colon + 1));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    while (port_ != 0 && NowNs() < deadline) {
      int status = 0;
      Get(port_, "/readyz", &status);
      if (status == 200) {
        setup_ns_ = NowNs() - t0;
        ready_ = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  bool ready() const { return ready_; }
  uint16_t port() const { return port_; }
  uint64_t setup_ns() const { return setup_ns_; }
  /// User + system CPU seconds the server has used so far.
  double CpuSeconds() const {
    const std::string stat =
        ReadFile("/proc/" + std::to_string(child_->pid()) + "/stat");
    const size_t paren = stat.rfind(')');
    if (paren == std::string::npos) return 0;
    // Fields after the command name start at 3; utime and stime are 14
    // and 15, in clock ticks.
    std::istringstream in(stat.substr(paren + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && in >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Graceful stop via /quitquitquit; true when it exited 0.
  bool Stop(double* peak_rss_mb) {
    int status = 0;
    Get(port_, "/quitquitquit", &status);
    return child_->Wait(30, peak_rss_mb);
  }

 private:
  std::unique_ptr<Child> child_;
  uint16_t port_ = 0;
  uint64_t setup_ns_ = 0;
  bool ready_ = false;
};

// ---------------------------------------------------------------------------
// Load phases

struct Sample {
  uint64_t due_ns, sent_ns, first_byte_ns, done_ns;
  bool batch;
  bool ok;
};

struct ClientStats {
  std::vector<Sample> samples;  // completed requests
  uint64_t attempted = 0;
  uint64_t transport_errors = 0;
  uint64_t mismatches = 0;
  uint64_t server_errors = 0;  // 5xx other than 503
  uint64_t sheds = 0;          // 429 / 503
  uint64_t reconnects = 0;
  uint64_t connects = 0;
  uint64_t start_ns = 0, end_ns = 0;  // the phase

  void Merge(const ClientStats& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    attempted += o.attempted;
    transport_errors += o.transport_errors;
    mismatches += o.mismatches;
    server_errors += o.server_errors;
    sheds += o.sheds;
    reconnects += o.reconnects;
    connects += o.connects;
  }
  uint64_t failed() const {
    return transport_errors + mismatches + server_errors + sheds;
  }
};

/// Sends arrival `i` on `conn` and checks the reply against its
/// reference. `due_ns` is when the arrival was scheduled.
void Exchange(const Inputs& in, uint64_t i, uint64_t due_ns, bool traced,
              Conn* conn, ClientStats* st) {
  bool is_batch = false;
  const Request& req = in.Pick(i, &is_batch);
  st->attempted++;
  if (!conn->open()) {
    if (st->connects++ > 0) st->reconnects++;
    if (!conn->Connect()) {
      st->transport_errors++;
      return;
    }
  }
  const uint64_t sent = NowNs();
  Reply reply;
  if (!conn->RoundTrip(req.wire, &reply)) {
    st->transport_errors++;
    return;
  }
  const uint64_t done = NowNs();
  if (reply.close) conn->Close();  // the next arrival reconnects
  bool ok = false;
  if (reply.status == 429 || reply.status == 503) {
    st->sheds++;
  } else if (reply.status >= 500) {
    st->server_errors++;
  } else if (reply.status != req.want_status || reply.body != req.want_body) {
    st->mismatches++;
  } else {
    ok = true;
  }
  st->samples.push_back(
      {due_ns, sent, reply.first_byte_ns, done, is_batch, ok});
  if (traced) {
    // Client-side span tree of one request: due -> sent -> first byte ->
    // done, all under one trace id.
    rwdt::obs::TraceContext ctx;
    ctx.trace_id = rwdt::obs::MixBits(in.seed ^ (i + 1));
    ctx.span_id = rwdt::obs::NewSpanId();
    ctx.sampled = true;
    rwdt::obs::EmitSpanAs(ctx, 0, is_batch ? "serve.classify_batch"
                                           : "serve.classify",
                          due_ns, done - due_ns);
    rwdt::obs::ScopedTraceContext scoped(ctx);
    rwdt::obs::EmitSpan("client.wait_to_send", due_ns, sent - due_ns);
    rwdt::obs::EmitSpan("server.until_first_byte", sent,
                        reply.first_byte_ns - sent);
    rwdt::obs::EmitSpan("client.read_response", reply.first_byte_ns,
                        done - reply.first_byte_ns);
  }
}

void SleepUntil(uint64_t t_ns) {
  const timespec ts{static_cast<time_t>(t_ns / 1'000'000'000ull),
                    static_cast<long>(t_ns % 1'000'000'000ull)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Open loop: arrival i is due at start + i / rate, whatever the state
/// of earlier requests; each connection takes the next arrival when it
/// is free. Latency runs from the due instant, so a stalled connection
/// charges its wait to the arrivals queued behind it.
ClientStats OpenLoop(const Inputs& in, uint16_t port, double seconds,
                     uint64_t first_index, bool traced) {
  const double period_ns = 1e9 / kOpenLoopRate;
  const uint64_t start = NowNs() + 5'000'000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::atomic<uint64_t> next{0};
  std::vector<ClientStats> stats(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      Conn conn(port);
      for (;;) {
        const uint64_t k = next.fetch_add(1);
        const uint64_t due = start + static_cast<uint64_t>(k * period_ns);
        if (due >= end) break;
        if (NowNs() < due) SleepUntil(due);
        Exchange(in, first_index + k, due, traced, &conn, &stats[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
  ClientStats all;
  for (const auto& s : stats) all.Merge(s);
  all.start_ns = start;
  all.end_ns = end;
  return all;
}

/// Closed loop: each connection sends its next request as soon as the
/// previous reply arrived.
ClientStats ClosedLoop(const Inputs& in, uint16_t port, double seconds,
                       uint64_t first_index, bool traced) {
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::atomic<uint64_t> next{0};
  std::vector<ClientStats> stats(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Conn conn(port);
      while (NowNs() < end) {
        const uint64_t k = next.fetch_add(1);
        Exchange(in, first_index + k, NowNs(), traced, &conn, &stats[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
  ClientStats all;
  for (const auto& s : stats) all.Merge(s);
  all.start_ns = start;
  all.end_ns = end;
  return all;
}

/// User + system CPU seconds used so far by rwdt_serve and by this
/// process, whose threads are the client.
struct CpuTimes {
  double server = 0, client = 0;
  CpuTimes operator-(const CpuTimes& o) const {
    return {server - o.server, client - o.client};
  }
};

CpuTimes MeasureCpu(const Server& server) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return {server.CpuSeconds(),
          self.ru_utime.tv_sec + self.ru_stime.tv_sec +
              (self.ru_utime.tv_usec + self.ru_stime.tv_usec) / 1e6};
}

uint64_t CorrectReplies(const ClientStats& st) {
  uint64_t n = 0;
  for (const Sample& s : st.samples) n += s.ok ? 1 : 0;
  return n;
}

/// `_sum` and `_count` of one histogram family on /metrics.
struct HistTotals {
  double sum = 0, count = 0;
};
HistTotals Scrape(const std::string& metrics, const std::string& family) {
  HistTotals h;
  for (const auto& v : Field(metrics, family + "_sum")) h.sum = std::stod(v);
  for (const auto& v : Field(metrics, family + "_count")) h.count = std::stod(v);
  return h;
}

double MeanDelta(const HistTotals& before, const HistTotals& after) {
  const double n = after.count - before.count;
  return n > 0 ? (after.sum - before.sum) / n : 0;
}

void Account(const ClientStats& st, const char* phase, Outcome* out) {
  out->Count(st.attempted, st.failed(),
             std::string(phase) + ": transport errors, 5xx, sheds or "
                                  "response bodies != reference");
  if (st.failed() > 0) {
    std::fprintf(stderr,
                 "perf_rwdt: %s: transport=%llu mismatch=%llu 5xx=%llu "
                 "shed=%llu\n",
                 phase, static_cast<unsigned long long>(st.transport_errors),
                 static_cast<unsigned long long>(st.mismatches),
                 static_cast<unsigned long long>(st.server_errors),
                 static_cast<unsigned long long>(st.sheds));
  }
}

/// Each completed request of a phase: its due instant and its latency
/// from there to the last response byte, in ms.
std::vector<Timed> DueLatenciesMs(const ClientStats& st) {
  std::vector<Timed> units;
  for (const Sample& s : st.samples) {
    units.push_back({s.due_ns, (s.done_ns - s.due_ns) / 1e6});
  }
  return units;
}

std::vector<double> Values(const std::vector<Timed>& units) {
  std::vector<double> v;
  for (const Timed& u : units) v.push_back(u.value);
  return v;
}

std::vector<double> BatchLatenciesMs(const ClientStats& st) {
  std::vector<double> v;
  for (const Sample& s : st.samples) {
    if (s.batch) v.push_back((s.done_ns - s.due_ns) / 1e6);
  }
  return v;
}

/// Keeps the program's CPUs from idling while it lives (a `--child spin`
/// process, killed with it). The open loop leaves rwdt_serve's CPUs idle
/// most of the time, and an idle vCPU halts: waking it goes through the
/// hypervisor, whose delay grows with the host's load. On the 4-vCPU VM
/// of perfbench/README.md, the open-loop p50 read 0.09-0.29 ms in four
/// runs of the same code, and the generator sent 0.02-6 ms late at p90.
/// With one spinning thread at SCHED_IDLE priority per CPU, which every
/// other thread preempts at once, as the haltpoll cpuidle governor keeps
/// guests polling, the p50 read 0.079-0.088 ms and lateness 12-14 us.
std::unique_ptr<Child> KeepCpusAwake(const WorkDir& wd, const Options& options,
                                     double seconds) {
  return std::make_unique<Child>(
      std::vector<std::string>{SelfExe(), "--child", "spin",
                               std::to_string(seconds + 5)},
      options.cpus.program, wd.Path("spin.out"), wd.Path("spin.err"));
}

/// Wall from the phase start to its last reply, per request sent.
double SecondsPerRequest(const ClientStats& st) {
  uint64_t last = st.start_ns;
  for (const Sample& s : st.samples) last = std::max(last, s.done_ns);
  return (last - st.start_ns) / 1e9 / std::max<uint64_t>(st.attempted, 1);
}

}  // namespace

void RunServeWorkload(const Options& options, Outcome* out) {
  const Inputs in = MakeInputs(options);
  WorkDir wd("serve_mixed");

  // Set-up: spawn-to-ready, several times before the load (the last
  // server is the one measured) and again after it.
  std::vector<double> setup_ns;
  const int reps = options.size == Size::kTiny ? 1 : kSetupReps;
  auto spawn = [&](int index) {
    auto server = std::make_unique<Server>(wd, index, options.cpus.program);
    out->Check(server->ready(), "rwdt_serve did not become ready");
    if (server->ready()) {
      setup_ns.push_back(static_cast<double>(server->setup_ns()));
    }
    return server;
  };
  auto spawn_and_stop = [&](int first_index) {
    for (int i = 0; i < reps; ++i) {
      auto server = spawn(first_index + i);
      if (server->ready()) out->Check(server->Stop(nullptr), "rwdt_serve stop");
    }
  };
  spawn_and_stop(0);
  const std::unique_ptr<Server> server = spawn(reps);
  if (!server->ready()) return;
  const uint16_t port = server->port();

  // Warm-up, not measured but checked: worker threads, allocator arenas
  // and page tables of the fresh server settle before timing.
  const ClientStats warm =
      ClosedLoop(in, port, options.seconds * 0.1, 0, false);
  Account(warm, "warm-up", out);
  const uint64_t first = warm.attempted;

  if (!options.trace) {
    ClientStats open;
    {
      const auto awake = KeepCpusAwake(wd, options, options.seconds * 0.5);
      open = OpenLoop(in, port, options.seconds * 0.5, first, false);
    }
    const CpuTimes cpu0 = MeasureCpu(*server);
    const ClientStats closed = ClosedLoop(
        in, port, options.seconds * 0.4, first + open.attempted, false);
    const CpuTimes cpu = MeasureCpu(*server) - cpu0;
    double peak_rss_mb = 0;
    out->Check(server->Stop(&peak_rss_mb), "rwdt_serve did not exit cleanly");
    Account(open, "open loop", out);
    Account(closed, "closed loop", out);
    spawn_and_stop(reps + 1);
    const uint64_t correct = CorrectReplies(closed);
    std::fprintf(stderr,
                 "perf_rwdt: closed loop: %.0f correct replies/s, %.1f us "
                 "server CPU and %.1f us client CPU per reply\n",
                 correct / ((closed.end_ns - closed.start_ns) / 1e9),
                 cpu.server / correct * 1e6, cpu.client / correct * 1e6);
    // Capacity per CPU-second of rwdt_serve rather than per wall second:
    // between runs, the wall rate moved with the host's load about three
    // times as much as the CPU cost of a reply.
    out->Set("throughput_per_s", correct / cpu.server);
    out->Set("latency_ms", Median(Values(DueLatenciesMs(open))));
    out->Set("setup_s", Median(setup_ns) / 1e9);
    out->Set("peak_rss_mb", peak_rss_mb);
    return;
  }

  // Traced: an untraced closed-loop baseline, then the open loop and a
  // closed loop with client spans, /metrics scraped around the open loop.
  const double quarter = options.seconds * 0.2;
  const CpuTimes cpu0 = MeasureCpu(*server);
  const ClientStats base = ClosedLoop(in, port, quarter, first, false);
  const CpuTimes base_cpu = MeasureCpu(*server) - cpu0;
  int status = 0;
  const std::string before = Get(port, "/metrics", &status);
  std::string after;
  ClientStats open, closed;
  {
    rwdt::obs::TraceCollector trace(BenchTraceOptions());
    {
      const auto awake = KeepCpusAwake(wd, options, options.seconds * 0.5);
      open = OpenLoop(in, port, options.seconds * 0.5,
                      first + base.attempted, true);
    }
    after = Get(port, "/metrics", &status);
    out->Check(status == 200 && !before.empty(), "GET /metrics failed");
    closed = ClosedLoop(in, port, quarter,
                        first + base.attempted + open.attempted, true);
    // The parse and classify layers, replayed in this process over the
    // classify texts the open loop sent, each weighted by its sends.
    WeightedLog log;
    std::vector<uint64_t> sends(in.texts.size(), 0);
    for (uint64_t k = 0; k < open.attempted; ++k) {
      bool is_batch = false;
      const Request& r = in.Pick(first + base.attempted + k, &is_batch);
      if (!is_batch) sends[static_cast<size_t>(r.text - in.texts.data())]++;
    }
    for (size_t t = 0; t < in.texts.size(); ++t) {
      if (sends[t] == 0) continue;
      log.texts.push_back(in.texts[t]);
      log.weights.push_back(sends[t]);
      log.entries += sends[t];
    }
    ReplayTimings tb;
    ReplayDistinct(log, "serve_mixed", &tb);
    SetReplayMetrics(log.texts.size(), tb, out);
    WriteTrace(trace, options, out);
  }
  out->Check(server->Stop(nullptr), "rwdt_serve did not exit cleanly");
  Account(base, "untraced closed loop", out);
  Account(open, "traced open loop", out);
  Account(closed, "traced closed loop", out);

  const double queue_wait_s =
      MeanDelta(Scrape(before, "rwdt_serve_queue_wait_seconds"),
                Scrape(after, "rwdt_serve_queue_wait_seconds"));
  const double job_s = MeanDelta(Scrape(before, "rwdt_serve_job_seconds"),
                                 Scrape(after, "rwdt_serve_job_seconds"));
  double client_s = 0;
  std::vector<double> late_ms;
  for (const Sample& s : open.samples) {
    client_s += (s.done_ns - s.sent_ns) / 1e9;
    late_ms.push_back((s.sent_ns - s.due_ns) / 1e6);
  }
  if (!open.samples.empty()) client_s /= open.samples.size();
  out->Set("serve.queue_wait_us", queue_wait_s * 1e6);
  out->Set("serve.job_us", job_s * 1e6);
  out->Set("serve.http_us", (client_s - queue_wait_s - job_s) * 1e6);
  out->Set("serve.batch_size_mean",
           MeanDelta(Scrape(before, "rwdt_serve_batch_size"),
                     Scrape(after, "rwdt_serve_batch_size")));
  out->Set("serve.reconnects",
           static_cast<double>(base.reconnects + open.reconnects +
                               closed.reconnects));
  const uint64_t attempted = base.attempted + open.attempted + closed.attempted;
  out->Set("serve.shed_ratio",
           attempted == 0 ? 0
                          : static_cast<double>(base.sheds + open.sheds +
                                                closed.sheds) /
                                attempted);
  out->Set("serve.gen_late_p99_ms", Quantile(late_ms, 0.99));
  out->Set("serve.batch_p50_ms", Median(BatchLatenciesMs(open)));
  const std::vector<Timed> latencies = DueLatenciesMs(open);
  out->Set("serve.open_p99_ms", Quantile(Values(latencies), kTailQuantile));
  const bool tiny = options.size == Size::kTiny;
  out->Set("serve.window_p99_ms",
           Median(WindowQuantiles(latencies, open.start_ns, open.end_ns,
                                  tiny ? kWindowNs / 10 : kWindowNs,
                                  kTailQuantile,
                                  tiny ? 1 : kWindowMinSamples)));
  out->Set("serve.client_cpu_share",
           base_cpu.client / (base_cpu.client + base_cpu.server));
  // Per-request throughput cost of client tracing.
  out->Set("obs.trace_overhead_ratio",
           SecondsPerRequest(closed) / SecondsPerRequest(base));
}

// args: seconds
int SpinChildMain(const std::vector<std::string>& args) {
  if (args.size() != 1) return 2;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(std::stod(args[0]) * 1e9);
  const sched_param param{};
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_setscheduler(0, SCHED_IDLE, &param) != 0 ||
      sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return 1;
  }
  // Threads inherit SCHED_IDLE; one per CPU this process may use.
  std::vector<std::thread> threads;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    threads.emplace_back([cpu, deadline] {
      RunOn({cpu});
      while (NowNs() < deadline) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
  for (auto& t : threads) t.join();
  return 0;
}

}  // namespace perfbench
