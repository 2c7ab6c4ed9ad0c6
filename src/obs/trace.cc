#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdio>

#include "common/json.h"
#include "serve/http_server.h"

namespace rwdt::obs {
namespace internal {

std::atomic<bool> g_trace_active{false};

namespace {

/// The active collector and its generation. The generation bumps on
/// every install *and* uninstall so that a thread's cached ring pointer
/// (valid only for the collector that handed it out) is never reused
/// against a different collector.
std::mutex g_install_mu;
TraceCollector* g_collector = nullptr;             // guarded by g_install_mu
std::atomic<uint64_t> g_generation{0};

struct ThreadRingCache {
  TraceRing* ring = nullptr;
  uint64_t generation = 0;
};
thread_local ThreadRingCache t_ring_cache;

}  // namespace

void EmitSpanSlow(const char* name, uint64_t ts_ns, uint64_t dur_ns,
                  uint64_t trace_id, uint64_t span_id, uint64_t parent_id) {
  const uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_ring_cache.ring == nullptr || t_ring_cache.generation != gen) {
    std::lock_guard<std::mutex> lock(g_install_mu);
    if (g_collector == nullptr) return;  // uninstalled since the fast check
    t_ring_cache.ring = g_collector->RegisterCurrentThread();
    t_ring_cache.generation = g_generation.load(std::memory_order_relaxed);
  }
  t_ring_cache.ring->Append(name, ts_ns, dur_ns, trace_id, span_id, parent_id);
}

}  // namespace internal

uint64_t NewTraceId() {
  // Per-process random base (the steady clock at first use, mixed) so
  // two processes started together still mint disjoint id streams; the
  // counter keeps ids unique within the process. MixBits is bijective,
  // so collisions within one process are impossible.
  static const uint64_t base = MixBits(TraceNowNs() | 1);
  static std::atomic<uint64_t> n{0};
  const uint64_t id =
      MixBits(base + n.fetch_add(1, std::memory_order_relaxed));
  return id != 0 ? id : 1;
}

uint64_t NewSpanId() {
  static std::atomic<uint64_t> n{0};
  const uint64_t id = MixBits(n.fetch_add(1, std::memory_order_relaxed) + 1);
  return id != 0 ? id : 1;
}

std::string TraceIdHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

std::string FormatTraceparent(const TraceContext& ctx) {
  // version 00, 128-bit trace id with our 64 bits in the low half.
  std::string out = "00-0000000000000000";
  out += TraceIdHex(ctx.trace_id);
  out += '-';
  out += TraceIdHex(ctx.span_id);
  out += ctx.sampled ? "-01" : "-00";
  return out;
}

namespace {

/// Value of one lower-case hex digit, or -1. The W3C spec mandates
/// lower case on the wire; upper case is malformed by definition.
int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// Parses exactly `n` lower-case hex digits into `*out`; false on any
/// non-hex character.
bool ParseHex(std::string_view s, size_t pos, size_t n, uint64_t* out) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    const int d = HexVal(s[pos + i]);
    if (d < 0) return false;
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  *out = v;
  return true;
}

}  // namespace

bool ParseTraceparent(std::string_view header, TraceContext* ctx) {
  // 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags> == 55 chars.
  // Unknown future versions may append fields; we accept only the
  // version-00 shape and hand anything else a fresh trace.
  if (header.size() != 55) return false;
  if (header[2] != '-' || header[35] != '-' || header[52] != '-') return false;
  uint64_t version = 0, hi = 0, lo = 0, parent = 0, flags = 0;
  if (!ParseHex(header, 0, 2, &version)) return false;
  if (version == 0xff) return false;  // forbidden by the spec
  if (!ParseHex(header, 3, 16, &hi) || !ParseHex(header, 19, 16, &lo)) {
    return false;
  }
  if (!ParseHex(header, 36, 16, &parent)) return false;
  if (!ParseHex(header, 53, 2, &flags)) return false;
  if ((hi | lo) == 0 || parent == 0) return false;  // all-zero ids invalid
  // Fold 128 -> 64: keep the low half (ours round-trip exactly); a
  // foreign id with an all-zero low half keeps its high half instead.
  ctx->trace_id = lo != 0 ? lo : hi;
  ctx->span_id = parent;  // the caller's span: our root spans nest under it
  ctx->sampled = (flags & 1) != 0;
  return true;
}

bool DrainActiveTraceJson(std::string* out, size_t limit) {
  std::lock_guard<std::mutex> lock(internal::g_install_mu);
  if (internal::g_collector == nullptr) return false;
  *out = internal::g_collector->ToChromeJson(limit);
  return true;
}

serve::HttpResponse HandleTracez(const serve::HttpRequest& request) {
  serve::HttpResponse resp;
  // A trace drain is a point-in-time snapshot; caching one would hide
  // every later scrape.
  resp.extra_headers.push_back({"Cache-Control", "no-store"});
  // Default cap: an 8192-event ring per thread times a worker pool
  // renders multi-MB otherwise.
  const std::string param = serve::QueryParam(request.query, "limit", "5000");
  const char* end = param.data() + param.size();
  size_t limit = 0;
  // from_chars on an unsigned type takes digits only: no sign, no space.
  const auto [ptr, ec] = std::from_chars(param.data(), end, limit);
  if (ec != std::errc() || ptr != end) {
    resp.status = 400;
    resp.body = "limit must be a non-negative integer\n";
    return resp;
  }
  std::string json;
  if (DrainActiveTraceJson(&json, limit)) {
    resp.content_type = "application/json; charset=utf-8";
    resp.body = std::move(json);
  } else {
    resp.status = 503;
    resp.body = "no active trace collector (set RWDT_TRACE or install one)\n";
  }
  return resp;
}

uint64_t TraceNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceRing::TraceRing(size_t capacity, uint32_t tid) : tid_(tid) {
  const size_t cap = std::bit_ceil(std::max<size_t>(capacity, 2));
  slots_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  const size_t cap = capacity();
  const uint64_t h1 = head_.load(std::memory_order_acquire);
  const uint64_t lo = h1 > cap ? h1 - cap : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(h1 - lo));
  for (uint64_t i = lo; i < h1; ++i) {
    const Slot& s = slots_[i & mask_];
    TraceEvent ev;
    ev.name = s.name.load(std::memory_order_relaxed);
    ev.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
    ev.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
    ev.trace_id = s.trace_id.load(std::memory_order_relaxed);
    ev.span_id = s.span_id.load(std::memory_order_relaxed);
    ev.parent_id = s.parent_id.load(std::memory_order_relaxed);
    ev.tid = tid_;
    out.push_back(ev);
  }
  // A writer that wrapped past `lo` while we were reading may have been
  // rewriting the slots we copied first. Any logical index at or below
  // h2 - cap (the slot the writer may currently be filling reuses index
  // h2 - cap) is suspect; drop it. Before wraparound nothing is dropped.
  const uint64_t h2 = head_.load(std::memory_order_acquire);
  if (h2 >= cap) {
    const uint64_t stable_lo = h2 - cap + 1;
    if (stable_lo > lo) {
      const uint64_t drop =
          std::min<uint64_t>(stable_lo - lo, out.size());
      out.erase(out.begin(), out.begin() + static_cast<size_t>(drop));
    }
  }
  return out;
}

TraceCollector::TraceCollector(const TraceOptions& options)
    : options_(options) {
  {
    std::lock_guard<std::mutex> lock(internal::g_install_mu);
    if (internal::g_collector != nullptr) return;  // someone else is tracing
    internal::g_collector = this;
    internal::g_generation.fetch_add(1, std::memory_order_release);
    epoch_ns_ = TraceNowNs();
    installed_ = true;
    internal::g_trace_active.store(true, std::memory_order_release);
  }
  // Surface span-loss accounting on /metrics for as long as we record.
  // Registered outside g_install_mu: the registry lock is taken here and
  // in CollectMetrics (via Collect), never with g_install_mu held.
  MetricRegistry& registry = MetricRegistry::Global();
  metrics_collector_ = ScopedCollector(
      &registry, registry.AddCollector([this](std::vector<FamilySnapshot>* o) {
        CollectMetrics(o);
      }));
}

TraceCollector::~TraceCollector() {
  if (!installed_) return;
  // Unhook the scrape callback before tearing down the install, so no
  // Collect can observe a half-dead collector.
  metrics_collector_.Reset();
  internal::g_trace_active.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(internal::g_install_mu);
  internal::g_collector = nullptr;
  internal::g_generation.fetch_add(1, std::memory_order_release);
}

TraceRing* TraceCollector::RegisterCurrentThread() {
  // Caller holds g_install_mu; rings_mu_ still taken so the exporter
  // can iterate rings_ without the install lock.
  std::lock_guard<std::mutex> lock(rings_mu_);
  const uint32_t tid = static_cast<uint32_t>(rings_.size());
  rings_.push_back(
      std::make_unique<TraceRing>(options_.events_per_thread, tid));
  return rings_.back().get();
}

std::vector<TraceEvent> TraceCollector::Drain() const {
  std::vector<TraceEvent> all;
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) {
    std::vector<TraceEvent> events = ring->Snapshot();
    all.insert(all.end(), events.begin(), events.end());
  }
  return all;
}

uint64_t TraceCollector::events_recorded() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) total += ring->appended();
  return total;
}

uint64_t TraceCollector::events_dropped() const {
  uint64_t dropped = 0;
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) {
    const uint64_t appended = ring->appended();
    if (appended > ring->capacity()) dropped += appended - ring->capacity();
  }
  return dropped;
}

size_t TraceCollector::threads_seen() const {
  std::lock_guard<std::mutex> lock(rings_mu_);
  return rings_.size();
}

void TraceCollector::CollectMetrics(std::vector<FamilySnapshot>* out) const {
  // Runs under the registry mutex (scrape time). Only rings_mu_ is taken
  // here; no path acquires the registry mutex with rings_mu_ held, so
  // the order registry -> rings is acyclic.
  std::lock_guard<std::mutex> lock(rings_mu_);
  uint64_t recorded = 0, dropped = 0;
  FamilySnapshot occupancy;
  occupancy.name = "rwdt_trace_ring_occupancy";
  occupancy.help =
      "Fraction of each trace thread's ring currently holding events; "
      "1 means the ring has wrapped and is overwriting its oldest spans";
  occupancy.type = MetricType::kGauge;
  for (const auto& ring : rings_) {
    const uint64_t appended = ring->appended();
    const uint64_t cap = ring->capacity();
    recorded += appended;
    if (appended > cap) dropped += appended - cap;
    occupancy.samples.push_back(
        {"",
         {{"thread", std::to_string(ring->tid())}},
         static_cast<double>(std::min<uint64_t>(appended, cap)) /
             static_cast<double>(cap)});
  }
  FamilySnapshot rec;
  rec.name = "rwdt_trace_spans_recorded";
  rec.help = "Spans appended to trace rings since the collector installed";
  rec.type = MetricType::kCounter;
  rec.samples.push_back({"_total", {}, static_cast<double>(recorded)});
  FamilySnapshot drop;
  drop.name = "rwdt_trace_spans_dropped";
  drop.help = "Spans lost to trace ring overwrites (recorded minus retained)";
  drop.type = MetricType::kCounter;
  drop.samples.push_back({"_total", {}, static_cast<double>(dropped)});
  FamilySnapshot threads;
  threads.name = "rwdt_trace_threads";
  threads.help = "Threads that have registered a trace ring";
  threads.type = MetricType::kGauge;
  threads.samples.push_back({"", {}, static_cast<double>(rings_.size())});
  out->push_back(std::move(rec));
  out->push_back(std::move(drop));
  out->push_back(std::move(threads));
  out->push_back(std::move(occupancy));
}

std::string TraceCollector::ToChromeJson(size_t limit) const {
  std::vector<TraceEvent> events = Drain();
  if (limit > 0 && events.size() > limit) {
    // Keep the `limit` most recent events by start time (the tail of
    // the run — what a /tracez scrape of a live server wants), then
    // restore per-thread order below.
    std::nth_element(events.begin(), events.begin() + (events.size() - limit),
                     events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    events.erase(events.begin(),
                 events.begin() + static_cast<ptrdiff_t>(events.size() - limit));
  }
  // Sort by (tid, start): Perfetto does not require ordering, but it
  // makes the per-thread timeline directly readable in the raw JSON and
  // gives the tests a crisp monotonicity contract.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_ns < b.ts_ns;
                   });

  std::string out = "{\"traceEvents\":[";
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
                "\"args\":{\"name\":\"%s\"}}",
                JsonEscape(options_.process_name).c_str());
  out += buf;
  for (size_t t = 0; t < threads_seen(); ++t) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":"
                  "\"thread-%zu\"}}",
                  t, t);
    out += buf;
  }
  for (const TraceEvent& ev : events) {
    // Rebase onto the install epoch; a span whose start predates the
    // epoch (installed mid-measurement) clamps to 0.
    const uint64_t rel =
        ev.ts_ns > epoch_ns_ ? ev.ts_ns - epoch_ns_ : 0;
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
                  "\"cat\":\"rwdt\",\"ts\":%.3f,\"dur\":%.3f",
                  ev.tid,
                  JsonEscape(ev.name != nullptr ? ev.name : "?").c_str(),
                  rel / 1e3, ev.dur_ns / 1e3);
    out += buf;
    if (ev.span_id != 0) {
      // Span-tree identity rides in args; Perfetto shows it on click.
      // trace_id is omitted for request-free spans (engine/bench runs).
      out += ",\"args\":{";
      if (ev.trace_id != 0) {
        out += "\"trace_id\":\"";
        out += TraceIdHex(ev.trace_id);
        out += "\",";
      }
      out += "\"span_id\":\"";
      out += TraceIdHex(ev.span_id);
      out += "\",\"parent_id\":\"";
      out += TraceIdHex(ev.parent_id);
      out += "\"}";
    }
    out += '}';
  }
  std::snprintf(buf, sizeof(buf),
                "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"events_recorded\":%llu,\"events_dropped\":%llu,"
                "\"threads\":%zu,\"events_shown\":%zu}}",
                static_cast<unsigned long long>(events_recorded()),
                static_cast<unsigned long long>(events_dropped()),
                threads_seen(), events.size());
  out += buf;
  return out;
}

Status TraceCollector::WriteChromeJson(const std::string& path) const {
  const std::string json = ToChromeJson();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound("cannot write trace file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::Internal("short write to trace file: " + path);
  }
  return Status::Ok();
}

}  // namespace rwdt::obs
