#ifndef RWDT_OBS_TRACE_H_
#define RWDT_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/registry.h"

namespace rwdt::serve {
struct HttpRequest;
struct HttpResponse;
}  // namespace rwdt::serve

namespace rwdt::obs {

/// One completed span, as drained from a thread's ring buffer.
/// Timestamps are steady-clock nanoseconds (the same clock the engine's
/// metrics use); the exporter rebases them onto the collector's install
/// time.
///
/// Spans form a tree: `trace_id` groups every span of one request,
/// `span_id` names this span, and `parent_id` points at the enclosing
/// span (0 = root). Spans emitted outside any request context carry
/// trace_id 0 and stay flat — exactly the v1/v2 shape, so engine and
/// bench traces are unchanged.
struct TraceEvent {
  const char* name = nullptr;  // static string supplied at emit time
  uint32_t tid = 0;            // dense trace-thread id (registration order)
  uint64_t ts_ns = 0;          // span start
  uint64_t dur_ns = 0;         // span duration
  uint64_t trace_id = 0;       // request trace (0 = no request context)
  uint64_t span_id = 0;        // this span (0 = pre-v3 event)
  uint64_t parent_id = 0;      // enclosing span (0 = root)
};

/// SplitMix64 finalizer: the bit mixer behind span-id generation and
/// the deterministic head sampler. Bijective, so distinct inputs never
/// collide, and a single-bit input change avalanches the whole output.
inline uint64_t MixBits(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The request-scoped trace identity carried from the HTTP front end
/// through the job queue, the worker, and every subsystem the worker
/// calls (ingest, engine, exec). Plain value type: copy it into a job,
/// install it on the processing thread with ScopedTraceContext.
struct TraceContext {
  uint64_t trace_id = 0;  // 0 = no active request trace
  uint64_t span_id = 0;   // current span; new spans become its children
  bool sampled = false;   // head/tail sampling verdict for this trace

  /// True when this context belongs to a request trace.
  bool active() const { return trace_id != 0; }
};

/// Process-unique non-zero ids. NewTraceId seeds from the steady clock
/// so ids differ across processes; NewSpanId is a mixed global counter
/// (one relaxed fetch_add + SplitMix64 — cheap enough for every span).
uint64_t NewTraceId();
uint64_t NewSpanId();

/// `id` as exactly 16 lower-case hex digits (the W3C trace-id /
/// span-id wire spelling, and the exemplar label value on /metrics).
std::string TraceIdHex(uint64_t id);

/// Renders `ctx` as a W3C Trace Context `traceparent` header value:
/// `00-<32 hex trace id>-<16 hex span id>-<01|00>`. Our 64-bit trace id
/// occupies the low half of the 128-bit field; the high half is zero.
std::string FormatTraceparent(const TraceContext& ctx);

/// Parses a W3C `traceparent` header value into `*ctx` (trace id, the
/// caller's span id as `span_id`, and the sampled flag). Returns false
/// — leaving `*ctx` untouched — on anything malformed: wrong length or
/// dash positions, non-hex digits, version ff, or an all-zero trace or
/// parent id. A 128-bit trace id folds to our 64-bit space by taking
/// the low 64 bits (the high 64 when the low half is all zero), so ids
/// minted by FormatTraceparent round-trip exactly.
bool ParseTraceparent(std::string_view header, TraceContext* ctx);

/// Deterministic head sampler: the decision is a pure function of
/// (trace_id, seed), so every process holding the same seed — and every
/// re-run of the same request stream — samples the identical subset.
/// rate <= 0 samples nothing, rate >= 1 everything.
struct TraceSampler {
  double rate = 0;
  uint64_t seed = 0;

  bool Sample(uint64_t trace_id) const {
    if (trace_id == 0 || rate <= 0.0) return false;  // id 0 = "no trace"
    if (rate >= 1.0) return true;
    // Top 53 mixed bits as a uniform double in [0, 1).
    return (MixBits(trace_id ^ seed) >> 11) * 0x1.0p-53 < rate;
  }
};

namespace internal {
extern std::atomic<bool> g_trace_active;
void EmitSpanSlow(const char* name, uint64_t ts_ns, uint64_t dur_ns,
                  uint64_t trace_id, uint64_t span_id, uint64_t parent_id);

/// The calling thread's current trace context. One instance per thread
/// program-wide (inline function-local thread_local).
inline TraceContext& MutableCurrentContext() {
  thread_local TraceContext ctx;
  return ctx;
}
}  // namespace internal

/// Read-only view of the calling thread's current trace context. Copy
/// it into a queued job to propagate the trace across a thread handoff.
inline const TraceContext& CurrentTraceContext() {
  return internal::MutableCurrentContext();
}

/// Installs `ctx` as the calling thread's trace context for the current
/// scope and restores the previous context on destruction. This is the
/// context-propagation primitive: the serve worker installs the job's
/// context before touching ingest/engine/exec, and the engine's thread
/// pool installs the submitting thread's context inside each shard task.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx)
      : prev_(internal::MutableCurrentContext()) {
    internal::MutableCurrentContext() = ctx;
  }
  ~ScopedTraceContext() { internal::MutableCurrentContext() = prev_; }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

/// Fixed-capacity single-writer ring buffer of trace events.
///
/// The hot path (`Append`) is lock-free and allocation-free: relaxed
/// stores into a pre-allocated slot plus one release store of the head
/// index. When the ring is full the oldest event is overwritten, so
/// tracing a week-long run costs bounded memory and always retains the
/// most recent window. `Snapshot` may run concurrently with the writer:
/// every slot field is an atomic, and the drain re-reads the head
/// afterwards to discard any slot that a wrapping writer may have been
/// rewriting mid-read (after wraparound this conservatively drops the
/// single oldest retained event).
///
/// One ring has exactly one writer thread; the `TraceCollector` owns one
/// ring per traced thread.
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit TraceRing(size_t capacity, uint32_t tid = 0);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Writer-only. `name` must outlive the ring (use string literals or
  /// otherwise static storage).
  void Append(const char* name, uint64_t ts_ns, uint64_t dur_ns,
              uint64_t trace_id = 0, uint64_t span_id = 0,
              uint64_t parent_id = 0) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h & mask_];
    s.name.store(name, std::memory_order_relaxed);
    s.ts_ns.store(ts_ns, std::memory_order_relaxed);
    s.dur_ns.store(dur_ns, std::memory_order_relaxed);
    s.trace_id.store(trace_id, std::memory_order_relaxed);
    s.span_id.store(span_id, std::memory_order_relaxed);
    s.parent_id.store(parent_id, std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
  }

  /// Copies out the currently-stable events, oldest first. Safe to call
  /// from any thread while the writer keeps appending.
  std::vector<TraceEvent> Snapshot() const;

  /// Total events ever appended (monotone; not reduced by overwrites).
  uint64_t appended() const { return head_.load(std::memory_order_acquire); }

  size_t capacity() const { return mask_ + 1; }
  uint32_t tid() const { return tid_; }

 private:
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_id{0};
  };

  std::unique_ptr<Slot[]> slots_;
  size_t mask_;
  uint32_t tid_;
  std::atomic<uint64_t> head_{0};
};

struct TraceOptions {
  /// Ring capacity per traced thread (events). 8192 events ≈ 384 KiB
  /// per thread; with overwrite-oldest semantics this is the retained
  /// window, not a limit on run length.
  size_t events_per_thread = 8192;

  /// "process_name" metadata in the exported trace.
  std::string process_name = "rwdt";
};

/// Installs itself as the process-wide tracer on construction (if none
/// is active) and collects spans from every thread that emits them.
///
/// Usage:
///
///   rwdt::obs::TraceCollector trace;         // tracing on
///   ... run the engine / ingest ...
///   trace.WriteChromeJson("trace.json");     // open in Perfetto
///                                            // (chrome://tracing)
///
/// While installed, the collector also exports its loss accounting to
/// the global MetricRegistry (rwdt_trace_spans_recorded/_dropped,
/// rwdt_trace_ring_occupancy{thread=...}), so span loss shows up on
/// /metrics, not only inside the exported trace file.
///
/// Lifetime contract: destroy the collector only after all traced work
/// has quiesced (engine runs returned, pools drained). At most one
/// collector is active at a time; a second one constructed while another
/// is active stays inert (`installed()` == false) and records nothing.
class TraceCollector {
 public:
  explicit TraceCollector(const TraceOptions& options = {});
  ~TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Whether this collector won the install race and is recording.
  bool installed() const { return installed_; }

  /// Drains every thread's ring and renders Chrome trace-event JSON
  /// (the "JSON Array Format" with a traceEvents wrapper object), one
  /// complete-event ("ph":"X") per span, sorted by start time within
  /// each thread. Span-tree identity (trace/span/parent ids) rides in
  /// each event's "args". Loadable by Perfetto / chrome://tracing.
  ///
  /// `limit` > 0 keeps only the `limit` most recent events (by start
  /// time, across all threads) — the /tracez scrape cap. 0 = all.
  std::string ToChromeJson(size_t limit = 0) const;

  /// ToChromeJson written to `path` (overwrites).
  Status WriteChromeJson(const std::string& path) const;

  /// Total spans appended across all threads (including overwritten).
  uint64_t events_recorded() const;
  /// Spans lost to ring overwrites (recorded minus currently retained).
  uint64_t events_dropped() const;
  /// Number of threads that have registered a ring.
  size_t threads_seen() const;

  /// Steady-clock ns of installation — the exported trace's time zero.
  uint64_t epoch_ns() const { return epoch_ns_; }

 private:
  friend void internal::EmitSpanSlow(const char* name, uint64_t ts_ns,
                                     uint64_t dur_ns, uint64_t trace_id,
                                     uint64_t span_id, uint64_t parent_id);

  TraceRing* RegisterCurrentThread();
  std::vector<TraceEvent> Drain() const;  // all rings, merged
  void CollectMetrics(std::vector<FamilySnapshot>* out) const;

  TraceOptions options_;
  bool installed_ = false;
  uint64_t epoch_ns_ = 0;
  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  // Last member: destroyed first, so the scrape callback (which reads
  // rings_ under rings_mu_) is unhooked before anything else dies.
  ScopedCollector metrics_collector_;
};

/// True while a TraceCollector is installed. One relaxed atomic load —
/// this is the whole cost of instrumentation when tracing is off.
inline bool TracingActive() {
  return internal::g_trace_active.load(std::memory_order_relaxed);
}

/// True when a span emitted right now would be recorded: a collector is
/// installed AND the thread's context is either request-free (engine /
/// bench runs trace as before) or a sampled request. Unsampled requests
/// skip span recording entirely — that is the head sampler's job.
inline bool SpanEnabled() {
  if (!TracingActive()) return false;
  const TraceContext& ctx = CurrentTraceContext();
  return ctx.trace_id == 0 || ctx.sampled;
}

/// If a TraceCollector is installed, renders its Chrome trace JSON into
/// `*out` and returns true; false when no collector is active. The
/// install lock is held for the duration, so the collector cannot be
/// destroyed mid-serialization — this is what lets the admin server's
/// /tracez pull a trace from a live run at any moment. `limit` caps the
/// rendered events as in ToChromeJson (0 = all).
bool DrainActiveTraceJson(std::string* out, size_t limit = 0);

/// GET /tracez, shared by the engine admin server and the serve front
/// end: drains the active collector as Chrome trace JSON (503 when none
/// is installed), never cacheable. `?limit=N` caps the rendered events
/// (default 5000, 0 = all); N must be 1*DIGIT and fit a size_t, anything
/// else is a 400.
serve::HttpResponse HandleTracez(const serve::HttpRequest& request);

/// Steady-clock nanoseconds (the clock all span timestamps use).
uint64_t TraceNowNs();

/// Records one pre-measured span (e.g. a stage duration the caller
/// already clocked for its metrics histogram) as a child of the
/// thread's current span. No-op when tracing is off or the current
/// request is unsampled. `name` must have static storage duration.
inline void EmitSpan(const char* name, uint64_t ts_ns, uint64_t dur_ns) {
  if (!TracingActive()) return;
  const TraceContext& ctx = CurrentTraceContext();
  if (ctx.trace_id != 0 && !ctx.sampled) return;
  internal::EmitSpanSlow(name, ts_ns, dur_ns, ctx.trace_id, NewSpanId(),
                         ctx.span_id);
}

/// Records a pre-measured span with explicit identity: `ctx.span_id` IS
/// the span, `parent_id` its parent. For callers that allocated the
/// span id up front and handed `ctx` to other threads so their spans
/// nest underneath — e.g. the serve layer's per-request root span,
/// emitted by the handler after the worker already recorded children.
inline void EmitSpanAs(const TraceContext& ctx, uint64_t parent_id,
                       const char* name, uint64_t ts_ns, uint64_t dur_ns) {
  if (!TracingActive()) return;
  if (ctx.trace_id != 0 && !ctx.sampled) return;
  internal::EmitSpanSlow(name, ts_ns, dur_ns, ctx.trace_id, ctx.span_id,
                         parent_id);
}

/// RAII span: clocks construction-to-destruction and emits one trace
/// event. While alive it is the thread's current span, so nested Spans
/// (and EmitSpan calls) become its children — this is how the span tree
/// forms without any explicit parent plumbing. When tracing is off both
/// ends are a single branch.
///
///   { rwdt::obs::Span span("parse"); ... }   // one "parse" slice
class Span {
 public:
  explicit Span(const char* name) {
    if (!TracingActive()) return;
    TraceContext& ctx = internal::MutableCurrentContext();
    if (ctx.trace_id != 0 && !ctx.sampled) return;
    name_ = name;
    trace_id_ = ctx.trace_id;
    parent_id_ = ctx.span_id;
    span_id_ = NewSpanId();
    ctx.span_id = span_id_;  // children opened in this scope nest under us
    start_ns_ = TraceNowNs();
  }
  ~Span() {
    if (name_ == nullptr) return;
    internal::MutableCurrentContext().span_id = parent_id_;
    internal::EmitSpanSlow(name_, start_ns_, TraceNowNs() - start_ns_,
                           trace_id_, span_id_, parent_id_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (0 when tracing is off / the request is unsampled).
  uint64_t span_id() const { return span_id_; }

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
};

}  // namespace rwdt::obs

#endif  // RWDT_OBS_TRACE_H_
