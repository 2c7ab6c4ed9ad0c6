#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/interner.h"
#include "common/json.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "engine/thread_pool.h"
#include "ingest/ingest.h"
#include "loggen/sparql_gen.h"
#include "obs/log.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "tree/json.h"

namespace rwdt::obs {
namespace {

// ---------------------------------------------------------------------
// common::JsonEscape

TEST(JsonEscapeTest, PlainTextUnchanged) {
  EXPECT_EQ(JsonEscape("plain ascii 123"), "plain ascii 123");
}

TEST(JsonEscapeTest, QuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscapeTest, ControlCharacters) {
  EXPECT_EQ(JsonEscape("\n"), "\\n");
  EXPECT_EQ(JsonEscape("\t"), "\\t");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string_view("\x1f", 1)), "\\u001f");
}

TEST(JsonEscapeTest, InvalidUtf8BecomesReplacementChar) {
  // A lone 0xFF is not valid UTF-8; the escaper must not pass it
  // through, or the emitted JSON would be unreadable by strict parsers.
  EXPECT_EQ(JsonEscape(std::string_view("\xff", 1)), "\xEF\xBF\xBD");
  // Truncated two-byte sequence at end of input.
  EXPECT_EQ(JsonEscape(std::string_view("\xc3", 1)), "\xEF\xBF\xBD");
}

TEST(JsonEscapeTest, ValidMultibytePreserved) {
  const std::string euro = "\xE2\x82\xAC";  // U+20AC
  EXPECT_EQ(JsonEscape(euro), euro);
  const std::string accented = "h\xC3\xA9llo";  // "héllo"
  EXPECT_EQ(JsonEscape(accented), accented);
}

TEST(JsonEscapeTest, EscapedOutputParsesAsJson) {
  // Round-trip the nastiest input through the repo's own JSON parser.
  const std::string nasty = std::string("k\"ey\n\xff\x01\\end", 11);
  std::string doc = "{\"";
  AppendJsonEscaped(nasty, &doc);
  doc += "\":1}";
  Interner dict;
  const auto parsed = tree::ParseJson(doc, &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  ASSERT_EQ(parsed.value()->members().size(), 1u);
}

TEST(JsonEscapeTest, AppendJsonStringField) {
  std::string out;
  AppendJsonStringField("key", "va\"l", &out);
  AppendJsonStringField("last", "x", &out, /*trailing_comma=*/false);
  EXPECT_EQ(out, "\"key\":\"va\\\"l\",\"last\":\"x\"");
}

// ---------------------------------------------------------------------
// TraceRing

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(8).capacity(), 8u);
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
}

TEST(TraceRingTest, ExactBeforeWraparound) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 5; ++i) ring.Append("e", /*ts_ns=*/i, 1);
  EXPECT_EQ(ring.appended(), 5u);
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, i);  // oldest first, none dropped
  }
}

TEST(TraceRingTest, WraparoundKeepsNewestWindow) {
  // 20 appends into capacity 8: the ring retains the newest window.
  // Post-wraparound the drain conservatively drops the single oldest
  // retained slot (a concurrent writer could be rewriting it), so
  // exactly capacity-1 events survive: logical indices 13..19.
  TraceRing ring(8);
  for (uint64_t i = 0; i < 20; ++i) ring.Append("e", /*ts_ns=*/i, 1);
  EXPECT_EQ(ring.appended(), 20u);
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 7u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, 13 + i);
  }
}

// ---------------------------------------------------------------------
// TraceCollector

TEST(TraceCollectorTest, InstallUninstallTogglesTracingActive) {
  EXPECT_FALSE(TracingActive());
  {
    TraceCollector trace;
    EXPECT_TRUE(trace.installed());
    EXPECT_TRUE(TracingActive());
  }
  EXPECT_FALSE(TracingActive());
}

TEST(TraceCollectorTest, SecondCollectorStaysInert) {
  TraceCollector first;
  TraceCollector second;
  EXPECT_TRUE(first.installed());
  EXPECT_FALSE(second.installed());
  { Span span("only-first"); }
  EXPECT_EQ(first.events_recorded(), 1u);
  EXPECT_EQ(second.events_recorded(), 0u);
}

TEST(TraceCollectorTest, SpansAreNoOpsWhenNoCollector) {
  { Span span("ignored"); }
  EmitSpan("ignored", 0, 1);  // must not crash or leak
  EXPECT_FALSE(TracingActive());
}

TEST(TraceCollectorTest, NewCollectorDoesNotSeeOldSpans) {
  // The generation counter must invalidate thread-local ring caches
  // across collector lifetimes: spans emitted under collector A (on this
  // same thread) may not leak into collector B's export.
  {
    TraceCollector a;
    ASSERT_TRUE(a.installed());
    { Span span("old-span"); }
    EXPECT_EQ(a.events_recorded(), 1u);
  }
  TraceCollector b;
  ASSERT_TRUE(b.installed());
  { Span span("new-span"); }
  EXPECT_EQ(b.events_recorded(), 1u);
  const std::string json = b.ToChromeJson();
  EXPECT_NE(json.find("\"new-span\""), std::string::npos);
  EXPECT_EQ(json.find("\"old-span\""), std::string::npos);
}

TEST(TraceCollectorTest, ConcurrentWritersUnderThreadPool) {
  TraceCollector trace;
  ASSERT_TRUE(trace.installed());
  constexpr int kTasks = 200;
  {
    engine::ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([] {
        Span span("task");
        // A touch of work so spans have nonzero duration.
        volatile int sink = 0;
        for (int j = 0; j < 100; ++j) sink = sink + j;
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(trace.events_recorded(), static_cast<uint64_t>(kTasks));
  EXPECT_GE(trace.threads_seen(), 1u);
  EXPECT_LE(trace.threads_seen(), 4u);
  EXPECT_EQ(trace.events_dropped(), 0u);  // default ring >> kTasks

  // The export must parse (with the repo's own JSON parser) and must be
  // monotonically consistent: within each thread, complete events are
  // sorted by start time and durations are non-negative.
  Interner dict;
  const auto parsed = tree::ParseJson(trace.ToChromeJson(), &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  const tree::JsonPtr events = parsed.value()->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind(), tree::JsonValue::Kind::kArray);
  std::map<double, double> last_ts;
  int slices = 0;
  for (const tree::JsonPtr& ev : events->items()) {
    const tree::JsonPtr ph = ev->Get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string_value() != "X") continue;  // skip "M" metadata
    ++slices;
    ASSERT_NE(ev->Get("name"), nullptr);
    const double tid = ev->Get("tid")->number_value();
    const double ts = ev->Get("ts")->number_value();
    const double dur = ev->Get("dur")->number_value();
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts[tid] = ts;
  }
  EXPECT_EQ(slices, kTasks);
}

TEST(TraceCollectorTest, EngineRunProducesStageSpans) {
  TraceCollector trace;
  engine::EngineOptions opts;
  opts.threads = 2;
  engine::Engine eng(opts);
  eng.AnalyzeLog(loggen::ExampleProfile(300), 5);
  EXPECT_GT(trace.events_recorded(), 0u);
  const std::string json = trace.ToChromeJson();
  for (const char* stage :
       {"\"parse\"", "\"features\"", "\"hypergraph\"", "\"paths\"",
        "\"aggregate\"", "\"generate\""}) {
    EXPECT_NE(json.find(stage), std::string::npos) << stage;
  }
  Interner dict;
  EXPECT_TRUE(tree::ParseJson(json, &dict).ok());
}

// ---------------------------------------------------------------------
// TraceContext: traceparent wire format

TEST(TraceparentTest, FormatParsesBackExactly) {
  TraceContext ctx;
  ctx.trace_id = 0x0123456789abcdefull;
  ctx.span_id = 0xfedcba9876543210ull;
  ctx.sampled = true;
  const std::string header = FormatTraceparent(ctx);
  EXPECT_EQ(header,
            "00-00000000000000000123456789abcdef-fedcba9876543210-01");

  TraceContext parsed;
  ASSERT_TRUE(ParseTraceparent(header, &parsed));
  EXPECT_EQ(parsed.trace_id, ctx.trace_id);
  EXPECT_EQ(parsed.span_id, ctx.span_id);  // caller's span = our parent
  EXPECT_TRUE(parsed.sampled);

  ctx.sampled = false;
  ASSERT_TRUE(ParseTraceparent(FormatTraceparent(ctx), &parsed));
  EXPECT_FALSE(parsed.sampled);
}

TEST(TraceparentTest, Folds128BitTraceIds) {
  TraceContext ctx;
  // Low half nonzero: keep it.
  ASSERT_TRUE(ParseTraceparent(
      "00-11112222333344440123456789abcdef-aaaabbbbccccdddd-01", &ctx));
  EXPECT_EQ(ctx.trace_id, 0x0123456789abcdefull);
  // Low half all zero: fall back to the high half, not to id 0.
  ASSERT_TRUE(ParseTraceparent(
      "00-11112222333344440000000000000000-aaaabbbbccccdddd-00", &ctx));
  EXPECT_EQ(ctx.trace_id, 0x1111222233334444ull);
}

TEST(TraceparentTest, MalformedHeadersRejectedAndContextUntouched) {
  TraceContext ctx;
  ctx.trace_id = 42;  // sentinel: rejection must not clobber it
  const char* bad[] = {
      "",
      "00",
      // Uppercase hex (the spec demands lowercase).
      "00-0000000000000000ABCDEF0123456789-aaaabbbbccccdddd-01",
      // Wrong length (one digit short).
      "00-0000000000000000123456789abcdef-aaaabbbbccccdddd-01",
      // Dash in the wrong position.
      "00_00000000000000000123456789abcdef-aaaabbbbccccdddd-01",
      // Forbidden version ff.
      "ff-00000000000000000123456789abcdef-aaaabbbbccccdddd-01",
      // All-zero trace id.
      "00-00000000000000000000000000000000-aaaabbbbccccdddd-01",
      // All-zero parent span id.
      "00-00000000000000000123456789abcdef-0000000000000000-01",
      // Non-hex garbage.
      "00-0000000000000000012345678zabcdef-aaaabbbbccccdddd-01",
  };
  for (const char* header : bad) {
    EXPECT_FALSE(ParseTraceparent(header, &ctx)) << header;
    EXPECT_EQ(ctx.trace_id, 42u) << header;
  }
}

TEST(TraceparentTest, TraceIdHexIsSixteenLowercaseDigits) {
  EXPECT_EQ(TraceIdHex(0), "0000000000000000");
  EXPECT_EQ(TraceIdHex(0x0123456789abcdefull), "0123456789abcdef");
  EXPECT_EQ(TraceIdHex(0xffffffffffffffffull), "ffffffffffffffff");
}

TEST(TraceIdTest, NewIdsAreNonZeroAndDistinct) {
  const uint64_t a = NewTraceId();
  const uint64_t b = NewTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(NewSpanId(), NewSpanId());
}

// ---------------------------------------------------------------------
// TraceSampler

TEST(TraceSamplerTest, DeterministicUnderFixedSeed) {
  const TraceSampler first{0.25, 1234};
  const TraceSampler second{0.25, 1234};
  const TraceSampler other_seed{0.25, 99};
  int sampled = 0, diverged = 0;
  for (uint64_t id = 1; id <= 4096; ++id) {
    const bool decision = first.Sample(id);
    // The decision is a pure function of (id, seed): any process with
    // the same seed reaches the same verdict for the same trace.
    EXPECT_EQ(decision, second.Sample(id));
    if (decision) ++sampled;
    if (decision != other_seed.Sample(id)) ++diverged;
  }
  // Rate is approximately honored (binomial, 4096 draws at p=.25).
  EXPECT_GT(sampled, 4096 * 0.15);
  EXPECT_LT(sampled, 4096 * 0.35);
  // A different seed samples a genuinely different subset.
  EXPECT_GT(diverged, 0);
}

TEST(TraceSamplerTest, RateEndpointsAreAbsolute) {
  const TraceSampler none{0.0, 7};
  const TraceSampler all{1.0, 7};
  for (uint64_t id = 1; id <= 64; ++id) {
    EXPECT_FALSE(none.Sample(id));
    EXPECT_TRUE(all.Sample(id));
  }
  EXPECT_FALSE(all.Sample(0));  // id 0 = "no trace": never sampled
}

// ---------------------------------------------------------------------
// Span trees + context propagation

TEST(SpanTreeTest, UnsampledRequestContextSuppressesSpans) {
  TraceCollector trace;
  ASSERT_TRUE(trace.installed());
  TraceContext unsampled;
  unsampled.trace_id = NewTraceId();
  unsampled.sampled = false;
  {
    ScopedTraceContext scoped(unsampled);
    EXPECT_FALSE(SpanEnabled());
    Span span("dropped");
    EXPECT_EQ(span.span_id(), 0u);
    EmitSpan("also-dropped", 0, 1);
  }
  EXPECT_EQ(trace.events_recorded(), 0u);

  // Request-free context (trace_id 0) records as before — engine and
  // bench traces are not gated by request sampling.
  EXPECT_TRUE(SpanEnabled());
  { Span span("kept"); }
  EXPECT_EQ(trace.events_recorded(), 1u);
}

/// Drains the collector's export and returns name -> (trace, span,
/// parent) ids parsed from each slice's args (hex, as rendered).
std::map<std::string, std::vector<uint64_t>> SpanIdsByName(
    const TraceCollector& trace) {
  Interner dict;
  const auto parsed = tree::ParseJson(trace.ToChromeJson(), &dict);
  EXPECT_TRUE(parsed.ok()) << parsed.error_message();
  std::map<std::string, std::vector<uint64_t>> out;
  if (!parsed.ok()) return out;
  for (const tree::JsonPtr& ev : parsed.value()->Get("traceEvents")->items()) {
    if (ev->Get("ph")->string_value() != "X") continue;
    const tree::JsonPtr args = ev->Get("args");
    if (args == nullptr) continue;
    auto hex = [&args](const char* key) -> uint64_t {
      const tree::JsonPtr v = args->Get(key);
      if (v == nullptr) return 0;
      return std::strtoull(std::string(v->string_value()).c_str(), nullptr,
                           16);
    };
    out[std::string(ev->Get("name")->string_value())] = {
        hex("trace_id"), hex("span_id"), hex("parent_id")};
  }
  return out;
}

TEST(SpanTreeTest, NestedSpansFormParentChildChain) {
  TraceCollector trace;
  ASSERT_TRUE(trace.installed());
  TraceContext ctx;
  ctx.trace_id = 0xabcull;
  ctx.span_id = 0x111ull;  // pre-allocated request root span
  ctx.sampled = true;
  {
    ScopedTraceContext scoped(ctx);
    Span outer("outer");
    { Span inner("inner"); }
    EmitSpanAs(ctx, /*parent_id=*/0, "root", TraceNowNs(), 1);
  }
  const auto spans = SpanIdsByName(trace);
  ASSERT_EQ(spans.size(), 3u);
  const auto& root = spans.at("root");
  const auto& outer = spans.at("outer");
  const auto& inner = spans.at("inner");
  for (const auto* s : {&root, &outer, &inner}) {
    EXPECT_EQ((*s)[0], 0xabcull);  // one trace groups the whole tree
  }
  EXPECT_EQ(root[1], 0x111ull);     // EmitSpanAs keeps the handed-out id
  EXPECT_EQ(root[2], 0u);           // ...as a root span
  EXPECT_EQ(outer[2], root[1]);     // outer nests under the root
  EXPECT_EQ(inner[2], outer[1]);    // inner nests under outer
}

TEST(SpanTreeTest, ContextPropagatesAcrossThreadPoolHandoff) {
  // The serve-worker pattern under TSan: a context created on this
  // thread rides into pool tasks via ScopedTraceContext, and the spans
  // those tasks emit parent correctly back to the submitting span.
  TraceCollector trace;
  ASSERT_TRUE(trace.installed());
  TraceContext ctx;
  ctx.trace_id = NewTraceId();
  ctx.span_id = NewSpanId();
  ctx.sampled = true;
  {
    ScopedTraceContext scoped(ctx);
    const TraceContext handoff = CurrentTraceContext();
    engine::ThreadPool pool(3);
    for (int i = 0; i < 24; ++i) {
      pool.Submit([handoff] {
        ScopedTraceContext worker_scope(handoff);
        Span span("pool-task");
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(trace.events_recorded(), 24u);

  Interner dict;
  const auto parsed = tree::ParseJson(trace.ToChromeJson(), &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  const std::string want_trace = TraceIdHex(ctx.trace_id);
  const std::string want_parent = TraceIdHex(ctx.span_id);
  int slices = 0;
  for (const tree::JsonPtr& ev : parsed.value()->Get("traceEvents")->items()) {
    if (ev->Get("ph")->string_value() != "X") continue;
    ++slices;
    const tree::JsonPtr args = ev->Get("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->Get("trace_id")->string_value(), want_trace);
    EXPECT_EQ(args->Get("parent_id")->string_value(), want_parent);
  }
  EXPECT_EQ(slices, 24);
}

TEST(TraceCollectorTest, ToChromeJsonLimitKeepsMostRecent) {
  TraceCollector trace;
  ASSERT_TRUE(trace.installed());
  for (int i = 0; i < 10; ++i) {
    Span span("burst");
  }
  EXPECT_EQ(trace.events_recorded(), 10u);
  Interner dict;
  const auto parsed = tree::ParseJson(trace.ToChromeJson(/*limit=*/3), &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  int slices = 0;
  for (const tree::JsonPtr& ev : parsed.value()->Get("traceEvents")->items()) {
    if (ev->Get("ph")->string_value() == "X") ++slices;
  }
  EXPECT_EQ(slices, 3);
  const tree::JsonPtr other = parsed.value()->Get("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Get("events_shown")->number_value(), 3.0);
}

TEST(TraceCollectorTest, ExportsDropAccountingToMetricRegistry) {
  // While installed, the collector is a registry collector: span loss
  // is visible on /metrics, not only in the exported trace file.
  std::string text;
  {
    TraceCollector trace;
    ASSERT_TRUE(trace.installed());
    { Span span("metered"); }
    text = MetricRegistry::Global().RenderOpenMetrics();
    EXPECT_NE(text.find("rwdt_trace_spans_recorded_total 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("rwdt_trace_spans_dropped_total 0"),
              std::string::npos);
    EXPECT_NE(text.find("rwdt_trace_threads 1"), std::string::npos);
    EXPECT_NE(text.find("rwdt_trace_ring_occupancy"), std::string::npos);
  }
  // Uninstalled: the families disappear from the scrape.
  text = MetricRegistry::Global().RenderOpenMetrics();
  EXPECT_EQ(text.find("rwdt_trace_spans_recorded"), std::string::npos);
}

// ---------------------------------------------------------------------
// Logging

class CaptureSink : public LogSink {
 public:
  void Write(const LogRecord& record) override { records.push_back(record); }
  std::vector<LogRecord> records;
};

TEST(LogTest, LevelGateSkipsDisabledStatements) {
  auto sink = std::make_shared<CaptureSink>();
  Logger::Global().SetSinks({sink});
  Logger::Global().set_min_level(LogLevel::kWarn);
  int evals = 0;
  auto expensive = [&evals]() {
    ++evals;
    return 42;
  };
  RWDT_LOG(INFO) << "suppressed " << expensive();
  EXPECT_EQ(evals, 0);  // operands of a disabled statement never run
  EXPECT_TRUE(sink->records.empty());

  RWDT_LOG(ERROR) << "kept " << expensive();
  EXPECT_EQ(evals, 1);
  ASSERT_EQ(sink->records.size(), 1u);
  const LogRecord& rec = sink->records[0];
  EXPECT_EQ(rec.level, LogLevel::kError);
  EXPECT_EQ(rec.message, "kept 42");
  EXPECT_NE(std::string(rec.file).find("obs_test.cc"), std::string::npos);
  EXPECT_GT(rec.line, 0);
  EXPECT_GT(rec.unix_micros, 0);
  Logger::Global().ResetToDefault();
}

TEST(LogTest, JsonLinesSinkEmitsParseableRecords) {
  const std::string path = "obs_test_log.jsonl";
  {
    auto opened = JsonLinesSink::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.error_message();
    Logger::Global().SetSinks({std::move(opened).value()});
    Logger::Global().set_min_level(LogLevel::kDebug);
    RWDT_LOG(INFO) << "hello \"quoted\"\nsecond line";
    RWDT_LOG(DEBUG) << "debug record";
    Logger::Global().ResetToDefault();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 2u);

  Interner dict;
  const auto first = tree::ParseJson(lines[0], &dict);
  ASSERT_TRUE(first.ok()) << first.error_message();
  EXPECT_EQ(first.value()->Get("level")->string_value(), "info");
  EXPECT_EQ(first.value()->Get("msg")->string_value(),
            "hello \"quoted\"\nsecond line");
  EXPECT_GT(first.value()->Get("ts_us")->number_value(), 0.0);
  const auto second = tree::ParseJson(lines[1], &dict);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value()->Get("level")->string_value(), "debug");
}

// ---------------------------------------------------------------------
// ProgressReporter

TEST(ProgressTest, TicksAndRunReportMatchFinalSnapshot) {
  // The reporter reads the slab from its own thread, so the test guards
  // it the way the engine guards its totals.
  std::mutex mu;
  engine::LocalMetrics metrics;
  metrics.entries = 123;
  metrics.analyzed = 45;
  metrics.hits = 10;
  metrics.misses = 5;

  const std::string path = "obs_test_report.json";
  ProgressOptions popts;
  popts.interval_ms = 10;
  popts.log_progress = false;  // keep test output quiet
  popts.report_path = path;
  popts.label = "obs-test";
  ASSERT_TRUE(popts.Validate().ok());
  ASSERT_TRUE(popts.enabled());

  ProgressReporter reporter(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return engine::Summarize(metrics);
      },
      popts);
  // Let a few ticks elapse, then bump a counter the report must see.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  {
    std::lock_guard<std::mutex> lock(mu);
    metrics.entries += 1;
  }
  reporter.Stop();
  EXPECT_GE(reporter.ticks(), 1u);

  // The run report's counters are exactly the final snapshot's.
  Interner dict;
  const auto parsed = tree::ParseJson(reporter.report_json(), &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  const tree::JsonPtr root = parsed.value();
  EXPECT_EQ(root->Get("label")->string_value(), "obs-test");
  EXPECT_GE(root->Get("elapsed_ms")->number_value(), 0.0);
  EXPECT_EQ(root->Get("ticks")->number_value(),
            static_cast<double>(reporter.ticks()));
  const tree::JsonPtr m = root->Get("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->Get("entries_processed")->number_value(), 124.0);
  EXPECT_EQ(m->Get("queries_analyzed")->number_value(), 45.0);
  EXPECT_EQ(m->Get("cache_hits")->number_value(), 10.0);
  EXPECT_EQ(m->Get("cache_misses")->number_value(), 5.0);

  // The report file holds the same JSON document.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream file_contents;
  file_contents << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(file_contents.str(), reporter.report_json() + "\n");
}

TEST(ProgressTest, DeltaRateAndHitRate) {
  EXPECT_DOUBLE_EQ(DeltaRate(/*prev=*/500, /*now=*/1500, /*interval_s=*/2.0),
                   500.0);
  // Degenerate intervals never divide by zero.
  EXPECT_DOUBLE_EQ(DeltaRate(0, 1500, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(DeltaRate(0, 1500, -1.0), 0.0);
  // The progress line's hit rate is the snapshot's, as on /metrics.
  engine::MetricsSnapshot snap;
  snap.cache_hits = 75;
  snap.cache_misses = 25;
  EXPECT_DOUBLE_EQ(snap.CacheHitRate(), 0.75);
}

TEST(ProgressTest, DisabledByDefault) {
  ProgressOptions popts;
  EXPECT_FALSE(popts.enabled());
  EXPECT_TRUE(popts.Validate().ok());
  popts.interval_ms = 3600 * 1000 + 1;
  EXPECT_FALSE(popts.Validate().ok());
}

TEST(ProgressTest, StopIsIdempotentWithoutThread) {
  const engine::LocalMetrics metrics;
  ProgressOptions popts;  // interval 0: no background thread
  ProgressReporter reporter([&metrics] { return engine::Summarize(metrics); },
                            popts);
  reporter.Stop();
  reporter.Stop();
  EXPECT_EQ(reporter.ticks(), 0u);
  EXPECT_FALSE(reporter.report_json().empty());  // still rendered
}

// ---------------------------------------------------------------------
// IngestReport::ToJson

TEST(ObsIntegrationTest, IngestReportToJsonParses) {
  // TSV input whose source column needs escaping, plus a corrupt line.
  std::stringstream in(
      "s\"rc\tSELECT ?x WHERE { ?s ?p ?x }\n"
      "s\"rc\tnot a query at all ((\n");
  ingest::IngestOptions opts;
  opts.format = ingest::LogFormat::kTsv;
  opts.engine.threads = 1;
  const auto r = ingest::IngestStream(in, opts);
  ASSERT_TRUE(r.ok()) << r.error_message();
  const ingest::IngestReport& report = r.value();
  EXPECT_EQ(report.lines_read, 2u);
  ASSERT_EQ(report.per_source.count("s\"rc"), 1u);

  Interner dict;
  const auto parsed = tree::ParseJson(report.ToJson(), &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  const tree::JsonPtr root = parsed.value();
  const tree::JsonPtr study = root->Get("study");
  ASSERT_NE(study, nullptr);
  EXPECT_EQ(study->Get("total")->number_value(),
            static_cast<double>(report.study.total));
  EXPECT_EQ(root->Get("lines_read")->number_value(), 2.0);
  const tree::JsonPtr per_source = root->Get("per_source");
  ASSERT_NE(per_source, nullptr);
  EXPECT_NE(per_source->Get("s\"rc"), nullptr);  // key escaped, then
                                                 // un-escaped by parser
  ASSERT_NE(root->Get("metrics"), nullptr);
}

}  // namespace
}  // namespace rwdt::obs
