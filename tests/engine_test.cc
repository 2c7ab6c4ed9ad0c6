#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/log_study.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "engine/thread_pool.h"
#include "ingest/ingest.h"
#include "loggen/corruptor.h"
#include "loggen/log_text.h"
#include "obs/openmetrics.h"
#include "obs/registry.h"

namespace rwdt::engine {
namespace {

core::SourceStudy RunWith(unsigned threads, size_t shards, uint64_t seed,
                          size_t cache_capacity = 1 << 16) {
  EngineOptions opts;
  opts.threads = threads;
  opts.num_shards = shards;
  opts.cache_capacity = cache_capacity;
  Engine engine(opts);
  return engine.AnalyzeLog(loggen::ExampleProfile(1500), seed);
}

TEST(EngineTest, DeterministicAcrossThreadCounts) {
  // The headline guarantee: aggregates are bit-identical for a fixed
  // seed regardless of thread count (shards default to one per thread).
  const core::SourceStudy t1 = RunWith(1, 0, 42);
  const core::SourceStudy t2 = RunWith(2, 0, 42);
  const core::SourceStudy t8 = RunWith(8, 0, 42);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  EXPECT_GT(t1.valid_agg.queries, 0u);
}

TEST(EngineTest, DeterministicAcrossShardCounts) {
  const core::SourceStudy s1 = RunWith(2, 1, 7);
  const core::SourceStudy s7 = RunWith(2, 7, 7);
  const core::SourceStudy s64 = RunWith(2, 64, 7);
  EXPECT_EQ(s1, s7);
  EXPECT_EQ(s1, s64);
}

TEST(EngineTest, DeterministicAcrossThreadsShardsAndChunking) {
  // The full grid the hash-once pipeline must keep bit-identical:
  // {1,2,4} threads x {1,4,16} shards x chunked/unchunked feeds all
  // reduce to the same SourceStudy.
  const auto entries = loggen::GenerateLog(loggen::ExampleProfile(1200), 31);
  core::SourceStudy reference;
  bool have_reference = false;
  for (unsigned threads : {1u, 2u, 4u}) {
    for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
      for (bool chunked : {false, true}) {
        EngineOptions opts;
        opts.threads = threads;
        opts.num_shards = shards;
        Engine engine(opts);
        core::SourceStudy study;
        if (!chunked) {
          study = engine.AnalyzeEntries("grid", false, entries);
        } else {
          EngineStream stream = engine.OpenStream("grid", false);
          constexpr size_t kChunk = 97;  // deliberately ragged boundary
          for (size_t i = 0; i < entries.size(); i += kChunk) {
            std::vector<loggen::LogEntry> chunk(
                entries.begin() + i,
                entries.begin() +
                    std::min(entries.size(), i + kChunk));
            stream.Feed(chunk);
          }
          study = stream.Finish();
        }
        if (!have_reference) {
          reference = study;
          have_reference = true;
          EXPECT_GT(reference.valid_agg.queries, 0u);
        } else {
          ASSERT_EQ(study, reference)
              << "threads=" << threads << " shards=" << shards
              << " chunked=" << chunked;
        }
      }
    }
  }
}

TEST(EngineTest, ScalingSmokeSameStudyAndCacheConservation) {
  // Scaling smoke for the contention-free hot path: the same 50k-entry
  // log at 1 and 4 threads must produce an identical SourceStudy, and
  // cache accounting must follow the shard-local dedup law — only the
  // first occurrence of each distinct text performs a lookup (duplicates
  // are served from the shard's pinned by_id table), so
  // hits + misses == unique + distinct failing texts, and a cold engine
  // sees only misses. A rewiring that sent duplicates back through the
  // cache — or silently bypassed it on first sight — would break this.
  const auto entries = loggen::GenerateLog(loggen::ExampleProfile(50000), 46);
  core::SourceStudy studies[2];
  MetricsSnapshot snaps[2];
  const unsigned thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    EngineOptions opts;
    opts.threads = thread_counts[i];
    Engine engine(opts);
    studies[i] = engine.AnalyzeEntries("smoke", false, entries);
    snaps[i] = engine.Snapshot();
  }
  EXPECT_EQ(studies[0], studies[1]);
  for (int i = 0; i < 2; ++i) {
    // Cold engine: every distinct text (valid or failing) misses once.
    EXPECT_EQ(snaps[i].cache_hits, 0u) << "threads=" << thread_counts[i];
    EXPECT_EQ(snaps[i].cache_misses,
              studies[i].unique + snaps[i].parse_failures)
        << "threads=" << thread_counts[i];
  }
  // Lookup volume itself is thread-count invariant.
  EXPECT_EQ(snaps[0].cache_hits + snaps[0].cache_misses,
            snaps[1].cache_hits + snaps[1].cache_misses);
}

TEST(EngineTest, SpanFeedMatchesVectorFeed) {
  // The zero-copy ingest path feeds borrowed string_views; the legacy
  // path feeds owned LogEntry vectors. Same texts => same SourceStudy,
  // bit for bit, across thread counts and ragged chunking.
  const auto entries = loggen::GenerateLog(loggen::ExampleProfile(800), 63);
  for (unsigned threads : {1u, 4u}) {
    EngineOptions opts;
    opts.threads = threads;

    Engine vec_engine(opts);
    EngineStream vec_stream = vec_engine.OpenStream("span", false);
    Engine span_engine(opts);
    EngineStream span_stream = span_engine.OpenStream("span", false);

    constexpr size_t kChunk = 113;
    for (size_t i = 0; i < entries.size(); i += kChunk) {
      const size_t end = std::min(entries.size(), i + kChunk);
      std::vector<loggen::LogEntry> chunk(entries.begin() + i,
                                          entries.begin() + end);
      vec_stream.Feed(chunk);
      std::vector<std::string_view> views;
      views.reserve(end - i);
      for (size_t j = i; j < end; ++j) views.push_back(entries[j].text);
      span_stream.Feed(std::span<const std::string_view>(views));
    }
    const core::SourceStudy from_vec = vec_stream.Finish();
    const core::SourceStudy from_span = span_stream.Finish();
    EXPECT_EQ(from_vec, from_span) << "threads=" << threads;
    EXPECT_GT(from_span.valid_agg.queries, 0u);
  }
}

TEST(EngineTest, MatchesLegacySingleThreadedPath) {
  loggen::SourceProfile p = loggen::ExampleProfile(1200);
  const core::SourceStudy legacy = core::AnalyzeLog(p, 13);
  EngineOptions opts;
  opts.threads = 4;
  Engine engine(opts);
  EXPECT_EQ(legacy, engine.AnalyzeLog(p, 13));
}

TEST(EngineTest, TinyCacheStillExact) {
  // Evictions force recomputation but must never change the counts.
  const core::SourceStudy big = RunWith(2, 0, 99, /*cache_capacity=*/1 << 16);
  const core::SourceStudy tiny = RunWith(2, 0, 99, /*cache_capacity=*/8);
  EXPECT_EQ(big, tiny);
}

TEST(EngineTest, CacheHitsOnDuplicates) {
  // Duplicates within one stream never touch the cache — the shard's
  // by_id table serves them — so a cold run is all misses. Hits appear
  // when the engine re-analyzes a log it has already seen: every first
  // occurrence then lands on the warm cache.
  loggen::SourceProfile p = loggen::ExampleProfile(2000);
  p.duplicate_factor = 4.0;  // Valid/Unique ~ 4, as in the busiest logs
  EngineOptions opts;
  opts.threads = 2;
  Engine engine(opts);
  const core::SourceStudy study = engine.AnalyzeLog(p, 5);
  const MetricsSnapshot cold = engine.Snapshot();
  EXPECT_GT(study.valid, study.unique);
  EXPECT_EQ(cold.cache_hits, 0u);
  // Every distinct text is analyzed exactly once, duplicates or not.
  EXPECT_EQ(cold.queries_analyzed + cold.parse_failures, cold.cache_misses);
  EXPECT_EQ(cold.entries_processed, study.total);

  const core::SourceStudy rerun = engine.AnalyzeLog(p, 5);
  const MetricsSnapshot warm = engine.Snapshot();
  EXPECT_EQ(study, rerun);
  // Second pass: each distinct text hits the warm cache exactly once.
  EXPECT_EQ(warm.cache_hits, cold.cache_misses);
  EXPECT_EQ(warm.cache_misses, cold.cache_misses);
  EXPECT_GT(warm.CacheHitRate(), 0.0);
  EXPECT_EQ(warm.queries_analyzed, cold.queries_analyzed);
}

TEST(EngineTest, CacheWarmsAcrossLogs) {
  loggen::SourceProfile p = loggen::ExampleProfile(1000);
  EngineOptions opts;
  opts.threads = 1;
  Engine engine(opts);
  const core::SourceStudy first = engine.AnalyzeLog(p, 21);
  const uint64_t analyzed_after_first = engine.Snapshot().queries_analyzed;
  const core::SourceStudy second = engine.AnalyzeLog(p, 21);
  EXPECT_EQ(first, second);
  // The second pass is served entirely from the warm cache.
  EXPECT_EQ(engine.Snapshot().queries_analyzed, analyzed_after_first);
}

TEST(EngineTest, OccupancyGaugesDescribeTheRetainedMemo) {
  // The memo outlives the stream, so after Finish the gauges describe
  // what the engine still holds instead of reading 0.
  EngineOptions opts;
  opts.threads = 2;
  Engine engine(opts);
  engine.AnalyzeLog(loggen::ExampleProfile(1000), 8);
  const MetricsSnapshot snap = engine.Snapshot();
  EXPECT_GT(snap.dedup_entries, 0u);
  EXPECT_EQ(snap.dedup_entries, snap.cache_size);
  EXPECT_GT(snap.interner_bytes, 0u);
}

TEST(EngineTest, BoundedMemoStaysExactAcrossLogs) {
  // A memo bound far below the logs' distinct counts clears the shard
  // memos after every stream; each study must still equal a fresh
  // engine's, in any order of logs.
  const loggen::SourceProfile a = loggen::ExampleProfile(1200);
  loggen::SourceProfile b = loggen::ExampleProfile(900);
  b.name = "other";
  auto fresh = [](const loggen::SourceProfile& p, uint64_t seed) {
    EngineOptions opts;
    opts.threads = 2;
    Engine engine(opts);
    return engine.AnalyzeLog(p, seed);
  };
  EngineOptions opts;
  opts.threads = 2;
  opts.cache_capacity = 8;
  Engine engine(opts);
  EXPECT_EQ(engine.AnalyzeLog(a, 31), fresh(a, 31));
  EXPECT_EQ(engine.AnalyzeLog(b, 32), fresh(b, 32));
  EXPECT_EQ(engine.AnalyzeLog(a, 31), fresh(a, 31));
  const MetricsSnapshot snap = engine.Snapshot();
  EXPECT_GT(snap.cache_evictions, 0u);
  EXPECT_LE(snap.cache_size, 8u);
}

TEST(EngineTest, DroppedStreamLeavesNoCounts) {
  // A stream abandoned without Finish (an ingest error return) may leave
  // memo entries behind, but none of its counts: the next stream on the
  // same engine sees every text as a first occurrence again. The dropped
  // stream sees the later half of the log in reverse, so the memo's
  // per-text positions from it disagree with the next stream's order.
  const loggen::SourceProfile p = loggen::ExampleProfile(1000);
  const auto entries = loggen::GenerateLog(p, 41);
  EngineOptions opts;
  opts.threads = 2;
  Engine engine(opts);
  {
    EngineStream dropped = engine.OpenStream("dropped", false);
    dropped.Feed(std::vector<loggen::LogEntry>(
        entries.rbegin(), entries.rbegin() + entries.size() / 2));
    dropped.Reject(ErrorClass::kEncodingError, 3);
  }
  Engine reference(opts);
  EXPECT_EQ(engine.AnalyzeLog(p, 41), reference.AnalyzeLog(p, 41));
}

TEST(EngineTest, CallerOwnedEngineIngestsRepeatedBodiesOnce) {
  // A serve worker ingests every request body on its own long-lived
  // engine. A repeated body must yield the same report and be served
  // entirely from the memo.
  auto log = loggen::GenerateLog(loggen::ExampleProfile(800), 52);
  loggen::CorruptLog(&log, 53);
  std::ostringstream text;
  loggen::WriteLogText(log, text);
  EngineOptions opts;
  opts.threads = 1;
  Engine engine(opts);
  ingest::IngestOptions iopts;
  iopts.source_name = "body";
  std::istringstream first_in(text.str());
  auto first = ingest::IngestStream(first_in, &engine, iopts);
  ASSERT_TRUE(first.ok()) << first.error_message();
  const uint64_t analyzed = engine.Snapshot().queries_analyzed;
  std::istringstream second_in(text.str());
  auto second = ingest::IngestStream(second_in, &engine, iopts);
  ASSERT_TRUE(second.ok()) << second.error_message();
  EXPECT_EQ(engine.Snapshot().queries_analyzed, analyzed);
  EXPECT_GT(engine.Snapshot().cache_hits, 0u);
  // Equal apart from the engine's cumulative counters.
  first.value().metrics = {};
  second.value().metrics = {};
  EXPECT_EQ(first.value().study, second.value().study);
  EXPECT_EQ(first.value().ToJson(), second.value().ToJson());
  EXPECT_GT(first.value().study.valid, 0u);
}

core::LogAggregates RandomAggregates(Rng* rng) {
  core::LogAggregates a;
  a.queries = rng->NextBelow(1000);
  for (auto& h : a.triple_histogram) h = rng->NextBelow(100);
  a.feature_counts[sparql::Feature::kFilter] = rng->NextBelow(50);
  if (rng->NextBool(0.5)) {
    a.feature_counts[sparql::Feature::kUnion] = rng->NextBelow(50);
  }
  a.select_ask_construct = rng->NextBelow(900);
  a.describe = rng->NextBelow(100);
  a.ops_none = rng->NextBelow(10);
  a.ops_and = rng->NextBelow(10);
  a.ops_filter = rng->NextBelow(10);
  a.ops_and_filter = rng->NextBelow(10);
  a.ops_rpq = rng->NextBelow(10);
  a.ops_and_rpq = rng->NextBelow(10);
  a.ops_filter_rpq = rng->NextBelow(10);
  a.ops_and_filter_rpq = rng->NextBelow(10);
  a.cq = rng->NextBelow(500);
  a.cq_f = rng->NextBelow(500);
  a.c2rpq_f = rng->NextBelow(500);
  a.afo_only = rng->NextBelow(500);
  a.well_designed = rng->NextBelow(500);
  a.safe_filters_only = rng->NextBelow(500);
  a.simple_filters_only = rng->NextBelow(500);
  a.cq_fca = rng->NextBelow(100);
  a.cq_htw1 = rng->NextBelow(100);
  a.cq_htw2 = rng->NextBelow(100);
  a.cq_htw3 = rng->NextBelow(100);
  a.cqf_fca = rng->NextBelow(100);
  a.cqf_htw1 = rng->NextBelow(100);
  a.cqf_htw2 = rng->NextBelow(100);
  a.cqf_htw3 = rng->NextBelow(100);
  a.graph_cqf = rng->NextBelow(100);
  a.shapes_with_constants[hypergraph::GraphShape::kStar] =
      rng->NextBelow(40);
  if (rng->NextBool(0.5)) {
    a.shapes_without_constants[hypergraph::GraphShape::kChain] =
        rng->NextBelow(40);
  }
  a.property_paths = rng->NextBelow(100);
  a.path_types[paths::Table8Type::kAStar] = rng->NextBelow(60);
  a.path_ste = rng->NextBelow(60);
  a.path_ctract = rng->NextBelow(60);
  a.path_ttract = rng->NextBelow(60);
  return a;
}

// The lines of an OpenMetrics text that carry `label`, in order.
std::string LinesWith(const std::string& text, const std::string& label) {
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find(label) != std::string::npos) out += line + "\n";
  }
  return out;
}

// Value of the sample line that starts with `series` (name plus label
// set), or 0 when the series is absent (an empty stage histogram).
double ScrapedValue(const std::string& text, const std::string& series) {
  const std::string key = "\n" + series + " ";
  const size_t at = text.find(key);
  return at == std::string::npos ? 0.0
                                 : std::stod(text.substr(at + key.size()));
}

TEST(EngineTest, RegistrySeriesLiveWithEngineAndScrapesNeverGoBack) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  std::string label;
  {
    EngineOptions opts;
    opts.threads = 4;
    Engine engine(opts);
    label = "engine=\"" + std::to_string(engine.ordinal()) + "\"";
    EXPECT_NE(registry.RenderOpenMetrics().find("rwdt_engine_threads{" +
                                                label + "} 4\n"),
              std::string::npos);

    // Counters that may only grow, read from Snapshot() and from the
    // rendered scrape.
    auto snapshot_counters = [](const MetricsSnapshot& snap) {
      std::vector<double> v = {static_cast<double>(snap.entries_processed),
                               static_cast<double>(snap.queries_analyzed)};
      for (const StageStats& st : snap.stages) {
        v.push_back(static_cast<double>(st.count));
      }
      return v;
    };
    auto scraped_counters = [&label](const std::string& text) {
      std::vector<double> v = {
          ScrapedValue(text, "rwdt_engine_entries_total{" + label + "}"),
          ScrapedValue(text,
                       "rwdt_engine_queries_analyzed_total{" + label + "}")};
      for (size_t s = 0; s < kNumStages; ++s) {
        v.push_back(ScrapedValue(
            text, "rwdt_engine_stage_latency_ns_count{" + label +
                      ",stage=\"" + StageName(static_cast<Stage>(s)) +
                      "\"}"));
      }
      return v;
    };
    auto never_less = [](const std::vector<double>& prev,
                         const std::vector<double>& cur) {
      for (size_t i = 0; i < prev.size(); ++i) {
        if (cur[i] < prev[i]) return false;
      }
      return true;
    };

    std::atomic<bool> done{false};
    bool monotone = true;
    size_t scrapes = 0;
    std::string last_scrape;
    std::thread scraper([&] {
      std::vector<double> prev_snap(2 + kNumStages, 0.0);
      std::vector<double> prev_scrape(2 + kNumStages, 0.0);
      while (!done.load(std::memory_order_acquire)) {
        const std::vector<double> snap = snapshot_counters(engine.Snapshot());
        last_scrape = registry.RenderOpenMetrics();
        const std::vector<double> scrape = scraped_counters(last_scrape);
        monotone = monotone && never_less(prev_snap, snap) &&
                   never_less(prev_scrape, scrape);
        prev_snap = snap;
        prev_scrape = scrape;
        ++scrapes;
      }
    });
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      engine.AnalyzeLog(loggen::ExampleProfile(4000), seed);
    }
    done.store(true, std::memory_order_release);
    scraper.join();
    EXPECT_TRUE(monotone);
    EXPECT_GT(scrapes, 0u);

    // Quiesced, a scrape renders exactly the final Snapshot().
    const MetricsSnapshot final_snap = engine.Snapshot();
    last_scrape = registry.RenderOpenMetrics();
    std::vector<obs::FamilySnapshot> families;
    AppendEngineFamilies(final_snap, /*queue_depth=*/0,
                         {{"engine", std::to_string(engine.ordinal())}},
                         &families);
    EXPECT_EQ(LinesWith(last_scrape, label),
              LinesWith(obs::WriteOpenMetrics(
                            obs::MergeFamilies(std::move(families))),
                        label));
    EXPECT_EQ(scraped_counters(last_scrape), snapshot_counters(final_snap));
    EXPECT_GT(final_snap.entries_processed, 0u);
  }
  // Destroying the engine removes its collector and every series with it.
  EXPECT_EQ(registry.RenderOpenMetrics().find(label), std::string::npos);
}

TEST(EngineTest, MergeIsCommutative) {
  Rng rng(2022);
  for (int trial = 0; trial < 20; ++trial) {
    const core::LogAggregates a = RandomAggregates(&rng);
    const core::LogAggregates b = RandomAggregates(&rng);
    core::LogAggregates ab = a;
    core::Merge(b, &ab);
    core::LogAggregates ba = b;
    core::Merge(a, &ba);
    EXPECT_EQ(ab, ba);
  }
}

TEST(EngineTest, MergeIsAssociative) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const core::LogAggregates a = RandomAggregates(&rng);
    const core::LogAggregates b = RandomAggregates(&rng);
    const core::LogAggregates c = RandomAggregates(&rng);
    // (a + b) + c
    core::LogAggregates left = a;
    core::Merge(b, &left);
    core::Merge(c, &left);
    // a + (b + c)
    core::LogAggregates bc = b;
    core::Merge(c, &bc);
    core::LogAggregates right = a;
    core::Merge(bc, &right);
    EXPECT_EQ(left, right);
  }
}

TEST(EngineTest, MergeIdentity) {
  Rng rng(11);
  const core::LogAggregates a = RandomAggregates(&rng);
  core::LogAggregates sum = a;
  core::Merge(core::LogAggregates{}, &sum);
  EXPECT_EQ(sum, a);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
  // Wait() is re-usable: a second batch works too.
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 150);
}

TEST(MetricsTest, SnapshotSummarizesHistogram) {
  LocalMetrics metrics;
  for (int i = 0; i < 1000; ++i) {
    metrics.Record(Stage::kParse, 1000);  // 1 us
  }
  metrics.Record(Stage::kParse, 1 << 20);  // one ~1 ms outlier
  const MetricsSnapshot snap = Summarize(metrics);
  const StageStats& parse =
      snap.stages[static_cast<size_t>(Stage::kParse)];
  EXPECT_EQ(parse.count, 1001u);
  EXPECT_LE(parse.p50_ns, parse.p90_ns);
  EXPECT_LE(parse.p90_ns, parse.p99_ns);
  EXPECT_GE(parse.max_ns, uint64_t{1} << 19);
  // p50 lands in the bucket containing 1 us, within a factor of sqrt(2).
  EXPECT_GT(parse.p50_ns, 500u);
  EXPECT_LT(parse.p50_ns, 2000u);
}

TEST(MetricsTest, MaxIsExactNotBucketEdge) {
  // max_ns must be the exact observed maximum, not the upper edge of
  // the power-of-two histogram bucket (which would be 4096 for a
  // 3000 ns sample).
  LocalMetrics metrics;
  metrics.Record(Stage::kParse, 1000);
  metrics.Record(Stage::kParse, 3000);
  metrics.Record(Stage::kParse, 2000);
  const MetricsSnapshot snap = Summarize(metrics);
  EXPECT_EQ(snap.stages[static_cast<size_t>(Stage::kParse)].max_ns, 3000u);
  EXPECT_NE(snap.ToJson().find("\"max_us\""), std::string::npos);
  // Adding slabs keeps the exact max, as the engine's per-task merge does.
  LocalMetrics totals;
  LocalMetrics small;
  small.Record(Stage::kParse, 10);
  totals.Add(small);
  totals.Add(metrics);
  EXPECT_EQ(Summarize(totals).stages[static_cast<size_t>(Stage::kParse)].max_ns,
            3000u);
  EXPECT_EQ(Summarize(totals).stages[static_cast<size_t>(Stage::kParse)].count,
            4u);
}

TEST(MetricsTest, JsonContainsHeadlineFields) {
  EngineOptions opts;
  opts.threads = 2;
  Engine engine(opts);
  engine.AnalyzeLog(loggen::ExampleProfile(300), 3);
  const std::string json = engine.Snapshot().ToJson();
  EXPECT_NE(json.find("\"queries_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"hypergraph\""), std::string::npos);
  const std::string text = engine.Snapshot().ToText();
  EXPECT_NE(text.find("cache"), std::string::npos);
}

}  // namespace
}  // namespace rwdt::engine
