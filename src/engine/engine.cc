#include "engine/engine.h"

#include <array>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "common/build_info.h"
#include "common/interner.h"
#include "common/hash.h"
#include "common/json.h"
#include "core/query_analysis.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "sparql/parser.h"

namespace rwdt::engine {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

unsigned ResolveThreads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Process-wide engine ordinal for the registry's `engine="<n>"` label,
/// so several live engines expose disjoint series instead of clobbering
/// each other's families.
std::atomic<uint64_t> g_engine_ordinal{0};

}  // namespace

Status EngineOptions::Validate() const {
  constexpr unsigned kMaxThreads = 4096;
  constexpr size_t kMaxShards = size_t{1} << 20;
  if (threads > kMaxThreads) {
    return Status::InvalidArgument("threads must be <= 4096");
  }
  if (num_shards > kMaxShards) {
    return Status::InvalidArgument("num_shards must be <= 2^20");
  }
  if (admin_port > kAdminPortAuto) {
    return Status::InvalidArgument(
        "admin_port must be 0 (off), a TCP port, or kAdminPortAuto");
  }
  if (admin_port != 0 && admin_bind.empty()) {
    return Status::InvalidArgument("admin_bind must be set when admin is on");
  }
  if (!profile_path.empty() && (profile_hz < 1.0 || profile_hz > 1000.0)) {
    return Status::InvalidArgument("profile_hz must be in [1, 1000]");
  }
  RWDT_RETURN_IF_ERROR(parse_limits.Validate());
  RWDT_RETURN_IF_ERROR(progress.Validate());
  return Status::Ok();
}

std::string EngineOptions::ToJson() const {
  std::string out = "{";
  out += "\"threads\":" + std::to_string(threads);
  out += ",\"num_shards\":" + std::to_string(num_shards);
  out += ",\"cache_capacity\":" + std::to_string(cache_capacity);
  out += ",\"collect_stage_timings\":";
  out += collect_stage_timings ? "true" : "false";
  out += ",\"admin_port\":" + std::to_string(admin_port);
  out += ",";
  AppendJsonStringField("profile_path", profile_path, &out);
  out += "\"profile_hz\":" + std::to_string(profile_hz);
  out += ",";
  AppendJsonStringField("admin_bind", admin_bind, &out,
                        /*trailing_comma=*/false);
  out += "}";
  return out;
}

/// One work shard's memo: every distinct text the shard has seen, with
/// its verdict and analysis. Kept across streams, so a text is parsed
/// and analyzed at most once per engine while it stays here; a stream's
/// own counts live in its ShardTally. Only the worker running the
/// shard's task touches it, so no lock guards it.
///
/// Layout constraint: alignas(64) — memos live contiguously in
/// `memos_` and are mutated concurrently by different workers, so a
/// memo must never straddle a cache line shared with its neighbor.
struct alignas(64) Engine::ShardMemo {
  /// Text -> dense first-seen id, looked up with the hash precomputed
  /// during routing.
  Interner seen;
  /// Per-parse symbol dictionary, Clear()ed before every parse so the
  /// analysis stays a pure function of the query text while the arena
  /// and slot table are reused allocation-free across queries.
  Interner dict;
  struct Entry {
    /// Where this id sits in the open stream's `touched` list. Stale
    /// slots from earlier (finished or dropped) streams are harmless:
    /// the id counts as touched only if `touched[slot].id` names it
    /// back, so a new stream needs no reset pass.
    uint32_t slot = 0;
    uint8_t verdict = 0;  // 0 = valid, else 1 + ErrorClass
  };
  std::vector<Entry> entries;  // by id
  /// Analysis of each distinct text, by id (default for invalid texts).
  std::vector<core::QueryAnalysis> analysis;
};

/// One work shard's counts for the open stream. Shards never share
/// mutable state, so workers run lock-free.
///
/// Layout constraint: alignas(64), as for ShardMemo (false sharing on
/// `valid`/`unique` would serialize the whole sweep).
struct alignas(64) Engine::ShardTally {
  struct Touched {
    SymbolId id;
    /// Valid occurrences after the first. Duplicates only bump this on
    /// the hot path; Finish() folds each distinct analysis into
    /// valid_agg once with this weight. AddToAggregates is
    /// weight-linear in every field (unsigned sums), so one weighted
    /// call is bit-identical to per-occurrence calls.
    uint64_t dup_extra;
  };
  /// Memo ids this stream has seen, in first-sight order. Finish walks
  /// this, not the memo, so it costs O(distinct texts in the stream).
  std::vector<Touched> touched;
  uint64_t valid = 0;
  uint64_t unique = 0;
  std::array<uint64_t, kNumErrorClasses> errors{};
  core::LogAggregates valid_agg;
  core::LogAggregates unique_agg;
};

/// Stream state: the per-shard tallies plus the study skeleton that
/// accumulates totals and ingest-level rejects.
struct EngineStream::Impl {
  Engine* engine = nullptr;
  core::SourceStudy study;
  std::vector<Engine::ShardTally> tallies;
  /// Shard routing buffers, cleared and refilled per Feed call instead
  /// of reallocated per chunk (steady-state feeds allocate nothing).
  std::vector<std::vector<RoutedEntry>> parts;
  /// Live reporting for the stream's lifetime (null unless enabled).
  std::unique_ptr<obs::ProgressReporter> reporter;
};

Engine::Engine(const EngineOptions& options)
    : options_(options),
      threads_(ResolveThreads(options.threads)),
      num_shards_(options.num_shards > 0 ? options.num_shards : threads_),
      memos_(num_shards_) {
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
  start_ns_ = NowNs();
  ready_ = std::make_shared<std::atomic<bool>>(false);
  ordinal_ = g_engine_ordinal.fetch_add(1, std::memory_order_relaxed);
  // Pull-only: the families are built from Snapshot() at scrape time,
  // so an unscraped engine does no registry work at all.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry_collector_ = obs::ScopedCollector(
      &registry, registry.AddCollector([this](auto* out) {
        AppendEngineFamilies(Snapshot(), queue_depth(),
                             {{"engine", std::to_string(ordinal_)}}, out);
      }));
  StartAdminServer();
  if (!options_.profile_path.empty()) {
    obs::ProfileOptions popts;
    popts.hz = options_.profile_hz;
    self_profile_ = std::make_unique<obs::ScopedSelfProfile>(
        options_.profile_path, popts);
  }
  ready_->store(true, std::memory_order_release);
}

Engine::~Engine() {
  if (ready_ != nullptr) ready_->store(false, std::memory_order_release);
  // Order matters: the admin server's handlers and the registry collector
  // both read engine state, so they must be torn down before the engine
  // members they touch. Stop the server (drains in-flight /metrics
  // scrapes), then unhook the global-registry collector.
  // Stop the self-profile before teardown starts so the final capture
  // covers only the engine's working lifetime.
  self_profile_.reset();
  admin_.reset();
  proc_stats_.reset();
  registry_collector_.Reset();
}

void Engine::StartAdminServer() {
  if (options_.admin_port == 0) return;
  obs::AdminServer::Options sopts;
  sopts.bind_address = options_.admin_bind;
  sopts.port = options_.admin_port == EngineOptions::kAdminPortAuto
                   ? 0
                   : static_cast<uint16_t>(options_.admin_port);
  auto server = std::make_unique<obs::AdminServer>(sopts);

  server->Handle("/metrics", "OpenMetrics exposition of every registry family",
                 [](const obs::HttpRequest&) {
                   obs::HttpResponse resp;
                   resp.content_type =
                       "application/openmetrics-text; version=1.0.0; "
                       "charset=utf-8";
                   resp.body = obs::MetricRegistry::Global().RenderOpenMetrics();
                   return resp;
                 });
  server->Handle("/healthz", "liveness: 200 while the process runs",
                 [](const obs::HttpRequest&) {
                   obs::HttpResponse resp;
                   resp.body = "ok\n";
                   return resp;
                 });
  // The ready flag is shared (not `this->ready_`) so a handler draining
  // during destruction never dereferences a dead engine.
  server->Handle("/readyz", "readiness: 200 once the engine accepts work",
                 [ready = ready_](const obs::HttpRequest&) {
                   obs::HttpResponse resp;
                   if (ready->load(std::memory_order_acquire)) {
                     resp.body = "ready\n";
                   } else {
                     resp.status = 503;
                     resp.body = "not ready\n";
                   }
                   return resp;
                 });
  server->Handle(
      "/statusz", "JSON: build info, uptime, options, metrics snapshot",
      [this](const obs::HttpRequest&) {
        obs::HttpResponse resp;
        resp.content_type = "application/json; charset=utf-8";
        std::string body = "{\"build\":";
        body += common::BuildInfo::Get().ToJson();
        body += ",\"uptime_seconds\":";
        body += std::to_string(
            static_cast<double>(NowNs() - start_ns_) / 1e9);
        body += ",\"options\":" + options_.ToJson();
        body += ",\"metrics\":" + Snapshot().ToJson();
        body += "}";
        resp.body = std::move(body);
        return resp;
      });
  server->Handle("/tracez",
                 "drains the active TraceCollector as Chrome trace JSON; "
                 "?limit=N caps rendered events (default 5000, 0 = all)",
                 [](const obs::HttpRequest& request) {
                   return obs::HandleTracez(request);
                 });
  server->Handle("/profilez",
                 "timed sampling CPU profile; ?seconds=N&hz=F"
                 "&format=collapsed|json (blocks for the capture)",
                 [](const obs::HttpRequest& request) {
                   return obs::HandleProfilez(request);
                 });

  Status started = server->Start();
  if (!started.ok()) {
    // Never fatal: an engine must not die because a port was taken.
    RWDT_LOG(ERROR) << "admin server disabled: " << started.ToString();
    return;
  }
  RWDT_LOG(INFO) << "admin server listening on " << options_.admin_bind << ":"
                  << server->port();
  // Process-footprint gauges ride along whenever this engine serves
  // /metrics (inert if another subsystem already installed them).
  proc_stats_ = std::make_unique<obs::ProcStatsCollector>();
  admin_ = std::move(server);
}

size_t Engine::queue_depth() const {
  return pool_ != nullptr ? pool_->QueueDepth() : 0;
}

core::SourceStudy Engine::AnalyzeLog(const loggen::SourceProfile& profile,
                                     uint64_t seed) {
  const uint64_t t0 = NowNs();
  const auto entries = loggen::GenerateLog(profile, seed);
  const uint64_t generate_ns = NowNs() - t0;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    totals_.Record(Stage::kGenerate, generate_ns);
  }
  return AnalyzeEntries(profile.name, profile.wikidata_like, entries);
}

core::SourceStudy Engine::AnalyzeEntries(
    const std::string& name, bool wikidata_like,
    const std::vector<loggen::LogEntry>& entries) {
  EngineStream stream = OpenStream(name, wikidata_like);
  stream.Feed(entries);
  return stream.Finish();
}

EngineStream Engine::OpenStream(std::string name, bool wikidata_like) {
  auto impl = std::make_unique<EngineStream::Impl>();
  impl->engine = this;
  impl->study.name = std::move(name);
  impl->study.wikidata_like = wikidata_like;
  impl->tallies = std::vector<ShardTally>(num_shards_);
  impl->parts.resize(num_shards_);
  if (options_.progress.enabled()) {
    obs::ProgressOptions popts = options_.progress;
    if (popts.label == "run") popts.label = impl->study.name;
    impl->reporter = std::make_unique<obs::ProgressReporter>(
        [this] { return Snapshot(); }, std::move(popts));
  }
  return EngineStream(std::move(impl));
}

EngineStream::EngineStream(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
EngineStream::EngineStream(EngineStream&&) noexcept = default;
EngineStream& EngineStream::operator=(EngineStream&&) noexcept = default;
EngineStream::~EngineStream() = default;

void EngineStream::Feed(const std::vector<loggen::LogEntry>& chunk) {
  FeedImpl(chunk.size(), [&chunk](auto&& route) {
    for (const auto& e : chunk) route(std::string_view(e.text));
  });
}

void EngineStream::Feed(std::span<const std::string_view> chunk) {
  FeedImpl(chunk.size(), [&chunk](auto&& route) {
    for (const std::string_view text : chunk) route(text);
  });
}

template <typename ForEachText>
void EngineStream::FeedImpl(size_t count, ForEachText&& for_each_text) {
  Impl& im = *impl_;
  Engine& eng = *im.engine;
  obs::Span feed_span("feed");
  const uint64_t t_start = NowNs();

  // Hash-once routing: each entry's text is hashed exactly once, here,
  // and the hash travels with the entry through shard routing and the
  // shard memo's lookup. Every duplicate of a query lands in the
  // same shard, making per-shard dedup globally exact. The partition
  // buffers live in Impl and are recycled across Feed calls.
  const size_t num_shards = eng.num_shards_;
  auto& parts = im.parts;
  for (auto& part : parts) part.clear();
  if (num_shards == 1) {
    parts[0].reserve(count);
    for_each_text([&parts](std::string_view text) {
      parts[0].push_back({text, Hash64(text)});
    });
  } else {
    for_each_text([&parts, num_shards](std::string_view text) {
      const uint64_t h = Hash64(text);
      parts[h % num_shards].push_back({text, h});
    });
  }

  if (eng.pool_ == nullptr) {
    for (size_t s = 0; s < num_shards; ++s) {
      eng.ProcessShard(parts[s], &eng.memos_[s], &im.tallies[s]);
    }
  } else {
    // Propagate the feeding thread's trace context (captured after
    // feed_span opened, so it names the feed span) into each pool task:
    // shard/stage spans recorded on pool threads nest under this Feed,
    // and a serve worker's request trace crosses the pool handoff.
    const obs::TraceContext ctx = obs::CurrentTraceContext();
    for (size_t s = 0; s < num_shards; ++s) {
      eng.pool_->Submit([&eng, &im, ctx, s] {
        obs::ScopedTraceContext scoped(ctx);
        eng.ProcessShard(im.parts[s], &eng.memos_[s], &im.tallies[s]);
      });
    }
    eng.pool_->Wait();
  }

  im.study.total += count;
  eng.AddFeedTotals(count, NowNs() - t_start, /*evictions=*/0);
}

void EngineStream::Reject(ErrorClass c, uint64_t n) {
  Impl& im = *impl_;
  im.study.total += n;
  im.study.errors[static_cast<size_t>(c)] += n;
  std::lock_guard<std::mutex> lock(im.engine->metrics_mu_);
  im.engine->totals_.entries += n;
  im.engine->totals_.AddError(c, n);
}

core::SourceStudy EngineStream::Finish() {
  Impl& im = *impl_;
  Engine& eng = *im.engine;

  // Reduce in shard order. All aggregate fields are unsigned sums, so
  // the result is independent of the shard partition itself.
  core::SourceStudy study;
  {
    obs::Span finish_span("finish");
    study = std::move(im.study);
    for (size_t s = 0; s < im.tallies.size(); ++s) {
      const Engine::ShardTally& t = im.tallies[s];
      study.valid += t.valid;
      study.unique += t.unique;
      for (size_t c = 0; c < kNumErrorClasses; ++c) {
        study.errors[c] += t.errors[c];
      }
      core::Merge(t.valid_agg, &study.valid_agg);
      core::Merge(t.unique_agg, &study.unique_agg);
      // Fold the deferred duplicate weight: one weighted AddToAggregates
      // per distinct text that recurred, replacing what used to be one
      // call per occurrence on the hot path. Unsigned sums, so folding
      // into the merged study instead of t.valid_agg changes nothing.
      for (const Engine::ShardTally::Touched& touched : t.touched) {
        if (touched.dup_extra == 0) continue;
        core::AddToAggregates(eng.memos_[s].analysis[touched.id],
                              touched.dup_extra, &study.valid_agg);
      }
    }
    im.tallies.clear();
    eng.TrimMemos();
  }
  // Stop after the reduce so the final report's counters are the run's
  // complete totals.
  if (im.reporter != nullptr) {
    im.reporter->Stop();
    im.reporter.reset();
  }
  return study;
}

void Engine::ProcessShard(const std::vector<RoutedEntry>& entries,
                          ShardMemo* memo, ShardTally* tally) {
  const bool timed = options_.collect_stage_timings;
  obs::Span shard_span("shard");
  // Worker-private metric slab (stack-resident, cache-hot): the per-query
  // path below touches no shared counter; everything is added into the
  // engine's totals under one lock when this task ends, i.e. before the
  // enclosing Feed returns.
  LocalMetrics local;

  // Parses and analyzes a text the memo has never held, appending its
  // verdict and analysis under the next id.
  auto compute = [&](std::string_view text) {
    ShardMemo::Entry entry;
    core::QueryAnalysis analysis;
    // Clear()ing the reusable per-shard dictionary restarts ids at 0, so
    // each parse is still a pure function of the text, but the arena
    // and slot table are recycled instead of rebuilding an
    // unordered_map (and its per-node allocations) for every parse.
    memo->dict.Clear();
    const uint64_t t0 = timed ? NowNs() : 0;
    auto parsed = sparql::ParseSparql(text, &memo->dict, options_.parse_limits);
    const uint64_t t1 = timed ? NowNs() : 0;
    if (timed) {
      local.Record(Stage::kParse, t1 - t0);
      obs::EmitSpan("parse", t0, t1 - t0);
    }
    if (parsed.ok()) {
      core::StageTimings st;
      analysis = core::AnalyzeQuery(parsed.value(), options_.study,
                                    timed ? &st : nullptr);
      if (timed) {
        local.Record(Stage::kFeatures, st.feature_ns);
        local.Record(Stage::kHypergraph, st.hypergraph_ns);
        local.Record(Stage::kPaths, st.path_ns);
        // AnalyzeQuery runs its stages back-to-back starting right after
        // the parse, so their spans chain from t1 using the durations it
        // reported (start offsets are exact up to its internal overhead).
        obs::EmitSpan("features", t1, st.feature_ns);
        obs::EmitSpan("hypergraph", t1 + st.feature_ns, st.hypergraph_ns);
        obs::EmitSpan("paths", t1 + st.feature_ns + st.hypergraph_ns,
                      st.path_ns);
      }
      local.analyzed++;
    } else {
      entry.verdict = static_cast<uint8_t>(
          1 + static_cast<size_t>(ClassifyStatus(parsed.status())));
      local.parse_failures++;
    }
    local.misses++;
    memo->entries.push_back(entry);
    memo->analysis.push_back(std::move(analysis));
  };

  auto aggregate = [&](const core::QueryAnalysis& a, core::LogAggregates* agg) {
    const uint64_t t0 = timed ? NowNs() : 0;
    core::AddToAggregates(a, 1, agg);
    if (timed) {
      const uint64_t dur = NowNs() - t0;
      local.Record(Stage::kAggregate, dur);
      obs::EmitSpan("aggregate", t0, dur);
    }
  };

  // Every rejected entry is attributed to exactly one taxonomy class,
  // duplicates included, so total == valid + sum(errors) holds per shard.
  auto reject = [&](ErrorClass c) {
    tally->errors[static_cast<size_t>(c)]++;
    local.AddError(c);
  };

  // Exact first-occurrence tracking: the memo remembers each distinct
  // text's verdict and analysis, and `touched` records which of them
  // this stream has already counted. Repeated entries never reach the
  // parser; a text first seen by an earlier stream is a memo hit.
  for (const RoutedEntry& routed : entries) {
    const std::string_view text = routed.text;
    const SymbolId known = static_cast<SymbolId>(memo->seen.size());
    const SymbolId id = memo->seen.InternWithHash(routed.hash, text);
    if (id == known) {
      compute(text);
    } else {
      const uint32_t slot = memo->entries[id].slot;
      if (slot < tally->touched.size() && tally->touched[slot].id == id) {
        // Seen earlier in this stream.
        const uint8_t v = memo->entries[id].verdict;
        if (v != 0) {  // known-invalid duplicate
          reject(static_cast<ErrorClass>(v - 1));
          continue;
        }
        // Valid duplicate: two counter bumps and done. The aggregate
        // fold happens once per distinct text at Finish, weighted by
        // this count.
        tally->valid++;
        tally->touched[slot].dup_extra++;
        continue;
      }
      local.hits++;
    }

    // First sight in this stream.
    ShardMemo::Entry& entry = memo->entries[id];
    entry.slot = static_cast<uint32_t>(tally->touched.size());
    tally->touched.push_back({id, 0});
    if (entry.verdict != 0) {
      reject(static_cast<ErrorClass>(entry.verdict - 1));
      continue;
    }
    tally->valid++;
    tally->unique++;
    aggregate(memo->analysis[id], &tally->valid_agg);
    aggregate(memo->analysis[id], &tally->unique_agg);
  }

  std::lock_guard<std::mutex> lock(metrics_mu_);
  totals_.Add(local);
}

void Engine::TrimMemos() {
  const size_t share =
      (options_.cache_capacity + num_shards_ - 1) / num_shards_;
  uint64_t evicted = 0;
  for (ShardMemo& memo : memos_) {
    if (memo.seen.size() <= share) continue;
    evicted += memo.seen.size();
    memo = ShardMemo();
  }
  AddFeedTotals(/*entries=*/0, /*wall_ns=*/0, evicted);
}

void Engine::AddFeedTotals(uint64_t entries, uint64_t wall_ns,
                           uint64_t evictions) {
  // One pass over the memos after the workers quiesced, never on the
  // per-query path.
  uint64_t interner_bytes = 0;
  uint64_t dedup_entries = 0;
  for (const ShardMemo& memo : memos_) {
    interner_bytes += memo.seen.bytes_reserved() + memo.dict.bytes_reserved();
    dedup_entries += memo.seen.size();
  }
  std::lock_guard<std::mutex> lock(metrics_mu_);
  totals_.entries += entries;
  totals_.wall_ns += wall_ns;
  totals_.evictions += evictions;
  interner_bytes_ = interner_bytes;
  dedup_entries_ = dedup_entries;
}

MetricsSnapshot Engine::Snapshot() const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  MetricsSnapshot snap = Summarize(totals_);
  snap.threads = threads_;
  snap.interner_bytes = interner_bytes_;
  snap.dedup_entries = dedup_entries_;
  snap.cache_size = dedup_entries_;
  return snap;
}

}  // namespace rwdt::engine
