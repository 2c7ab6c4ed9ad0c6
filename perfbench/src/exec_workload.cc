// exec_fragments: the bench_exec store shape (dense random p0..p2 layers
// plus p3 chains of 12) and its five queries, one per certified fragment
// class, run round-robin through exec::Executor. Outputs are checked as
// sorted bags against sparql::Evaluator::EvalQuery on the same store,
// computed once outside timing. Ingest, engine and serve are bypassed.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/interner.h"
#include "common/rng.h"
#include "exec/planner.h"
#include "graph/rdf.h"
#include "obs/trace.h"
#include "sparql/eval.h"
#include "sparql/parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sparql = rwdt::sparql;
using rwdt::exec::Executor;
using rwdt::graph::TripleStore;

/// The five fragment classes, in round-robin order, and their queries.
struct FragmentQuery {
  const char* cls;
  const char* text;
};
constexpr FragmentQuery kFragments[] = {
    {"acyclic_cq", "SELECT * WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d }"},
    {"cyclic_htw2", "SELECT * WHERE { ?x p0 ?y . ?y p1 ?z . ?z p2 ?x }"},
    {"ste_path", "SELECT * WHERE { ?x p3* ?y . ?y p1 ?z }"},
    {"ste_path_scan", "SELECT * WHERE { ?x p0/p3* ?y }"},
    {"wd_optional", "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } }"},
};
constexpr size_t kNumClasses = std::size(kFragments);
// About once a second: a rebuilt store evicts the measured one from the
// caches, so set-up reps must stay rare next to queries.
constexpr uint64_t kSetupEveryRounds = 20;


struct ExecInputs {
  rwdt::Interner dict;
  std::vector<rwdt::graph::Triple> triples;
  std::vector<sparql::Query> queries;  // parallel to kFragments
};

/// The seeded store contents and the parsed queries. Deterministic in
/// (seed, size), so the child and the reference see the same ids.
bool MakeInputs(uint64_t seed, Size size, ExecInputs* in) {
  rwdt::Rng rng(seed);
  const uint64_t n = size == Size::kTiny ? 240 : 2400;
  const uint64_t edges = size == Size::kTiny ? 300 : 3000;
  auto node = [&](uint64_t i) { return in->dict.Intern("n" + std::to_string(i)); };
  for (const char* pred : {"p0", "p1", "p2"}) {
    const rwdt::SymbolId p = in->dict.Intern(pred);
    for (uint64_t i = 0; i < edges; ++i) {
      const rwdt::SymbolId s = node(rng.NextBelow(n));
      in->triples.push_back({s, p, node(rng.NextBelow(n))});
    }
  }
  const rwdt::SymbolId p3 = in->dict.Intern("p3");
  for (uint64_t i = 0; i + 1 < n; ++i) {
    if ((i + 1) % 12 == 0) continue;  // chains of 12
    in->triples.push_back({node(i), p3, node(i + 1)});
  }
  for (const FragmentQuery& f : kFragments) {
    auto q = sparql::ParseSparql(f.text, &in->dict);
    if (!q.ok()) return false;
    in->queries.push_back(std::move(q).value());
  }
  return true;
}

rwdt::exec::ExecOptions ExecOptionsForBench() {
  rwdt::exec::ExecOptions opts;
  opts.limits.max_steps = 1ull << 33;  // as bench_exec: time, not limits
  return opts;
}

std::unique_ptr<TripleStore> BuildStore(const ExecInputs& in) {
  auto store = std::make_unique<TripleStore>();
  for (const auto& t : in.triples) store->Add(t);
  (void)store->size();  // forces the sort
  return store;
}

/// Order-independent identity of a result bag: rows sorted, rendered
/// with the dictionary's names, hashed.
uint64_t BagDigest(std::vector<sparql::Binding> rows,
                   const rwdt::Interner& dict) {
  std::sort(rows.begin(), rows.end());
  std::string text;
  for (const auto& row : rows) {
    for (const auto& [var, value] : row) {
      text += dict.Name(var);
      text += '=';
      text += dict.Name(value);
      text += ',';
    }
    text += '\n';
  }
  return rwdt::Hash64(text);
}

struct Reference {
  uint64_t digest[kNumClasses] = {};
  uint64_t rows[kNumClasses] = {};
};

bool ComputeReference(ExecInputs* in, Perturb perturb, Reference* ref) {
  const auto store = BuildStore(*in);
  const sparql::Evaluator eval(*store, &in->dict, ExecOptionsForBench().limits);
  for (size_t c = 0; c < kNumClasses; ++c) {
    auto rows = eval.EvalQuery(in->queries[c]);
    if (!rows.ok()) return false;
    std::vector<sparql::Binding> bag = std::move(rows).value();
    if (perturb == Perturb::kRow && c == 0 && !bag.empty()) bag.pop_back();
    ref->rows[c] = bag.size();
    ref->digest[c] = BagDigest(std::move(bag), in->dict);
  }
  return true;
}

void RunUntraced(const Options& options, const Reference& ref, Outcome* out) {
  WorkDir wd("exec_fragments");
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%.3f", options.seconds);
  Child child({SelfExe(), "--child", "exec", std::to_string(options.seed),
               options.size == Size::kTiny ? "tiny" : "full", seconds},
              options.cpus.program, wd.Path("child.out"), wd.Path("child.err"));
  double peak_rss_mb = 0;
  const bool exited_ok = child.Wait(150, &peak_rss_mb);
  out->Check(exited_ok, "exec child exited non-zero or timed out");
  if (!exited_ok) {
    std::fprintf(stderr, "%s", ReadFile(wd.Path("child.err")).c_str());
    return;
  }
  const std::string text = ReadFile(wd.Path("child.out"));
  const auto setup = Field(text, "setup_cpu_ns");
  const auto cpus = Field(text, "cpu_ns");  // one line per class, in order
  const auto classes = Field(text, "class");
  if (setup.empty() || cpus.size() != kNumClasses ||
      classes.size() != kNumClasses) {
    out->Check(false, "exec child output incomplete");
    return;
  }
  // class <index> <runs> <bad_runs> <rows> <digest>
  for (const std::string& line : classes) {
    unsigned long long idx = 0, runs = 0, bad = 0, rows = 0, digest = 0;
    if (std::sscanf(line.c_str(), "%llu %llu %llu %llu %llu", &idx, &runs,
                    &bad, &rows, &digest) != 5 ||
        idx >= kNumClasses) {
      out->Check(false, "exec child class line malformed");
      continue;
    }
    const bool matches = rows == ref.rows[idx] && digest == ref.digest[idx];
    out->Count(runs, matches ? bad : runs,
               std::string(kFragments[idx].cls) + ": executor bag != EvalQuery bag");
  }
  // The child runs on one thread: each class's minimum CPU time is its
  // cost on an undisturbed vCPU (see kLogSpecs in log_workloads.cc for
  // how the shared host disturbs a run). mix_ns is one query of each.
  double mix_ns = 0;
  for (const std::string& line : cpus) mix_ns += Quantile(Numbers(line), 0);
  out->Set("throughput_per_s", kNumClasses / (mix_ns / 1e9));
  out->Set("latency_ms", mix_ns / 1e6 / kNumClasses);
  out->Set("setup_s", Median(Numbers(setup[0])) / 1e9);
  out->Set("peak_rss_mb", peak_rss_mb);
}

/// One traced or untraced round of the mix from the query texts:
/// ParseSparql, Classify, MakePlan(q, verdict), Execute per class.
struct RoundTimes {
  uint64_t parse_ns[kNumClasses] = {};
  uint64_t classify_ns[kNumClasses] = {};
  uint64_t plan_ns[kNumClasses] = {};
  uint64_t execute_ns[kNumClasses] = {};
  uint64_t rows[kNumClasses] = {};
  bool ok = true;
};

RoundTimes Round(const Executor& executor, rwdt::Interner* dict) {
  RoundTimes t;
  for (size_t c = 0; c < kNumClasses; ++c) {
    uint64_t t0 = NowNs();
    rwdt::Result<sparql::Query> q = [&] {
      rwdt::obs::Span span("sparql.ParseSparql");
      return sparql::ParseSparql(kFragments[c].text, dict);
    }();
    uint64_t t1 = NowNs();
    t.parse_ns[c] = t1 - t0;
    if (!q.ok()) {
      t.ok = false;
      continue;
    }
    const rwdt::core::QueryVerdict verdict = [&] {
      rwdt::obs::Span span("exec.Executor::Classify");
      return executor.Classify(q.value());
    }();
    t0 = NowNs();
    t.classify_ns[c] = t0 - t1;
    auto plan = [&] {
      rwdt::obs::Span span("exec.Executor::MakePlan");
      return executor.MakePlan(q.value(), verdict);
    }();
    t1 = NowNs();
    t.plan_ns[c] = t1 - t0;
    if (!plan.ok()) {
      t.ok = false;
      continue;
    }
    auto rows = [&] {
      rwdt::obs::Span span("exec.Executor::Execute");
      return executor.Execute(plan.value());
    }();
    t.execute_ns[c] = NowNs() - t1;
    if (!rows.ok()) {
      t.ok = false;
      continue;
    }
    t.rows[c] = rows.value().size();
  }
  return t;
}

void RunTraced(const Options& options, ExecInputs* in, const Reference& ref,
               Outcome* out) {
  RunOn(options.cpus.program);  // the program runs in this process
  const auto store = BuildStore(*in);
  const Executor executor(*store, &in->dict, ExecOptionsForBench());
  const uint64_t budget_ns = static_cast<uint64_t>(options.seconds * 0.5e9);

  auto run_rounds = [&](std::vector<RoundTimes>* rounds,
                        std::vector<double>* walls) {
    uint64_t spent = 0;
    while (rounds->size() < 2 || spent < budget_ns) {
      const uint64_t t0 = NowNs();
      rounds->push_back(Round(executor, &in->dict));
      const uint64_t dt = NowNs() - t0;
      spent += dt;
      walls->push_back(static_cast<double>(dt));
    }
  };
  std::vector<RoundTimes> untraced, traced;
  std::vector<double> untraced_walls, traced_walls, build_ns;
  run_rounds(&untraced, &untraced_walls);
  {
    rwdt::obs::TraceCollector trace(BenchTraceOptions());
    for (int i = 0; i < 5; ++i) {
      const uint64_t t0 = NowNs();
      rwdt::obs::Span span("graph.TripleStore");
      (void)BuildStore(*in);
      build_ns.push_back(static_cast<double>(NowNs() - t0));
    }
    run_rounds(&traced, &traced_walls);
    WriteTrace(trace, options, out);
  }

  std::vector<double> parse_us, classify_ms, plan_ms, execute_ms[kNumClasses];
  double parse_ns_total = 0;
  for (const RoundTimes& r : traced) {
    out->Check(r.ok, "exec round failed");
    for (size_t c = 0; c < kNumClasses; ++c) {
      out->Check(r.rows[c] == ref.rows[c],
                 std::string(kFragments[c].cls) + ": row count != EvalQuery");
      parse_us.push_back(r.parse_ns[c] / 1e3);
      parse_ns_total += static_cast<double>(r.parse_ns[c]);
      classify_ms.push_back(r.classify_ns[c] / 1e6);
      plan_ms.push_back(r.plan_ns[c] / 1e6);
      execute_ms[c].push_back(r.execute_ns[c] / 1e6);
    }
  }
  // Full bag identity once per class, on the traced executor.
  for (size_t c = 0; c < kNumClasses; ++c) {
    auto rows = executor.Run(in->queries[c]);
    out->Check(rows.ok() && BagDigest(std::move(rows).value(), in->dict) ==
                                ref.digest[c],
               std::string(kFragments[c].cls) + ": executor bag != EvalQuery bag");
  }
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
  };
  out->Set("sparql.parse_s", parse_ns_total / 1e9);
  out->Set("sparql.parse_p50_us", Median(parse_us));
  out->Set("sparql.parse_p99_us", Quantile(parse_us, 0.99));
  out->Set("exec.classify_ms", mean(classify_ms));
  out->Set("exec.plan_ms", mean(plan_ms));
  for (size_t c = 0; c < kNumClasses; ++c) {
    out->Set(std::string("exec.execute_ms.") + kFragments[c].cls,
             Median(execute_ms[c]));
    out->Set(std::string("exec.rows.") + kFragments[c].cls,
             static_cast<double>(ref.rows[c]));
  }
  out->Set("graph.store_build_s", Median(build_ns) / 1e9);
  out->Set("obs.trace_overhead_ratio",
           Median(traced_walls) / Median(untraced_walls));
}

}  // namespace

void RunExecWorkload(const Options& options, Outcome* out) {
  ExecInputs in;
  Reference ref;
  if (!MakeInputs(options.seed, options.size, &in) ||
      !ComputeReference(&in, options.perturb, &ref)) {
    out->Check(false, "exec inputs or reference failed");
    return;
  }
  if (options.trace) {
    RunTraced(options, &in, ref, out);
  } else {
    RunUntraced(options, ref, out);
  }
}

// args: seed size seconds
int ExecChildMain(const std::vector<std::string>& args) {
  if (args.size() != 3) return 2;
  const uint64_t seed = std::stoull(args[0]);
  const Size size = args[1] == "tiny" ? Size::kTiny : Size::kFull;
  const double seconds = std::stod(args[2]);
  ExecInputs in;
  if (!MakeInputs(seed, size, &in)) return 1;

  // Set-up: graph::TripleStore build plus Executor construction, timed
  // before the first query and again every kSetupEveryRounds rounds of
  // the mix, so the repetitions sample the whole run.
  std::string setup_line = "setup_cpu_ns";
  auto set_up = [&] {
    const uint64_t c0 = CpuNs();
    auto store = BuildStore(in);
    auto executor =
        std::make_unique<Executor>(*store, &in.dict, ExecOptionsForBench());
    setup_line += " " + std::to_string(CpuNs() - c0);
    return std::make_pair(std::move(store), std::move(executor));
  };
  const auto [store, executor] = set_up();

  std::vector<std::string> cpu_lines(kNumClasses, "cpu_ns");
  uint64_t runs[kNumClasses] = {}, bad[kNumClasses] = {},
           rows[kNumClasses] = {}, digest[kNumClasses] = {};
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  std::vector<sparql::Binding> last[kNumClasses];
  for (uint64_t i = 0; i < 2 * kNumClasses || NowNs() < deadline; ++i) {
    const size_t c = i % kNumClasses;
    const uint64_t c0 = CpuNs();
    auto plan = executor->MakePlan(in.queries[c]);
    if (!plan.ok()) return 1;
    auto result = executor->Execute(plan.value());
    const uint64_t dc = CpuNs() - c0;
    if (!result.ok()) return 1;
    cpu_lines[c] += " " + std::to_string(dc);
    std::vector<sparql::Binding> bag = std::move(result).value();
    if (runs[c] == 0) {
      rows[c] = bag.size();
      digest[c] = BagDigest(bag, in.dict);
    } else if (bag.size() != rows[c]) {
      bad[c]++;
    }
    runs[c]++;
    last[c] = std::move(bag);
    if ((i + 1) % (kNumClasses * kSetupEveryRounds) == 0) set_up();
  }
  // The last bag of each class must still be the first one.
  for (size_t c = 0; c < kNumClasses; ++c) {
    if (BagDigest(std::move(last[c]), in.dict) != digest[c]) bad[c]++;
  }
  std::printf("%s\n", setup_line.c_str());
  for (size_t c = 0; c < kNumClasses; ++c) {
    std::printf("%s\n", cpu_lines[c].c_str());
    std::printf("class %zu %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
                c, runs[c], std::min(bad[c], runs[c]), rows[c], digest[c]);
  }
  return 0;
}

}  // namespace perfbench
