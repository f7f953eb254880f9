// cold-explain: the CLI path. One client, one query at a time; each query
// reads a CSV written during set-up and runs RunCauSumX with a fresh
// engine and context under the paper default config. The datasets rotate
// SO, IMPUS-CPS, Accidents and a run stops only at a rotation boundary,
// so every run weighs the three equally.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/json_export.h"
#include "dataset/csv.h"
#include "pipeline.h"
#include "workloads.h"

namespace perfbench {
namespace {

using causumx::CauSumXConfig;

struct DatasetSize {
  const char* name;
  size_t rows;
};
// Row counts sized so that a 20 s run on a 4-core x86 machine collects
// well over 100 queries.
constexpr DatasetSize kColdDatasets[] = {
    {"SO", 1500}, {"IMPUS-CPS", 6000}, {"Accidents", 4000}};
/// Independently generated instances of each dataset per run: averaging
/// over several draws keeps one seed's data from setting the figures.
constexpr size_t kInstances = 2;
constexpr size_t kRotation = kInstances * std::size(kColdDatasets);

struct ColdQuery {
  BenchData data;
  std::string csv_path;
  std::string oracle;  ///< SummaryToJson of the cache-bypass run
};

std::vector<ColdQuery> Setup(const Options& options) {
  std::vector<ColdQuery> queries;
  for (size_t i = 0; i < kRotation; ++i) {
    const DatasetSize& d = kColdDatasets[i % std::size(kColdDatasets)];
    ColdQuery q;
    q.data = MakeBenchData(d.name, d.rows, MixSeed(options.seed, i));
    q.csv_path = options.work_dir + "/cold-" + std::to_string(i) + "-" +
                 q.data.name + ".csv";
    causumx::WriteCsvFile(q.data.ds.table, q.csv_path);
    queries.push_back(std::move(q));
  }
  // Warm-up: the first query of a process runs up to 2x slower.
  for (const ColdQuery& q : queries) {
    const causumx::Table table = causumx::ReadCsvFile(q.csv_path);
    causumx::RunCauSumX(table, q.data.ds.default_query, q.data.ds.dag,
                        q.data.config);
  }
  return queries;
}

void ComputeOracles(std::vector<ColdQuery>* queries) {
  for (ColdQuery& q : *queries) {
    CauSumXConfig bypass = q.data.config;
    bypass.disable_eval_cache = true;
    const causumx::Table table = causumx::ReadCsvFile(q.csv_path);
    q.oracle = causumx::SummaryToJson(
        causumx::RunCauSumX(table, q.data.ds.default_query, q.data.ds.dag,
                            bypass)
            .summary,
        &q.data.ds.default_query);
  }
}

/// Counts over the first traced rotation (a fixed set of queries).
struct ColdCounts {
  size_t grouping_candidates = 0;
  size_t patterns_evaluated = 0;
  size_t lp_candidates = 0;
  causumx::EvalEngineStats engine;
  causumx::EstimatorCacheStats memo;
};

struct LoopOut {
  std::vector<double> latency;
  double elapsed_s = 0.0;
};

/// Untraced closed loop: CSV read + RunCauSumX per query.
LoopOut UntracedLoop(const std::vector<ColdQuery>& queries, double seconds,
                     size_t min_samples, Report* report) {
  LoopOut out;
  const double start = Now();
  const double hard = HardStop(start, seconds);
  for (size_t i = 0;
       i % kRotation != 0 ||
       KeepGoing(start, seconds, out.latency.size(), min_samples, hard);
       ++i) {
    const ColdQuery& q = queries[i % kRotation];
    try {
      const double t0 = Now();
      const causumx::Table table = causumx::ReadCsvFile(q.csv_path);
      const causumx::CauSumXResult result = causumx::RunCauSumX(
          table, q.data.ds.default_query, q.data.ds.dag, q.data.config);
      out.latency.push_back(Now() - t0);
      report->Op(causumx::SummaryToJson(result.summary,
                                        &q.data.ds.default_query) ==
                     q.oracle,
                 "cold-explain answer differs from the oracle on " +
                     q.data.name);
    } catch (const std::exception& e) {
      report->Op(false, std::string("cold-explain: ") + e.what());
    }
  }
  out.elapsed_s = Now() - start;
  return out;
}

void TracedLoop(const std::vector<ColdQuery>& queries, double seconds,
                Report* report, SpanRecorder* rec) {
  std::vector<double> latency;
  std::vector<double> treatment_share;
  std::vector<double> max_task;
  std::vector<double> fit_s;
  std::vector<double> hit_s;
  ColdCounts counts;
  const double start = Now();
  const double hard = HardStop(start, seconds);
  for (size_t i = 0; i % kRotation != 0 ||
                     KeepGoing(start, seconds, latency.size(), kRotation, hard);
       ++i) {
    const ColdQuery& q = queries[i % kRotation];
    const std::string rid = "q" + std::to_string(i);
    try {
      // The engine in `run` refers to `table`, which the estimator replay
      // below still reads: declared first, it is destroyed last.
      causumx::Table table;
      PipelineOutput run;
      double query_s = 0.0;
      uint64_t root = 0;
      {
        ScopedSpan query_span(rec, "query", 0, rid);
        root = query_span.id();
        const double t0 = Now();
        {
          ScopedSpan span(rec, "dataset.csv_parse", root, rid);
          table = causumx::ReadCsvFile(q.csv_path);
        }
        run = RunTracedPipeline(table, q.data.ds.default_query,
                                q.data.ds.dag, q.data.config, nullptr,
                                nullptr, nullptr, nullptr, rec, root, rid);
        query_s = Now() - t0;
      }
      latency.push_back(query_s);
      max_task.push_back(run.max_task_s);
      report->Op(causumx::SummaryToJson(run.summary,
                                        &q.data.ds.default_query) == q.oracle,
                 "traced pipeline drifted from RunCauSumX on " + q.data.name);
      if (i < kRotation) {
        counts.grouping_candidates += run.grouping_candidates;
        counts.patterns_evaluated += run.patterns_evaluated;
        counts.lp_candidates += run.lp_candidates;
        const causumx::EvalEngineStats e = run.engine->Stats();
        counts.engine.bitsets_materialized += e.bitsets_materialized;
        counts.engine.bitset_hits += e.bitset_hits;
        counts.engine.bitset_bytes += e.bitset_bytes;
        const causumx::EstimatorCacheStats m = run.context->Stats();
        counts.memo.memo_hits += m.memo_hits;
        counts.memo.memo_misses += m.memo_misses;
      }
      if (i < kRotation) {
        ReplayEstimates(run, q.data.ds.dag, q.data.config,
                        q.data.ds.default_query.avg_attribute, &fit_s, &hit_s);
      }
    } catch (const std::exception& e) {
      report->Op(false, std::string("cold-explain traced: ") + e.what());
    }
  }

  const std::vector<Span> spans = rec->Spans();
  // Per-query share of the treatment phase in the query span.
  for (const Span& root : spans) {
    if (root.name != "query") continue;
    for (const Span& s : spans) {
      if (s.parent == root.id && s.name == "mining.treatment") {
        treatment_share.push_back(s.Duration() / root.Duration());
      }
    }
  }
  report->Set("dataset.csv_parse_s.p50",
              MedianOr0(Durations(spans, "dataset.csv_parse")));
  report->Set("dataset.view_s.p50",
              MedianOr0(Durations(spans, "dataset.view")));
  report->Set("mining.grouping_s.p50",
              MedianOr0(Durations(spans, "mining.grouping")));
  report->Set("mining.treatment_s.p50",
              MedianOr0(Durations(spans, "mining.treatment")));
  report->Set("mining.treatment_task_s.max", MedianOr0(max_task));
  const double share = MedianOr0(treatment_share);
  report->Set("mining.treatment_share", share);
  report->Set("lp.selection_s.p50",
              MedianOr0(Durations(spans, "lp.selection")));
  report->Set("estimator.cate_fit_s.p50", MedianOr0(fit_s));
  report->Set("estimator.cate_hit_s.p50", MedianOr0(hit_s));
  report->Set("mining.grouping_candidates",
              static_cast<double>(counts.grouping_candidates));
  report->Set("mining.treatment_patterns_evaluated",
              static_cast<double>(counts.patterns_evaluated));
  report->Set("lp.candidates", static_cast<double>(counts.lp_candidates));
  const double misses = static_cast<double>(counts.memo.memo_misses);
  const double hits = static_cast<double>(counts.memo.memo_hits);
  report->Set("estimator.memo_misses", misses);
  report->Set("estimator.memo_hits", hits);
  report->Set("estimator.memo_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0);
  const double built = static_cast<double>(counts.engine.bitsets_materialized);
  const double bhits = static_cast<double>(counts.engine.bitset_hits);
  report->Set("engine.segments_materialized", built);
  report->Set("engine.bitset_hits", bhits);
  report->Set("engine.bitset_hit_ratio",
              bhits + built > 0 ? bhits / (bhits + built) : 0.0);
  report->Set("engine.bitset_bytes",
              static_cast<double>(counts.engine.bitset_bytes));
  report->Set("trace.uncovered_frac", UncoveredShare(spans, "query"));
  report->Sanity(share >= 0.8,
                 "treatment mining is >= 80% of the traced query (median "
                 "share " + std::to_string(share) + ")");
}

}  // namespace

void RunColdExplain(const Options& options, Report* report) {
  std::vector<double> setup_s;
  std::vector<ColdQuery> queries;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double t0 = Now();
    queries = Setup(options);
    setup_s.push_back(Now() - t0);
  }
  ComputeOracles(&queries);

  if (!report->trace()) {
    report->Set("setup_s", MedianOr0(setup_s));
    ResetPeakRss(report);
    const LoopOut loop =
        UntracedLoop(queries, options.seconds, kMinTailSamples, report);
    ReportLatency(report, "explain_s", loop.latency, /*with_p90=*/true);
    report->Set("ops_per_s",
                static_cast<double>(loop.latency.size()) / loop.elapsed_s);
    return;
  }

  // Traced run: an untraced half for the overhead base, then the traced
  // half that yields the per-layer metrics.
  const LoopOut base =
      UntracedLoop(queries, options.seconds / 2, kRotation, report);
  SpanRecorder rec(true);
  TracedLoop(queries, options.seconds / 2, report, &rec);
  const double untraced = MedianOr0(base.latency);
  const double traced = MedianOr0(Durations(rec.Spans(), "query"));
  report->Set("trace.overhead_frac",
              untraced > 0 ? (traced - untraced) / untraced : 0.0);
  if (!rec.WriteJsonl(options.work_dir + "/spans-cold-explain.jsonl")) {
    report->Fail("cannot write the span dump");
  }
}

}  // namespace perfbench
