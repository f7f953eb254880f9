// ingest: writes beside reads. One ExplanationService table carries a
// sliding-window MonitorRegistry monitor; a single client appends
// held-out rows in fixed batches via ExplanationService::Append and,
// after each batch, re-explains a fixed query set on the grown table.
// The window slides every kSlideBatches batches, so only some appends
// cross a boundary. The service runs under a memory budget below its
// steady-state cache bytes and without a data_dir.
//
// A run is a sequence of epochs: each starts from a freshly registered
// base table and lands kSteps batches, so the work per sample does not
// depend on how many samples a run manages to take. Epochs rotate over
// kInstances independently generated datasets.

#include <memory>
#include <string>
#include <vector>

#include "causal/dag_io.h"
#include "core/json_export.h"
#include "pipeline.h"
#include "service/explanation_service.h"
#include "stream/monitor.h"
#include "workloads.h"

namespace perfbench {
namespace {

using causumx::CauSumXConfig;
using causumx::Value;

constexpr const char* kDataset = "SO";
constexpr const char* kTable = "live";
constexpr size_t kBaseRows = 1500;
constexpr size_t kBatchRows = 100;
constexpr size_t kSteps = 12;
constexpr size_t kSlideBatches = 3;
constexpr size_t kWindowBatches = 6;
/// Independently generated datasets per run: averaging over several
/// draws keeps one seed's data from setting the figures.
constexpr size_t kInstances = 4;
/// The memory budget as a share of the engine's cache bytes after one
/// warm query pass. The service evicts from its largest consumer first,
/// so predicate bitsets are evicted only under a budget below the
/// engine's own bytes (the CATE memo goes first).
constexpr double kBudgetShare = 0.5;

struct Fixture {
  BenchData data;
  causumx::Table base;
  std::vector<std::vector<std::vector<Value>>> batches;  ///< kSteps of them
  std::vector<causumx::GroupByAvgQuery> queries;
  std::vector<CauSumXConfig> configs;
  causumx::CausalDag dag;  ///< as the monitor parses it from dag_text
  std::string monitor_spec;
  size_t budget_bytes = 0;
  /// oracle[step][q]: SummaryToJson of a from-scratch RunCauSumX on the
  /// table grown by `step + 1` batches.
  std::vector<std::vector<std::string>> oracle;
  /// window_oracle[step]: the summary JSON the monitor's event for a
  /// boundary at that step must carry (empty when no boundary).
  std::vector<std::string> window_oracle;
};

/// Timestamps the bench observers take around the monitor's observer.
struct AppendClock {
  double before_monitor = 0.0;
  double after_monitor = 0.0;
};

/// One epoch's live objects. The registry observes the service, so it
/// is declared after it and destroyed first.
struct Epoch {
  std::unique_ptr<causumx::ExplanationService> service;
  std::unique_ptr<AppendClock> clock;
  std::unique_ptr<causumx::MonitorRegistry> monitors;
  std::shared_ptr<causumx::StreamMonitor> monitor;
};

/// Releases an epoch's objects in reverse order of construction (a
/// plain reassignment would drop the service before its registry).
void Stop(Epoch* e) {
  e->monitor.reset();
  e->monitors.reset();
  e->clock.reset();
  e->service.reset();
}

Fixture MakeFixture(const Options& options, size_t instance) {
  Fixture f;
  f.data = MakeBenchData(kDataset, kBaseRows + kSteps * kBatchRows,
                         MixSeed(options.seed, 200 + instance));
  const causumx::Table& all = f.data.ds.table;
  f.base = all.Head(kBaseRows);
  for (size_t s = 0; s < kSteps; ++s) {
    const size_t begin = kBaseRows + s * kBatchRows;
    f.batches.push_back(all.MaterializeRows(begin, begin + kBatchRows));
  }
  const causumx::GroupByAvgQuery& q = f.data.ds.default_query;
  f.queries = {q, q};
  f.configs = {f.data.config, f.data.config};
  const std::vector<std::string>& treat = f.data.treatment_attributes;
  f.configs[1].treatment_attribute_allowlist.assign(
      treat.begin(), treat.begin() + treat.size() / 2);

  const std::string dag_text = causumx::DagToText(f.data.ds.dag);
  f.dag = causumx::ParseDagText(dag_text);
  f.monitor_spec =
      "{\"table\":\"" + std::string(kTable) + "\",\"group_by\":" +
      JsonStringList(q.group_by) + ",\"avg\":\"" +
      causumx::JsonEscape(q.avg_attribute) +
      "\",\"dag_text\":\"" + causumx::JsonEscape(dag_text) +
      "\",\"window\":{\"kind\":\"sliding\",\"size_rows\":" +
      std::to_string(kWindowBatches * kBatchRows) +
      ",\"slide_rows\":" + std::to_string(kSlideBatches * kBatchRows) +
      "},\"emit_summaries\":true}";
  return f;
}

/// Engine cache bytes after one pass of the query set on an unlimited
/// service.
size_t WarmEngineBytes(const Fixture& f) {
  causumx::ExplanationService service;
  service.RegisterTable(kTable, f.base.Clone());
  for (size_t q = 0; q < f.queries.size(); ++q) {
    service.Explain(kTable, f.queries[q], f.dag, f.configs[q]);
  }
  return service.Engine(kTable)->CacheBytes();
}

Epoch StartEpoch(const Fixture& f) {
  Epoch e;
  causumx::ServiceOptions opt;
  opt.memory_budget_bytes = f.budget_bytes;
  e.service = std::make_unique<causumx::ExplanationService>(opt);
  e.service->RegisterTable(kTable, f.base.Clone());
  e.clock = std::make_unique<AppendClock>();
  // Registered before the registry's own observer, and after it: the
  // two timestamps bracket the monitor's work on each append.
  AppendClock* clock = e.clock.get();
  e.service->AddAppendObserver(
      [clock](const std::string&, const std::vector<std::vector<Value>>&,
              const std::shared_ptr<const causumx::Table>&) {
        clock->before_monitor = Now();
      });
  e.monitors = std::make_unique<causumx::MonitorRegistry>(*e.service);
  e.service->AddAppendObserver(
      [clock](const std::string&, const std::vector<std::vector<Value>>&,
              const std::shared_ptr<const causumx::Table>&) {
        clock->after_monitor = Now();
      });
  e.monitor = e.monitors->Create(f.monitor_spec);
  for (size_t q = 0; q < f.queries.size(); ++q) {
    e.service->Explain(kTable, f.queries[q], f.dag, f.configs[q]);
  }
  return e;
}

void ComputeOracles(Fixture* f) {
  causumx::Table grown = f->base.Clone();
  causumx::Table schema;
  for (size_t c = 0; c < f->base.NumColumns(); ++c) {
    schema.AddColumn(f->base.column(c).name(), f->base.column(c).type());
  }
  const size_t window_rows = kWindowBatches * kBatchRows;
  for (size_t s = 0; s < kSteps; ++s) {
    grown.AppendRows(f->batches[s]);
    std::vector<std::string> row;
    for (size_t q = 0; q < f->queries.size(); ++q) {
      row.push_back(causumx::SummaryToJson(
          causumx::RunCauSumX(grown, f->queries[q], f->dag, f->configs[q])
              .summary,
          &f->queries[q]));
    }
    f->oracle.push_back(std::move(row));
    const size_t streamed = (s + 1) * kBatchRows;
    std::string window;
    if (streamed >= window_rows &&
        (streamed - window_rows) % (kSlideBatches * kBatchRows) == 0) {
      causumx::Table w = schema.Clone();
      for (size_t b = (streamed - window_rows) / kBatchRows; b <= s; ++b) {
        w.AppendRows(f->batches[b]);
      }
      window = "\"summary\":" +
               causumx::SummaryToJson(
                   causumx::RunCauSumX(w, f->queries[0], f->dag,
                                       CauSumXConfig())
                       .summary,
                   &f->queries[0]);
    }
    f->window_oracle.push_back(std::move(window));
  }
}

/// Samples of one workload loop.
struct Samples {
  std::vector<double> append_s;        ///< appends crossing no boundary
  std::vector<double> window_event_s;  ///< boundary append -> event seen
  std::vector<double> reexplain_s;
  std::vector<double> service_append_s;  ///< Append start -> monitor
  std::vector<double> window_append_s;   ///< monitor, no boundary
  std::vector<double> boundary_s;        ///< monitor, boundary
  std::vector<double> view_s;
  std::vector<double> treatment_s;
  std::vector<double> selection_s;
  std::vector<double> self_s;
  double busy_s = 0.0;
  size_t ops = 0;
};

/// Counters summed over every step of the first epoch (each append
/// installs a fresh engine and context, whose counters start at zero).
struct EpochCounts {
  causumx::EvalEngineStats engine;
  causumx::EstimatorCacheStats memo;
  causumx::ServiceStats service;
  causumx::MonitorStatus monitor;
  bool done = false;
};

void AddCounts(causumx::ExplanationService& service,
               const causumx::CausalDag& dag, EpochCounts* c) {
  const causumx::EvalEngineStats e = service.Engine(kTable)->Stats();
  c->engine.bitsets_materialized += e.bitsets_materialized;
  c->engine.bitset_hits += e.bitset_hits;
  c->engine.bitsets_extended += e.bitsets_extended;
  c->engine.bitsets_retracted += e.bitsets_retracted;
  c->engine.bitsets_evicted += e.bitsets_evicted;
  c->engine.bitset_bytes = e.bitset_bytes;
  const causumx::EstimatorCacheStats m =
      service.Context(kTable, dag, causumx::EstimatorOptions{})->Stats();
  c->memo.memo_hits += m.memo_hits;
  c->memo.memo_misses += m.memo_misses;
  c->memo.memo_migrated += m.memo_migrated;
  c->memo.memo_evicted += m.memo_evicted;
}

/// Per-layer probes at the end of a traced epoch, outside the step
/// spans: the view on the grown table, and the traced copy of the core
/// pipeline on the service's own engine and context, which must agree
/// with the from-scratch oracle.
void ProbeLayers(const Fixture& f, causumx::ExplanationService& service,
                 Report* report, Samples* out) {
  const auto table = service.GetTable(kTable);
  const auto engine = service.Engine(kTable);
  for (size_t q = 0; q < f.queries.size(); ++q) {
    const double t0 = Now();
    causumx::AggregateView::Evaluate(*table, f.queries[q], engine->plan(),
                                     &service.pool());
    out->view_s.push_back(Now() - t0);
    const PipelineOutput run = RunTracedPipeline(
        *table, f.queries[q], f.dag, f.configs[q], engine,
        service.Context(kTable, f.dag, f.configs[q].estimator), nullptr,
        &service.pool(), nullptr, 0, "");
    report->Op(causumx::SummaryToJson(run.summary, &f.queries[q]) ==
                   f.oracle[kSteps - 1][q],
               "traced pipeline drifted from the service");
  }
}

/// Runs whole epochs until `seconds` passed and `min_reexplains` were
/// taken; `first` (when set) is the epoch set-up already started on
/// fixtures[0]. With a recorder, each step is a
/// traced "ingest.step" span. `counts` gathers the first epoch's
/// counters.
Samples Loop(const std::vector<Fixture>& fixtures, double seconds,
             size_t min_reexplains, Epoch* first, Report* report,
             SpanRecorder* rec, EpochCounts* counts) {
  Samples out;
  const double start = Now();
  const double hard = HardStop(start, seconds);
  for (size_t epoch = 0;
       KeepGoing(start, seconds, out.reexplain_s.size(), min_reexplains, hard);
       ++epoch) {
    const Fixture& f = fixtures[epoch % fixtures.size()];
    Epoch e = first->service != nullptr ? std::move(*first) : StartEpoch(f);
    causumx::ExplanationService& service = *e.service;
    for (size_t s = 0; s < kSteps; ++s) {
      const std::string rid = std::to_string(epoch) + "-" + std::to_string(s);
      ScopedSpan step(rec, "ingest.step", 0, rid);
      const uint64_t last_seq = e.monitor->Status().last_seq;
      try {
        const double t0 = Now();
        service.Append(kTable, f.batches[s]);
        const double t1 = Now();
        const std::vector<causumx::MonitorEvent> events =
            e.monitor->EventsSince(last_seq);
        const double t2 = Now();
        const bool boundary = !events.empty();
        out.busy_s += t2 - t0;
        ++out.ops;
        const double before = e.clock->before_monitor;
        const double after = e.clock->after_monitor;
        out.service_append_s.push_back(before - t0);
        if (boundary) {
          out.window_event_s.push_back(t2 - t0);
          out.boundary_s.push_back(after - before);
        } else {
          out.append_s.push_back(t1 - t0);
          out.window_append_s.push_back(after - before);
        }
        if (rec != nullptr) {
          rec->Record("service.append", t0, before, step.id(), rid);
          rec->Record(boundary ? "stream.boundary" : "stream.window_append",
                      before, after, step.id(), rid);
        }
        const std::string& want = f.window_oracle[s];
        report->Op(boundary == !want.empty() &&
                       (!boundary ||
                        events.back().json.find(want) != std::string::npos),
                   "window event differs from the from-scratch window run "
                   "at step " + std::to_string(s));
      } catch (const std::exception& ex) {
        report->Op(false, std::string("append: ") + ex.what());
      }
      for (size_t q = 0; q < f.queries.size(); ++q) {
        try {
          const double t0 = Now();
          const causumx::CauSumXResult r =
              service.Explain(kTable, f.queries[q], f.dag, f.configs[q]);
          const double t1 = Now();
          out.reexplain_s.push_back(t1 - t0);
          out.busy_s += t1 - t0;
          ++out.ops;
          report->Op(causumx::SummaryToJson(r.summary, &f.queries[q]) ==
                         f.oracle[s][q],
                     "re-explain differs from the from-scratch run at step " +
                         std::to_string(s));
          if (rec != nullptr) {
            rec->Record("service.explain", t0, t1, step.id(), rid);
            out.treatment_s.push_back(r.timings.Get("treatment"));
            out.selection_s.push_back(r.timings.Get("selection"));
            // The service's own time in this call: everything outside
            // the phases core times itself (under this workload's budget,
            // a second paired call would not see the same caches).
            out.self_s.push_back((t1 - t0) - r.timings.Total());
          }
        } catch (const std::exception& ex) {
          report->Op(false, std::string("re-explain: ") + ex.what());
        }
      }
      if (!counts->done) AddCounts(service, f.dag, counts);
    }
    if (!counts->done) {
      counts->service = service.Stats();
      counts->monitor = e.monitor->Status();
      counts->done = true;
    }
    if (rec != nullptr) ProbeLayers(f, service, report, &out);
  }
  return out;
}

void CheckEvictions(const EpochCounts& counts, Report* report) {
  report->Sanity(counts.engine.bitsets_evicted > 0,
                 "engine.bitsets_evicted > 0 over one epoch (got " +
                     std::to_string(counts.engine.bitsets_evicted) + ")");
}

}  // namespace

void RunIngest(const Options& options, Report* report) {
  std::vector<double> setup_s;
  std::vector<Fixture> fixtures;
  Epoch first;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    Stop(&first);
    const double t0 = Now();
    fixtures.clear();
    for (size_t i = 0; i < kInstances; ++i) {
      fixtures.push_back(MakeFixture(options, i));
      fixtures.back().budget_bytes = static_cast<size_t>(
          kBudgetShare * static_cast<double>(WarmEngineBytes(fixtures.back())));
    }
    first = StartEpoch(fixtures[0]);
    setup_s.push_back(Now() - t0);
  }
  for (Fixture& f : fixtures) ComputeOracles(&f);

  if (!report->trace()) {
    report->Set("setup_s", MedianOr0(setup_s));
    ResetPeakRss(report);
    EpochCounts counts;
    const Samples s = Loop(fixtures, options.seconds, kMinTailSamples, &first,
                           report, nullptr, &counts);
    CheckEvictions(counts, report);
    ReportLatency(report, "explain_s", s.reexplain_s, /*with_p90=*/true);
    report->Set("ops_per_s", static_cast<double>(s.ops) / s.busy_s);
    return;
  }

  EpochCounts base_counts;
  const Samples base = Loop(fixtures, options.seconds / 2, 1, &first, report,
                            nullptr, &base_counts);
  SpanRecorder rec(true);
  EpochCounts counts;
  const Samples traced = Loop(fixtures, options.seconds / 2, 1, &first,
                              report, &rec, &counts);
  report->Set("append_s.p50", MedianOr0(base.append_s));
  report->Set("window_event_s.p50", MedianOr0(base.window_event_s));
  report->Set("service.append_s.p50", MedianOr0(traced.service_append_s));
  report->Set("stream.window_append_s.p50", MedianOr0(traced.window_append_s));
  report->Set("stream.boundary_s.p50", MedianOr0(traced.boundary_s));
  report->Set("dataset.view_s.p50", MedianOr0(traced.view_s));
  report->Set("mining.treatment_s.p50", MedianOr0(traced.treatment_s));
  report->Set("lp.selection_s.p50", MedianOr0(traced.selection_s));
  report->Set("service.explain_self_s.p50", MedianOr0(traced.self_s));
  report->Set("trace.uncovered_frac",
              UncoveredShare(rec.Spans(), "ingest.step"));
  const double untraced = MedianOr0(base.reexplain_s);
  const double traced_p50 = MedianOr0(traced.reexplain_s);
  report->Set("trace.overhead_frac",
              untraced > 0 ? (traced_p50 - untraced) / untraced : 0.0);
  const double hits = static_cast<double>(counts.memo.memo_hits);
  const double misses = static_cast<double>(counts.memo.memo_misses);
  report->Set("estimator.memo_hits", hits);
  report->Set("estimator.memo_misses", misses);
  report->Set("estimator.memo_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report->Set("estimator.memo_migrated",
              static_cast<double>(counts.memo.memo_migrated));
  report->Set("estimator.memo_evicted",
              static_cast<double>(counts.memo.memo_evicted));
  const double built = static_cast<double>(counts.engine.bitsets_materialized);
  const double bhits = static_cast<double>(counts.engine.bitset_hits);
  report->Set("engine.segments_materialized", built);
  report->Set("engine.bitset_hits", bhits);
  report->Set("engine.bitset_hit_ratio",
              bhits + built > 0 ? bhits / (bhits + built) : 0.0);
  report->Set("engine.bitsets_extended",
              static_cast<double>(counts.engine.bitsets_extended));
  report->Set("engine.bitsets_retracted",
              static_cast<double>(counts.engine.bitsets_retracted));
  report->Set("engine.bitsets_evicted",
              static_cast<double>(counts.engine.bitsets_evicted));
  report->Set("engine.bitset_bytes",
              static_cast<double>(counts.engine.bitset_bytes));
  report->Set("service.cache_bytes",
              static_cast<double>(counts.service.cache_bytes));
  report->Set("service.budget_enforcements",
              static_cast<double>(counts.service.budget_enforcements));
  report->Set("stream.cache_bytes",
              static_cast<double>(counts.monitor.cache_bytes));
  report->Set("stream.events_emitted",
              static_cast<double>(counts.monitor.last_seq));
  CheckEvictions(counts, report);
  if (!rec.WriteJsonl(options.work_dir + "/spans-ingest.jsonl")) {
    report->Fail("cannot write the span dump");
  }
}

}  // namespace perfbench
