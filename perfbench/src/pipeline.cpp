#include "pipeline.h"

#include <algorithm>
#include <atomic>

#include "causal/estimator.h"
#include "dataset/fd.h"
#include "util/thread_pool.h"

namespace perfbench {

using causumx::CauSumXConfig;
using causumx::EvalEngine;
using causumx::EstimatorContext;
using causumx::Explanation;
using causumx::ThreadPool;

PipelineOutput RunTracedPipeline(
    const causumx::Table& table, const causumx::GroupByAvgQuery& query,
    const causumx::CausalDag& dag, const CauSumXConfig& config,
    std::shared_ptr<EvalEngine> engine,
    std::shared_ptr<EstimatorContext> context, ThreadPool* pool,
    ThreadPool* selection_pool, SpanRecorder* rec, uint64_t parent,
    const std::string& request_id) {
  PipelineOutput out;
  // Pool and engine resolution exactly as MineExplanationCandidates.
  const size_t num_threads = config.num_threads == 0
                                 ? ThreadPool::DefaultThreads()
                                 : config.num_threads;
  std::shared_ptr<ThreadPool> private_pool;
  if (pool == nullptr && config.num_threads == 0 && engine != nullptr) {
    pool = engine->pool();
  }
  if (pool == nullptr && num_threads > 1) {
    private_pool = std::make_shared<ThreadPool>(num_threads);
    pool = private_pool.get();
  }
  if (engine == nullptr) {
    causumx::EvalEngineOptions eopt;
    eopt.cache_enabled = !config.disable_eval_cache;
    eopt.num_shards = config.num_shards;
    eopt.pool = private_pool;
    engine = std::make_shared<EvalEngine>(table, std::move(eopt));
  }
  if (context == nullptr) {
    context = std::make_shared<EstimatorContext>(engine, dag, config.estimator);
  }
  out.engine = engine;
  out.context = context;

  causumx::AggregateView view;
  {
    ScopedSpan span(rec, "dataset.view", parent, request_id);
    view = causumx::AggregateView::Evaluate(table, query, engine->plan(), pool);
  }
  const size_t m = view.NumGroups();
  if (m == 0) return out;

  causumx::AttributePartition partition;
  {
    ScopedSpan span(rec, "core.partition", parent, request_id);
    if (!config.grouping_attribute_allowlist.empty()) {
      partition.grouping_attributes = config.grouping_attribute_allowlist;
      for (const auto& name : table.ColumnNames()) {
        if (name == query.avg_attribute) continue;
        const bool is_gb = std::find(query.group_by.begin(),
                                     query.group_by.end(),
                                     name) != query.group_by.end();
        const bool is_grouping =
            std::find(config.grouping_attribute_allowlist.begin(),
                      config.grouping_attribute_allowlist.end(),
                      name) != config.grouping_attribute_allowlist.end();
        if (!is_gb && !is_grouping) {
          partition.treatment_attributes.push_back(name);
        }
      }
    } else {
      partition = causumx::PartitionAttributes(table, query.group_by,
                                               query.avg_attribute);
    }
  }

  std::vector<causumx::GroupingPattern> grouping;
  {
    ScopedSpan span(rec, "mining.grouping", parent, request_id);
    causumx::GroupingMinerOptions gopt = config.grouping;
    gopt.apriori.min_support = config.apriori_support;
    grouping = causumx::MineGroupingPatterns(
        table, view, partition.grouping_attributes, gopt, engine.get());
  }
  out.grouping_candidates = grouping.size();

  std::vector<Explanation> candidates(grouping.size());
  std::vector<double> task_s(grouping.size(), 0.0);
  {
    ScopedSpan phase(rec, "mining.treatment", parent, request_id);
    causumx::EffectEstimator estimator(context);
    const std::vector<std::string>& treatment_attrs =
        config.treatment_attribute_allowlist.empty()
            ? partition.treatment_attributes
            : config.treatment_attribute_allowlist;
    std::atomic<size_t> evaluated{0};
    const auto mine_one = [&](size_t gi) {
      const double start = Now();
      const causumx::GroupingPattern& gp = grouping[gi];
      Explanation exp;
      exp.grouping_pattern = gp.pattern;
      exp.group_coverage = gp.group_coverage;
      causumx::TreatmentMiningStats stats;
      auto pos = causumx::MineTopTreatmentWithStats(
          estimator, gp.rows, query.avg_attribute, treatment_attrs,
          causumx::TreatmentSign::kPositive, config.treatment, &stats);
      if (pos) exp.positive = causumx::TreatmentSide{pos->pattern, pos->effect};
      if (config.mine_negative) {
        auto neg = causumx::MineTopTreatmentWithStats(
            estimator, gp.rows, query.avg_attribute, treatment_attrs,
            causumx::TreatmentSign::kNegative, config.treatment, &stats);
        if (neg) {
          exp.negative = causumx::TreatmentSide{neg->pattern, neg->effect};
        }
      }
      evaluated.fetch_add(stats.patterns_evaluated);
      candidates[gi] = std::move(exp);
      const double end = Now();
      task_s[gi] = end - start;
      if (rec != nullptr) {
        rec->Record("mining.treatment_task", start, end, phase.id(),
                    request_id);
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(grouping.size(), mine_one);
    } else {
      for (size_t gi = 0; gi < grouping.size(); ++gi) mine_one(gi);
    }
    out.patterns_evaluated = evaluated.load();
  }
  for (double t : task_s) out.max_task_s = std::max(out.max_task_s, t);

  std::vector<Explanation> kept;
  kept.reserve(candidates.size());
  for (size_t gi = 0; gi < candidates.size(); ++gi) {
    Explanation& c = candidates[gi];
    if (c.Weight() <= 0.0) continue;
    for (const auto* side : {&c.positive, &c.negative}) {
      if (side->has_value()) {
        out.replay.emplace_back((*side)->pattern, grouping[gi].rows);
      }
    }
    kept.push_back(std::move(c));
  }
  out.lp_candidates = kept.size();

  {
    ScopedSpan span(rec, "lp.selection", parent, request_id);
    out.summary = causumx::SelectExplanations(kept, m, config, nullptr,
                                              selection_pool);
  }
  return out;
}

void ReplayEstimates(const PipelineOutput& run, const causumx::CausalDag& dag,
                     const CauSumXConfig& config, const std::string& outcome,
                     std::vector<double>* fit_s, std::vector<double>* hit_s) {
  auto fresh =
      std::make_shared<EstimatorContext>(run.engine, dag, config.estimator);
  causumx::EffectEstimator estimator(fresh);
  for (const auto& [treatment, rows] : run.replay) {
    double start = Now();
    estimator.EstimateCate(treatment, outcome, rows);
    fit_s->push_back(Now() - start);
    start = Now();
    estimator.EstimateCate(treatment, outcome, rows);
    hit_s->push_back(Now() - start);
  }
}

}  // namespace perfbench
