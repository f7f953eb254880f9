#include "core/causumx.h"

#include <algorithm>
#include <atomic>

#include "lp/rounding.h"
#include "util/thread_pool.h"

namespace causumx {

namespace {

size_t QueryThreads(const CauSumXConfig& config) {
  return config.num_threads == 0 ? ThreadPool::DefaultThreads()
                                 : config.num_threads;
}

// What one query runs on. Held only for the run, so a run-private
// engine, context and pool are torn down before the driver returns.
struct QueryRun {
  std::shared_ptr<EvalEngine> engine;
  std::shared_ptr<EstimatorContext> context;
  std::shared_ptr<ThreadPool> private_pool;
  ThreadPool* pool = nullptr;  // null = serial
};

// The pool rule of RunCauSumX. An explicit num_threads is a per-query
// concurrency bound, so it never widens to a larger lent pool.
QueryRun ResolveQueryRun(const Table& table, const CausalDag& dag,
                         const CauSumXConfig& config,
                         std::shared_ptr<EvalEngine> engine,
                         std::shared_ptr<EstimatorContext> context,
                         ThreadPool* pool) {
  QueryRun run;
  // A built engine aliases `table` without owning it: it lives only for
  // the run, inside the caller's lifetime of `table`.
  run.engine = engine != nullptr
                   ? std::move(engine)
                   : MakeQueryEngine(std::shared_ptr<const Table>(
                                         std::shared_ptr<const Table>(),
                                         &table),
                                     config);
  run.context = context != nullptr
                    ? std::move(context)
                    : std::make_shared<EstimatorContext>(run.engine, dag,
                                                         config.estimator);
  ThreadPool* lent = pool != nullptr ? pool : run.engine->pool();
  const size_t threads = QueryThreads(config);
  if (lent != nullptr &&
      (config.num_threads == 0 || config.num_threads == lent->NumThreads())) {
    run.pool = lent;
  } else if (threads > 1) {
    run.private_pool = std::make_shared<ThreadPool>(threads);
    run.pool = run.private_pool.get();
  }
  return run;
}

// Attribute partition around the query (Section 4.1). Each allowlist
// (the paper's protocol pre-selects attributes per dataset) replaces its
// side of the FD split.
AttributePartition PartitionFor(const Table& table,
                                const GroupByAvgQuery& query,
                                const CauSumXConfig& config) {
  const std::vector<std::string>& grouping =
      config.grouping_attribute_allowlist;
  AttributePartition partition;
  if (grouping.empty()) {
    partition =
        PartitionAttributes(table, query.group_by, query.avg_attribute);
  } else {
    partition.grouping_attributes = grouping;
    const auto listed = [](const auto& names, const std::string& name) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    for (const auto& name : table.ColumnNames()) {
      if (name != query.avg_attribute && !listed(query.group_by, name) &&
          !listed(grouping, name)) {
        partition.treatment_attributes.push_back(name);
      }
    }
  }
  if (!config.treatment_attribute_allowlist.empty()) {
    partition.treatment_attributes = config.treatment_attribute_allowlist;
  }
  return partition;
}

// Phases 1 + 2 over a resolved run.
CandidateMiningResult MineCandidates(const Table& table,
                                     const GroupByAvgQuery& query,
                                     const CauSumXConfig& config,
                                     const QueryRun& run) {
  CandidateMiningResult result;
  Timer timer;

  // Evaluate the aggregate view Q(D), shard-parallel over the engine's
  // plan (bit-identical to the serial path for every plan).
  result.view =
      AggregateView::Evaluate(table, query, run.engine->plan(), run.pool);
  const AggregateView& view = result.view;
  result.partition = PartitionFor(table, query, config);
  if (view.NumGroups() == 0) return result;

  // ---- Phase 1: grouping patterns (Section 5.1). --------------------------
  timer.Reset();
  // config.apriori_support is the master support knob: propagate it here
  // so mutating it after construction cannot silently diverge from
  // grouping.apriori.min_support (set once in the ctor).
  GroupingMinerOptions gopt = config.grouping;
  gopt.apriori.min_support = config.apriori_support;
  std::vector<GroupingPattern> grouping =
      MineGroupingPatterns(table, view, result.partition.grouping_attributes,
                           gopt, run.engine.get());
  result.num_grouping_candidates = grouping.size();
  result.timings.Add("grouping", timer.Seconds());

  // ---- Phase 2: treatment patterns (Section 5.2, Algorithm 2). ------------
  timer.Reset();
  EffectEstimator estimator(run.context);
  const std::vector<std::string>& treatment_attrs =
      result.partition.treatment_attributes;

  std::vector<Explanation> candidates(grouping.size());
  std::atomic<size_t> evaluated{0};
  const auto mine_one = [&](size_t gi) {
    const GroupingPattern& gp = grouping[gi];
    Explanation exp;
    exp.grouping_pattern = gp.pattern;
    exp.group_coverage = gp.group_coverage;

    TreatmentMiningStats stats;
    auto pos = MineTopTreatmentWithStats(
        estimator, gp.rows, query.avg_attribute, treatment_attrs,
        TreatmentSign::kPositive, config.treatment, &stats);
    if (pos) exp.positive = TreatmentSide{pos->pattern, pos->effect};
    if (config.mine_negative) {
      auto neg = MineTopTreatmentWithStats(
          estimator, gp.rows, query.avg_attribute, treatment_attrs,
          TreatmentSign::kNegative, config.treatment, &stats);
      if (neg) exp.negative = TreatmentSide{neg->pattern, neg->effect};
    }
    evaluated.fetch_add(stats.patterns_evaluated);
    candidates[gi] = std::move(exp);
  };
  if (run.pool != nullptr) {
    run.pool->ParallelFor(grouping.size(), mine_one);
  } else {
    for (size_t gi = 0; gi < grouping.size(); ++gi) mine_one(gi);
  }
  result.treatment_patterns_evaluated = evaluated.load();

  // Drop grouping patterns for which no treatment was found (no causal
  // story to tell for those groups).
  result.candidates.reserve(candidates.size());
  for (auto& c : candidates) {
    if (c.Weight() > 0.0) result.candidates.push_back(std::move(c));
  }
  result.timings.Add("treatment", timer.Seconds());
  result.cache_stats.eval = run.engine->Stats();
  result.cache_stats.estimator = estimator.cache_stats();
  return result;
}

}  // namespace

std::shared_ptr<EvalEngine> MakeQueryEngine(std::shared_ptr<const Table> table,
                                            const CauSumXConfig& config) {
  EvalEngineOptions options;
  options.cache_enabled = !config.disable_eval_cache;
  options.num_shards = config.num_shards;
  const size_t threads = QueryThreads(config);
  if (threads > 1) options.pool = std::make_shared<ThreadPool>(threads);
  return std::make_shared<EvalEngine>(std::move(table), std::move(options));
}

CandidateMiningResult MineExplanationCandidates(
    const Table& table, const GroupByAvgQuery& query, const CausalDag& dag,
    const CauSumXConfig& config, std::shared_ptr<EvalEngine> engine,
    std::shared_ptr<EstimatorContext> estimator_ctx, ThreadPool* pool) {
  return MineCandidates(table, query, config,
                        ResolveQueryRun(table, dag, config, std::move(engine),
                                        std::move(estimator_ctx), pool));
}

ExplanationSummary SelectExplanations(
    const std::vector<Explanation>& candidates, size_t num_groups,
    const CauSumXConfig& config, PhaseTimer* timings, ThreadPool* pool) {
  Timer timer;
  ExplanationSummary summary;
  summary.num_groups = num_groups;

  SelectionProblem problem;
  problem.num_groups = num_groups;
  problem.k = config.k;
  problem.theta = config.theta;
  problem.candidates.reserve(candidates.size());
  for (const auto& c : candidates) {
    problem.candidates.push_back(
        SelectionCandidate{c.Weight(), c.group_coverage});
  }
  SelectionResult sel;
  switch (config.solver) {
    case FinalStepSolver::kLpRounding:
      sel = SolveByLpRounding(problem, config.rounding_rounds, config.seed);
      break;
    case FinalStepSolver::kGreedy:
      sel = SolveGreedy(problem, /*gain_bonus=*/0.0, pool);
      break;
    case FinalStepSolver::kExact:
      sel = SolveExact(problem);
      break;
  }
  // The paper's rounding returns "no solution" when the ILP is infeasible
  // (e.g. k patterns cannot reach theta coverage, as on German with
  // one-group patterns). A library should still hand back its best
  // effort, so fall back to coverage-greedy selection and let
  // coverage_satisfied report the violation.
  if (sel.selected.empty() && !candidates.empty()) {
    sel = SolveGreedy(problem, /*gain_bonus=*/1.0, pool);
  }

  Bitset covered(num_groups);
  for (size_t j : sel.selected) {
    summary.explanations.push_back(candidates[j]);
    summary.total_explainability += candidates[j].Weight();
    covered |= candidates[j].group_coverage;
  }
  // Deterministic presentation order: strongest first.
  std::sort(summary.explanations.begin(), summary.explanations.end(),
            [](const Explanation& a, const Explanation& b) {
              return a.Weight() > b.Weight();
            });
  summary.covered_groups = covered.Count();
  summary.coverage_satisfied =
      summary.covered_groups >= problem.RequiredCoverage();
  if (timings != nullptr) timings->Add("selection", timer.Seconds());
  return summary;
}

CauSumXResult RunCauSumX(const Table& table, const GroupByAvgQuery& query,
                         const CausalDag& dag, const CauSumXConfig& config,
                         std::shared_ptr<EvalEngine> engine,
                         std::shared_ptr<EstimatorContext> estimator_ctx,
                         ThreadPool* pool) {
  const QueryRun run = ResolveQueryRun(table, dag, config, std::move(engine),
                                       std::move(estimator_ctx), pool);
  CauSumXResult result;
  static_cast<CandidateMiningResult&>(result) =
      MineCandidates(table, query, config, run);
  if (result.view.NumGroups() > 0) {
    result.summary =
        SelectExplanations(result.candidates, result.view.NumGroups(),
                           config, &result.timings, run.pool);
  }
  return result;
}

}  // namespace causumx
