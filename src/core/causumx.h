// The CauSumX algorithm (Algorithm 1 of the paper): end-to-end generation
// of a summarized causal explanation for an aggregate view.
//
//   1. Mine candidate grouping patterns (Apriori + coverage dedup).
//   2. For each grouping pattern, mine the top positive and negative
//      treatment patterns (lattice traversal, Algorithm 2) — in parallel
//      across grouping patterns (optimization (c)).
//   3. Select <= k explanation patterns covering >= theta * m groups by
//      LP relaxation + randomized rounding of the Fig. 5 ILP.

#ifndef CAUSUMX_CORE_CAUSUMX_H_
#define CAUSUMX_CORE_CAUSUMX_H_

#include <memory>
#include <string>
#include <vector>

#include "causal/dag.h"
#include "causal/estimator_context.h"
#include "core/explanation.h"
#include "dataset/fd.h"
#include "dataset/group_query.h"
#include "dataset/table.h"
#include "engine/eval_engine.h"
#include "mining/grouping_miner.h"
#include "mining/treatment_miner.h"
#include "util/timer.h"

namespace causumx {

/// Worker pool a query runs on (util/thread_pool.h).
class ThreadPool;

/// Which solver phase 3 uses (the ablation of Section 6.4).
enum class FinalStepSolver { kLpRounding, kGreedy, kExact };

/// Full configuration of a CauSumX run.
struct CauSumXConfig {
  size_t k = 5;          ///< max explanation patterns (size constraint).
  double theta = 0.75;   ///< min fraction of groups covered.
  double apriori_support = 0.1;  ///< tau for grouping-pattern mining.
  GroupingMinerOptions grouping;    ///< phase 1 (support is apriori_support).
  TreatmentMinerOptions treatment;  ///< phase 2 lattice walk.
  EstimatorOptions estimator;       ///< CATE estimation for phase 2.
  FinalStepSolver solver = FinalStepSolver::kLpRounding;  ///< phase 3.
  size_t rounding_rounds = 64;  ///< randomized-rounding trials (LP solver).
  uint64_t seed = 1234;         ///< seed of the randomized rounding.
  /// Workers per query, 0 = hardware concurrency; RunCauSumX says which
  /// pool runs them. Results never depend on it.
  size_t num_threads = 0;
  /// Row shards for the parallel execution engine: 0 = one shard per
  /// worker thread, N >= 1 = that many shards (clamped to one per 64-row
  /// block). Results are bit-identical for every value — sharding only
  /// changes how the work is scheduled (see util/shard_plan.h).
  size_t num_shards = 0;
  /// Mine both signs (paper default) or positive-only.
  bool mine_negative = true;
  /// Restrict treatment mining to these attributes (empty = all non-FD
  /// attributes); replaces the partition's treatment attributes. Used by
  /// the sensitive-attributes case study (Fig. 6).
  std::vector<std::string> treatment_attribute_allowlist;
  /// Restrict grouping patterns to these attributes (empty = all
  /// attributes with A_gb -> W); replaces the partition's grouping
  /// attributes. The paper pre-selects these per dataset; mandatory when
  /// the group-by key is unique per tuple, where the FD test is vacuous.
  std::vector<std::string> grouping_attribute_allowlist;
  /// Bypass the evaluation engine's predicate-bitset cache and the
  /// estimator's CATE memo (verification/benchmark mode) for runs that
  /// create their own engine. A caller-provided engine keeps its own
  /// mode: an ExplanationService follows ServiceOptions::cache_enabled.
  /// Results are bit-identical either way; only the work done differs.
  bool disable_eval_cache = false;

  /// Seeds grouping.apriori.min_support (the driver re-reads the knob).
  CauSumXConfig() { grouping.apriori.min_support = apriori_support; }
};

/// Cache counters of one run's shared evaluation engine + estimator
/// context (cumulative when an engine is reused across runs, as in
/// ExplorationSession).
struct EngineCacheStats {
  EvalEngineStats eval;           ///< predicate-bitset cache counters.
  EstimatorCacheStats estimator;  ///< CATE memo counters.
};

/// Output of phases 1 + 2 (mining), reusable across phase-3 parameter
/// changes — see ExplorationSession in core/exploration.h.
struct CandidateMiningResult {
  AggregateView view;  ///< Q(D), the evaluated aggregate view.
  /// The attributes mined; each config allowlist replaces its side of
  /// the FD split.
  AttributePartition partition;
  /// One candidate per surviving grouping pattern, with its top positive
  /// and/or negative treatment already attached.
  std::vector<Explanation> candidates;
  size_t num_grouping_candidates = 0;  ///< grouping patterns of phase 1.
  size_t treatment_patterns_evaluated = 0;  ///< lattice nodes of phase 2.
  PhaseTimer timings;  ///< phases "grouping", "treatment" (+ "selection").
  EngineCacheStats cache_stats;  ///< engine + memo counters after mining.
};

/// Result of all three phases (timings feed Fig. 14/20). It holds none
/// of the run's engine, context or pool: a run-private one is torn down
/// before RunCauSumX returns.
struct CauSumXResult : CandidateMiningResult {
  ExplanationSummary summary;  ///< the selected explanations.
};

/// The engine a query builds when its caller lends none (ExplorationSession
/// builds its own here too): cache mode, shards, and a pool of the
/// query's thread count (none when that is 1) from `config`.
std::shared_ptr<EvalEngine> MakeQueryEngine(std::shared_ptr<const Table> table,
                                            const CauSumXConfig& config);

/// Phases 1 + 2 of Algorithm 1: mine grouping patterns and their top
/// treatments. Phase-3 parameters (k, theta, solver) are ignored here.
/// `engine`, `estimator_ctx` and `pool` are as in RunCauSumX.
CandidateMiningResult MineExplanationCandidates(
    const Table& table, const GroupByAvgQuery& query, const CausalDag& dag,
    const CauSumXConfig& config, std::shared_ptr<EvalEngine> engine = nullptr,
    std::shared_ptr<EstimatorContext> estimator_ctx = nullptr,
    ThreadPool* pool = nullptr);

/// Phase 3 of Algorithm 1: select <= k candidates covering >= theta * m
/// groups, maximizing total explainability. `timings` (optional) gains a
/// "selection" phase entry. `pool` (optional) parallelizes the greedy
/// solver's marginal-gain scans (identical selection either way).
ExplanationSummary SelectExplanations(
    const std::vector<Explanation>& candidates, size_t num_groups,
    const CauSumXConfig& config, PhaseTimer* timings = nullptr,
    ThreadPool* pool = nullptr);

/// Runs CauSumX (all three phases) over the table for the given query
/// and causal DAG: the one driver every query path runs through.
/// `engine` (bound to `table`) and `estimator_ctx` (bound to `engine`)
/// lend warm caches; null builds them with MakeQueryEngine. The query
/// runs on a lent pool — `pool`, else the engine's — when
/// config.num_threads is 0 or equals its size, else on a private pool
/// of num_threads workers (none when 1); that pool also runs phase 3.
CauSumXResult RunCauSumX(const Table& table, const GroupByAvgQuery& query,
                         const CausalDag& dag,
                         const CauSumXConfig& config = {},
                         std::shared_ptr<EvalEngine> engine = nullptr,
                         std::shared_ptr<EstimatorContext> estimator_ctx =
                             nullptr,
                         ThreadPool* pool = nullptr);

}  // namespace causumx

#endif  // CAUSUMX_CORE_CAUSUMX_H_
