// The traced copy of Algorithm 1: the same public calls, in the same
// order, as core's MineExplanationCandidates + SelectExplanations, with a
// span around each one. Workloads compare its summary with RunCauSumX's
// byte for byte, so a drift between this copy and core fails the run.

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/causumx.h"
#include "trace.h"

namespace perfbench {

/// What the traced pipeline produced, plus the counts the per-layer
/// metrics read.
struct PipelineOutput {
  causumx::ExplanationSummary summary;
  size_t grouping_candidates = 0;
  size_t patterns_evaluated = 0;
  size_t lp_candidates = 0;
  /// Slowest per-grouping treatment task (the phase's straggler).
  double max_task_s = 0.0;
  /// The engine and estimator context the run used (the private ones
  /// when none were passed in).
  std::shared_ptr<causumx::EvalEngine> engine;
  std::shared_ptr<causumx::EstimatorContext> context;
  /// (treatment, subpopulation) of every mined candidate side, for the
  /// estimator replay.
  std::vector<std::pair<causumx::Pattern, causumx::Bitset>> replay;
};

/// Runs phases 1-3 over `table` with spans under `parent`. Null engine /
/// context / pool are created exactly as MineExplanationCandidates
/// creates them; `selection_pool` is what the caller's real path passes
/// to SelectExplanations (RunCauSumX: none; the service: its pool).
PipelineOutput RunTracedPipeline(
    const causumx::Table& table, const causumx::GroupByAvgQuery& query,
    const causumx::CausalDag& dag, const causumx::CauSumXConfig& config,
    std::shared_ptr<causumx::EvalEngine> engine,
    std::shared_ptr<causumx::EstimatorContext> context,
    causumx::ThreadPool* pool, causumx::ThreadPool* selection_pool,
    SpanRecorder* rec, uint64_t parent, const std::string& request_id);

/// Times EstimateCate for every replay pair on a fresh estimator context
/// over `run.engine`: the first call per pair is a fit (memo miss), the
/// second the memo hit. Appends one sample per call to the two vectors.
/// The table the engine was built over must still be alive.
void ReplayEstimates(const PipelineOutput& run, const causumx::CausalDag& dag,
                     const causumx::CauSumXConfig& config,
                     const std::string& outcome, std::vector<double>* fit_s,
                     std::vector<double>* hit_s);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
