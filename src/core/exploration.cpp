#include "core/exploration.h"

namespace causumx {

ExplorationSession::ExplorationSession(
    std::shared_ptr<const Table> table, GroupByAvgQuery query, CausalDag dag,
    CauSumXConfig config, std::shared_ptr<EvalEngine> engine,
    std::shared_ptr<EstimatorContext> context)
    : table_(std::move(table)),
      query_(std::move(query)),
      dag_(std::move(dag)),
      config_(std::move(config)),
      engine_(engine != nullptr ? std::move(engine)
                                : MakeQueryEngine(table_, config_)),
      context_(context != nullptr
                   ? std::move(context)
                   : std::make_shared<EstimatorContext>(engine_, dag_,
                                                        config_.estimator)) {}

ExplorationSession::ExplorationSession(const Table& table,
                                       GroupByAvgQuery query, CausalDag dag,
                                       CauSumXConfig config)
    : ExplorationSession(
          std::shared_ptr<const Table>(std::shared_ptr<const Table>(),
                                       &table),
          std::move(query), std::move(dag), std::move(config)) {}

void ExplorationSession::EnsureMined() {
  if (!mined_) {
    mined_ = MineExplanationCandidates(*table_, query_, dag_, config_,
                                       engine_, context_);
  }
}

ExplanationSummary ExplorationSession::Solve(size_t k, double theta,
                                             FinalStepSolver solver) {
  EnsureMined();
  CauSumXConfig config = config_;
  config.k = k;
  config.theta = theta;
  config.solver = solver;
  return SelectExplanations(mined_->candidates, mined_->view.NumGroups(),
                            config);
}

ExplanationSummary ExplorationSession::Solve() {
  return Solve(config_.k, config_.theta, config_.solver);
}

std::vector<ScoredTreatment> ExplorationSession::TopTreatments(
    const Pattern& grouping_pattern, TreatmentSign sign, size_t k) {
  EnsureMined();
  Bitset rows;
  if (grouping_pattern.IsEmpty()) {
    rows = Bitset(table_->NumRows());
    rows.SetAll();
  } else {
    rows = engine_->Evaluate(grouping_pattern);
  }
  return MineTopKTreatments(EffectEstimator(context_), rows,
                            query_.avg_attribute,
                            mined_->partition.treatment_attributes, sign, k,
                            config_.treatment);
}

const AggregateView& ExplorationSession::View() {
  EnsureMined();
  return mined_->view;
}

const std::vector<Explanation>& ExplorationSession::Candidates() {
  EnsureMined();
  return mined_->candidates;
}

const CandidateMiningResult& ExplorationSession::MiningResult() {
  EnsureMined();
  return *mined_;
}

EngineCacheStats ExplorationSession::CacheStats() const {
  EngineCacheStats stats;
  stats.eval = engine_->Stats();
  stats.estimator = context_->Stats();
  return stats;
}

}  // namespace causumx
