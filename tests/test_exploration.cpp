// Tests for ExplorationSession (cached re-solving) and the top-k
// treatment drill-down, plus JSON export.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <type_traits>

#include "core/exploration.h"
#include "core/json_export.h"
#include "datagen/synthetic.h"
#include "util/timer.h"

namespace causumx {
namespace {

GeneratedDataset MakeData() {
  SyntheticOptions opt;
  opt.num_rows = 1500;
  opt.num_treatment_attrs = 4;
  return MakeSyntheticDataset(opt);
}

CauSumXConfig MakeConfig(const GeneratedDataset& ds) {
  CauSumXConfig config;
  config.grouping_attribute_allowlist = ds.grouping_attribute_hint;
  config.treatment_attribute_allowlist = ds.treatment_attribute_hint;
  config.grouping.include_per_group_patterns = false;
  return config;
}

TEST(ExplorationTest, SolveMatchesRunCauSumX) {
  const GeneratedDataset ds = MakeData();
  CauSumXConfig config = MakeConfig(ds);
  config.k = 3;
  config.theta = 0.75;
  const CauSumXResult direct =
      RunCauSumX(ds.table, ds.default_query, ds.dag, config);

  ExplorationSession session(ds.table, ds.default_query, ds.dag, config);
  const ExplanationSummary summary = session.Solve();
  EXPECT_DOUBLE_EQ(summary.total_explainability,
                   direct.summary.total_explainability);
  EXPECT_EQ(summary.covered_groups, direct.summary.covered_groups);
}

TEST(ExplorationTest, ReSolveIsFastAndConsistent) {
  const GeneratedDataset ds = MakeData();
  ExplorationSession session(ds.table, ds.default_query, ds.dag,
                             MakeConfig(ds));
  session.Solve(3, 0.75);  // pays the mining cost

  Timer timer;
  for (size_t k = 1; k <= 4; ++k) {
    const ExplanationSummary s = session.Solve(k, 0.25);
    EXPECT_LE(s.explanations.size(), k);
  }
  // Re-solving 4 parameter settings must be much cheaper than mining
  // (mining this dataset takes tens of milliseconds; selection is sub-ms).
  EXPECT_LT(timer.Seconds(), 1.0);
}

TEST(ExplorationTest, MonotoneExplainabilityInK) {
  const GeneratedDataset ds = MakeData();
  ExplorationSession session(ds.table, ds.default_query, ds.dag,
                             MakeConfig(ds));
  double prev = -1;
  for (size_t k = 1; k <= 4; ++k) {
    const ExplanationSummary s =
        session.Solve(k, 0.25, FinalStepSolver::kExact);
    EXPECT_GE(s.total_explainability + 1e-9, prev);
    prev = s.total_explainability;
  }
}

TEST(ExplorationTest, TopTreatmentsRankedAndDeduped) {
  const GeneratedDataset ds = MakeData();
  ExplorationSession session(ds.table, ds.default_query, ds.dag,
                             MakeConfig(ds));
  const Pattern group({SimplePredicate("G1", CompareOp::kEq,
                                       Value("g1_b0"))});
  const auto top =
      session.TopTreatments(group, TreatmentSign::kPositive, 5);
  ASSERT_GE(top.size(), 2u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(std::fabs(top[i - 1].effect.cate),
              std::fabs(top[i].effect.cate));
  }
  for (const auto& t : top) {
    EXPECT_GT(t.effect.cate, 0);
    EXPECT_TRUE(t.effect.valid);
  }
  // Distinct treated sets.
  for (size_t i = 0; i < top.size(); ++i) {
    for (size_t j = i + 1; j < top.size(); ++j) {
      EXPECT_FALSE(top[i].pattern == top[j].pattern);
    }
  }
}

TEST(ExplorationTest, SessionSharesTableOwnership) {
  // Regression: the session used to hold `const Table&`, so a table that
  // went away before the first Solve left a dangling reference. With
  // shared ownership, the session stays valid after the caller's handle
  // is gone.
  GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);
  const CauSumXResult direct =
      RunCauSumX(ds.table, ds.default_query, ds.dag, config);

  auto session = [&] {
    auto table = std::make_shared<const Table>(std::move(ds.table));
    ExplorationSession s(table, ds.default_query, ds.dag, config);
    // `table` (the only external handle) dies here.
    return s;
  }();
  const ExplanationSummary summary = session.Solve();
  EXPECT_DOUBLE_EQ(summary.total_explainability,
                   direct.summary.total_explainability);
  EXPECT_EQ(summary.covered_groups, direct.summary.covered_groups);

  // Passing a temporary table does not compile (deleted overload) —
  // the original footgun is now a compile-time error.
  static_assert(!std::is_constructible_v<ExplorationSession, Table&&,
                                         GroupByAvgQuery, CausalDag>,
                "temporary tables must be rejected");
}

TEST(ExplorationTest, TopTreatmentsEmptyGroupingMeansWholeTable) {
  const GeneratedDataset ds = MakeData();
  ExplorationSession session(ds.table, ds.default_query, ds.dag,
                             MakeConfig(ds));
  const auto top =
      session.TopTreatments(Pattern(), TreatmentSign::kNegative, 3);
  ASSERT_FALSE(top.empty());
  for (const auto& t : top) EXPECT_LT(t.effect.cate, 0);
}

// Drill-downs mine the partition's treatment attributes, which a
// treatment allowlist replaces: the same top-k as mining the allowlist
// directly over the same rows.
TEST(ExplorationTest, TopTreatmentsMineTheAllowlist) {
  const GeneratedDataset ds = MakeData();
  const CauSumXConfig config = MakeConfig(ds);
  ASSERT_FALSE(config.treatment_attribute_allowlist.empty());
  ExplorationSession session(ds.table, ds.default_query, ds.dag, config);
  const Pattern group({SimplePredicate("G1", CompareOp::kEq,
                                       Value("g1_b0"))});
  const auto top = session.TopTreatments(group, TreatmentSign::kPositive, 4);
  auto engine = std::make_shared<EvalEngine>(ds.table);
  const EffectEstimator estimator(engine, ds.dag, config.estimator);
  const auto direct = MineTopKTreatments(
      estimator, engine->Evaluate(group), ds.default_query.avg_attribute,
      config.treatment_attribute_allowlist, TreatmentSign::kPositive, 4,
      config.treatment);
  ASSERT_EQ(top.size(), direct.size());
  ASSERT_FALSE(top.empty());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_TRUE(top[i].pattern == direct[i].pattern);
    EXPECT_EQ(top[i].effect.cate, direct[i].effect.cate);
  }
}

TEST(JsonExportTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape("plain"), "plain");
}

TEST(JsonExportTest, PredicateAndPattern) {
  SimplePredicate p("Age", CompareOp::kLt, Value(int64_t{35}));
  EXPECT_EQ(PredicateToJson(p),
            "{\"attribute\":\"Age\",\"op\":\"<\",\"value\":35}");
  SimplePredicate s("Role", CompareOp::kEq, Value("QA \"lead\""));
  EXPECT_NE(PredicateToJson(s).find("QA \\\"lead\\\""), std::string::npos);
  const Pattern pat({p, s});
  const std::string json = PatternToJson(pat);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"Age\""), std::string::npos);
}

TEST(JsonExportTest, SummaryRoundTripStructure) {
  const GeneratedDataset ds = MakeData();
  CauSumXConfig config = MakeConfig(ds);
  config.k = 2;
  config.theta = 0.25;
  const ExplanationSummary summary =
      RunCauSumX(ds.table, ds.default_query, ds.dag, config).summary;
  const std::string json = SummaryToJson(summary, &ds.default_query);

  // Structural sanity: balanced braces/brackets, key fields present.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"explanations\""), std::string::npos);
  EXPECT_NE(json.find("\"cate\""), std::string::npos);
  EXPECT_NE(json.find("\"ci95\""), std::string::npos);
}

TEST(JsonExportTest, EffectCarriesConfidenceInterval) {
  EffectEstimate e;
  e.valid = true;
  e.cate = 10.0;
  e.std_error = 1.0;
  e.p_value = 0.001;
  const std::string json = EffectToJson(e);
  EXPECT_NE(json.find("\"ci95\":[8.04"), std::string::npos);
}

}  // namespace
}  // namespace causumx
