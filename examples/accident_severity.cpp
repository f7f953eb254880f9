// The Accidents case study (Fig. 7): explain AVG(Severity) per City on
// the US-Accidents replica. Regional grouping patterns (City -> Region)
// should surface weather-driven positive treatments and
// infrastructure-driven negative ones.

#include <cstdio>
#include <iostream>

#include "core/causumx.h"
#include "core/renderer.h"
#include "datagen/accidents.h"

int main() {
  using namespace causumx;

  AccidentsOptions opt;
  opt.num_rows = 120'000;  // bench-sized; raise toward 2.8M for full scale
  opt.num_cities = 64;
  GeneratedDataset ds = MakeAccidentsDataset(opt);
  std::printf("Accidents replica: %zu rows, %zu attributes, %d cities\n",
              ds.table.NumRows(), ds.table.NumColumns(),
              static_cast<int>(opt.num_cities));
  std::cout << "Query: " << ds.default_query.ToSql("Accidents") << "\n\n";

  CauSumXConfig config;
  config.k = 4;       // one insight per region, like Fig. 7
  config.theta = 0.9;
  config.apriori_support = 0.05;

  CauSumXResult result =
      RunCauSumX(ds.table, ds.default_query, ds.dag, config);
  std::cout << RenderSummary(result.summary, ds.style);

  std::printf(
      "\n%zu grouping candidates, %zu with treatments, %zu CATEs "
      "evaluated\n",
      result.num_grouping_candidates, result.candidates.size(),
      result.treatment_patterns_evaluated);
  for (const auto& [phase, seconds] : result.timings.phases()) {
    std::printf("phase %-10s %.3fs\n", phase.c_str(), seconds);
  }
  return 0;
}
