#include "causal/discovery.h"

#include <stdexcept>

#include "causal/fci.h"
#include "causal/lingam.h"
#include "causal/pc.h"
#include "util/string_utils.h"

namespace causumx {

const char* DiscoveryAlgorithmName(DiscoveryAlgorithm a) {
  switch (a) {
    case DiscoveryAlgorithm::kPc:
      return "PC";
    case DiscoveryAlgorithm::kFci:
      return "FCI";
    case DiscoveryAlgorithm::kLingam:
      return "LiNGAM";
    case DiscoveryAlgorithm::kNoDag:
      return "No-DAG";
  }
  return "?";
}

DiscoveryAlgorithm ParseDiscoveryAlgorithm(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "pc") return DiscoveryAlgorithm::kPc;
  if (lower == "fci") return DiscoveryAlgorithm::kFci;
  if (lower == "lingam") return DiscoveryAlgorithm::kLingam;
  if (lower == "nodag") return DiscoveryAlgorithm::kNoDag;
  throw std::runtime_error("unknown \"discover\" algorithm \"" + name +
                           "\" (expected pc, fci, lingam or nodag)");
}

CausalDag MakeNoDag(const Table& table, const std::string& outcome) {
  CausalDag dag;
  dag.AddNode(outcome);
  for (const auto& name : table.ColumnNames()) {
    if (name == outcome) continue;
    dag.AddEdge(name, outcome);
  }
  return dag;
}

CausalDag DiscoverDag(const Table& table, DiscoveryAlgorithm algorithm,
                      const std::string& outcome,
                      const DiscoveryOptions& options) {
  switch (algorithm) {
    case DiscoveryAlgorithm::kPc:
      return RunPc(table, options.alpha, options.max_cond_size,
                   options.max_rows)
          .dag;
    case DiscoveryAlgorithm::kFci:
      return RunFci(table, options.alpha, options.max_cond_size,
                    options.max_rows)
          .dag;
    case DiscoveryAlgorithm::kLingam:
      return RunLingam(table, options.lingam_prune_threshold,
                       options.max_rows)
          .dag;
    case DiscoveryAlgorithm::kNoDag:
      return MakeNoDag(table, outcome);
  }
  return MakeNoDag(table, outcome);
}

}  // namespace causumx
