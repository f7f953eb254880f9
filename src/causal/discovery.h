// Common interface for causal discovery (used by the DAG-sensitivity
// experiment, Fig. 16/23 and Table 4 of the paper).

#ifndef CAUSUMX_CAUSAL_DISCOVERY_H_
#define CAUSUMX_CAUSAL_DISCOVERY_H_

#include <string>

#include "causal/dag.h"
#include "dataset/table.h"

namespace causumx {

/// Options shared by the discovery algorithms.
struct DiscoveryOptions {
  double alpha = 0.05;        ///< CI-test significance level (PC / FCI).
  size_t max_cond_size = 3;   ///< max conditioning-set size (PC / FCI).
  size_t max_rows = 100'000;  ///< row cap for CI statistics (0 = all).
  /// LiNGAM: prune edges whose standardized regression coefficient
  /// magnitude falls below this.
  double lingam_prune_threshold = 0.05;
};

/// The discovery algorithms the paper evaluates (Section 6.6).
enum class DiscoveryAlgorithm { kPc, kFci, kLingam, kNoDag };

/// Display name of an algorithm ("PC", "FCI", "LiNGAM", "No-DAG").
const char* DiscoveryAlgorithmName(DiscoveryAlgorithm a);

/// Parses an algorithm name as written in query specs and on the CLI:
/// "pc", "fci", "lingam" or "nodag", case-insensitive. Throws
/// std::runtime_error naming "discover" on anything else.
DiscoveryAlgorithm ParseDiscoveryAlgorithm(const std::string& name);

/// Runs the selected discovery algorithm over the table's attributes.
/// `outcome` is used by kNoDag (all attributes point at the outcome) and to
/// orient otherwise-undirected edges toward the outcome when needed.
CausalDag DiscoverDag(const Table& table, DiscoveryAlgorithm algorithm,
                      const std::string& outcome,
                      const DiscoveryOptions& options = {});

/// The "No-DAG" strawman (Section 6.6): every attribute has a single edge
/// into the outcome, no other structure.
CausalDag MakeNoDag(const Table& table, const std::string& outcome);

}  // namespace causumx

#endif  // CAUSUMX_CAUSAL_DISCOVERY_H_
