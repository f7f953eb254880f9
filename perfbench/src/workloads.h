// The benchmark's workloads. Each one sets itself up (kSetupRepetitions
// times, reporting the median as setup_s), computes its correctness
// oracle outside every timed phase, runs its timed phase and records
// either the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) into the report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// CLI path: CSV read + RunCauSumX with a fresh engine per query,
/// rotating SO, IMPUS-CPS, Accidents in a single-client closed loop.
void RunColdExplain(const Options& options, Report* report);

/// POST /v1/explain over HttpServer + MakeRestHandler on one warm
/// ExplanationService: a closed loop for capacity, then an open loop
/// at a fixed rate.
void RunHttpWarm(const Options& options, Report* report);

/// Appends in fixed batches via ExplanationService::Append under a
/// sliding-window monitor and a tight memory budget, re-explaining a
/// fixed query set after each batch.
void RunIngest(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
