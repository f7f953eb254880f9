// perfbench: the end-to-end benchmark program of CauSumX.
//
//   perfbench --workload cold-explain|http-warm|ingest --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Prints the environment stamp and the workload's sanity checks, then,
// as the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Exits 0 only when every answer matched its
// oracle and every sanity check held.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "util/cpu_features.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold-explain|http-warm|ingest "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  // A build with assertions on is not what users run: refuse to produce
  // numbers that could be recorded as a baseline.
  std::fprintf(stderr,
               "perfbench: built without NDEBUG (%s); refusing to measure\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.work_dir.empty() ||
      options.seconds <= 0) {
    return Usage();
  }

  std::printf(
      "env: nproc=%u build=%s ndebug=1 kernel_tier=%s seed=%llu "
      "workload=%s seconds=%g trace=%d\n",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      causumx::KernelTierName(causumx::ActiveKernelTier()),
      static_cast<unsigned long long>(options.seed), options.workload.c_str(),
      options.seconds, options.trace ? 1 : 0);

  perfbench::Report report(options.trace);
  try {
    if (options.workload == "cold-explain") {
      perfbench::RunColdExplain(options, &report);
    } else if (options.workload == "http-warm") {
      perfbench::RunHttpWarm(options, &report);
    } else if (options.workload == "ingest") {
      perfbench::RunIngest(options, &report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   options.workload.c_str());
      return Usage();
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("workload threw: ") + e.what());
  }
  if (options.workload != "http-warm") {
    bool idle = true;
    for (const perfbench::MetricDecl& d : perfbench::PerLayerMetrics()) {
      if (std::string(d.name).rfind("server.", 0) == 0) {
        idle = idle && report.Value(d.name) == 0.0;
      }
    }
    report.Sanity(idle, "every server.* metric is 0 on " + options.workload);
  }
  if (!options.trace) report.Set("peak_rss_mb", perfbench::PeakRssMb());
  report.Print();
  return report.correct() ? 0 : 1;
}
