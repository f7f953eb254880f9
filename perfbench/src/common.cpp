#include "common.h"

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/json_export.h"
#include "datagen/accidents.h"
#include "datagen/cps.h"
#include "datagen/stackoverflow.h"
#include "dataset/fd.h"

namespace perfbench {

const std::vector<MetricDecl>& EndToEndMetrics() {
  static const std::vector<MetricDecl> kMetrics = {
      {"setup_s", "s"},
      {"explain_s.p50", "s"},
      {"explain_s.p90", "s"},
      {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricDecl>& PerLayerMetrics() {
  static const std::vector<MetricDecl> kMetrics = {
      {"server.transport_s.p50", "s"},
      {"server.handler_s.p50", "s"},
      {"server.requests_rejected", "count"},
      {"server.connections_accepted", "count"},
      {"rest.codec_s.p50", "s"},
      {"service.explain_self_s.p50", "s"},
      {"service.append_s.p50", "s"},
      {"service.cache_bytes", "bytes"},
      {"service.budget_enforcements", "count"},
      {"dataset.csv_parse_s.p50", "s"},
      {"dataset.view_s.p50", "s"},
      {"mining.grouping_s.p50", "s"},
      {"mining.treatment_s.p50", "s"},
      {"mining.treatment_task_s.max", "s"},
      {"mining.treatment_share", "ratio"},
      {"mining.treatment_patterns_evaluated", "count"},
      {"mining.grouping_candidates", "count"},
      {"estimator.cate_fit_s.p50", "s"},
      {"estimator.cate_hit_s.p50", "s"},
      {"estimator.memo_misses", "count"},
      {"estimator.memo_hits", "count"},
      {"estimator.memo_hit_ratio", "ratio"},
      {"estimator.memo_migrated", "count"},
      {"estimator.memo_evicted", "count"},
      {"engine.segments_materialized", "count"},
      {"engine.bitset_hits", "count"},
      {"engine.bitset_hit_ratio", "ratio"},
      {"engine.bitsets_extended", "count"},
      {"engine.bitsets_retracted", "count"},
      {"engine.bitsets_evicted", "count"},
      {"engine.bitset_bytes", "bytes"},
      {"lp.selection_s.p50", "s"},
      {"lp.candidates", "count"},
      {"stream.boundary_s.p50", "s"},
      {"stream.window_append_s.p50", "s"},
      {"stream.cache_bytes", "bytes"},
      {"stream.events_emitted", "count"},
      {"http.gen_late_s.p90", "s"},
      {"append_s.p50", "s"},
      {"window_event_s.p50", "s"},
      {"trace.overhead_frac", "ratio"},
      {"trace.uncovered_frac", "ratio"},
  };
  return kMetrics;
}

namespace {

const MetricDecl* FindDecl(const std::string& name) {
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDecl& d : *list) {
      if (name == d.name) return &d;
    }
  }
  return nullptr;
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  if (FindDecl(name) == nullptr) {
    Fail("undeclared metric " + name);
    return;
  }
  if (!std::isfinite(value)) {
    Fail("non-finite value for " + name);
    return;
  }
  values_[name] = value;
}

double Report::Value(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (messages_++ < 10) {
    std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
  }
}

void Report::Sanity(bool ok, const std::string& what) {
  std::printf("sanity %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) run_ok_ = false;
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: run failed: %s\n", what.c_str());
  run_ok_ = false;
}

void Report::Print() {
  const auto& decls = trace_ ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const MetricDecl& d : decls) {
    auto it = values_.find(d.name);
    double value = 0.0;
    if (it != values_.end()) {
      value = it->second;
    } else if (!trace_) {
      Fail(std::string("end-to-end metric not measured: ") + d.name);
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, value, d.unit);
    metrics += buf;
  }
  std::printf("failed_ops_frac: %.6g (%llu of %llu operations)\n",
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

BenchData MakeBenchData(const std::string& name, size_t rows, uint64_t seed) {
  BenchData data;
  data.name = name;
  if (name == "SO") {
    causumx::StackOverflowOptions opt;
    opt.num_rows = rows;
    opt.seed = seed;
    data.ds = causumx::MakeStackOverflowDataset(opt);
  } else if (name == "IMPUS-CPS") {
    causumx::CpsOptions opt;
    opt.num_rows = rows;
    opt.seed = seed;
    data.ds = causumx::MakeCpsDataset(opt);
  } else if (name == "Accidents") {
    causumx::AccidentsOptions opt;
    opt.num_rows = rows;
    opt.seed = seed;
    data.ds = causumx::MakeAccidentsDataset(opt);
  } else {
    throw std::invalid_argument("unknown benchmark dataset " + name);
  }
  // The paper default (Section 6.1); CauSumXConfig's defaults are it.
  data.config.k = 5;
  data.config.theta = 0.75;
  data.config.apriori_support = 0.1;
  data.treatment_attributes =
      causumx::PartitionAttributes(data.ds.table,
                                   data.ds.default_query.group_by,
                                   data.ds.default_query.avg_attribute)
          .treatment_attributes;
  return data;
}

void ResetPeakRss(Report* report) {
  // Writing "5" to clear_refs resets the VmHWM high-water mark (Linux).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) {
    report->Fail("cannot reset the peak RSS mark (/proc/self/clear_refs)");
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string JsonStringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ",\"" : "\"") + causumx::JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

void WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

double MedianOr0(const std::vector<double>& v) {
  return Median(v).value_or(0.0);
}

void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& samples, bool with_p90) {
  if (samples.empty()) {
    report->Fail("no samples for " + prefix);
    return;
  }
  report->Set(prefix + ".p50", MedianOr0(samples));
  if (!with_p90) return;
  const std::optional<double> p90 = SupportedQuantile(samples, 90);
  if (!p90) {
    report->Fail(prefix + ".p90 needs " + std::to_string(kMinTailSamples) +
                 " samples, got " + std::to_string(samples.size()));
    return;
  }
  report->Set(prefix + ".p90", *p90);
}

bool KeepGoing(double start, double seconds, size_t samples,
               size_t min_samples, double hard_stop) {
  const double now = Now();
  if (now >= hard_stop) return false;
  return now - start < seconds || samples < min_samples;
}

double HardStop(double start, double seconds) {
  return start + 2.0 * seconds + 20.0;
}

double UncoveredShare(const std::vector<Span>& spans,
                      const std::string& root_name) {
  std::vector<double> shares;
  for (const Span& s : spans) {
    if (s.name != root_name || s.Duration() <= 0.0) continue;
    shares.push_back(SelfTime(s, spans) / s.Duration());
  }
  return MedianOr0(shares);
}

std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.Duration());
  }
  return out;
}

}  // namespace perfbench
