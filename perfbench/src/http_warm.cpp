// http-warm: POST /v1/explain through HttpServer + MakeRestHandler over
// one ExplanationService with an unlimited budget. The load is a fixed
// family of request bodies per table (the default query, k/theta
// variants and treatment allowlists); set-up sends every body once, so
// the timed phases run fully warm: no OLS fit, only transport, REST
// JSON, service resolve, memo/bitset lookups and selection.
//
// Two timed phases: a closed loop on nproc keep-alive connections
// (capacity), then an open loop at a fixed rate, timed from each
// request's due time.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "causal/dag_io.h"
#include "causal/estimator.h"
#include "core/json_export.h"
#include "pipeline.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/rest_api.h"
#include "service/explanation_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using causumx::CauSumXConfig;

/// Each dataset is generated as several independent instances, each
/// registered as its own table, so that one seed's draw of the data
/// does not set the figures. Warm latencies fall into one mode per
/// dataset: SO lowest, IMPUS-CPS in the middle, Accidents highest (its
/// LP selection dominates). The open-loop median therefore measures the
/// middle dataset, which gets more instances and bodies: the median then
/// lies inside its mode, not in the gap next to it where a small shift
/// of either mode would move it a long way.
constexpr struct {
  const char* name;
  size_t rows;
  size_t instances;
  size_t bodies;
} kHttpDatasets[] = {{"SO", 1500, 3, 4},
                     {"IMPUS-CPS", 6000, 5, 6},
                     {"Accidents", 4000, 3, 4}};

/// Open-loop arrival rate, about half the closed-loop capacity measured
/// on a 4-core x86 machine.
constexpr double kOpenLoopRate = 22.0;
/// Connections the open-loop generator may have in flight.
constexpr size_t kOpenLoopConnections = 8;
/// Share of an untraced run spent in the closed (capacity) loop.
constexpr double kClosedShare = 0.5;

/// One request body with what the service must answer to it.
struct Body {
  std::string table;
  size_t table_index = 0;  ///< into Fixture::tables
  std::string id;
  std::string json;
  causumx::GroupByAvgQuery query;
  CauSumXConfig config;  ///< as ExecuteQueryRequest builds it
  std::string expected_prefix;
  std::string expected_suffix;  ///< ,"summary":<oracle>}
};

struct HttpTable {
  std::string name;  ///< registry name: dataset name + instance
  BenchData data;
  std::string dag_path;
};

std::vector<Body> MakeBodies(const HttpTable& t, size_t table_index,
                             size_t count) {
  const causumx::GroupByAvgQuery& q = t.data.ds.default_query;
  const std::vector<std::string>& treat = t.data.treatment_attributes;
  const std::vector<std::string> first(treat.begin(),
                                       treat.begin() + treat.size() / 2);
  const std::vector<std::string> second(treat.begin() + treat.size() / 2,
                                        treat.end());
  struct Variant {
    size_t k;
    double theta;
    std::vector<std::string> treatment_attrs;
  };
  const Variant variants[] = {{5, 0.75, {}},    {3, 0.75, {}},
                              {8, 0.5, {}},     {5, 0.75, first},
                              {5, 0.9, {}},     {5, 0.75, second}};
  std::vector<Body> bodies;
  for (size_t vi = 0; vi < count && vi < std::size(variants); ++vi) {
    const Variant& v = variants[vi];
    Body b;
    b.table = t.name;
    b.table_index = table_index;
    b.id = t.name + "-" + std::to_string(bodies.size());
    b.query = q;
    b.json = "{\"id\":\"" + b.id + "\",\"table\":\"" + b.table +
             "\",\"group_by\":" + JsonStringList(q.group_by) + ",\"avg\":\"" +
             q.avg_attribute + "\",\"dag\":\"" +
             causumx::JsonEscape(t.dag_path) + "\",\"k\":" +
             std::to_string(v.k) + ",\"theta\":" + std::to_string(v.theta);
    if (!v.treatment_attrs.empty()) {
      b.json += ",\"treatment_attrs\":" + JsonStringList(v.treatment_attrs);
    }
    b.json += "}";
    // The configuration ExecuteQueryRequest derives from that body.
    b.config.k = v.k;
    b.config.theta = std::stod(std::to_string(v.theta));
    b.config.apriori_support = 0.1;
    b.config.treatment.alpha = 0.05;
    b.config.treatment_attribute_allowlist = v.treatment_attrs;
    b.config.num_threads = 1;
    b.expected_prefix = "{\"id\":\"" + b.id + "\",\"table\":\"" + b.table +
                        "\",\"ok\":true,\"elapsed_ms\":";
    bodies.push_back(std::move(b));
  }
  return bodies;
}

std::string RequestBytes(const Body& b, const std::string& request_id) {
  return "POST /v1/explain HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nX-Request-Id: " +
         request_id + "\r\nContent-Length: " + std::to_string(b.json.size()) +
         "\r\n\r\n" + b.json;
}

bool AnswerMatches(const Body& b, int status, const std::string& s) {
  return status == 200 && s.size() > b.expected_suffix.size() &&
         s.compare(0, b.expected_prefix.size(), b.expected_prefix) == 0 &&
         s.compare(s.size() - b.expected_suffix.size(),
                   b.expected_suffix.size(), b.expected_suffix) == 0;
}

/// A running server over a warm service. The server is declared last so
/// it stops before the service it serves is destroyed.
struct Serving {
  std::unique_ptr<causumx::ExplanationService> service;
  causumx::HttpServer::Handler rest;
  std::unique_ptr<causumx::HttpServer> server;
};

std::unique_ptr<causumx::HttpServer> StartServer(
    causumx::HttpServer::Handler handler) {
  causumx::HttpServerOptions opt;
  opt.port = 0;
  auto server = std::make_unique<causumx::HttpServer>(std::move(handler), opt);
  server->Start();
  return server;
}

struct Fixture {
  std::vector<HttpTable> tables;
  std::vector<Body> bodies;
};

Fixture MakeFixture(const Options& options) {
  Fixture f;
  // Instances interleave across datasets, so the open loop's walk over
  // the bodies alternates datasets instead of running one in a burst.
  size_t rounds = 0;
  for (const auto& spec : kHttpDatasets) {
    rounds = std::max(rounds, spec.instances);
  }
  for (size_t inst = 0; inst < rounds; ++inst) {
    for (size_t d = 0; d < std::size(kHttpDatasets); ++d) {
      const auto& spec = kHttpDatasets[d];
      if (inst >= spec.instances) continue;
      HttpTable t;
      t.data = MakeBenchData(spec.name, spec.rows,
                             MixSeed(options.seed, 100 + 10 * d + inst));
      t.name = t.data.name + "-" + std::to_string(inst);
      t.dag_path = options.work_dir + "/http-" + t.name + ".dag";
      WriteTextFile(t.dag_path, causumx::DagToText(t.data.ds.dag));
      for (Body& b : MakeBodies(t, f.tables.size(), spec.bodies)) {
        f.bodies.push_back(std::move(b));
      }
      f.tables.push_back(std::move(t));
    }
  }
  return f;
}

Serving StartServing(const Fixture& f, Report* report) {
  Serving s;
  s.service = std::make_unique<causumx::ExplanationService>();
  for (const HttpTable& t : f.tables) {
    s.service->RegisterTable(t.name, t.data.ds.table.Clone());
  }
  s.rest = causumx::MakeRestHandler(*s.service);
  s.server = StartServer(s.rest);
  // Warm every body once, one table per connection at a time on nproc
  // connections: the timed phases then do no fits.
  const size_t connections = std::min<size_t>(
      f.tables.size(), std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> warmers;
  std::atomic<size_t> failures{0};
  for (size_t w = 0; w < connections; ++w) {
    warmers.emplace_back([&, w, port = s.server->port()] {
      causumx::HttpClient client("127.0.0.1", port);
      for (size_t t = w; t < f.tables.size(); t += connections) {
        for (const Body& b : f.bodies) {
          if (b.table != f.tables[t].name) continue;
          if (client.Raw(RequestBytes(b, "warm-" + b.id)).status != 200) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& w : warmers) w.join();
  if (failures.load() > 0) report->Fail("warm-up requests failed");
  return s;
}

/// The oracle runs the cache-bypass path. RunCauSumX is phases 1-2
/// (MineExplanationCandidates, which ignores k and theta) followed by
/// SelectExplanations, so bodies that differ only in k/theta share one
/// bypass mining run.
void ComputeOracles(Fixture* f) {
  std::map<std::pair<size_t, std::vector<std::string>>,
           causumx::CandidateMiningResult>
      mined;
  for (Body& b : f->bodies) {
    const HttpTable& t = f->tables[b.table_index];
    const auto key =
        std::make_pair(b.table_index, b.config.treatment_attribute_allowlist);
    auto it = mined.find(key);
    if (it == mined.end()) {
      CauSumXConfig bypass = b.config;
      bypass.disable_eval_cache = true;
      bypass.num_threads = 0;  // results are identical for any thread count
      it = mined
               .emplace(key, causumx::MineExplanationCandidates(
                                 t.data.ds.table, b.query,
                                 causumx::ReadDagFile(t.dag_path), bypass))
               .first;
    }
    const causumx::CandidateMiningResult& m = it->second;
    causumx::ExplanationSummary summary;
    if (m.view.NumGroups() > 0) {
      summary = causumx::SelectExplanations(m.candidates, m.view.NumGroups(),
                                            b.config);
    }
    b.expected_suffix =
        ",\"summary\":" + causumx::SummaryToJson(summary, &b.query) + "}";
  }
}

/// Cache counters summed over every table's engine and shared estimator
/// context.
struct CacheTotals {
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t bitset_hits = 0;
  uint64_t bitsets_built = 0;
};

CacheTotals Totals(causumx::ExplanationService& service, const Fixture& f) {
  CacheTotals t;
  for (const HttpTable& table : f.tables) {
    const causumx::EstimatorCacheStats m =
        service
            .Context(table.name, causumx::ReadDagFile(table.dag_path),
                     causumx::EstimatorOptions{})
            ->Stats();
    t.memo_hits += m.memo_hits;
    t.memo_misses += m.memo_misses;
    const causumx::EvalEngineStats e = service.Engine(table.name)->Stats();
    t.bitset_hits += e.bitset_hits;
    t.bitsets_built += e.bitsets_materialized;
  }
  return t;
}

/// Closed loop on `connections` keep-alive connections; returns requests
/// completed per second. Each connection walks its own seeded
/// permutation of the bodies, so connections do not fall into step on
/// one table and contend on its caches for the whole phase.
double ClosedLoop(const Fixture& f, uint16_t port, size_t connections,
                  double seconds, uint64_t seed, Report* report) {
  std::vector<std::vector<size_t>> failed_bodies(connections);
  std::vector<size_t> completed(connections, 0);
  const double start = Now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      std::vector<size_t> order(f.bodies.size());
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(),
                   std::mt19937_64(MixSeed(seed, 300 + c)));
      causumx::HttpClient client("127.0.0.1", port);
      for (size_t i = 0; Now() - start < seconds; ++i) {
        const size_t body = order[i % order.size()];
        const Body& b = f.bodies[body];
        bool ok = false;
        try {
          const auto r = client.Raw(RequestBytes(
              b, "c" + std::to_string(c) + "-" + std::to_string(i)));
          ok = AnswerMatches(b, r.status, r.body);
        } catch (const std::exception&) {
        }
        ++completed[c];
        if (!ok) failed_bodies[c].push_back(body);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = Now() - start;
  size_t total = 0;
  for (size_t c = 0; c < connections; ++c) {
    total += completed[c];
    for (size_t body : failed_bodies[c]) {
      report->Op(false, "closed-loop answer differs from the oracle: " +
                            f.bodies[body].id);
    }
    for (size_t k = failed_bodies[c].size(); k < completed[c]; ++k) {
      report->Op(true);
    }
  }
  return static_cast<double>(total) / elapsed;
}

struct OpenLoopOut {
  std::vector<double> latency;  ///< due time -> response read
  std::vector<double> late;     ///< due time -> send start
  std::vector<double> sent;     ///< send start
  std::vector<double> done;     ///< response read
  std::vector<std::string> request_ids;
};

/// Open loop at kOpenLoopRate for `seconds`: request i is due at
/// start + i / rate and is sent by the first free connection.
OpenLoopOut OpenLoop(const Fixture& f, uint16_t port, double seconds,
                     const std::string& tag, Report* report) {
  const size_t n = std::max(kMinTailSamples,
                            static_cast<size_t>(seconds * kOpenLoopRate));
  OpenLoopOut out;
  out.latency.assign(n, 0.0);
  out.late.assign(n, 0.0);
  out.sent.assign(n, 0.0);
  out.done.assign(n, 0.0);
  out.request_ids.assign(n, "");
  std::vector<char> ok(n, 0);
  std::atomic<size_t> next{0};
  const double start = Now() + 0.01;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kOpenLoopConnections; ++c) {
    threads.emplace_back([&] {
      causumx::HttpClient client("127.0.0.1", port);
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const double due = start + static_cast<double>(i) / kOpenLoopRate;
        while (Now() < due) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(due - Now(), 0.001)));
        }
        const Body& b = f.bodies[i % f.bodies.size()];
        const std::string rid = tag + std::to_string(i);
        const double sent = Now();
        try {
          const auto r = client.Raw(RequestBytes(b, rid));
          ok[i] = AnswerMatches(b, r.status, r.body) ? 1 : 0;
        } catch (const std::exception&) {
          ok[i] = 0;
        }
        const double done = Now();
        out.latency[i] = done - due;
        out.late[i] = sent - due;
        out.sent[i] = sent;
        out.done[i] = done;
        out.request_ids[i] = rid;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < n; ++i) {
    report->Op(ok[i] != 0, "open-loop answer differs from the oracle: " +
                               f.bodies[i % f.bodies.size()].id);
  }
  return out;
}

void CheckOpenLoop(const OpenLoopOut& open, Report* report) {
  const double late_p90 = SupportedQuantile(open.late, 90).value_or(1e9);
  report->Sanity(late_p90 < 1.0 / kOpenLoopRate,
                 "open-loop generator lateness p90 " +
                     std::to_string(late_p90) +
                     " s is under the arrival interval " +
                     std::to_string(1.0 / kOpenLoopRate) + " s");
  if (report->trace()) report->Set("http.gen_late_s.p90", late_p90);
}

/// Per-layer measurements made in process after the traced open loop;
/// the pipeline spans go to `rec`.
void InProcessLayers(const Fixture& f, Serving& s, SpanRecorder* rec,
                     Report* report) {
  causumx::ExplanationService& service = *s.service;
  std::vector<double> codec_s;
  std::vector<double> self_s;
  std::vector<double> hit_s;
  size_t lp_candidates = 0;
  size_t grouping_candidates = 0;
  size_t patterns_evaluated = 0;

  // Fixed replay of every body: cache counter deltas over one pass.
  const CacheTotals before = Totals(service, f);
  for (const Body& b : f.bodies) {
    const HttpTable& t = f.tables[b.table_index];
    const causumx::CausalDag dag = causumx::ReadDagFile(t.dag_path);
    service.Explain(b.table, b.query, dag, b.config);
  }
  const CacheTotals after = Totals(service, f);
  const double hits = static_cast<double>(after.memo_hits - before.memo_hits);
  const double misses =
      static_cast<double>(after.memo_misses - before.memo_misses);
  const double bhits =
      static_cast<double>(after.bitset_hits - before.bitset_hits);
  const double built =
      static_cast<double>(after.bitsets_built - before.bitsets_built);
  report->Set("estimator.memo_hits", hits);
  report->Set("estimator.memo_misses", misses);
  report->Set("estimator.memo_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report->Set("engine.bitset_hits", bhits);
  report->Set("engine.segments_materialized", built);
  report->Set("engine.bitset_hit_ratio",
              bhits + built > 0 ? bhits / (bhits + built) : 0.0);

  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Body& b : f.bodies) {
      const HttpTable& t = f.tables[b.table_index];
      // rest.codec: the in-process handler call minus the direct
      // service.Explain of the same query.
      causumx::HttpRequest req;
      req.method = "POST";
      req.target = req.path = "/v1/explain";
      req.headers["content-type"] = "application/json";
      req.body = b.json;
      double t0 = Now();
      const causumx::HttpResponse resp = s.rest(req);
      const double handler = Now() - t0;
      const causumx::CausalDag dag = causumx::ReadDagFile(t.dag_path);
      t0 = Now();
      service.Explain(b.table, b.query, dag, b.config);
      const double direct = Now() - t0;
      codec_s.push_back(handler - direct);
      report->Op(AnswerMatches(b, resp.status, resp.body),
                 "in-process handler answer differs: " + b.id);

      // service.explain_self: service.Explain minus the core pipeline on
      // the service's own engine and context.
      const uint64_t root = rec->Open("service.pipeline", 0, b.id);
      t0 = Now();
      const PipelineOutput run = RunTracedPipeline(
          *service.GetTable(b.table), b.query, dag, b.config,
          service.Engine(b.table),
          service.Context(b.table, dag, b.config.estimator), nullptr,
          &service.pool(), rec, root, b.id);
      const double pipeline = Now() - t0;
      rec->Finish(root);
      self_s.push_back(direct - pipeline);
      report->Op(b.expected_suffix ==
                     ",\"summary\":" +
                         causumx::SummaryToJson(run.summary, &b.query) + "}",
                 "traced pipeline drifted from the service: " + b.id);
      if (rep == 0) {
        lp_candidates += run.lp_candidates;
        grouping_candidates += run.grouping_candidates;
        patterns_evaluated += run.patterns_evaluated;
        // The estimator's warm path: the same calls on the service's
        // context are memo hits.
        causumx::EffectEstimator estimator(run.context);
        for (const auto& [treatment, rows] : run.replay) {
          t0 = Now();
          estimator.EstimateCate(treatment, b.query.avg_attribute, rows);
          hit_s.push_back(Now() - t0);
        }
      }
    }
  }
  const std::vector<Span> spans = rec->Spans();
  report->Set("rest.codec_s.p50", MedianOr0(codec_s));
  report->Set("service.explain_self_s.p50", MedianOr0(self_s));
  report->Set("estimator.cate_hit_s.p50", MedianOr0(hit_s));
  report->Set("dataset.view_s.p50",
              MedianOr0(Durations(spans, "dataset.view")));
  report->Set("mining.grouping_s.p50",
              MedianOr0(Durations(spans, "mining.grouping")));
  report->Set("mining.treatment_s.p50",
              MedianOr0(Durations(spans, "mining.treatment")));
  report->Set("lp.selection_s.p50",
              MedianOr0(Durations(spans, "lp.selection")));
  report->Set("lp.candidates", static_cast<double>(lp_candidates));
  report->Set("mining.grouping_candidates",
              static_cast<double>(grouping_candidates));
  report->Set("mining.treatment_patterns_evaluated",
              static_cast<double>(patterns_evaluated));
  const causumx::ServiceStats stats = service.Stats();
  report->Set("service.cache_bytes", static_cast<double>(stats.cache_bytes));
  report->Set("service.budget_enforcements",
              static_cast<double>(stats.budget_enforcements));
}

/// The traced run's loops: an untraced open loop for the overhead base,
/// then the same loop against a second server whose handler is wrapped
/// in a span.
void TracedLoops(const Fixture& f, Serving& s, double seconds,
                 SpanRecorder* rec, Report* report) {
  const OpenLoopOut base =
      OpenLoop(f, s.server->port(), seconds / 2, "u", report);
  const causumx::HttpServer::Handler rest = s.rest;
  auto traced_server = StartServer(
      [rest, rec](const causumx::HttpRequest& req) {
        const double t0 = Now();
        causumx::HttpResponse resp = rest(req);
        rec->Record("server.handler", t0, Now(), 0,
                    req.Header("x-request-id"));
        return resp;
      });
  const OpenLoopOut traced =
      OpenLoop(f, traced_server->port(), seconds / 2, "t", report);
  traced_server->Stop();
  CheckOpenLoop(traced, report);
  const causumx::HttpServerCounters counters = traced_server->counters();
  traced_server.reset();

  // Correlate client round trips with handler spans by request id.
  std::vector<Span> spans = rec->Spans();
  std::vector<double> handler_s;
  std::vector<double> transport_s;
  std::vector<double> uncovered;
  std::map<std::string, double> handler_by_id;
  for (const Span& span : spans) {
    handler_by_id[span.request_id] = span.Duration();
  }
  for (size_t i = 0; i < traced.sent.size(); ++i) {
    auto it = handler_by_id.find(traced.request_ids[i]);
    if (it == handler_by_id.end()) continue;
    const double round_trip = traced.done[i] - traced.sent[i];
    handler_s.push_back(it->second);
    transport_s.push_back(round_trip - it->second);
    uncovered.push_back(transport_s.back() / round_trip);
    rec->Record("client.request", traced.sent[i], traced.done[i], 0,
                traced.request_ids[i]);
  }
  report->Set("server.handler_s.p50", MedianOr0(handler_s));
  report->Set("server.transport_s.p50", MedianOr0(transport_s));
  report->Set("trace.uncovered_frac", MedianOr0(uncovered));
  report->Set("server.requests_rejected",
              static_cast<double>(counters.requests_rejected));
  report->Set("server.connections_accepted",
              static_cast<double>(counters.connections_accepted));
  const double untraced = MedianOr0(base.latency);
  report->Set("trace.overhead_frac",
              untraced > 0 ? (MedianOr0(traced.latency) - untraced) / untraced
                           : 0.0);
}

}  // namespace

void RunHttpWarm(const Options& options, Report* report) {
  std::vector<double> setup_s;
  Fixture fixture;
  Serving serving;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    serving.server.reset();  // stop the old server before its service
    serving = Serving();
    const double t0 = Now();
    fixture = MakeFixture(options);
    serving = StartServing(fixture, report);
    setup_s.push_back(Now() - t0);
  }
  ComputeOracles(&fixture);
  causumx::ExplanationService& service = *serving.service;
  const uint64_t misses_before = Totals(service, fixture).memo_misses;
  const size_t nproc =
      std::max<size_t>(1, std::thread::hardware_concurrency());

  SpanRecorder rec(report->trace());
  if (!report->trace()) {
    report->Set("setup_s", MedianOr0(setup_s));
    ResetPeakRss(report);
    const double capacity =
        ClosedLoop(fixture, serving.server->port(), nproc,
                   options.seconds * kClosedShare, options.seed, report);
    const OpenLoopOut open = OpenLoop(
        fixture, serving.server->port(),
        options.seconds * (1.0 - kClosedShare), "o", report);
    report->Set("ops_per_s", capacity);
    ReportLatency(report, "explain_s", open.latency, /*with_p90=*/true);
    CheckOpenLoop(open, report);
  } else {
    TracedLoops(fixture, serving, options.seconds, &rec, report);
  }
  const uint64_t timed_misses =
      Totals(service, fixture).memo_misses - misses_before;
  report->Sanity(timed_misses == 0,
                 "estimator.memo_misses in the timed phase is 0 (got " +
                     std::to_string(timed_misses) + ")");
  if (report->trace()) {
    InProcessLayers(fixture, serving, &rec, report);
    if (!rec.WriteJsonl(options.work_dir + "/spans-http-warm.jsonl")) {
      report->Fail("cannot write the span dump");
    }
  }
}

}  // namespace perfbench
