// JSONL batch execution over an ExplanationService.
//
// Each input line is one JSON request object; each output line is one
// JSON result object (input order preserved; requests execute
// concurrently on the service pool). Request fields:
//
//   {"id": "q1",                     // echoed back (default: line number)
//    "table": "sales",               // registry name (default: options)
//    "csv": "path/to.csv",           // load + register if table absent
//    "group_by": ["Country"],        // or a "A,B" comma string
//    "avg": "Salary",
//    "where": "Role=Engineer",       // optional filter predicate
//    "dag_text": "Role -> Salary",   // or "dag": "graph.txt", or
//                                    // "discover": "pc|fci|lingam|nodag"
//    "k": 5, "theta": 0.75, "support": 0.1, "alpha": 0.05,
//    "grouping_attrs": ["Country"],  // optional attribute allowlists
//    "treatment_attrs": ["Role"],
//    "per_group_patterns": true,     // mine per-group grouping patterns
//    "min_group_size": 10,           // min treated and control rows
//    "num_threads": 1}               // per-query mining threads
//
// Every field from "group_by" on is read by ParseQuerySpec, which the
// windowed monitors (stream/monitor.h) share, so a query means the same
// thing in a batch line, an explain request and a monitor spec.
//
// The same request shape is served over HTTP by POST /v1/explain
// (server/rest_api.h), which funnels into the same executor — a query
// answered over the network is bit-identical to the same line in a
// batch file and to the CLI's --json output.
//
// Row sharding is a property of the registered table, not of one
// request: the service-level --shards (ServiceOptions::num_shards)
// fixes each table's shard plan at registration, and every batch query
// executes through it.
//
// Streaming ingestion rides the same file via an "op" field:
//
//   {"op": "append", "table": "sales", "csv": "delta.csv"}
//   {"op": "append", "table": "sales",
//    "rows": [["US", 12, 3.5], [null, 7, 1.0]]}   // schema order
//
// appends delta rows to a registered table (cells coerce to the column
// types; null is null). An append line is a barrier: every earlier
// request finishes before it lands, and every later request sees the
// grown table — so "query, append, re-query" reads top-to-bottom.
//
// Result lines: {"id", "table", "ok", "elapsed_ms", "summary"} on
// success ({"rows_appended", "rows_total", "version"} for appends),
// {"id", "ok": false, "error"} on failure. A malformed line fails that
// request only; the batch keeps going.

#ifndef CAUSUMX_SERVICE_BATCH_H_
#define CAUSUMX_SERVICE_BATCH_H_

#include <iosfwd>
#include <limits>
#include <string>

#include "core/causumx.h"
#include "dataset/predicate.h"
#include "dataset/table.h"
#include "service/explanation_service.h"
#include "util/json.h"

namespace causumx {

/// Parses "Attr=value" / "Attr<value" / "Attr>=value" into a predicate
/// against the table's schema (categorical columns compare as strings,
/// numeric ones as doubles). Throws std::runtime_error on an unknown
/// attribute or missing operator.
SimplePredicate ParseWherePredicate(const std::string& expr,
                                    const Table& table);

/// Reads an integer spec field in [min, max] (absent = `fallback`).
/// Throws std::runtime_error naming the field on a fractional or
/// out-of-range value. The one integer reader for query and monitor
/// specs.
size_t ParseSpecCount(const JsonValue& holder, const std::string& key,
                      size_t fallback, size_t min,
                      size_t max = std::numeric_limits<size_t>::max());

/// One CauSumX query as a spec describes it: the aggregate view, its
/// causal DAG, and the knobs of Algorithm 1.
struct QuerySpec {
  GroupByAvgQuery query;  ///< group-by, AVG outcome, optional WHERE
  CausalDag dag;          ///< from "dag_text", "dag" or "discover"
  CauSumXConfig config;   ///< k, theta, support, alpha, allowlists, ...
};

/// Parses the query fields of a request or monitor spec (the field list
/// above, from "group_by" on) against `table`, which types the WHERE
/// predicate and feeds a "discover" run. The DAG source is "dag_text",
/// else a "dag" file, else "discover" (default nodag). Validation:
/// "group_by" is required and non-empty, "avg" is required, "k" is an
/// integer in [1, 1000] (the paper uses k <= 10; the bound keeps one
/// request's selection work small), "min_group_size" an integer >= 1, and
/// "num_threads" an integer >= 0 (absent = `default_threads`) clamped
/// to ThreadPool::DefaultThreads() — results are bit-identical for any
/// thread count. Throws std::runtime_error naming the field otherwise.
QuerySpec ParseQuerySpec(const JsonValue& spec, const Table& table,
                         size_t default_threads);

/// Execution knobs shared by RunBatch and the REST endpoints that
/// funnel into the same executor.
struct BatchOptions {
  /// Table used by requests that name neither "table" nor "csv".
  std::string default_table = "default";
  /// Echo engine/estimator cache counters into each result line.
  bool emit_cache_stats = false;
};

/// Aggregate outcome of one batch run.
struct BatchSummary {
  size_t requests = 0;   ///< non-empty input lines executed
  size_t succeeded = 0;  ///< result lines with "ok": true
  size_t failed = 0;     ///< result lines with "ok": false
};

/// Outcome of one executed request: `json_line` is the complete JSON
/// result document (one batch output line / one HTTP response body) and
/// `ok` mirrors its "ok" field.
struct RequestResult {
  bool ok = false;         ///< mirrors the result's "ok" field
  std::string json_line;   ///< the complete JSON result document
};

/// Executes one parsed query request (the JSONL line shape above, op
/// "query") against the service. Never throws: every failure — unknown
/// table, bad parameters, a mining error — is reported as
/// {"id", "ok": false, "error"}. `default_id` is echoed when the request
/// carries no "id". Shared by RunBatch and POST /v1/explain, which is
/// what keeps network answers bit-identical to batch/CLI output.
RequestResult ExecuteQueryRequest(ExplanationService& service,
                                  const JsonValue& request,
                                  const std::string& default_id,
                                  const BatchOptions& options = {});

/// Executes one append request ({"csv": path} or {"rows": [[...]]})
/// against table `table_name` (empty = the request's "table" field,
/// falling back to options.default_table). Same never-throws error
/// contract as ExecuteQueryRequest. Shared by the batch "op": "append"
/// lines and POST /v1/tables/{name}/append.
RequestResult ExecuteAppendRequest(ExplanationService& service,
                                   const JsonValue& request,
                                   const std::string& table_name,
                                   const std::string& default_id,
                                   const BatchOptions& options = {});

/// Executes every JSONL request from `in` against the service, streaming
/// one JSON result line per request to `out` in input order.
BatchSummary RunBatch(ExplanationService& service, std::istream& in,
                      std::ostream& out, const BatchOptions& options = {});

/// As RunBatch over a file path ("-" = stdin).
BatchSummary RunBatchFile(ExplanationService& service,
                          const std::string& path, std::ostream& out,
                          const BatchOptions& options = {});

}  // namespace causumx

#endif  // CAUSUMX_SERVICE_BATCH_H_
