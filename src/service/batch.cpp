#include "service/batch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "causal/dag_io.h"
#include "causal/discovery.h"
#include "core/json_export.h"
#include "storage/storage_error.h"
#include "util/json.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace causumx {

SimplePredicate ParseWherePredicate(const std::string& expr,
                                    const Table& table) {
  static const std::pair<const char*, CompareOp> kOps[] = {
      {">=", CompareOp::kGe}, {"<=", CompareOp::kLe}, {"=", CompareOp::kEq},
      {"<", CompareOp::kLt},  {">", CompareOp::kGt},
  };
  for (const auto& [symbol, op] : kOps) {
    const size_t pos = expr.find(symbol);
    if (pos == std::string::npos) continue;
    const std::string attr = Trim(expr.substr(0, pos));
    const std::string value = Trim(expr.substr(pos + std::strlen(symbol)));
    auto idx = table.ColumnIndex(attr);
    if (!idx) throw std::runtime_error("where: unknown attribute " + attr);
    if (table.column(*idx).type() == ColumnType::kCategorical) {
      return SimplePredicate(attr, op, Value(value));
    }
    return SimplePredicate(attr, op, Value(std::stod(value)));
  }
  throw std::runtime_error("where: no operator found in '" + expr + "'");
}

size_t ParseSpecCount(const JsonValue& holder, const std::string& key,
                      size_t fallback, size_t min, size_t max) {
  const double v = holder.GetNumber(key, static_cast<double>(fallback));
  // 2^64 is the first double past size_t; casting it or more is UB.
  if (!(v >= static_cast<double>(min)) || v != std::floor(v) ||
      v >= 18446744073709551616.0 || static_cast<size_t>(v) > max) {
    throw std::runtime_error(
        max == std::numeric_limits<size_t>::max()
            ? StrFormat("\"%s\" must be an integer >= %zu", key.c_str(), min)
            : StrFormat("\"%s\" must be an integer in [%zu, %zu]",
                        key.c_str(), min, max));
  }
  return static_cast<size_t>(v);
}

namespace {

// A list-of-names field: a JSON array or an "A,B" comma string.
std::vector<std::string> ParseNameList(const JsonValue& field) {
  std::vector<std::string> out;
  if (field.kind() == JsonValue::Kind::kArray) {
    for (const auto& v : field.AsArray()) out.push_back(v.AsString());
  } else {
    for (auto& part : Split(field.AsString(), ',')) out.push_back(Trim(part));
  }
  return out;
}

}  // namespace

QuerySpec ParseQuerySpec(const JsonValue& spec, const Table& table,
                         size_t default_threads) {
  QuerySpec out;
  GroupByAvgQuery& query = out.query;
  const JsonValue* group_by = spec.Find("group_by");
  if (group_by == nullptr) {
    throw std::runtime_error("\"group_by\" is required");
  }
  query.group_by = ParseNameList(*group_by);
  if (query.group_by.empty()) {
    throw std::runtime_error("\"group_by\" is empty");
  }
  query.avg_attribute = spec.GetString("avg");
  if (query.avg_attribute.empty()) {
    throw std::runtime_error("\"avg\" is required");
  }
  const std::string where = spec.GetString("where");
  if (!where.empty()) {
    query.where = Pattern({ParseWherePredicate(where, table)});
  }

  CauSumXConfig& config = out.config;
  config.k = ParseSpecCount(spec, "k", config.k, 1, 1000);
  config.theta = spec.GetNumber("theta", config.theta);
  config.apriori_support = spec.GetNumber("support", config.apriori_support);
  config.treatment.alpha = spec.GetNumber("alpha", config.treatment.alpha);
  if (const JsonValue* attrs = spec.Find("grouping_attrs")) {
    config.grouping_attribute_allowlist = ParseNameList(*attrs);
  }
  if (const JsonValue* attrs = spec.Find("treatment_attrs")) {
    config.treatment_attribute_allowlist = ParseNameList(*attrs);
  }
  config.grouping.include_per_group_patterns = spec.GetBool(
      "per_group_patterns", config.grouping.include_per_group_patterns);
  config.estimator.min_group_size = ParseSpecCount(
      spec, "min_group_size", config.estimator.min_group_size, 1);
  config.num_threads =
      std::min(ParseSpecCount(spec, "num_threads", default_threads, 0),
               ThreadPool::DefaultThreads());

  // Last: a "discover" run is the one costly step, so every cheap field
  // is validated before it.
  if (const std::string text = spec.GetString("dag_text"); !text.empty()) {
    out.dag = ParseDagText(text);
  } else if (const std::string path = spec.GetString("dag"); !path.empty()) {
    out.dag = ReadDagFile(path);
  } else {
    const std::string discover = spec.GetString("discover");
    out.dag = DiscoverDag(table,
                          discover.empty() ? DiscoveryAlgorithm::kNoDag
                                           : ParseDiscoveryAlgorithm(discover),
                          query.avg_attribute);
  }
  return out;
}

namespace {

// Coerces a JSON array-of-arrays into schema-ordered append rows:
// numbers into numeric columns, strings into categorical ones, null
// anywhere. Type mismatches throw (Table::AppendRows re-validates).
std::vector<std::vector<Value>> ParseJsonRows(const JsonValue& rows_json,
                                              const Table& schema) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(rows_json.AsArray().size());
  for (const JsonValue& row_json : rows_json.AsArray()) {
    const std::vector<JsonValue>& cells = row_json.AsArray();
    if (cells.size() != schema.NumColumns()) {
      throw std::runtime_error(StrFormat(
          "append row %zu has %zu cells, table has %zu columns",
          rows.size() + 1, cells.size(), schema.NumColumns()));
    }
    std::vector<Value> row(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      const JsonValue& cell = cells[c];
      if (cell.is_null()) continue;
      switch (schema.column(c).type()) {
        case ColumnType::kInt64: {
          // Match the CSV delta path's strictness: reject fractional
          // values instead of truncating, and bound to the +-2^53 range
          // where doubles hold integers exactly (JSON numbers arrive as
          // double, so anything larger has already lost digits; the cast
          // is also UB past int64 range).
          const double d = cell.AsNumber();
          if (d != std::floor(d) || d < -9007199254740992.0 ||
              d > 9007199254740992.0) {
            throw std::runtime_error(StrFormat(
                "append row %zu column '%s': %g is not an exactly "
                "representable integer",
                rows.size() + 1, schema.column(c).name().c_str(), d));
          }
          row[c] = Value(static_cast<int64_t>(d));
          break;
        }
        case ColumnType::kDouble:
          row[c] = Value(cell.AsNumber());
          break;
        case ColumnType::kCategorical:
          row[c] = Value(cell.AsString());
          break;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

RequestResult ErrorLine(const std::string& id, const std::string& what) {
  RequestResult result;
  result.json_line =
      StrFormat("{\"id\":\"%s\",\"ok\":false,\"error\":\"%s\"}",
                JsonEscape(id).c_str(), JsonEscape(what).c_str());
  return result;
}

// `parsed` carries the line's pre-parsed JSON when RunBatch already has
// it (it peeks at every line for the append barrier); null re-parses —
// and surfaces the parse error — here.
RequestResult ExecuteRequest(ExplanationService& service,
                             const std::string& line,
                             std::shared_ptr<const JsonValue> parsed,
                             size_t line_number,
                             const BatchOptions& options) {
  std::string id = StrFormat("%zu", line_number);
  try {
    if (parsed == nullptr) {
      parsed = std::make_shared<const JsonValue>(JsonValue::Parse(line));
    }
    const JsonValue& request = *parsed;
    id = request.GetString("id", id);

    const std::string op = request.GetString("op", "query");
    if (op == "append") {
      return ExecuteAppendRequest(service, request, "", id, options);
    }
    if (op != "query") throw std::runtime_error("unknown op \"" + op + "\"");
    return ExecuteQueryRequest(service, request, id, options);
  } catch (const std::exception& e) {
    return ErrorLine(id, e.what());
  }
}

}  // namespace

RequestResult ExecuteQueryRequest(ExplanationService& service,
                                  const JsonValue& request,
                                  const std::string& default_id,
                                  const BatchOptions& options) {
  RequestResult result;
  std::string id = default_id;
  try {
    id = request.GetString("id", id);

    std::string table_name = request.GetString("table");
    const std::string csv_path = request.GetString("csv");
    if (table_name.empty()) {
      table_name = csv_path.empty() ? options.default_table : csv_path;
    }
    std::shared_ptr<const Table> table;
    if (!csv_path.empty()) {
      // Race-free: concurrent requests naming the same CSV share the
      // first registration instead of clobbering each other's caches.
      table = service.EnsureCsv(table_name, csv_path);
    } else if (service.HasTable(table_name)) {
      table = service.GetTable(table_name);
    } else {
      throw std::runtime_error("unknown table '" + table_name +
                               "' and no \"csv\" to load");
    }

    const QuerySpec spec = ParseQuerySpec(request, *table, 1);

    Timer timer;
    const CauSumXResult run =
        service.Explain(table_name, spec.query, spec.dag, spec.config);
    const double elapsed_ms = timer.Seconds() * 1000.0;

    std::ostringstream oss;
    oss << "{\"id\":\"" << JsonEscape(id) << "\",\"table\":\""
        << JsonEscape(table_name) << "\",\"ok\":true,\"elapsed_ms\":"
        << FormatDouble(elapsed_ms, 3)
        << ",\"summary\":" << SummaryToJson(run.summary, &spec.query);
    if (options.emit_cache_stats) {
      const EvalEngineStats& e = run.cache_stats.eval;
      const EstimatorCacheStats& m = run.cache_stats.estimator;
      oss << ",\"cache\":{\"bitset_hits\":" << e.bitset_hits
          << ",\"bitsets_materialized\":" << e.bitsets_materialized
          << ",\"bitset_bytes\":" << e.bitset_bytes
          << ",\"memo_hits\":" << m.memo_hits
          << ",\"memo_misses\":" << m.memo_misses
          << ",\"memo_bytes\":" << m.memo_bytes << "}";
    }
    oss << "}";
    result.ok = true;
    result.json_line = oss.str();
  } catch (const std::exception& e) {
    return ErrorLine(id, e.what());
  }
  return result;
}

RequestResult ExecuteAppendRequest(ExplanationService& service,
                                   const JsonValue& request,
                                   const std::string& table_name,
                                   const std::string& default_id,
                                   const BatchOptions& options) {
  RequestResult result;
  std::string id = default_id;
  try {
    id = request.GetString("id", id);

    std::string table = table_name;
    if (table.empty()) table = request.GetString("table");
    if (table.empty()) table = options.default_table;

    const std::string csv_path = request.GetString("csv");
    const JsonValue* rows_json = request.Find("rows");

    Timer timer;
    std::shared_ptr<const Table> grown;
    size_t rows_appended = 0;
    if (!csv_path.empty()) {
      grown = service.AppendCsv(table, csv_path, {}, &rows_appended);
    } else if (rows_json != nullptr) {
      const std::shared_ptr<const Table> schema = service.GetTable(table);
      const auto rows = ParseJsonRows(*rows_json, *schema);
      rows_appended = rows.size();
      // Pin to the schema the cells were coerced against (same race as
      // the CSV path: a concurrent re-registration must not get
      // stale-typed rows).
      grown = service.Append(table, rows, schema.get());
    } else {
      throw std::runtime_error("append needs \"csv\" or \"rows\"");
    }
    result.ok = true;
    result.json_line = StrFormat(
        "{\"id\":\"%s\",\"table\":\"%s\",\"ok\":true,\"op\":\"append\","
        "\"rows_appended\":%zu,\"rows_total\":%zu,\"version\":%llu,"
        "\"elapsed_ms\":%s}",
        JsonEscape(id).c_str(), JsonEscape(table).c_str(), rows_appended,
        grown->NumRows(), (unsigned long long)grown->version(),
        FormatDouble(timer.Seconds() * 1000.0, 3).c_str());
  } catch (const std::exception& e) {
    return ErrorLine(id, e.what());
  }
  return result;
}

BatchSummary RunBatch(ExplanationService& service, std::istream& in,
                      std::ostream& out, const BatchOptions& options) {
  // Collect the lines first, then fan out: requests run concurrently on
  // callers of the service pool via std::async-free futures, and results
  // stream back in input order. Append ops are barriers: all earlier
  // requests drain before the append lands (they query the pre-append
  // snapshot), and later requests see the grown table — the file reads
  // top-to-bottom like a stream of events.
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    lines.push_back(line);
  }
  // EOF and a failed read both end the getline loop; only EOF means the
  // whole file was seen. A mid-stream failure must not silently run a
  // truncated batch.
  if (in.bad()) {
    throw StorageError(StorageErrorKind::kIo,
                       "batch: stream read failed mid-file (badbit set after "
                       "reading " +
                           std::to_string(lines.size()) + " lines)");
  }

  BatchSummary summary;
  summary.requests = lines.size();

  std::vector<std::future<RequestResult>> pending;
  auto emit = [&](RequestResult r) {
    out << r.json_line << "\n";
    out.flush();
    if (r.ok) {
      ++summary.succeeded;
    } else {
      ++summary.failed;
    }
  };
  auto drain = [&] {
    for (auto& f : pending) emit(f.get());
    pending.clear();
  };

  for (size_t i = 0; i < lines.size(); ++i) {
    // Parse once, up front: the barrier check needs the op field, and the
    // executor reuses the parsed value. A malformed line is not a
    // barrier; it fails inside ExecuteRequest like any other bad request.
    std::shared_ptr<const JsonValue> parsed;
    bool is_append = false;
    try {
      parsed = std::make_shared<const JsonValue>(JsonValue::Parse(lines[i]));
      is_append = parsed->GetString("op") == "append";
    } catch (...) {
      // Unparsable line or non-string "op": ExecuteRequest reports it.
    }
    if (is_append) {
      drain();
      emit(ExecuteRequest(service, lines[i], parsed, i + 1, options));
      continue;
    }
    auto task = std::make_shared<std::packaged_task<RequestResult()>>(
        [&service, &options, text = lines[i], parsed, i] {
          return ExecuteRequest(service, text, parsed, i + 1, options);
        });
    pending.push_back(task->get_future());
    service.pool().Submit([task] { (*task)(); });
  }
  drain();
  return summary;
}

BatchSummary RunBatchFile(ExplanationService& service,
                          const std::string& path, std::ostream& out,
                          const BatchOptions& options) {
  if (path == "-") return RunBatch(service, std::cin, out, options);
  std::ifstream f(path);
  if (!f) throw std::runtime_error("batch: cannot open " + path);
  return RunBatch(service, f, out, options);
}

}  // namespace causumx
