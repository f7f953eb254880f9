#include "service/explanation_service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "causal/dag_io.h"
#include "dataset/table_io.h"
#include "storage/bytes.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "storage/storage_error.h"
#include "util/string_utils.h"

namespace causumx {

namespace {

// Canonical fingerprint of a context key: the DAG structure (sorted
// nodes and edges) plus every estimator knob. Structurally equal pairs
// share one EstimatorContext — and hence one CATE memo.
std::string ContextKey(const CausalDag& dag, const EstimatorOptions& opt) {
  std::vector<std::string> nodes = dag.nodes();
  std::sort(nodes.begin(), nodes.end());
  std::string key;
  for (const auto& n : nodes) {
    key += n;
    key.push_back('>');
    std::vector<std::string> children = dag.Children(n);
    std::sort(children.begin(), children.end());
    for (const auto& c : children) {
      key += c;
      key.push_back(',');
    }
    key.push_back(';');
  }
  key += StrFormat("|g%zu|s%zu|e%llu|h%zu|m%d|c%.17g", opt.min_group_size,
                   opt.sample_cap, (unsigned long long)opt.sample_seed,
                   opt.max_onehot_levels, static_cast<int>(opt.method),
                   opt.propensity_clip);
  return key;
}

// Segment storage policy of every service engine. The warm snapshot key
// records it ("|z<n>"), and a restored engine must store segments the
// same way.
constexpr SegmentCompression kSegmentCompression = SegmentCompression::kAuto;

// Warm-state snapshot container identity (storage/snapshot.h).
constexpr char kWarmSnapshotKind[] = "causumx-snapshot";
constexpr uint32_t kWarmSnapshotVersion = 1;

// The data part of a warm snapshot key (content hash, data version)
// alone decides whether a snapshot belongs to a table: the restore
// constructors check the engine-config rest themselves.
std::string DataKey(const Table& table) {
  return StrFormat("h%016llx|v%llu|",
                   (unsigned long long)TableContentHash(table),
                   (unsigned long long)table.version());
}

uint64_t NowUnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// The estimator knobs travel inside each context section so a restored
// context is constructed with exactly the options it was built under
// (ContextKey re-derivation then cross-checks them).
void PutEstimatorOptions(ByteWriter* w, const EstimatorOptions& opt) {
  w->PutVarint(opt.min_group_size);
  w->PutVarint(opt.sample_cap);
  w->PutU64(opt.sample_seed);
  w->PutVarint(opt.max_onehot_levels);
  w->PutU8(static_cast<uint8_t>(opt.method));
  w->PutDouble(opt.propensity_clip);
}

EstimatorOptions GetEstimatorOptions(ByteReader* r) {
  EstimatorOptions opt;
  opt.min_group_size = static_cast<size_t>(r->GetVarint());
  opt.sample_cap = static_cast<size_t>(r->GetVarint());
  opt.sample_seed = r->GetU64();
  opt.max_onehot_levels = static_cast<size_t>(r->GetVarint());
  const uint8_t method = r->GetU8();
  if (method > static_cast<uint8_t>(EstimationMethod::kIpw)) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "snapshot: unknown estimation method tag");
  }
  opt.method = static_cast<EstimationMethod>(method);
  opt.propensity_clip = r->GetDouble();
  return opt;
}

}  // namespace

ExplanationService::ExplanationService(ServiceOptions options)
    : options_(options),
      pool_(std::make_shared<ThreadPool>(
          options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                   : options.num_threads)) {}

EvalEngineOptions ExplanationService::EngineOptions() const {
  EvalEngineOptions options;
  options.cache_enabled = options_.cache_enabled;
  options.num_shards = options_.num_shards;
  options.pool = pool_;
  options.compression = kSegmentCompression;
  return options;
}

std::shared_ptr<const Table> ExplanationService::RegisterTable(
    const std::string& name, std::shared_ptr<const Table> table) {
  // With persistence on, seed the caches from the table's durable
  // snapshot — accepted only when the snapshot key proves it was taken
  // over this exact table content and version.
  const Table* content = table.get();
  return Install(name, std::move(table), ReadSnapshot(name, content),
                 /*replace=*/true);
}

std::shared_ptr<const Table> ExplanationService::RegisterTable(
    const std::string& name, Table table) {
  return RegisterTable(name,
                       std::make_shared<const Table>(std::move(table)));
}

std::shared_ptr<const Table> ExplanationService::LoadCsv(
    const std::string& name, const std::string& path,
    const CsvOptions& csv_options) {
  return RegisterTable(name, ReadCsvFile(path, csv_options));
}

std::shared_ptr<const Table> ExplanationService::EnsureCsv(
    const std::string& name, const std::string& path,
    const CsvOptions& csv_options) {
  {
    util::MutexLock lock(mu_);
    auto it = tables_.find(name);
    if (it != tables_.end()) return it->second.table;
  }
  // Parse outside the lock; concurrent callers may each parse, but only
  // the first registration sticks (never replace a live entry here).
  auto table = std::make_shared<const Table>(ReadCsvFile(path, csv_options));
  const Table* content = table.get();
  return Install(name, std::move(table), ReadSnapshot(name, content),
                 /*replace=*/false);
}

bool ExplanationService::HasTable(const std::string& name) const {
  util::MutexLock lock(mu_);
  return tables_.count(name) > 0;
}

void ExplanationService::DropTable(const std::string& name) {
  util::MutexLock lock(mu_);
  tables_.erase(name);
}

std::vector<std::string> ExplanationService::TableNames() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

std::vector<TableDescription> ExplanationService::DescribeTables() const {
  // One registry lock for the whole snapshot; the engine counter reads
  // (atomics + the engine's own interner lock) happen after mu_ is
  // released, keeping the critical section to shared_ptr copies.
  std::vector<std::pair<std::string, TableEntry>> entries;
  {
    util::MutexLock lock(mu_);
    entries.reserve(tables_.size());
    for (const auto& [name, entry] : tables_) entries.emplace_back(name, entry);
  }
  std::vector<TableDescription> out;
  out.reserve(entries.size());
  for (const auto& [name, entry] : entries) {
    TableDescription d;
    d.name = name;
    d.rows = entry.table->NumRows();
    d.columns = entry.table->NumColumns();
    d.version = entry.table->version();
    d.engine = entry.engine->Stats();
    out.push_back(std::move(d));
  }
  return out;
}

ExplanationService::TableEntry ExplanationService::Snapshot(
    const std::string& name) const {
  util::MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw std::out_of_range("explanation service: unknown table '" + name +
                            "'");
  }
  return it->second;
}

std::shared_ptr<const Table> ExplanationService::GetTable(
    const std::string& name) const {
  return Snapshot(name).table;
}

std::shared_ptr<EvalEngine> ExplanationService::Engine(
    const std::string& name) const {
  return Snapshot(name).engine;
}

ExplanationService::Resolved ExplanationService::Resolve(
    const std::string& name, const CausalDag& dag,
    const EstimatorOptions& options) {
  const std::string key = ContextKey(dag, options);  // built outside the lock
  util::MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw std::out_of_range("explanation service: unknown table '" + name +
                            "'");
  }
  auto& ctx = it->second.contexts[key];
  if (ctx == nullptr) {
    ctx = std::make_shared<EstimatorContext>(it->second.engine, dag, options);
  }
  return Resolved{it->second.table, it->second.engine, ctx};
}

std::shared_ptr<EstimatorContext> ExplanationService::Context(
    const std::string& name, const CausalDag& dag,
    const EstimatorOptions& options) {
  return Resolve(name, dag, options).context;
}

std::shared_ptr<const Table> ExplanationService::Append(
    const std::string& name, const std::vector<std::vector<Value>>& rows) {
  return Append(name, rows, nullptr);
}

std::shared_ptr<const Table> ExplanationService::Append(
    const std::string& name, const std::vector<std::vector<Value>>& rows,
    const Table* expected_base) {
  util::MutexLock append_lock(append_mu_);
  return AppendLocked(name, rows, expected_base);
}

std::shared_ptr<const Table> ExplanationService::AppendLocked(
    const std::string& name, const std::vector<std::vector<Value>>& rows,
    const Table* expected_base) {
  const TableEntry base = Snapshot(name);
  if (expected_base != nullptr && base.table.get() != expected_base) {
    throw std::runtime_error("explanation service: table '" + name +
                             "' changed during append");
  }

  // Copy-on-write: clone the snapshot and append to the clone, so every
  // in-flight query keeps reading a consistent base. All the expensive
  // work — the clone, the delta evaluation extending each cached bitset,
  // the memo migration — happens outside mu_, concurrently with queries.
  auto grown = std::make_shared<Table>(base.table->Clone());
  grown->AppendRows(rows);
  std::shared_ptr<const Table> new_table = std::move(grown);

  TableEntry entry;
  entry.table = new_table;
  entry.engine = std::make_shared<EvalEngine>(new_table, *base.engine);
  for (const auto& [key, ctx] : base.contexts) {
    entry.contexts[key] =
        std::make_shared<EstimatorContext>(entry.engine, *ctx);
  }

  {
    util::MutexLock lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end() || it->second.table != base.table) {
      // RegisterTable/DropTable replaced the entry mid-append. Installing
      // would silently clobber the newer registration, so refuse.
      throw std::runtime_error("explanation service: table '" + name +
                               "' changed during append");
    }
    it->second = std::move(entry);
  }
  n_appends_.fetch_add(1, std::memory_order_relaxed);
  n_rows_appended_.fetch_add(rows.size(), std::memory_order_relaxed);
  // Deliver the landed batch to the append observers, still under
  // append_mu_: deliveries are totally ordered and never concurrent, so
  // a windowed monitor replays the exact append sequence. A throwing
  // observer must not unwind an append that already landed.
  for (const AppendObserver& observer : append_observers_) {
    try {
      observer(name, rows, new_table);
    } catch (...) {
    }
  }
  EnforceBudget();
  if (!options_.data_dir.empty()) {
    // The append has landed in memory; a snapshot write failure must not
    // unwind it. The previous snapshot stays durable and self-consistent
    // (a restart restores the table as of that snapshot).
    try {
      SaveSnapshot(name);
    } catch (const StorageError&) {
    }
  }
  return new_table;
}

std::shared_ptr<const Table> ExplanationService::AppendCsv(
    const std::string& name, const std::string& path,
    const CsvOptions& csv_options, size_t* rows_appended) {
  // Snapshot and parse inside the append lock: the delta is validated
  // against this snapshot's schema and pinned to it, and a concurrent
  // append (which cannot change the schema) serializes behind us instead
  // of tripping the pinned-snapshot check.
  util::MutexLock append_lock(append_mu_);
  const std::shared_ptr<const Table> schema = Snapshot(name).table;
  const auto rows = ReadCsvDeltaFile(*schema, path, csv_options);
  if (rows_appended != nullptr) *rows_appended = rows.size();
  return AppendLocked(name, rows, schema.get());
}

uint64_t ExplanationService::TableVersion(const std::string& name) const {
  return Snapshot(name).table->version();
}

void ExplanationService::AddAppendObserver(AppendObserver observer) {
  util::MutexLock lock(append_mu_);
  append_observers_.push_back(std::move(observer));
}

std::string ExplanationService::SnapshotPath(const std::string& name) const {
  if (options_.data_dir.empty()) {
    throw std::logic_error("explanation service: no data_dir configured");
  }
  return options_.data_dir + "/" + EncodeFileStem(name) + ".snap";
}

std::string ExplanationService::WarmSnapshotKey(const Table& table) const {
  return DataKey(table) +
         StrFormat("s%zu|c%d|z%d", options_.num_shards,
                   options_.cache_enabled ? 1 : 0,
                   static_cast<int>(kSegmentCompression));
}

size_t ExplanationService::SaveSnapshot(const std::string& name) {
  const std::string path = SnapshotPath(name);
  const TableEntry entry = Snapshot(name);
  // All export work happens on the captured entry, outside every lock of
  // this class (the engine and contexts synchronize themselves).
  SnapshotWriter writer(kWarmSnapshotKind, kWarmSnapshotVersion,
                        WarmSnapshotKey(*entry.table));
  writer.AddSection("table", SerializeTable(*entry.table));
  writer.AddSection("engine", entry.engine->ExportCacheState());
  size_t ctx_index = 0;
  for (const auto& [key, ctx] : entry.contexts) {
    ByteWriter w;
    w.PutString(key);
    w.PutString(DagToText(ctx->dag()));
    PutEstimatorOptions(&w, ctx->options());
    w.PutString(ctx->ExportMemoState());
    writer.AddSection(StrFormat("ctx/%zu", ctx_index++), w.TakeBytes());
  }
  const std::string bytes = writer.Serialize();
  {
    util::MutexLock lock(snapshot_mu_);
    WriteFileDurable(path, bytes);
  }
  n_snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  last_snapshot_unix_ms_.store(NowUnixMs(), std::memory_order_relaxed);
  return bytes.size();
}

size_t ExplanationService::SaveAllSnapshots() {
  size_t written = 0;
  for (const std::string& name : TableNames()) {
    try {
      SaveSnapshot(name);
      ++written;
    } catch (const std::out_of_range&) {
      // Dropped between the listing and the save; nothing to persist.
    }
  }
  return written;
}

std::optional<SnapshotReader> ExplanationService::ReadSnapshot(
    const std::string& name, const Table* table) {
  if (options_.data_dir.empty()) return std::nullopt;
  const std::string path = SnapshotPath(name);
  if (!FileExists(path)) return std::nullopt;
  try {
    SnapshotReader snap = SnapshotReader::ReadFile(path, kWarmSnapshotKind,
                                                   kWarmSnapshotVersion);
    // A valid snapshot of different data (content or version) — e.g. the
    // CSV changed since it was written, or appends happened after the
    // source file was exported — is never trusted.
    if (table == nullptr || snap.key().rfind(DataKey(*table), 0) == 0) {
      return snap;
    }
  } catch (const std::runtime_error&) {
    // Damaged, truncated, or from another format version.
  }
  n_snapshots_rejected_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

std::shared_ptr<const Table> ExplanationService::Install(
    const std::string& name, std::shared_ptr<const Table> table,
    const std::optional<SnapshotReader>& snap, bool replace) {
  TableEntry entry;
  entry.table = std::move(table);
  if (snap) {
    try {
      entry.engine = std::make_shared<EvalEngine>(
          entry.table, EngineOptions(), snap->Section("engine"));
      for (const std::string& section : snap->SectionNames()) {
        if (section.rfind("ctx/", 0) != 0) continue;
        ByteReader r(snap->Section(section));
        const std::string ctx_key = r.GetString();
        const std::string dag_text = r.GetString();
        const EstimatorOptions opt = GetEstimatorOptions(&r);
        const std::string memo = r.GetString();
        if (!r.AtEnd()) {
          throw StorageError(StorageErrorKind::kCorrupt,
                             "snapshot: trailing bytes in context section");
        }
        const CausalDag dag = ParseDagText(dag_text);
        if (ContextKey(dag, opt) != ctx_key) {
          throw StorageError(StorageErrorKind::kCorrupt,
                             "snapshot: context fingerprint does not match "
                             "its DAG and options");
        }
        if (!entry.contexts
                 .emplace(ctx_key, std::make_shared<EstimatorContext>(
                                       entry.engine, dag, opt, memo))
                 .second) {
          throw StorageError(StorageErrorKind::kCorrupt,
                             "snapshot: duplicate context section");
        }
      }
      n_snapshots_restored_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::runtime_error&) {
      // Stale or damaged caches: the restore is all-or-nothing, so the
      // entry starts cold — results are identical, only warmth is lost.
      entry.engine = nullptr;
      entry.contexts.clear();
      n_snapshots_rejected_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (entry.engine == nullptr) {
    entry.engine = std::make_shared<EvalEngine>(entry.table, EngineOptions());
  }
  std::shared_ptr<const Table> handle = entry.table;
  {
    util::MutexLock lock(mu_);
    auto [it, inserted] = tables_.try_emplace(name);
    if (!inserted && !replace) return it->second.table;
    it->second = std::move(entry);
  }
  n_tables_.fetch_add(1, std::memory_order_relaxed);
  return handle;
}

size_t ExplanationService::RestoreAll() {
  if (options_.data_dir.empty()) {
    throw std::logic_error("explanation service: no data_dir configured");
  }
  size_t restored = 0;
  for (const std::string& file : ListDirFiles(options_.data_dir)) {
    constexpr char kSuffix[] = ".snap";
    constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
    if (file.size() <= kSuffixLen ||
        file.compare(file.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
      continue;  // stray .tmp from a killed writer, or foreign files
    }
    std::string name;
    try {
      name = DecodeFileStem(file.substr(0, file.size() - kSuffixLen));
    } catch (const StorageError&) {
      n_snapshots_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // The table comes from the snapshot alone, at its saved version. Its
    // section self-verified against its own key; the warm key's data part
    // must match it too, so caches spliced onto another table cannot pass.
    const std::optional<SnapshotReader> snap = ReadSnapshot(name, nullptr);
    if (!snap) continue;
    std::shared_ptr<const Table> table;
    try {
      table = std::make_shared<const Table>(
          DeserializeTable(snap->Section("table")));
    } catch (const std::runtime_error&) {
      // Damaged table section: stays null and is rejected below.
    }
    if (table == nullptr || snap->key().rfind(DataKey(*table), 0) != 0) {
      n_snapshots_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Install(name, std::move(table), snap, /*replace=*/true);
    ++restored;
  }
  return restored;
}

CauSumXResult ExplanationService::Explain(const std::string& table_name,
                                          const GroupByAvgQuery& query,
                                          const CausalDag& dag,
                                          const CauSumXConfig& config) {
  Resolved entry = Resolve(table_name, dag, config.estimator);
  // The service lends its pool (nested ParallelFor is deadlock-safe
  // because callers participate); the driver decides whether the query's
  // num_threads lets it run there.
  CauSumXResult result =
      RunCauSumX(*entry.table, query, dag, config, std::move(entry.engine),
                 std::move(entry.context), pool_.get());
  n_queries_.fetch_add(1, std::memory_order_relaxed);
  EnforceBudget();
  return result;
}

std::future<CauSumXResult> ExplanationService::ExplainAsync(
    const std::string& table_name, GroupByAvgQuery query, CausalDag dag,
    CauSumXConfig config) {
  auto task = std::make_shared<std::packaged_task<CauSumXResult()>>(
      [this, table_name, query = std::move(query), dag = std::move(dag),
       config = std::move(config)] {
        return Explain(table_name, query, dag, config);
      });
  std::future<CauSumXResult> future = task->get_future();
  pool_->Submit([task] { (*task)(); });
  return future;
}

ExplorationSession ExplanationService::OpenSession(
    const std::string& table_name, GroupByAvgQuery query, CausalDag dag,
    CauSumXConfig config) {
  Resolved entry = Resolve(table_name, dag, config.estimator);
  return ExplorationSession(std::move(entry.table), std::move(query),
                            std::move(dag), std::move(config),
                            std::move(entry.engine),
                            std::move(entry.context));
}

size_t ExplanationService::CacheBytes() const {
  std::vector<TableEntry> entries;
  {
    util::MutexLock lock(mu_);
    entries.reserve(tables_.size());
    for (const auto& [name, entry] : tables_) entries.push_back(entry);
  }
  size_t total = 0;
  for (const auto& entry : entries) {
    total += entry.engine->CacheBytes();
    for (const auto& [key, ctx] : entry.contexts) {
      total += ctx->CacheBytes();
    }
  }
  return total;
}

size_t ExplanationService::EnforceBudget() {
  if (options_.memory_budget_bytes == 0) return 0;
  // Work on a snapshot: eviction never needs the registry lock, so it can
  // run while other threads query. Races just mean a cache refills after
  // eviction; the next enforcement pass catches it.
  std::vector<std::shared_ptr<EvalEngine>> engines;
  std::vector<std::shared_ptr<EstimatorContext>> contexts;
  {
    util::MutexLock lock(mu_);
    for (const auto& [name, entry] : tables_) {
      engines.push_back(entry.engine);
      for (const auto& [key, ctx] : entry.contexts) {
        contexts.push_back(ctx);
      }
    }
  }
  auto total = [&] {
    size_t t = 0;
    for (const auto& e : engines) t += e->CacheBytes();
    for (const auto& c : contexts) t += c->CacheBytes();
    return t;
  };
  size_t freed_total = 0;
  size_t current = total();
  while (current > options_.memory_budget_bytes) {
    // Evict from the single largest consumer; repeat until under budget
    // or nothing is left to evict.
    size_t largest_bytes = 0;
    std::shared_ptr<EvalEngine> largest_engine;
    std::shared_ptr<EstimatorContext> largest_ctx;
    for (const auto& e : engines) {
      const size_t b = e->CacheBytes();
      if (b > largest_bytes) {
        largest_bytes = b;
        largest_engine = e;
        largest_ctx = nullptr;
      }
    }
    for (const auto& c : contexts) {
      const size_t b = c->CacheBytes();
      if (b > largest_bytes) {
        largest_bytes = b;
        largest_ctx = c;
        largest_engine = nullptr;
      }
    }
    if (largest_bytes == 0) break;
    const size_t need = current - options_.memory_budget_bytes;
    const size_t freed =
        largest_engine != nullptr
            ? largest_engine->EvictLru(std::min(need, largest_bytes))
            : largest_ctx->EvictLru(std::min(need, largest_bytes));
    if (freed == 0) break;
    freed_total += freed;
    current = total();
  }
  if (freed_total > 0) {
    n_enforcements_.fetch_add(1, std::memory_order_relaxed);
  }
  return freed_total;
}

ServiceStats ExplanationService::Stats() const {
  ServiceStats s;
  s.queries_executed = n_queries_.load(std::memory_order_relaxed);
  s.tables_registered = n_tables_.load(std::memory_order_relaxed);
  s.appends_executed = n_appends_.load(std::memory_order_relaxed);
  s.rows_appended = n_rows_appended_.load(std::memory_order_relaxed);
  s.budget_enforcements = n_enforcements_.load(std::memory_order_relaxed);
  s.cache_bytes = CacheBytes();
  s.snapshots_written = n_snapshots_written_.load(std::memory_order_relaxed);
  s.snapshots_restored = n_snapshots_restored_.load(std::memory_order_relaxed);
  s.snapshots_rejected = n_snapshots_rejected_.load(std::memory_order_relaxed);
  s.last_snapshot_unix_ms =
      last_snapshot_unix_ms_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace causumx
