// Continuous explanation monitoring over windowed streams.
//
// A StreamMonitor watches one registered table of an ExplanationService
// and maintains a CauSumX explanation summary over a row-count window of
// the table's append stream — tumbling (disjoint windows of W rows) or
// sliding (a W-row window advancing S rows at a time). The monitor owns
// its own window Table / EvalEngine / EstimatorContext triple and walks
// it incrementally:
//
//   * Appends extend the triple through the engine's and the context's
//     rebind constructors: cached predicate segments evaluate only the
//     delta rows and carried CATE memo entries stay warm.
//   * At each window boundary the expired prefix is retracted:
//     Table::Tail rebuilds the surviving rows, and the same rebind
//     constructors, given the dropped_prefix_rows, carry over exactly
//     the cache and memo state that is still valid — a subpopulation
//     that lost rows is invalidated precisely, everything else shifts
//     down and stays a memo hit. Expiry also *shrinks* the accounted
//     resident bytes: a rebind restarts byte accounting from the
//     carried (smaller) state.
//   * The summary is then re-mined over the window through the warm
//     caches. Only dirty groups — grouping patterns whose subpopulation
//     actually gained or lost rows — recompute their CATEs; the rest are
//     memo hits. The result is bit-identical to running CauSumX from
//     scratch over exactly the surviving window rows (the differential
//     property harness in tests/test_property_windows.cpp enforces
//     this).
//
// After each evaluated window the monitor diffs the new summary against
// the previous window's and emits drift events: a per-grouping-pattern
// CATE change at least `cate_delta`, or a top-k membership churn of at
// least `topk_churn`. Events carry a monotone per-monitor sequence
// number and the window's stream-row range — no wall-clock fields, so
// event streams replay deterministically.
//
// MonitorRegistry owns the monitors, feeds them synchronously from the
// service's append observer hook (deliveries are ordered and never
// concurrent — see ExplanationService::AddAppendObserver), serves the
// long-poll event subscription the REST layer exposes, and persists all
// monitor state into the service data_dir for warm restarts.

#ifndef CAUSUMX_STREAM_MONITOR_H_
#define CAUSUMX_STREAM_MONITOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "causal/dag.h"
#include "causal/estimator_context.h"
#include "core/causumx.h"
#include "dataset/table.h"
#include "engine/eval_engine.h"
#include "service/explanation_service.h"
#include "util/json.h"
#include "util/thread_annotations.h"

namespace causumx {

/// Window retention policy of one monitor, in row counts.
struct WindowSpec {
  /// kTumbling evaluates disjoint windows [0,W), [W,2W), ...; kSliding
  /// evaluates a W-row window every S appended rows: [0,W), [S,W+S), ...
  enum class Kind { kTumbling, kSliding };
  /// Which retention policy the window follows.
  Kind kind = Kind::kTumbling;
  /// W: rows per evaluated window. Must be >= 1.
  size_t size_rows = 0;
  /// S: rows between window boundaries; 1 <= S <= W. Forced to W for
  /// tumbling windows.
  size_t slide_rows = 0;
};

/// Drift thresholds of one monitor; 0 disables the respective detector.
struct MonitorThresholds {
  /// Emit a `cate_drift` event when a grouping pattern present in two
  /// consecutive summaries changes its (positive or negative) treatment
  /// CATE by at least this absolute amount.
  double cate_delta = 0.0;
  /// Emit a `topk_churn` event when at least this fraction of the new
  /// summary's grouping patterns were absent from the previous one.
  double topk_churn = 0.0;
};

/// One emitted monitor event: the monotone per-monitor sequence number
/// and the rendered JSON object (which embeds the same `seq`).
struct MonitorEvent {
  /// Monotone per-monitor sequence number, starting at 1.
  uint64_t seq = 0;
  /// The rendered event object, exactly as served over the REST API.
  std::string json;
};

/// Point-in-time description of one monitor.
struct MonitorStatus {
  std::string id;                  ///< registry-assigned identifier
  std::string table;               ///< watched table name
  uint64_t rows_observed = 0;      ///< stream rows seen since creation
  uint64_t windows_evaluated = 0;  ///< boundaries processed so far
  uint64_t last_seq = 0;           ///< newest event seq (0 = none yet)
  size_t window_rows = 0;          ///< rows currently held in the window
  size_t events_buffered = 0;      ///< events currently in the buffer
  size_t cache_bytes = 0;          ///< resident window cache bytes
};

/// A single windowed monitor. Thread-safe: OnAppend (serialized by the
/// service's append lock), status/event reads, and the long-poll wait
/// may run concurrently.
class StreamMonitor {
 public:
  /// Parses and validates `spec_json` (see docs/API.md for the schema):
  /// the query fields (group_by, avg, where, dag_text|dag|discover, k,
  /// theta, support, alpha, grouping_attrs, treatment_attrs,
  /// per_group_patterns, min_group_size, num_threads) go through
  /// ParseQuerySpec (service/batch.h), the same parser as an explain
  /// request; the monitor reads only its own fields: table, window
  /// {kind,size_rows,slide_rows}, thresholds {cate_delta,topk_churn},
  /// emit_summaries, max_events, num_shards, compression.
  /// `bound_table` is the watched table at creation time — it supplies
  /// the window schema, WHERE-predicate typing, and the data a
  /// "discover" DAG is learned from; the window itself starts empty and
  /// fills from appends observed after creation. `mining_pool`
  /// (optional) is lent to window evaluation; CauSumXConfig::num_threads
  /// says when it runs there. Throws std::runtime_error on an invalid spec.
  StreamMonitor(std::string id, std::string spec_json,
                const Table& bound_table, ThreadPool* mining_pool);

  StreamMonitor(const StreamMonitor&) = delete;
  StreamMonitor& operator=(const StreamMonitor&) = delete;

  /// Registry-assigned identifier ("m1", "m2", ...).
  const std::string& id() const { return id_; }
  /// Name of the watched table.
  const std::string& table() const { return table_name_; }
  /// The creation spec, verbatim.
  const std::string& spec_json() const { return spec_json_; }

  /// Feeds one landed append batch. Appends rows to the window in
  /// boundary-sized pieces; each time the stream position reaches a
  /// window boundary, expires rows that left the window, re-mines the
  /// summary through the warm caches, diffs it against the previous
  /// window, and emits events. The caller (MonitorRegistry via the
  /// service append observer) guarantees calls are ordered and never
  /// concurrent with each other.
  void OnAppend(const std::vector<std::vector<Value>>& rows)
      CAUSUMX_EXCLUDES(mu_);

  /// Current status snapshot.
  MonitorStatus Status() const CAUSUMX_EXCLUDES(mu_);

  /// Buffered events with seq > `since`, in seq order. The buffer keeps
  /// the newest `max_events` events (spec knob, default 4096): when a
  /// reader falls further behind, the oldest events are dropped and the
  /// first returned seq exceeds `since + 1` — the gap is detectable
  /// from the seq numbers alone.
  std::vector<MonitorEvent> EventsSince(uint64_t since) const
      CAUSUMX_EXCLUDES(mu_);

  /// Long-poll variant: blocks until an event with seq > `since` exists
  /// or `timeout_ms` elapses, then returns like EventsSince (possibly
  /// empty on timeout).
  std::vector<MonitorEvent> WaitEventsSince(uint64_t since,
                                            int64_t timeout_ms)
      CAUSUMX_EXCLUDES(mu_);

  /// Serializes the full monitor state — id, spec, stream counters,
  /// window table, warm engine/memo caches, diff baseline, and the
  /// event buffer — for MonitorRegistry::SaveSnapshot.
  std::string ExportState() const CAUSUMX_EXCLUDES(mu_);

  /// Restores state exported by ExportState into a freshly constructed
  /// monitor (same id and spec; nothing observed yet). The warm caches
  /// restore through the engine and context restore constructors when
  /// they construct and start cold otherwise — restored monitors produce
  /// bit-identical summaries either way. Throws
  /// StorageError(kCorrupt/kStale) on damage or an id/spec mismatch,
  /// before any member changes (the registry then skips the monitor).
  void ImportState(const std::string& bytes) CAUSUMX_EXCLUDES(mu_);

 private:
  /// Per-grouping-pattern CATEs of one summary (the drift baseline).
  struct SideEffects {
    bool has_positive = false;
    double positive = 0.0;
    bool has_negative = false;
    double negative = 0.0;
  };

  /// Fresh (cold) engine options over the current window.
  EvalEngineOptions EngineOptions() const;

  /// Appends `rows[begin, end)` to the window table, migrating the
  /// engine and context through the grow-only delta constructors (or
  /// building them fresh on the first non-empty window).
  void AppendToWindowLocked(const std::vector<std::vector<Value>>& rows,
                            size_t begin, size_t end) CAUSUMX_REQUIRES(mu_);

  /// Expires the first `drop` window rows through Table::Tail and the
  /// retraction constructors.
  void CompactLocked(size_t drop) CAUSUMX_REQUIRES(mu_);

  /// Mines the current window, diffs against the previous summary, and
  /// emits events for window index `window_index` spanning stream rows
  /// [window_begin, window_end).
  void EvaluateWindowLocked(uint64_t window_index, uint64_t window_begin,
                            uint64_t window_end) CAUSUMX_REQUIRES(mu_);

  /// Opens an event object in `w` (seq, monitor, type, window fields),
  /// consuming the next seq; the caller adds type-specific members and
  /// finishes with PushEventLocked.
  uint64_t BeginEventLocked(JsonWriter& w, const char* type,
                            uint64_t window_index, uint64_t window_begin,
                            uint64_t window_end) CAUSUMX_REQUIRES(mu_);

  /// Closes the event object, appends it to the buffer (trimming to
  /// max_events), and wakes long-poll waiters.
  void PushEventLocked(uint64_t seq, JsonWriter& w) CAUSUMX_REQUIRES(mu_);

  /// EventsSince body; the caller holds mu_.
  std::vector<MonitorEvent> EventsSinceLocked(uint64_t since) const
      CAUSUMX_REQUIRES(mu_);

  const std::string id_;
  const std::string spec_json_;

  // Parsed spec (immutable after construction).
  std::string table_name_;
  GroupByAvgQuery query_;
  CausalDag dag_;
  CauSumXConfig config_;
  WindowSpec window_;
  MonitorThresholds thresholds_;
  bool emit_summaries_ = false;
  size_t max_events_ = 4096;
  SegmentCompression compression_ = SegmentCompression::kAuto;
  std::vector<std::pair<std::string, ColumnType>> schema_;
  ThreadPool* mining_pool_ = nullptr;

  mutable util::Mutex mu_;
  mutable util::CondVar events_cv_;
  std::shared_ptr<const Table> window_table_ CAUSUMX_GUARDED_BY(mu_);
  std::shared_ptr<EvalEngine> engine_ CAUSUMX_GUARDED_BY(mu_);
  std::shared_ptr<EstimatorContext> context_ CAUSUMX_GUARDED_BY(mu_);
  /// Stream rows observed since creation (== the stream position).
  uint64_t rows_observed_ CAUSUMX_GUARDED_BY(mu_) = 0;
  /// Stream index of window row 0.
  uint64_t window_begin_ CAUSUMX_GUARDED_BY(mu_) = 0;
  /// Next stream position at which a window evaluates (W, W+S, ...).
  uint64_t next_boundary_ CAUSUMX_GUARDED_BY(mu_) = 0;
  uint64_t windows_evaluated_ CAUSUMX_GUARDED_BY(mu_) = 0;
  /// Previous window's per-grouping-pattern CATEs, keyed by the
  /// pattern's canonical rendering (value-based, so keys survive window
  /// compaction's dictionary re-coding). std::map: diff iteration order
  /// is deterministic.
  std::map<std::string, SideEffects> prev_effects_ CAUSUMX_GUARDED_BY(mu_);
  /// Previous window's grouping patterns in summary order.
  std::vector<std::string> prev_topk_ CAUSUMX_GUARDED_BY(mu_);
  bool have_prev_ CAUSUMX_GUARDED_BY(mu_) = false;
  std::deque<MonitorEvent> events_ CAUSUMX_GUARDED_BY(mu_);
  /// Seq the next event receives; seqs start at 1.
  uint64_t next_seq_ CAUSUMX_GUARDED_BY(mu_) = 1;
};

/// Owns the monitors of one ExplanationService and feeds them from its
/// append stream.
///
/// Thread-safe. The registry registers an append observer on the
/// service at construction; since observers cannot be removed, the
/// registry must outlive the service's last append (in practice: create
/// it right after the service and destroy it after all appends stop).
class MonitorRegistry {
 public:
  /// Binds to `service` and registers the append observer that drives
  /// every monitor. With a service data_dir, every append batch that
  /// reaches a monitor persists all monitors (SaveSnapshot; a write
  /// failure is swallowed like the service's own per-append snapshot).
  explicit MonitorRegistry(ExplanationService& service);

  MonitorRegistry(const MonitorRegistry&) = delete;
  MonitorRegistry& operator=(const MonitorRegistry&) = delete;

  /// Creates a monitor from `spec_json` (the REST POST /v1/monitors
  /// body, verbatim — the CLI and tests compose the same document) and
  /// assigns it the next id. The watched table must be registered.
  /// Throws std::runtime_error on an invalid spec and
  /// std::out_of_range on an unknown table.
  std::shared_ptr<StreamMonitor> Create(const std::string& spec_json);

  /// The monitor with this id, or null when absent.
  std::shared_ptr<StreamMonitor> Get(const std::string& id) const;

  /// Removes the monitor; returns false when absent. A removed monitor
  /// stops receiving appends; outstanding shared_ptr holders (e.g. a
  /// long-poll in flight) keep it alive until they drop it.
  bool Remove(const std::string& id);

  /// All monitors, ordered by id.
  std::vector<std::shared_ptr<StreamMonitor>> List() const;

  /// Persists every monitor's full state into one durable file under
  /// the service data_dir (`causumx-monitors.monsnap`; crash-safe
  /// write-to-temp + rename like every snapshot). Returns the bytes
  /// written. Throws std::logic_error without a data_dir and
  /// StorageError(kIo) on write failure.
  size_t SaveSnapshot();

  /// Restores monitors from the registry snapshot file; returns how
  /// many were restored. Monitors whose table is no longer registered
  /// or whose payload is damaged are skipped — a snapshot is never
  /// partially trusted for a monitor. A missing or unreadable file
  /// restores nothing. Throws std::logic_error without a data_dir.
  size_t RestoreMonitors();

 private:
  /// The append-observer body: routes the batch to every monitor of the
  /// table, then persists when the service has a data_dir.
  void OnAppend(const std::string& name,
                const std::vector<std::vector<Value>>& rows);

  /// The registry snapshot path under the service data_dir.
  std::string SnapshotFilePath() const;

  ExplanationService& service_;
  mutable util::Mutex mu_;
  std::map<std::string, std::shared_ptr<StreamMonitor>> monitors_
      CAUSUMX_GUARDED_BY(mu_);
  uint64_t next_id_ CAUSUMX_GUARDED_BY(mu_) = 1;
  /// Serializes snapshot file writes (one shared .tmp per target).
  util::Mutex snapshot_mu_;
};

}  // namespace causumx

#endif  // CAUSUMX_STREAM_MONITOR_H_
