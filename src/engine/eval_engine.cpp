#include "engine/eval_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "storage/bytes.h"
#include "storage/storage_error.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace causumx {

namespace {

// Structural key of an atomic predicate. '\0' separators keep
// ("AB", "=", "c") and ("A", "=", "Bc") distinct. Numeric constants are
// encoded exactly (doubles by bit pattern) — Value::ToString rounds to 6
// significant digits, which would conflate distinct thresholds and make
// the cached path serve the wrong bitset.
std::string PredicateKey(const SimplePredicate& p) {
  std::string key = p.attribute;
  key.push_back('\0');
  key.push_back(static_cast<char>('0' + static_cast<int>(p.op)));
  key.push_back('\0');
  const Value& v = p.value;
  if (v.is_double()) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "d%016llx",
                  (unsigned long long)std::bit_cast<uint64_t>(v.AsDouble()));
    key += buf;
  } else if (v.is_int()) {
    key.push_back('i');
    key += std::to_string(v.AsInt());
  } else if (v.is_string()) {
    key.push_back('s');
    key += v.AsString();
  } else {
    key.push_back('n');
  }
  return key;
}

ShardPlan PlanFor(const Table& table, const EvalEngineOptions& options) {
  const size_t auto_shards =
      options.pool != nullptr ? options.pool->NumThreads() : 1;
  return ShardPlan::ForShardCount(table.NumRows(), options.num_shards,
                                  auto_shards);
}

}  // namespace

EvalEngine::EvalEngine(const Table& table, EvalEngineOptions options)
    // Aliasing shared_ptr with no owner: the caller keeps `table` alive.
    : EvalEngine(std::shared_ptr<const Table>(std::shared_ptr<const Table>(),
                                              &table),
                 std::move(options)) {}

EvalEngine::EvalEngine(std::shared_ptr<const Table> table,
                       EvalEngineOptions options)
    : keepalive_(std::move(table)),
      table_(*keepalive_),
      cache_enabled_(options.cache_enabled),
      compression_(options.compression),
      plan_(PlanFor(*keepalive_, options)),
      pool_(std::move(options.pool)) {
  column_slots_.resize(table_.NumColumns());
}

EvalEngine::EvalEngine(std::shared_ptr<const Table> table,
                       const EvalEngine& base, size_t dropped_prefix_rows)
    : keepalive_(std::move(table)),
      table_(*keepalive_),
      cache_enabled_(base.cache_enabled_),
      compression_(base.compression_),
      // The base shard size is block-aligned already, so this equals
      // base.plan_.Extended(): shard boundaries survive every rebind.
      plan_(keepalive_->NumRows(), base.plan_.shard_rows()),
      pool_(base.pool_) {
  const size_t old_rows = base.table_.NumRows();
  const size_t new_rows = table_.NumRows();
  const size_t dropped = dropped_prefix_rows;
  const bool grows = dropped == 0 && new_rows >= old_rows;
  const bool retracts = dropped <= old_rows && new_rows == old_rows - dropped;
  if ((!grows && !retracts) ||
      table_.NumColumns() != base.table_.NumColumns()) {
    throw std::invalid_argument(
        "EvalEngine rebind: table is neither the base table grown by "
        "appended rows nor the base table minus its dropped prefix");
  }
  // Rows [0, kept) survive from the base (row k is base row k + dropped);
  // rows [kept, new_rows) were appended.
  const size_t kept = old_rows - dropped;

  // Inherit the intern table (ids must survive so EstimatorContext memo
  // keys stay valid) and carry over the materialized segments. The base
  // may be serving queries concurrently, so the snapshot phase under its
  // shared intern lock only copies pointers — all bit work happens after
  // the lock is released, so a query that needs to intern a new
  // predicate into the base never waits on the rebind.
  std::vector<SlotSnapshot> snapshot = base.SnapshotSlots(&ids_);
  clock_.store(base.clock_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  CarrySlots(std::move(snapshot), base.plan_, old_rows, dropped);

  for (size_t c = 0; c < table_.NumColumns(); ++c) {
    column_slots_.emplace_back();
    ColumnSlot& dst = column_slots_.back();
    const ColumnSlot& src = base.column_slots_[c];
    if (!src.ready.load(std::memory_order_acquire)) continue;
    const Column& col = table_.column(c);
    // A categorical column's numeric view holds dictionary codes, and
    // Table::Tail re-codes dictionaries in survivor first-appearance
    // order — after a retraction those views rebuild on demand.
    if (dropped > 0 && col.type() == ColumnType::kCategorical) continue;
    dst.view.values.assign(
        src.view.values.begin() + static_cast<ptrdiff_t>(dropped),
        src.view.values.end());
    dst.view.valid = src.view.valid;
    dst.view.valid.DropPrefix(dropped);
    dst.view.values.resize(new_rows);
    dst.view.valid.Resize(new_rows);
    for (size_t r = kept; r < new_rows; ++r) {
      if (col.IsNull(r)) {
        dst.view.values[r] = std::nan("");
      } else {
        dst.view.values[r] = col.GetNumeric(r);
        dst.view.valid.Set(r);
      }
    }
    view_bytes_.fetch_add(
        new_rows * sizeof(double) + BitsetBytes(dst.view.valid),
        std::memory_order_relaxed);
    (dropped == 0 ? n_views_extended_ : n_views_retracted_)
        .fetch_add(1, std::memory_order_relaxed);
    dst.ready.store(true, std::memory_order_release);
  }
}

std::vector<EvalEngine::SlotSnapshot> EvalEngine::SnapshotSlots(
    std::unordered_map<std::string, PredicateId>* ids) const {
  std::vector<SlotSnapshot> snapshot;
  util::ReaderMutexLock lock(intern_mu_);
  if (ids != nullptr) *ids = ids_;
  snapshot.reserve(slots_.size());
  for (const PredicateSlot& src : slots_) {
    SlotSnapshot snap;
    snap.pred = src.pred;
    {
      util::MutexLock lk(src.mu);
      snap.segs = src.segs;
      snap.seg_used = src.seg_used;
    }
    snapshot.push_back(std::move(snap));
  }
  return snapshot;
}

void EvalEngine::CarrySlots(std::vector<SlotSnapshot> slots,
                            const ShardPlan& base_plan, size_t base_rows,
                            size_t dropped) {
  // Rows [0, kept) survive from the base (row k is base row k + dropped);
  // later rows were appended.
  const size_t kept = base_rows - dropped;
  const size_t num_shards = plan_.NumShards();
  // Uncontended (the engine is still private); taken for the analysis.
  util::WriterMutexLock lock(intern_mu_);
  for (SlotSnapshot& snap : slots) {
    slots_.emplace_back();
    PredicateSlot& dst = slots_.back();
    util::MutexLock slot_lock(dst.mu);
    dst.pred = std::move(snap.pred);
    dst.segs.resize(num_shards);
    dst.seg_used.assign(num_shards, 0);
    bool carried_any = false;
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t begin = plan_.ShardBegin(s);
      const size_t end = plan_.ShardEnd(s);
      // The shard's surviving rows are base rows [src_begin, src_end).
      const size_t src_begin = begin + dropped;
      const size_t src_end = std::min(end + dropped, base_rows);
      Bitset bits;
      uint64_t stamp = 0;
      if (src_begin < src_end) {
        // The carried bits must equal a from-scratch evaluation, so every
        // base segment the shard draws on must be resident (survivor
        // values — though not dictionary codes — are unchanged, and
        // predicates match by value).
        const size_t first = base_plan.ShardOfRow(src_begin);
        const size_t last = base_plan.ShardOfRow(src_end - 1);
        bool resident = true;
        for (size_t b = first; b <= last && resident; ++b) {
          resident = snap.segs[b] != nullptr;
          if (resident) stamp = std::max(stamp, snap.seg_used[b]);
        }
        if (!resident) continue;  // evicted: stays evicted
        const size_t lo = base_plan.ShardBegin(first);
        if (first == last && src_begin == lo &&
            end + dropped == base_plan.ShardEnd(first)) {
          // Exactly one base segment, untouched: share it (zero copy).
          dst.segs[s] = snap.segs[first];
          dst.seg_used[s] = stamp;
          carried_any = true;
          continue;
        }
        bits = Bitset(base_plan.ShardEnd(last) - lo);
        for (size_t b = first; b <= last; ++b) {
          snap.segs[b]->AssignIntoRange(&bits, base_plan.ShardBegin(b) - lo);
        }
        bits.DropPrefix(src_begin - lo);
      } else if (!carried_any) {
        continue;  // appended rows only, and the predicate carried nothing
      }
      // Evaluate only the appended rows. Row-at-a-time Matches agrees
      // bit-for-bit with Pattern::Evaluate (see the engine property
      // tests), including the absent-dictionary-constant case: surviving
      // rows keep their values, so a constant that only entered the
      // dictionary with the delta still matches no surviving row. The
      // bits re-enter Choose, so the representation tracks the shard's
      // new density.
      bits.Resize(end - begin);
      for (size_t r = std::max(begin, kept); r < end; ++r) {
        if (dst.pred.Matches(table_, r)) bits.Set(r - begin);
      }
      dst.segs[s] = std::make_shared<const SegmentBits>(
          SegmentBits::Choose(std::move(bits), compression_));
      dst.seg_used[s] = stamp;
      carried_any = true;
    }
    for (const auto& seg : dst.segs) {
      if (seg != nullptr) {
        bitset_bytes_.fetch_add(seg->bytes(), std::memory_order_relaxed);
        if (seg->compressed()) {
          n_compressed_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (carried_any) {
      (dropped == 0 ? n_extended_ : n_retracted_)
          .fetch_add(1, std::memory_order_relaxed);
    }
  }
  n_interned_.store(slots_.size(), std::memory_order_relaxed);
}

size_t EvalEngine::BitsetBytes(const Bitset& bits) {
  return sizeof(Bitset) + ((bits.size() + 63) / 64) * sizeof(uint64_t);
}

void EvalEngine::RunSharded(size_t n,
                            const std::function<void(size_t)>& fn) const {
  ThreadPool::RunOn(pool_.get(), n, fn);
}

PredicateId EvalEngine::Intern(const SimplePredicate& pred) {
  const std::string key = PredicateKey(pred);
  {
    util::ReaderMutexLock lock(intern_mu_);
    auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
  }
  util::WriterMutexLock lock(intern_mu_);
  auto [it, inserted] =
      ids_.emplace(key, static_cast<PredicateId>(slots_.size()));
  if (inserted) {
    slots_.emplace_back();
    slots_.back().pred = pred;
    slots_.back().segs.resize(plan_.NumShards());
    slots_.back().seg_used.assign(plan_.NumShards(), 0);
    n_interned_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second;
}

std::vector<std::shared_ptr<const SegmentBits>> EvalEngine::SegmentsOf(
    PredicateId id) {
  PredicateSlot* slot;
  {
    util::ReaderMutexLock lock(intern_mu_);
    slot = &slots_[id];
  }
  const uint64_t stamp = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  util::MutexLock lk(slot->mu);
  std::vector<size_t> missing;
  for (size_t s = 0; s < slot->segs.size(); ++s) {
    slot->seg_used[s] = stamp;
    if (slot->segs[s] == nullptr) missing.push_back(s);
  }
  if (!missing.empty()) {
    // Build the missing segments pool-parallel into a scratch array;
    // workers never touch the slot (the lock is ours), and the
    // ParallelFor join orders their writes before the publication below.
    // Each worker runs the kernel-backed single-predicate evaluator and
    // then the representation switch, so compression cost parallelizes
    // with the evaluation itself.
    std::vector<std::shared_ptr<const SegmentBits>> built(missing.size());
    const SimplePredicate& pred = slot->pred;
    // causumx-analyzer: allow(lock-blocking) intentional: the sharded
    // build fans out while holding this slot's mutex so concurrent
    // readers of the same predicate block instead of duplicating the
    // build; workers take no locks, so no cycle is possible.
    RunSharded(missing.size(), [&](size_t i) {
      const size_t s = missing[i];
      built[i] = std::make_shared<const SegmentBits>(SegmentBits::Choose(
          EvaluatePredicateRange(table_, pred, plan_.ShardBegin(s),
                                 plan_.ShardEnd(s)),
          compression_));
    });
    for (size_t i = 0; i < missing.size(); ++i) {
      slot->segs[missing[i]] = built[i];
      bitset_bytes_.fetch_add(built[i]->bytes(), std::memory_order_relaxed);
      if (built[i]->compressed()) {
        n_compressed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    n_materialized_.fetch_add(missing.size(), std::memory_order_relaxed);
  }
  n_bitset_hits_.fetch_add(slot->segs.size() - missing.size(),
                           std::memory_order_relaxed);
  return slot->segs;
}

std::shared_ptr<const Bitset> EvalEngine::PredicateBits(PredicateId id) {
  std::vector<std::shared_ptr<const SegmentBits>> segs = SegmentsOf(id);
  if (segs.size() == 1) {
    if (const Bitset* plain = segs[0]->plain()) {
      // Single plain segment: alias the cached bits, zero copy.
      return std::shared_ptr<const Bitset>(segs[0], plain);
    }
    return std::make_shared<const Bitset>(segs[0]->Materialize());
  }
  Bitset whole(table_.NumRows());
  for (size_t s = 0; s < segs.size(); ++s) {
    segs[s]->AssignIntoRange(&whole, plan_.ShardBegin(s));
  }
  return std::make_shared<const Bitset>(std::move(whole));
}

Bitset EvalEngine::Evaluate(const Pattern& pattern) {
  if (!cache_enabled_) {
    n_bypass_evals_.fetch_add(1, std::memory_order_relaxed);
    return pattern.Evaluate(table_);
  }
  n_pattern_evals_.fetch_add(1, std::memory_order_relaxed);
  Bitset out(table_.NumRows());
  out.SetAll();
  std::vector<std::vector<std::shared_ptr<const SegmentBits>>> atoms;
  atoms.reserve(pattern.predicates().size());
  for (const auto& p : pattern.predicates()) {
    atoms.push_back(SegmentsOf(Intern(p)));
  }
  // Shard-wise AND-accumulate into the (word-aligned, disjoint) output
  // ranges. Deliberately serial: the expensive O(rows) work — segment
  // materialization — already ran pool-parallel inside SegmentsOf, and
  // the AND itself is a word-wise pass cheaper than a task dispatch.
  // Compressed segments decompress into one reused scratch buffer.
  std::vector<uint64_t> scratch;
  for (size_t s = 0; s < plan_.NumShards(); ++s) {
    const size_t begin = plan_.ShardBegin(s);
    for (const auto& segs : atoms) {
      segs[s]->AndIntoRange(&out, begin, &scratch);
    }
  }
  return out;
}

Bitset EvalEngine::EvaluateOn(const Pattern& pattern, const Bitset& mask) {
  Bitset out = Evaluate(pattern);
  out &= mask;
  return out;
}

const NumericColumnView& EvalEngine::Numeric(size_t col) {
  ColumnSlot& slot = column_slots_[col];
  if (slot.ready.load(std::memory_order_acquire)) return slot.view;
  util::MutexLock lk(slot.mu);
  if (slot.ready.load(std::memory_order_relaxed)) return slot.view;
  const Column& c = table_.column(col);
  const size_t n = table_.NumRows();
  slot.view.values.resize(n);
  slot.view.valid = Bitset(n);
  // Shards write disjoint index ranges of `values` and disjoint
  // (word-aligned) ranges of `valid`; the ParallelFor join publishes
  // their writes before `ready` is released below.
  // causumx-analyzer: allow(lock-blocking) intentional: the sharded view
  // build runs under this column's mutex so concurrent callers block on
  // one build instead of duplicating it; workers take no locks.
  RunSharded(plan_.NumShards(), [&](size_t s) {
    const size_t end = plan_.ShardEnd(s);
    for (size_t r = plan_.ShardBegin(s); r < end; ++r) {
      if (c.IsNull(r)) {
        slot.view.values[r] = std::nan("");
      } else {
        slot.view.values[r] = c.GetNumeric(r);
        slot.view.valid.Set(r);
      }
    }
  });
  n_views_built_.fetch_add(1, std::memory_order_relaxed);
  view_bytes_.fetch_add(n * sizeof(double) + BitsetBytes(slot.view.valid),
                        std::memory_order_relaxed);
  slot.ready.store(true, std::memory_order_release);
  return slot.view;
}

std::shared_ptr<const std::vector<Value>> EvalEngine::DistinctValues(
    size_t col) {
  if (!cache_enabled_) {
    return std::make_shared<const std::vector<Value>>(
        table_.column(col).DistinctValues());
  }
  ColumnSlot& slot = column_slots_[col];
  if (slot.distinct_ready.load(std::memory_order_acquire)) {
    return slot.distinct;
  }
  util::MutexLock lk(slot.distinct_mu);
  if (!slot.distinct_ready.load(std::memory_order_relaxed)) {
    slot.distinct = std::make_shared<const std::vector<Value>>(
        table_.column(col).DistinctValues());
    slot.distinct_ready.store(true, std::memory_order_release);
  }
  return slot.distinct;
}

size_t EvalEngine::NumInterned() const {
  util::ReaderMutexLock lock(intern_mu_);
  return slots_.size();
}

size_t EvalEngine::CacheBytes() const {
  return bitset_bytes_.load(std::memory_order_relaxed);
}

size_t EvalEngine::EvictLru(size_t bytes_to_free) {
  if (bytes_to_free == 0) return 0;
  // Snapshot (stamp, id, shard) triples oldest-first. A reader racing
  // with the scan may re-stamp or rebuild a segment; that only makes
  // eviction slightly less than perfectly LRU, never incorrect — readers
  // hold the bits by shared_ptr and evicted segments rebuild on demand.
  std::vector<std::tuple<uint64_t, PredicateId, uint32_t>> order;
  {
    util::ReaderMutexLock lock(intern_mu_);
    for (PredicateId id = 0; id < slots_.size(); ++id) {
      const PredicateSlot& slot = slots_[id];
      util::MutexLock lk(slot.mu);
      for (size_t s = 0; s < slot.segs.size(); ++s) {
        if (slot.segs[s] != nullptr) {
          order.emplace_back(slot.seg_used[s], id,
                             static_cast<uint32_t>(s));
        }
      }
    }
  }
  std::sort(order.begin(), order.end());
  size_t freed = 0;
  for (const auto& [stamp, id, shard] : order) {
    if (freed >= bytes_to_free) break;
    PredicateSlot* slot;
    {
      util::ReaderMutexLock lock(intern_mu_);
      slot = &slots_[id];
    }
    util::MutexLock lk(slot->mu);
    if (slot->segs[shard] != nullptr) {
      freed += slot->segs[shard]->bytes();
      if (slot->segs[shard]->compressed()) {
        n_compressed_.fetch_sub(1, std::memory_order_relaxed);
      }
      slot->segs[shard].reset();
      n_evicted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  bitset_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

EvalEngineStats EvalEngine::Stats() const {
  EvalEngineStats s;
  s.predicates_interned = n_interned_.load(std::memory_order_relaxed);
  s.bitsets_materialized = n_materialized_.load(std::memory_order_relaxed);
  s.bitset_hits = n_bitset_hits_.load(std::memory_order_relaxed);
  s.bitsets_evicted = n_evicted_.load(std::memory_order_relaxed);
  s.segments_compressed = n_compressed_.load(std::memory_order_relaxed);
  s.bitsets_extended = n_extended_.load(std::memory_order_relaxed);
  s.bitsets_retracted = n_retracted_.load(std::memory_order_relaxed);
  s.pattern_evals = n_pattern_evals_.load(std::memory_order_relaxed);
  s.bypass_evals = n_bypass_evals_.load(std::memory_order_relaxed);
  s.column_views_built = n_views_built_.load(std::memory_order_relaxed);
  s.column_views_extended =
      n_views_extended_.load(std::memory_order_relaxed);
  s.column_views_retracted =
      n_views_retracted_.load(std::memory_order_relaxed);
  s.bitset_bytes = bitset_bytes_.load(std::memory_order_relaxed);
  s.view_bytes = view_bytes_.load(std::memory_order_relaxed);
  s.num_shards = plan_.NumShards();
  return s;
}

namespace {

// Typed Value codec for predicate constants (tags: 0 null, 1 int,
// 2 double by bit pattern, 3 string).
void PutValue(ByteWriter* w, const Value& v) {
  if (v.is_int()) {
    w->PutU8(1);
    w->PutVarintSigned(v.AsInt());
  } else if (v.is_double()) {
    w->PutU8(2);
    w->PutDouble(v.AsDouble());
  } else if (v.is_string()) {
    w->PutU8(3);
    w->PutString(v.AsString());
  } else {
    w->PutU8(0);
  }
}

Value GetValue(ByteReader* r) {
  switch (r->GetU8()) {
    case 0:
      return Value();
    case 1:
      return Value(r->GetVarintSigned());
    case 2:
      return Value(r->GetDouble());
    case 3:
      return Value(r->GetString());
    default:
      throw StorageError(StorageErrorKind::kCorrupt,
                         "engine cache: unknown value tag");
  }
}

// Keeps shard arithmetic on a hostile stored shard size overflow-free.
constexpr uint64_t kMaxShardRows = uint64_t{1} << 40;

// The plan an exported engine state was built under: the exporter's
// shard size over `table`, whose row count must match the export's.
ShardPlan ExportedPlan(const Table& table, const std::string& bytes) {
  ByteReader r(bytes);
  if (r.GetU64() != table.NumRows()) {
    throw StorageError(StorageErrorKind::kStale,
                       "engine cache: row count mismatch");
  }
  const uint64_t num_shards = r.GetVarint();
  const uint64_t shard_rows = r.GetVarint();
  if (shard_rows == 0 || shard_rows % kSummationBlockRows != 0 ||
      shard_rows > kMaxShardRows) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "engine cache: implausible shard size");
  }
  const ShardPlan plan(table.NumRows(), static_cast<size_t>(shard_rows));
  if (num_shards != plan.NumShards()) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "engine cache: shard count does not match shard size");
  }
  return plan;
}

}  // namespace

std::string EvalEngine::ExportCacheState() const {
  // Copy the predicates and segment pointers under the locks (as the
  // rebind constructor does) and serialize after releasing them, so
  // concurrent queries are never blocked on encoding.
  const std::vector<SlotSnapshot> snapshot = SnapshotSlots();
  ByteWriter w;
  w.PutU64(table_.NumRows());
  w.PutVarint(plan_.NumShards());
  w.PutVarint(plan_.shard_rows());
  w.PutU8(static_cast<uint8_t>(compression_));
  w.PutU8(cache_enabled_ ? 1 : 0);
  w.PutVarint(snapshot.size());
  for (const SlotSnapshot& snap : snapshot) {
    w.PutString(snap.pred.attribute);
    w.PutU8(static_cast<uint8_t>(snap.pred.op));
    PutValue(&w, snap.pred.value);
    w.PutVarint(snap.segs.size());
    for (const auto& seg : snap.segs) {
      if (seg == nullptr) {
        w.PutU8(0);
      } else {
        w.PutU8(1);
        std::string bytes;
        seg->Serialize(&bytes);
        w.PutString(bytes);
      }
    }
  }
  return w.TakeBytes();
}

EvalEngine::EvalEngine(std::shared_ptr<const Table> table,
                       EvalEngineOptions options,
                       const std::string& exported_state)
    : keepalive_(std::move(table)),
      table_(*keepalive_),
      cache_enabled_(options.cache_enabled),
      compression_(options.compression),
      plan_(ExportedPlan(*keepalive_, exported_state)),
      pool_(std::move(options.pool)) {
  ByteReader r(exported_state);
  r.GetU64();  // row count and shard plan, checked by ExportedPlan
  r.GetVarint();
  r.GetVarint();
  if (r.GetU8() != static_cast<uint8_t>(compression_) ||
      r.GetU8() != (cache_enabled_ ? 1 : 0)) {
    throw StorageError(StorageErrorKind::kStale,
                       "engine cache: options mismatch");
  }
  const uint64_t n_preds = r.GetVarint();
  if (n_preds > exported_state.size()) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "engine cache: implausible predicate count");
  }
  // Deserialize into a base, then carry it like a rebind whose table did
  // not change: every resident segment is shared as it is.
  const size_t num_shards = plan_.NumShards();
  std::vector<SlotSnapshot> base;
  for (uint64_t id = 0; id < n_preds; ++id) {
    SlotSnapshot& snap = base.emplace_back();
    snap.pred.attribute = r.GetString();
    const uint8_t op = r.GetU8();
    if (op > static_cast<uint8_t>(CompareOp::kGe)) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "engine cache: unknown compare op");
    }
    snap.pred.op = static_cast<CompareOp>(op);
    snap.pred.value = GetValue(&r);
    if (!ids_.emplace(PredicateKey(snap.pred), static_cast<PredicateId>(id))
             .second) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "engine cache: duplicate predicate");
    }
    if (r.GetVarint() != num_shards) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "engine cache: segment count mismatch");
    }
    snap.segs.resize(num_shards);
    snap.seg_used.assign(num_shards, 0);
    for (size_t s = 0; s < num_shards; ++s) {
      // Presence flag: export writes exactly 0 or 1.
      const uint8_t present = r.GetU8();
      if (present > 1) {
        throw StorageError(StorageErrorKind::kCorrupt,
                           "engine cache: bad segment flag");
      }
      if (present == 0) continue;
      const std::string seg_bytes = r.GetString();
      size_t pos = 0;
      std::optional<SegmentBits> seg;
      try {
        seg.emplace(SegmentBits::Deserialize(seg_bytes, &pos));
      } catch (const std::runtime_error& e) {
        throw StorageError(StorageErrorKind::kCorrupt, e.what());
      }
      if (pos != seg_bytes.size()) {
        throw StorageError(StorageErrorKind::kCorrupt,
                           "engine cache: trailing segment bytes");
      }
      if (seg->size() != plan_.ShardEnd(s) - plan_.ShardBegin(s)) {
        throw StorageError(StorageErrorKind::kCorrupt,
                           "engine cache: segment size does not match shard");
      }
      snap.segs[s] = std::make_shared<const SegmentBits>(std::move(*seg));
    }
  }
  if (!r.AtEnd()) {
    throw StorageError(StorageErrorKind::kCorrupt,
                       "engine cache: trailing bytes");
  }
  CarrySlots(std::move(base), plan_, table_.NumRows(), 0);
  column_slots_.resize(table_.NumColumns());
}

}  // namespace causumx
