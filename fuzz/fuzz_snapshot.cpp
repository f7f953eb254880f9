// Fuzz harness for the storage layer's deserializers — the code that
// reads snapshot bytes a crashed, truncated, or hostile writer may have
// left on disk (src/storage/snapshot.*, src/dataset/table_io.*,
// src/util/compressed_bitset.*, and the warm-cache restore constructors
// of src/engine/eval_engine.* and src/causal/estimator_context.*).
//
// Properties checked on every input:
//   1. SnapshotReader::Parse either returns a container or throws
//      StorageError (a std::runtime_error) — never crashes, never
//      throws anything else.
//   2. A container that parses re-serializes through SnapshotWriter to
//      bytes that parse again with the same key and sections (the
//      format is canonical: parse-then-write is the identity on
//      accepted inputs).
//   3. DeserializeTable on arbitrary bytes returns a Table whose
//      content hash matches the embedded key, or throws StorageError —
//      a forged key must never produce a silently-wrong table.
//   4. SegmentBits::Deserialize on arbitrary bytes round-trips through
//      Serialize, or throws — never crashes, never mis-sizes.
//   5. The EvalEngine restore constructor over a small fixed table either
//      throws StorageError or builds an engine whose ExportCacheState
//      reproduces the input bytes exactly.
//   6. The EstimatorContext restore constructor, over an engine restored
//      from a fixed exported state of that table, either throws
//      StorageError or re-exports the input bytes exactly.
//
// Links against libFuzzer under clang (-DCAUSUMX_FUZZERS=ON); under GCC
// the same TU builds as a standalone corpus replayer (see
// standalone_main.h).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "causal/dag_io.h"
#include "causal/estimator_context.h"
#include "dataset/table.h"
#include "dataset/table_io.h"
#include "engine/eval_engine.h"
#include "storage/snapshot.h"
#include "storage/storage_error.h"
#include "util/compressed_bitset.h"

#include "fuzz/standalone_main.h"

namespace {

[[noreturn]] void Die(const char* what, const std::string& detail) {
  std::fprintf(stderr, "fuzz_snapshot: %s: %s\n", what, detail.c_str());
  std::abort();
}

void CheckContainer(const std::string& bytes) {
  bool accepted = false;
  try {
    const causumx::SnapshotReader reader =
        causumx::SnapshotReader::Parse(bytes, "fuzz-kind", 1);
    accepted = true;
    // Accepted input: rebuilding the container must reproduce an
    // equivalent, parseable file.
    causumx::SnapshotWriter writer("fuzz-kind", 1, reader.key());
    for (const std::string& name : reader.SectionNames()) {
      writer.AddSection(name, reader.Section(name));
    }
    const std::string rebuilt = writer.Serialize();
    const causumx::SnapshotReader again =
        causumx::SnapshotReader::Parse(rebuilt, "fuzz-kind", 1);
    if (again.key() != reader.key()) {
      Die("round-trip changed key", again.key());
    }
    if (again.SectionNames() != reader.SectionNames()) {
      Die("round-trip changed section list", "");
    }
    for (const std::string& name : reader.SectionNames()) {
      if (again.Section(name) != reader.Section(name)) {
        Die("round-trip changed section payload", name);
      }
    }
  } catch (const causumx::StorageError& e) {
    // Typed rejection of hostile bytes is correct — but rejecting the
    // writer's own output is a canonicalization bug.
    if (accepted) Die("round-trip of accepted container rejected", e.what());
  }
}

void CheckTable(const std::string& bytes) {
  causumx::Table table;
  try {
    table = causumx::DeserializeTable(bytes);
  } catch (const causumx::StorageError&) {
    return;  // typed rejection is correct
  }
  // An accepted table must re-serialize and parse back identically —
  // in particular the embedded content hash must still verify.
  const std::string rebuilt = causumx::SerializeTable(table);
  const causumx::Table again = causumx::DeserializeTable(rebuilt);
  if (again.NumRows() != table.NumRows() ||
      again.NumColumns() != table.NumColumns()) {
    Die("table round-trip changed shape", "");
  }
  if (causumx::TableContentHash(again) != causumx::TableContentHash(table)) {
    Die("table round-trip changed content hash", "");
  }
}

void CheckSegment(const std::string& bytes) {
  bool accepted = false;
  try {
    size_t pos = 0;
    const causumx::SegmentBits seg =
        causumx::SegmentBits::Deserialize(bytes, &pos);
    accepted = true;
    if (pos > bytes.size()) {
      Die("segment consumed past the end", std::to_string(pos));
    }
    std::string rebuilt;
    seg.Serialize(&rebuilt);
    size_t pos2 = 0;
    const causumx::SegmentBits again =
        causumx::SegmentBits::Deserialize(rebuilt, &pos2);
    if (again.size() != seg.size() || again.Count() != seg.Count()) {
      Die("segment round-trip changed bits", "");
    }
    if (!(again.Materialize() == seg.Materialize())) {
      Die("segment round-trip changed contents", "");
    }
  } catch (const std::runtime_error& e) {
    // Typed rejection of hostile bytes is correct — but rejecting the
    // serializer's own output is a canonicalization bug.
    if (accepted) Die("round-trip of accepted segment rejected", e.what());
  }
}

// The small fixed table the restore constructors bind to.
std::shared_ptr<const causumx::Table> FixedTable() {
  static const std::shared_ptr<const causumx::Table> table = [] {
    causumx::Table t;
    t.AddColumn("city", causumx::ColumnType::kCategorical);
    t.AddColumn("score", causumx::ColumnType::kDouble);
    t.AddColumn("y", causumx::ColumnType::kDouble);
    const char* cities[] = {"lima", "oslo", "quito"};
    for (size_t i = 0; i < 200; ++i) {
      t.AddRow({causumx::Value(std::string(cities[i % 3])),
                causumx::Value(static_cast<double>(i % 17)),
                causumx::Value(static_cast<double>(i % 5) +
                               (i % 3 == 0 ? 2.0 : 0.0))});
    }
    return std::make_shared<const causumx::Table>(std::move(t));
  }();
  return table;
}

// The predicates the fixed engine state interns (ids 0 and 1).
causumx::Pattern FixedPattern() {
  return causumx::Pattern({
      causumx::SimplePredicate("city", causumx::CompareOp::kEq,
                               causumx::Value(std::string("lima"))),
      causumx::SimplePredicate("score", causumx::CompareOp::kGt,
                               causumx::Value(8.0)),
  });
}

// The exported state of a two-shard engine over FixedTable with
// FixedPattern evaluated: the engine every memo input restores over.
const std::string& FixedEngineState() {
  static const std::string state = [] {
    causumx::EvalEngineOptions options;
    options.num_shards = 2;
    causumx::EvalEngine engine(FixedTable(), options);
    engine.Evaluate(FixedPattern());
    return engine.ExportCacheState();
  }();
  return state;
}

const causumx::CausalDag& FixedDag() {
  static const causumx::CausalDag dag =
      causumx::ParseDagText("city -> y\nscore -> y\n");
  return dag;
}

void CheckEngineState(const std::string& bytes) {
  std::string again;
  try {
    const causumx::EvalEngine engine(FixedTable(), {}, bytes);
    again = engine.ExportCacheState();
  } catch (const causumx::StorageError&) {
    return;  // typed rejection is correct
  }
  if (again != bytes) Die("engine state re-export changed bytes", "");
}

void CheckMemoState(const std::string& bytes) {
  const auto engine = std::make_shared<causumx::EvalEngine>(
      FixedTable(), causumx::EvalEngineOptions{}, FixedEngineState());
  std::string again;
  try {
    const causumx::EstimatorContext context(engine, FixedDag(), {}, bytes);
    again = context.ExportMemoState();
  } catch (const causumx::StorageError&) {
    return;  // typed rejection is correct
  }
  if (again != bytes) Die("memo state re-export changed bytes", "");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Bound per-input cost: decoding is linear, but giant inputs just slow
  // the fuzzer down without reaching new states.
  if (size > (1u << 20)) return 0;
  if (size == 0) return 0;
  const std::string bytes(reinterpret_cast<const char*>(data + 1), size - 1);

  // The first byte routes to one deserializer, so one corpus exercises
  // all five entry points and the fuzzer can mutate across them.
  switch (data[0] % 5) {
    case 0: CheckContainer(bytes); break;
    case 1: CheckTable(bytes); break;
    case 2: CheckSegment(bytes); break;
    case 3: CheckEngineState(bytes); break;
    case 4: CheckMemoState(bytes); break;
  }
  return 0;
}
