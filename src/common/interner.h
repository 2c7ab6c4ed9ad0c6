#ifndef RWDT_COMMON_INTERNER_H_
#define RWDT_COMMON_INTERNER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"

namespace rwdt {

/// Dense integer id for an interned string. Ids start at 0 and are assigned
/// in first-seen order, so they are stable for a fixed insertion sequence.
using SymbolId = uint32_t;

inline constexpr SymbolId kInvalidSymbol = 0xffffffffu;

/// Bidirectional string <-> dense-id dictionary, backed by a bump arena.
///
/// Used as the label dictionary for trees, the IRI/literal dictionary for
/// RDF stores and SPARQL queries, and the alphabet for regular
/// expressions. Interning makes all downstream algorithms operate on
/// small integers. One implementation serves every caller, so the
/// engine's log study, the executor and `/v1/classify` parse a query
/// through the same code:
///
///  * **Hash-once.** `InternWithHash` accepts a precomputed
///    `common::Hash64`, so the engine hashes each query text exactly once
///    (in Feed routing) and threads the hash through shard routing and
///    dedup instead of re-hashing per structure.
///  * **Allocation-free steady state.** Strings are copied into an
///    `Arena`; `Clear()` recycles both the slot table and the arena
///    blocks, so a worker reusing one interner per query stops touching
///    the heap once warmed up.
///  * **Flat probing.** Linear probing over a power-of-two slot array of
///    (hash, id) pairs: one cache line per probe, no pointer chasing.
///
/// Names live in arena blocks that never move, so a `Name()` view stays
/// valid across later inserts and across a move of the interner; only
/// `Clear()` and destruction invalidate it. Move-only. Not thread-safe;
/// each engine shard/worker owns its own instance.
class Interner {
 public:
  Interner() = default;

  /// Returns the id for `s`, interning it if new.
  SymbolId Intern(std::string_view s) { return InternWithHash(Hash64(s), s); }

  /// Same, with the caller-provided `Hash64(s)` (hash-once fast path).
  /// `hash` must equal `Hash64(s)` with the default seed.
  SymbolId InternWithHash(uint64_t hash, std::string_view s);

  /// Returns the id for `s`, or kInvalidSymbol when absent.
  SymbolId Lookup(std::string_view s) const {
    return LookupWithHash(Hash64(s), s);
  }
  SymbolId LookupWithHash(uint64_t hash, std::string_view s) const;

  /// Returns the string for an id. Requires `id < size()`.
  std::string_view Name(SymbolId id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

  /// Bytes reserved by the slot table, the arena blocks, and the name
  /// index — the interner's resident footprint. Clear() keeps reserved
  /// memory, so this is a high-water mark, which is exactly what the
  /// occupancy gauges on /metrics want to show.
  size_t bytes_reserved() const {
    return slots_.capacity() * sizeof(Slot) + arena_.bytes_reserved() +
           names_.capacity() * sizeof(std::string_view);
  }

  /// Forgets all symbols but keeps the slot table and arena blocks, so
  /// the next fill cycle allocates nothing (resize-across-clear: a table
  /// grown by one query stays grown for the next).
  void Clear();

 private:
  struct Slot {
    uint64_t hash = 0;
    SymbolId id = kInvalidSymbol;  // kInvalidSymbol == empty slot
  };

  void Grow();

  /// Max load factor 1/2: slots_.size() >= 2 * size() + 1.
  std::vector<Slot> slots_;  // power-of-two sized; empty until first use
  uint64_t mask_ = 0;        // slots_.size() - 1
  Arena arena_;
  std::vector<std::string_view> names_;  // id -> arena-backed text
};

}  // namespace rwdt

#endif  // RWDT_COMMON_INTERNER_H_
