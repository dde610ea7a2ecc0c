// Document maps: the candidate bookkeeping of the NRA family (§4.1).
//
//   * DocType          — per-document record: observed term scores, lower
//                        bound, heap membership.
//   * ConcurrentDocMap — the shared docMap: striped hashing with a
//                        granular lock per stripe (the paper protects
//                        "each hash bucket by a granular lock", §4.3).
//   * LocalDocMap      — an unsynchronized partial copy: Sparta's
//                        termMap replicas and the cleaner's tmpDocMap.
//
// Both maps index their entries with a DocIndex (flat open addressing),
// and the shared map takes every DocType's score slots from a per-stripe
// ScoreSlab, so a new candidate costs no heap allocation of its own.
//
// Memory accounting: entry footprints are *modeled* after the paper's
// Java implementation (object headers + boxed map nodes), so the memory
// budget that decides the "crashed due to lack of memory" cells scales
// like the original system rather than like our leaner C++ structs. The
// cache-level size estimates (ApproxBytes) likewise use a model constant
// (kModeledDocTypeBytes), not the host layout of DocType.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "exec/context.h"
#include "topk/result.h"
#include "util/common.h"
#include "util/thread_annotations.h"

namespace sparta::topk {

/// Shared per-term score upper bounds (UB[m] of the paper). Entries are
/// written only by the worker that owns the term's posting list; padding
/// would reduce simulated ping-pong, but the paper's layout is a plain
/// array, so we keep one (coherence effects are part of the study).
// sparta-lint: allow(padded-shared) deliberately compact: the paper's
// UB[m] is an unpadded array and its false sharing is under study.
using UpperBounds = std::vector<std::atomic<Score>>;

/// Sum of all term upper bounds (left side of UBStop, Eq. 1).
Score SumUpperBounds(const UpperBounds& ub);

/// The paper's DocType: <id, score[m], LB> plus a heap-membership flag.
/// score[i] is written only by the worker currently owning term i; LB is
/// refreshed lazily under the heap lock (§4.3).
class DocType {
 public:
  /// `score` holds the document's m zeroed slots; the caller owns them
  /// (a ScoreSlab) and keeps them alive as long as the record.
  DocType(DocId id, std::span<std::atomic<Score>> score);

  DocType(const DocType&) = delete;
  DocType& operator=(const DocType&) = delete;

  DocId id() const { return id_; }

  // Hot fields, accessed directly by algorithms.
  std::atomic<Score> lb{0};
  std::atomic<bool> in_heap{false};
  /// Term scores observed so far (0 = not yet seen). Index = query term
  /// position, not global TermId. Deliberately compact: per-doc score
  /// slots mirror the paper's accumulator layout; padding every entry
  /// would distort the modeled memory footprint (§5.2.1).
  std::span<std::atomic<Score>> score;

  /// Σ score[i] (the document's current lower bound, recomputed).
  Score SumScores() const;

  /// UB(D) = Σ (score[i] > 0 ? score[i] : UB[i])  (§4.1, Table 1).
  Score UpperBound(const UpperBounds& ub) const;

 private:
  DocId id_;
};

/// Bytes one DocType contributes to the docMaps' ApproxBytes estimates.
/// A model constant (the record's size when the cost model was
/// calibrated), so virtual time does not depend on the host layout.
inline constexpr std::size_t kModeledDocTypeBytes = 48;

/// Insert-only open-addressing index DocId -> DocType*: linear probing
/// over a power-of-two slot table, kInvalidDoc as the empty key, doubled
/// before it passes half load. Keys and entries live in parallel arrays,
/// so a probe scans 4-byte keys and only a hit reads its entry (12 bytes
/// a slot instead of a padded 16). Nothing is erased; a map shrinks by
/// being rebuilt (the cleaner's pruned copy). The home slot comes from
/// the top bits of Mix64(doc), because ConcurrentDocMap::StripeOf takes
/// the low six: the keys of one stripe still spread over the whole table.
class DocIndex {
 public:
  /// The entry stored under `doc`, or nullptr.
  DocType* Find(DocId doc) const;

  /// Stores `entry` under entry->id() unless that id is already present;
  /// returns the entry stored under the id afterwards.
  DocType* Insert(DocType* entry);

  std::size_t size() const { return size_; }
  std::size_t slot_count() const { return keys_.size(); }

  /// Where probing for `doc` starts (valid once slot_count() > 0).
  std::size_t HomeSlot(DocId doc) const;

  /// Visits every entry once, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kInvalidDoc) fn(entries_[i]);
    }
  }

 private:
  void Grow();

  std::vector<DocId> keys_;
  std::vector<DocType*> entries_;
  /// 64 - log2(slot_count()): HomeSlot() keeps the hash's top bits.
  int shift_ = 64;
  std::size_t size_ = 0;
};

/// Bump allocator of zeroed score slots for one map stripe. Slots come
/// from chunks that start at 8 documents' worth and double up to 4096
/// slots; a chunk is never moved or freed before the slab, so handed-out
/// slots keep their addresses as it grows.
class ScoreSlab {
 public:
  /// `n` zeroed slots that no other Take() call shares (empty if n = 0).
  std::span<std::atomic<Score>> Take(std::size_t n);

 private:
  static constexpr std::size_t kMaxChunkSlots = 4096;

  std::size_t chunk_slots_ = 0;  // size of the newest chunk
  std::size_t used_ = 0;         // slots handed out from it
  // sparta-lint: allow(padded-shared) deliberately compact: chunks pack
  // documents' score slots back to back like the paper's per-document
  // int[] arrays; the cost model never prices these host addresses, and
  // padding each document's run to a cache line would multiply the
  // slab's footprint.
  std::vector<std::unique_ptr<std::atomic<Score>[]>> chunks_;
};

/// Modeled per-entry footprint (bytes) of the paper's Java maps.
std::int64_t ModeledEntryBytes(int num_terms, bool concurrent);

/// One buffered term-score contribution, produced by a worker's private
/// accumulator during a phase and applied to the shared map at the phase
/// boundary (DESIGN.md §14). `term` is the query-term position (the
/// score-slot index; ignored by presence-set consumers).
struct PendingScore {
  DocId doc = kInvalidDoc;
  std::int32_t term = 0;
  Score score = 0;
};

/// Striped concurrent hash map DocId -> DocType*, owning the DocType
/// storage (arena and score slab per stripe; entries live until the map
/// is destroyed, which lets cleaner snapshots hold raw pointers safely).
class ConcurrentDocMap {
 public:
  static constexpr int kStripes = 64;

  /// `num_terms` sizes each DocType's score slots (0 for accumulator
  /// maps like pJASS's). `modeled_entry_bytes` overrides the default
  /// Java-footprint model (pJASS's per-document lock objects make its
  /// entries heavier); 0 keeps the default. The stripe locks are
  /// registered with the contention profiler as "docMap.stripe" — the
  /// structure at the heart of the paper's Sparta-vs-pRA scaling story.
  ConcurrentDocMap(exec::QueryContext& ctx, int num_terms,
                   std::int64_t modeled_entry_bytes = 0);

  struct GetOrCreateResult {
    DocType* doc = nullptr;
    bool inserted = false;
    /// True if the memory budget was exceeded; the caller must stop
    /// accumulating and finalize a best-so-far result tagged
    /// ResultStatus::kOom.
    bool oom = false;
  };

  /// Finds or inserts the document. Locks the stripe.
  GetOrCreateResult GetOrCreate(DocId doc, exec::WorkerContext& worker);

  /// Lookup without insertion. Locks the stripe while the map is still
  /// write-shared.
  DocType* Find(DocId doc, exec::WorkerContext& worker);

  /// Accumulator update (JASS family): get-or-create the document and
  /// add `delta` to its running score under the stripe lock, modeling
  /// the paper's "each document is protected by a lock" (§5.2.1) with
  /// granular striping.
  GetOrCreateResult AddScore(DocId doc, Score delta,
                             exec::WorkerContext& worker);

  /// Per-doc-group callback of ApplyBatch, invoked under the stripe lock
  /// once per distinct document: the group's buffered contributions, the
  /// (found or created) entry, and whether this batch inserted it. The
  /// sink applies the contributions (slot stores, lb adds) so the merge
  /// semantics stay with the algorithm, not the map.
  using ApplySink = std::function<void(std::span<const PendingScore>,
                                       DocType*, bool inserted)>;

  struct BatchResult {
    /// Doc groups resolved to an entry (found, or inserted pre-cutoff).
    std::size_t applied = 0;
    /// Doc groups refused: unseen documents arriving after the insert
    /// cutoff. Safe to drop — by then Σ UB ≤ Θ bounds them out of the
    /// top-k (the batched twin of GetOrCreate's post-freeze refusal).
    std::size_t refused = 0;
    bool oom = false;
  };

  /// Phase-boundary merge: applies a stripe-homogeneous batch (every
  /// entry hashes to the same stripe; doc groups contiguous) under ONE
  /// stripe-lock acquisition — the Corey-style contention win: a
  /// 1024-posting segment costs at most kStripes acquisitions instead of
  /// one per posting. Honors the insert cutoff/freeze protocol exactly
  /// like GetOrCreate. On memory exhaustion stops mid-batch with
  /// oom=true; everything applied so far stays (honest kOom partials).
  BatchResult ApplyBatch(std::span<const PendingScore> batch,
                         exec::WorkerContext& worker,
                         const ApplySink& sink);

  /// Stripe of a document — public so private accumulators can group
  /// their buffered contributions into stripe-homogeneous batches.
  static std::size_t StripeOf(DocId doc);

  /// Home NUMA domain of a stripe (id-based round placement, so the
  /// stripe→domain key is identical on every run and allocator layout).
  int StripeHomeDomain(std::size_t stripe) const {
    return stripes_[stripe].home_domain;
  }

  std::size_t Size() const {
    return size_.load(std::memory_order_relaxed);
  }
  std::uint64_t PeakSize() const {
    return peak_.load(std::memory_order_relaxed);
  }

  /// Approximate resident bytes, for the cache-level cost model.
  std::size_t ApproxBytes() const;

  /// Marks the insert phase over (UBStop reached) while workers may
  /// still be mid-insert: sets the insert cutoff, then drains every
  /// stripe lock (acquire+release) so in-flight critical sections
  /// complete, then publishes the frozen flag. Unlocked scans gated on
  /// read_only() are race-free only because the flag is published
  /// *after* the drain (found by TSan on the pre-drain protocol).
  void Freeze(exec::WorkerContext& worker);

  /// Quiescent freeze: valid only when no mutator can be in flight
  /// (e.g. between test phases after a full drain). Skips the stripe
  /// drain.
  void SetReadOnly() {
    insert_cutoff_.store(true, std::memory_order_release);
    frozen_.store(true, std::memory_order_release);
  }

  bool read_only() const {
    return frozen_.load(std::memory_order_acquire);
  }

  /// Iterates all entries. Only valid once read-only.
  //
  // TSA-exempt: reads stripe maps without their locks. Safe only because
  // the SPARTA_CHECK proves the freeze protocol ran — Freeze() drained
  // every stripe lock before publishing frozen_, so all inserts
  // happened-before this scan.
  template <typename Fn>
  void ForEach(Fn&& fn) const SPARTA_NO_THREAD_SAFETY_ANALYSIS {
    SPARTA_CHECK(read_only());
    for (const auto& stripe : stripes_) stripe.index.ForEach(fn);
  }

  /// Race-detector-visible variant of the unlocked scan. When the map is
  /// frozen, each stripe lock's release clock is acquired first
  /// (AnnotateAcquire) — the freeze protocol guarantees every insert's
  /// critical section happened-before the scan, which the detector can't
  /// see through the read_only_ atomic alone (DESIGN.md §6). Calling this
  /// before SetReadOnly() records unsynchronized reads the detector will
  /// flag against the stripe inserts — deliberately no SPARTA_CHECK here;
  /// misuse surfaces as a race report instead of a crash.
  // TSA-exempt for the same freeze-protocol reason as ForEach(fn); the
  // AnnotateAcquire calls express the happens-before edge to the dynamic
  // detector, which — unlike the static analysis — verifies it.
  template <typename Fn>
  void ForEach(Fn&& fn, exec::WorkerContext& worker) const
      SPARTA_NO_THREAD_SAFETY_ANALYSIS {
    const bool frozen = read_only();
    for (const auto& stripe : stripes_) {
      if (frozen) worker.AnnotateAcquire(stripe.lock.get());
      worker.ShadowAccess(&stripe.index, exec::AccessKind::kRead);
      stripe.index.ForEach(fn);
    }
  }

  /// Iterates all entries stripe-by-stripe under the stripe locks; safe
  /// while the map is still being mutated (pNRA's stopping scan).
  template <typename Fn>
  void ForEachLocked(Fn&& fn, exec::WorkerContext& worker) {
    for (auto& stripe : stripes_) {
      const exec::CtxLockGuard guard(*stripe.lock, worker);
      worker.ShadowAccess(&stripe.index, exec::AccessKind::kRead);
      stripe.index.ForEach(fn);
    }
  }

  int num_terms() const { return num_terms_; }

 private:
  struct Stripe {
    std::unique_ptr<exec::CtxLock> lock;
    DocIndex index SPARTA_GUARDED_BY(*lock);
    std::deque<DocType> arena SPARTA_GUARDED_BY(*lock);
    ScoreSlab slab SPARTA_GUARDED_BY(*lock);
    /// NUMA domain whose memory backs this stripe (0 without topology).
    int home_domain = 0;
  };

  bool insert_cutoff() const {
    return insert_cutoff_.load(std::memory_order_acquire);
  }

  int num_terms_;
  std::int64_t entry_bytes_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> peak_{0};
  /// Inserts stop (checked under the stripe lock)...
  std::atomic<bool> insert_cutoff_{false};
  /// ...and once the stripes are drained, unlocked scans may start.
  std::atomic<bool> frozen_{false};
  std::vector<Stripe> stripes_;
};

/// Unsynchronized map of DocType references: termMap / tmpDocMap.
class LocalDocMap {
 public:
  explicit LocalDocMap(int num_terms)
      : entry_bytes_(ModeledEntryBytes(num_terms, /*concurrent=*/false)) {}

  /// Returns false if the memory budget was exceeded.
  [[nodiscard]] bool Add(DocType* doc, exec::WorkerContext& worker);

  DocType* Find(DocId doc, exec::WorkerContext& worker) const;

  std::size_t Size() const { return index_.size(); }
  std::size_t ApproxBytes() const;

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    index_.ForEach(fn);
  }

  /// Releases the modeled memory of this map (called when a snapshot is
  /// retired by the cleaner's pointer swing).
  void ReleaseModeledMemory(exec::WorkerContext& worker);

 private:
  std::int64_t entry_bytes_;
  bool memory_released_ = false;
  DocIndex index_;
};

}  // namespace sparta::topk
