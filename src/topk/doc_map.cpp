#include "topk/doc_map.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/trace.h"
#include "util/rng.h"

namespace sparta::topk {

Score SumUpperBounds(const UpperBounds& ub) {
  Score sum = 0;
  for (const auto& entry : ub) sum += entry.load(std::memory_order_relaxed);
  return sum;
}

DocType::DocType(DocId id, std::span<std::atomic<Score>> score)
    : score(score), id_(id) {}

Score DocType::SumScores() const {
  Score sum = 0;
  for (const auto& s : score) sum += s.load(std::memory_order_relaxed);
  return sum;
}

Score DocType::UpperBound(const UpperBounds& ub) const {
  SPARTA_CHECK(ub.size() == score.size());
  Score sum = 0;
  for (std::size_t i = 0; i < score.size(); ++i) {
    const Score s = score[i].load(std::memory_order_relaxed);
    sum += s > 0 ? s : ub[i].load(std::memory_order_relaxed);
  }
  return sum;
}

std::size_t DocIndex::HomeSlot(DocId doc) const {
  return static_cast<std::size_t>(util::Mix64(doc) >> shift_);
}

DocType* DocIndex::Find(DocId doc) const {
  if (keys_.empty()) return nullptr;
  const std::size_t mask = keys_.size() - 1;
  for (std::size_t i = HomeSlot(doc);; i = (i + 1) & mask) {
    if (keys_[i] == doc) return entries_[i];
    if (keys_[i] == kInvalidDoc) return nullptr;
  }
}

DocType* DocIndex::Insert(DocType* entry) {
  const DocId doc = entry->id();
  SPARTA_CHECK(doc != kInvalidDoc);
  if (2 * (size_ + 1) > keys_.size()) Grow();
  const std::size_t mask = keys_.size() - 1;
  for (std::size_t i = HomeSlot(doc);; i = (i + 1) & mask) {
    if (keys_[i] == doc) return entries_[i];
    if (keys_[i] == kInvalidDoc) {
      keys_[i] = doc;
      entries_[i] = entry;
      ++size_;
      return entry;
    }
  }
}

void DocIndex::Grow() {
  const std::size_t slots = std::max<std::size_t>(16, 2 * keys_.size());
  const std::vector<DocId> old_keys =
      std::exchange(keys_, std::vector<DocId>(slots, kInvalidDoc));
  const std::vector<DocType*> old_entries =
      std::exchange(entries_, std::vector<DocType*>(slots));
  shift_ = 64 - std::countr_zero(slots);
  const std::size_t mask = slots - 1;
  for (std::size_t j = 0; j < old_keys.size(); ++j) {
    if (old_keys[j] == kInvalidDoc) continue;
    std::size_t i = HomeSlot(old_keys[j]);
    while (keys_[i] != kInvalidDoc) i = (i + 1) & mask;
    keys_[i] = old_keys[j];
    entries_[i] = old_entries[j];
  }
}

std::span<std::atomic<Score>> ScoreSlab::Take(std::size_t n) {
  if (n == 0) return {};
  if (chunk_slots_ - used_ < n) {
    chunk_slots_ = chunk_slots_ == 0
                       ? 8 * n
                       : std::min(2 * chunk_slots_,
                                  std::max(kMaxChunkSlots, n));
    // Value-initialized: every slot starts at 0 ("not yet seen").
    chunks_.push_back(std::make_unique<std::atomic<Score>[]>(chunk_slots_));
    used_ = 0;
  }
  const std::span<std::atomic<Score>> slots(chunks_.back().get() + used_, n);
  used_ += n;
  return slots;
}

std::int64_t ModeledEntryBytes(int num_terms, bool concurrent) {
  // Modeled after the paper's Java implementation: a HashMap.Node (or
  // ConcurrentHashMap.Node plus its synchronization overhead), an
  // Integer-boxed key, a DocType object header with an int[] score array
  // and an int LB. See DESIGN.md §1 (memory-budget substitution).
  const std::int64_t node = concurrent ? 88 : 60;
  return node + 4 * static_cast<std::int64_t>(num_terms);
}

std::size_t ConcurrentDocMap::StripeOf(DocId doc) {
  return static_cast<std::size_t>(util::Mix64(doc)) %
         static_cast<std::size_t>(kStripes);
}

ConcurrentDocMap::ConcurrentDocMap(exec::QueryContext& ctx, int num_terms,
                                   std::int64_t modeled_entry_bytes)
    : num_terms_(num_terms),
      entry_bytes_(modeled_entry_bytes != 0
                       ? modeled_entry_bytes
                       : ModeledEntryBytes(num_terms, /*concurrent=*/true)),
      stripes_(kStripes) {
  const int domains = ctx.numa_domains();
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    Stripe& stripe = stripes_[s];
    stripe.lock = ctx.MakeLock();
    // Round-robin stripe placement across sockets by stripe *index* —
    // an allocator-independent key, so the placement (and every trace
    // downstream of it) is identical run to run. One domain degenerates
    // to the pre-NUMA layout: everything homed on domain 0.
    stripe.home_domain = domains <= 1 ? 0 : static_cast<int>(
        s % static_cast<std::size_t>(domains));
    // All stripes aggregate under one name; waits on the granular locks
    // are the docMap's serialization cost (§4.3).
    ctx.RegisterContentionRange(stripe.lock.get(), 1, "docMap.stripe");
  }
}

std::size_t ConcurrentDocMap::ApproxBytes() const {
  // DocType payload + hash node per entry, approximated for the cost
  // model (what matters is the cache level it lands in, not exact bytes).
  return Size() * (kModeledDocTypeBytes + 32 +
                   4 * static_cast<std::size_t>(num_terms_));
}

ConcurrentDocMap::GetOrCreateResult ConcurrentDocMap::GetOrCreate(
    DocId doc, exec::WorkerContext& worker) {
  Stripe& stripe = stripes_[StripeOf(doc)];
  GetOrCreateResult result;
  // Machine-gated span (the map sees only the WorkerContext, no
  // SearchParams); payload b is the operation: 0 = lookup hit,
  // 1 = insert, 2 = Find, 3 = Freeze drain. Begins before the stripe
  // guard so lock.wait spans nest inside.
  obs::SpanScope span(worker, obs::SpanKind::kDocMapAccess);
  span.set_args(doc, 0);
  const exec::CtxLockGuard guard(*stripe.lock, worker);
  worker.StructureAccessHomed(ApproxBytes(), /*write_shared=*/true,
                              stripe.home_domain);
  worker.ShadowAccess(&stripe.index, exec::AccessKind::kRead);
  if (DocType* found = stripe.index.Find(doc)) {
    result.doc = found;
    return result;
  }
  // A caller that observed UBStop slightly late may still reach here
  // after the cutoff; the check under the stripe lock makes the freeze
  // race-free (Freeze() drains this lock before publishing frozen_).
  if (insert_cutoff()) return result;
  if (!worker.ChargeMemory(entry_bytes_)) {
    (void)worker.ChargeMemory(-entry_bytes_);  // nothing was stored
    result.oom = true;
    return result;
  }
  worker.StructureAccessHomed(ApproxBytes(), /*write_shared=*/true,
                              stripe.home_domain, /*insert=*/true);
  worker.ShadowAccess(&stripe.index, exec::AccessKind::kWrite);
  DocType* created = &stripe.arena.emplace_back(
      doc, stripe.slab.Take(static_cast<std::size_t>(num_terms_)));
  stripe.index.Insert(created);
  const auto new_size =
      size_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto peak = peak_.load(std::memory_order_relaxed);
  while (new_size > peak &&
         !peak_.compare_exchange_weak(peak, new_size,
                                      std::memory_order_relaxed)) {
  }
  result.doc = created;
  result.inserted = true;
  span.set_args(doc, 1);
  return result;
}

DocType* ConcurrentDocMap::Find(DocId doc, exec::WorkerContext& worker) {
  // The stripe lock is held even in the read-only phase: the freeze is
  // not a synchronization point, so lock-free reads would race with the
  // last in-flight inserts (this is also the honest cost — the paper's
  // workers keep using the locked concurrent map until their termMap
  // replicas take over).
  Stripe& stripe = stripes_[StripeOf(doc)];
  obs::SpanScope span(worker, obs::SpanKind::kDocMapAccess);
  span.set_args(doc, 2);
  const exec::CtxLockGuard guard(*stripe.lock, worker);
  worker.StructureAccessHomed(ApproxBytes(), /*write_shared=*/!read_only(),
                              stripe.home_domain);
  worker.ShadowAccess(&stripe.index, exec::AccessKind::kRead);
  return stripe.index.Find(doc);
}

ConcurrentDocMap::BatchResult ConcurrentDocMap::ApplyBatch(
    std::span<const PendingScore> batch, exec::WorkerContext& worker,
    const ApplySink& sink) {
  BatchResult result;
  if (batch.empty()) return result;
  const std::size_t stripe_index = StripeOf(batch.front().doc);
  Stripe& stripe = stripes_[stripe_index];
  // Payload b = 4: batched phase-boundary merge (one span per stripe
  // batch, not per posting — the trace mirrors the cost structure).
  obs::SpanScope span(worker, obs::SpanKind::kDocMapAccess);
  span.set_args(batch.front().doc, 4);
  const exec::CtxLockGuard guard(*stripe.lock, worker);
  std::size_t i = 0;
  while (i < batch.size()) {
    const DocId doc = batch[i].doc;
    SPARTA_CHECK(StripeOf(doc) == stripe_index);
    std::size_t j = i + 1;
    while (j < batch.size() && batch[j].doc == doc) ++j;
    const std::span<const PendingScore> group = batch.subspan(i, j - i);
    i = j;
    worker.StructureAccessHomed(ApproxBytes(), /*write_shared=*/true,
                                stripe.home_domain);
    worker.ShadowAccess(&stripe.index, exec::AccessKind::kRead);
    DocType* entry = stripe.index.Find(doc);
    bool inserted = false;
    if (entry == nullptr) {
      // Same protocol as GetOrCreate: refusing an unseen doc after the
      // cutoff is exact (its buffered scores are ≤ the still-published
      // UB[i], so Σ UB ≤ Θ already rules it out of the top-k), and OOM
      // stops the batch honestly mid-way.
      if (insert_cutoff()) {
        ++result.refused;
        continue;
      }
      if (!worker.ChargeMemory(entry_bytes_)) {
        (void)worker.ChargeMemory(-entry_bytes_);  // nothing was stored
        result.oom = true;
        break;
      }
      worker.StructureAccessHomed(ApproxBytes(), /*write_shared=*/true,
                                  stripe.home_domain, /*insert=*/true);
      worker.ShadowAccess(&stripe.index, exec::AccessKind::kWrite);
      entry = &stripe.arena.emplace_back(
          doc, stripe.slab.Take(static_cast<std::size_t>(num_terms_)));
      stripe.index.Insert(entry);
      inserted = true;
      const auto new_size =
          size_.fetch_add(1, std::memory_order_relaxed) + 1;
      auto peak = peak_.load(std::memory_order_relaxed);
      while (new_size > peak &&
             !peak_.compare_exchange_weak(peak, new_size,
                                          std::memory_order_relaxed)) {
      }
    }
    sink(group, entry, inserted);
    ++result.applied;
  }
  return result;
}

void ConcurrentDocMap::Freeze(exec::WorkerContext& worker) {
  obs::SpanScope span(worker, obs::SpanKind::kDocMapAccess);
  span.set_args(0, 3);
  insert_cutoff_.store(true, std::memory_order_release);
  // Drain: any insert that passed the cutoff check is still inside its
  // stripe's critical section; acquiring each lock once waits it out.
  // Inserts acquiring after our unlock see the cutoff and back off.
  for (auto& stripe : stripes_) {
    const exec::CtxLockGuard guard(*stripe.lock, worker);
  }
  frozen_.store(true, std::memory_order_release);
}

ConcurrentDocMap::GetOrCreateResult ConcurrentDocMap::AddScore(
    DocId doc, Score delta, exec::WorkerContext& worker) {
  GetOrCreateResult result = GetOrCreate(doc, worker);
  if (result.doc != nullptr) {
    result.doc->lb.fetch_add(delta, std::memory_order_relaxed);
  }
  return result;
}

bool LocalDocMap::Add(DocType* doc, exec::WorkerContext& worker) {
  SPARTA_CHECK(doc != nullptr);
  if (!worker.ChargeMemory(entry_bytes_)) {
    // The entry is not stored, so its charge must not linger.
    (void)worker.ChargeMemory(-entry_bytes_);
    return false;
  }
  worker.StructureAccess(ApproxBytes(), /*write_shared=*/false,
                         /*insert=*/true);
  index_.Insert(doc);
  return true;
}

DocType* LocalDocMap::Find(DocId doc, exec::WorkerContext& worker) const {
  worker.StructureAccess(ApproxBytes(), /*write_shared=*/false);
  return index_.Find(doc);
}

std::size_t LocalDocMap::ApproxBytes() const {
  // Hash node plus the referenced DocType payload the reader touches.
  return index_.size() * (24 + kModeledDocTypeBytes + 48);
}

void LocalDocMap::ReleaseModeledMemory(exec::WorkerContext& worker) {
  if (memory_released_) return;
  memory_released_ = true;
  // Releasing cannot newly exceed the budget; ignore the flag.
  (void)worker.ChargeMemory(-entry_bytes_ *
                            static_cast<std::int64_t>(index_.size()));
}

}  // namespace sparta::topk
