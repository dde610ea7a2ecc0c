// Shared experiment configuration: the paper's approximate variants and
// the recall-dynamics instrumentation (§5.3).
#pragma once

#include <string>
#include <vector>

#include "driver/bench_driver.h"
#include "topk/params.h"

namespace sparta::driver {

/// A named (algorithm, parameter) instance, e.g. "pBMW-high".
struct AlgoVariant {
  std::string algorithm;  ///< registry name
  std::string label;      ///< display label ("Sparta-high")
  topk::SearchParams params;
};

/// Result-set size used throughout the scaled experiments (the paper
/// uses k = 1000 on the 500x larger corpora and reports k = 100 as
/// qualitatively similar; see EXPERIMENTS.md).
int DefaultK();

/// Number of workers used for a query of `terms` terms (the paper gives
/// each query as many workers as terms, capped at the machine size).
int WorkersFor(int terms);

/// The paper's fixed machine size.
inline constexpr int kMachineWorkers = 12;

/// Δ for the TA-family approximate variants: 2 ms, the paper's 10 ms
/// (§5.3.2) recalibrated to ≥ 96% recall on the scaled corpora.
exec::VirtualTime DefaultDelta();

/// The exact variants of the §5 comparison set (Table 2).
std::vector<AlgoVariant> ExactVariants();

/// High-recall approximate variants (Figs. 3a-3c, Tables 3-4):
/// Δ = DefaultDelta() (2 ms) for Sparta/pRA/pNRA/sNRA, f = 2 for pBMW,
/// p = 0.75 for pJASS — the paper's Δ = 10 ms, f = 5 and p = 0.02
/// recalibrated to ≥ 96% recall on the scaled corpora.
std::vector<AlgoVariant> HighRecallVariants();

/// Low-recall variants (Figs. 3d-3e): pBMW f = 10, pJASS p = 0.4 (the
/// paper's p = 0.005, recalibrated like the high variant).
std::vector<AlgoVariant> LowRecallVariants();

/// True when SPARTA_QUICK is set: benches shrink query counts for smoke
/// runs.
bool QuickMode();

/// Applies quick-mode reduction to a query count.
std::size_t QueryBudget(std::size_t full);

// --- recall dynamics (Figs. 3f-3g) -------------------------------------

/// Records every heap update with its virtual timestamp.
class TraceRecorder final : public topk::HeapTracer {
 public:
  struct Event {
    exec::VirtualTime time;
    DocId doc;
    Score score;
  };

  void OnHeapUpdate(exec::VirtualTime time, DocId doc,
                    Score score) override {
    events_.push_back({time, doc, score});
  }

  const std::vector<Event>& events() const { return events_; }
  void Clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

/// Replays a trace: recall of the (reconstructed) heap contents at each
/// sample time, relative to the query's start time.
std::vector<double> RecallOverTime(const TraceRecorder& trace,
                                   exec::VirtualTime query_start,
                                   const topk::ExactTopK& exact,
                                   std::span<const exec::VirtualTime>
                                       sample_offsets);

}  // namespace sparta::driver
