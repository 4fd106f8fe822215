// Per-executor execution state: pooled buffers (VectorPool), the reusable
// scratch an in-flight prediction writes through (ExecContext), a context
// pool, and the plan executor entry point. Keeping every buffer here is what
// makes the hot path allocation-free (Section 5.2.1's "vector pooling"
// ablation toggles exactly this). Both pools hand out and take back buffers
// through Treiber-stack free lists (src/common/lockfree.h), so acquire and
// release are a CAS each — no mutex even when many threads share one pool.
#ifndef PRETZEL_RUNTIME_EXEC_CONTEXT_H_
#define PRETZEL_RUNTIME_EXEC_CONTEXT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/lockfree.h"
#include "src/common/status.h"
#include "src/ops/feature_vector.h"

namespace pretzel {

class ModelPlan;
class SubPlanCache;

class VectorPool {
 public:
  struct Options {
    // When false, buffers are released after every prediction, putting
    // allocation back on the data path (the no-pooling ablation).
    bool pooling_enabled = true;
    // Released buffers whose capacity outgrew this many floats are dropped
    // instead of cached, so one giant prediction cannot pin its high-water
    // mark in the pool forever. 0 = uncapped (the old behavior).
    size_t max_cached_floats = 64 * 1024;
  };

  // Pool effectiveness counters (all monotonic since construction).
  struct Stats {
    uint64_t hits = 0;              // Acquires served from the free list.
    uint64_t misses = 0;            // Acquires that had to allocate.
    uint64_t released = 0;          // ReleaseFloats calls (pooling on).
    uint64_t dropped_oversized = 0; // Releases dropped by the capacity cap.
    uint64_t dropped_full = 0;      // Releases dropped because all slots full.

    Stats& operator+=(const Stats& other) {
      hits += other.hits;
      misses += other.misses;
      released += other.released;
      dropped_oversized += other.dropped_oversized;
      dropped_full += other.dropped_full;
      return *this;
    }
  };

  VectorPool() : VectorPool(Options{}) {}
  explicit VectorPool(const Options& options);

  bool pooling_enabled() const { return options_.pooling_enabled; }

  // Free-listed float buffers for callers that need transient vectors
  // outside an ExecContext (batch assembly and tests). Lock-free: one CAS
  // to pop a cached buffer, one to return the emptied slot. Release takes
  // an rvalue: the buffer is moved in, never copied.
  std::vector<float> AcquireFloats(size_t size);
  void ReleaseFloats(std::vector<float>&& v);

  Stats GetStats() const;

 private:
  static constexpr uint32_t kSlots = 64;

  Options options_;
  // Cached buffers live in fixed slots; `free_` holds indices of slots with
  // a buffer, `empty_` indices without one. A slot's contents are published
  // by the release-CAS of the push that hands its index over.
  std::array<std::vector<float>, kSlots> slots_;
  IndexStack free_{kSlots};
  IndexStack empty_{kSlots};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> released_{0};
  std::atomic<uint64_t> dropped_oversized_{0};
  std::atomic<uint64_t> dropped_full_{0};
};

// All scratch an executing prediction touches. Reused across predictions
// (warm buffers, zero allocation); a fresh context models the unpooled path.
// Operator outputs ride FeatureVectors (dense span | sorted sparse) whose
// value storage leases from this context's pool.
struct ExecContext {
  explicit ExecContext(VectorPool* p)
      : pool(p),
        char_features(p),
        word_features(p),
        concat_features(p),
        dense_features(p) {}

  VectorPool* pool = nullptr;
  // Optional sub-plan materialization cache (bench/figure 10). Not owned.
  SubPlanCache* subplan_cache = nullptr;

  // Text-family scratch.
  std::string text;
  std::vector<std::pair<uint32_t, uint32_t>> spans;
  std::vector<uint32_t> cache_ids;
  std::vector<uint32_t> raw_hits;
  // Materialized operator outputs (unpushed plans): sparse count vectors
  // per branch, plus the concatenated space for plans that keep the Concat.
  FeatureVector char_features;
  FeatureVector word_features;
  FeatureVector concat_features;
  // Dense-family scratch.
  std::vector<float> dense_in;
  std::vector<float> pca_out;
  std::vector<float> kmeans_out;
  std::vector<float> tree_out;
  FeatureVector dense_features;
  // Binary sparse-record staging (misaligned payloads only).
  std::vector<uint32_t> sparse_ids;
  std::vector<float> sparse_vals;
  // Executor-side quantum scratch (Runtime::ExecuteQuantum): borrowed
  // input views for string batch chunks. Lives here so the scheduler hot
  // path stays allocation-free once warm.
  std::vector<std::string_view> batch_views;

  // Drops buffer capacity (the no-pooling path calls this after every
  // prediction).
  void ReleaseScratch();
};

// Hands out ExecContexts; with reuse enabled, released contexts keep their
// warm buffers and are handed out again. Same Treiber-stack slot scheme as
// VectorPool: acquire/release are lock-free.
class ExecContextPool {
 public:
  ExecContextPool(VectorPool* pool, bool reuse_enabled);

  std::unique_ptr<ExecContext> Acquire();
  void Release(std::unique_ptr<ExecContext> ctx);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  static constexpr uint32_t kSlots = 256;

  VectorPool* pool_;
  const bool reuse_enabled_;
  std::array<std::unique_ptr<ExecContext>, kSlots> slots_;
  IndexStack free_{kSlots};
  IndexStack empty_{kSlots};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

// Executes one prediction through a compiled plan. Binds the plan first if
// compilation deferred it (no-AOT). Thread-safe across distinct contexts.
// The input is borrowed bytes: either a text record or a BinaryRecord wire
// record (src/common/serialize.h) — binary records take the zero-parse fast
// path (dense payloads alias straight into the kernels; sparse records
// score as pre-featurized vectors over the plan's concat space).
Result<float> ExecutePlan(const ModelPlan& plan, std::string_view input,
                          ExecContext& ctx);

// Executes `n` inputs through the plan, writing one score per record to
// `scores`. Every record runs through ExecutePlan — one kernel family and one
// reduction order — so a batch scores bit-identically to the same records
// executed one at a time, and an invalid record fails alone while its
// neighbors score. Returns the number of failed records; failed records
// score 0.0f, *first_error (when non-null) receives the first failure, and
// failed_flags (when non-null, n bytes) gets 1 for each failed record.
size_t ExecutePlanBatch(const ModelPlan& plan, const std::string_view* inputs,
                        size_t n, float* scores, ExecContext& ctx,
                        Status* first_error, uint8_t* failed_flags = nullptr);

// Convenience overload for std::string arrays (tests and benches); it
// materializes a transient view array and forwards.
size_t ExecutePlanBatch(const ModelPlan& plan, const std::string* inputs,
                        size_t n, float* scores, ExecContext& ctx,
                        Status* first_error, uint8_t* failed_flags = nullptr);

}  // namespace pretzel

#endif  // PRETZEL_RUNTIME_EXEC_CONTEXT_H_
