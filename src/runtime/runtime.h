// Runtime: the serving engine. Registered plans share one process and one
// Object Store; executor threads (one warm ExecContext each, so hot paths
// stay allocation-free) drain per-plan event queues.
//
// Scheduling model (Section 5.4): every request — sync, async single, batch
// — becomes an event on its plan's queue. Executors drain plans
// round-robin, one dispatch quantum per turn, so a 10k-record batch cannot
// head-of-line-block a 1-record request on another plan. An adaptive
// batcher coalesces queued single predictions for the same plan into
// sub-batches bounded by a per-plan max_batch / max-delay policy, amortizing
// queue and wakeup costs under load while leaving idle-system latency
// untouched.
//
// Hot-path concurrency (lockfree_scheduler, the default): no enqueue,
// dispatch, or buffer acquire takes a mutex in the common case.
//  - Each plan's events ride a bounded lock-free MPSC ring
//    (BoundedMpmcRing; producers = caller/FrontEnd threads, consumer = the
//    executor holding the plan's dispatch quantum). Bursts beyond the ring
//    spill to a FIFO chain of ring segments linked through a Vyukov
//    intrusive MPSC queue — wait-free push, bulk-refilled back into the
//    ring by the consumer — so even deep backlogs never take a mutex; the
//    ResourceExhausted cap is enforced by an atomic counter before any
//    structure is touched.
//  - A plan is claimed for dispatch via an atomic `scheduled` flag; the
//    runnable rotation itself is a lock-free MPMC ring of PlanQueue*.
//  - Executors park and linger on an EventCount: producers skip the kernel
//    entirely while every executor is busy; mutex+condvar survive only on
//    the park/unpark slow path.
//  - Counters are relaxed atomics and the SampleStats reservoirs are
//    sharded per executor, merged only at GetMetrics() time — metrics never
//    ride the dispatch path and a snapshot never stalls dispatch.
// The PR-2 mutex/condvar scheduler is kept in-tree behind
// RuntimeOptions::lockfree_scheduler = false as the bench_contention
// comparison baseline.
//
// Reservations (Section 5.4.1): a registration may reserve cores. Reserved
// plans get dedicated executors draining a dedicated group, and ALL their
// traffic — including synchronous Predict — is accounted against those
// executors, so their latency is isolated from shared-pool load. Unreserved
// synchronous singles keep the inline fast path (a queue hop buys them
// nothing).
//
// The Runtime owns one SubPlanCache and one VectorPool per executor (plus
// one each for the inline path), so Figure-10 sub-plan materialization is
// active in serving, and exposes per-plan queue/batch/latency metrics plus
// pool hit/miss counters through GetMetrics().
#ifndef PRETZEL_RUNTIME_RUNTIME_H_
#define PRETZEL_RUNTIME_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/lockfree.h"
#include "src/common/mutex.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/oven/model_plan.h"
#include "src/oven/subplan_cache.h"
#include "src/runtime/exec_context.h"
#include "src/store/object_store.h"

namespace pretzel {

struct RuntimeOptions {
  size_t num_executors = 1;
  // Hard cap on dedicated executors one registration may reserve.
  size_t max_reserved_cores_per_plan = 4;
  // Sub-plan materialization cache budget per executor (0 disables). Each
  // executor owns a private cache, so the hot path never contends on it
  // across cores.
  size_t subplan_cache_bytes = 8ull << 20;
  // Per-plan cap on queued events (backpressure); 0 = unbounded. Enqueues
  // that would exceed it fail fast with ResourceExhausted.
  size_t max_queued_events_per_plan = 0;
  // Coalescing policy for plans whose registration does not override it:
  // up to default_max_batch queued singles dispatch as one sub-batch; an
  // executor may linger up to default_max_delay_us for a thin batch to
  // fill, but only while no other plan has runnable work.
  size_t default_max_batch = 16;
  int64_t default_max_delay_us = 0;
  // Scheduler implementation. True (default): lock-free MPSC event rings,
  // lock-free runnable ring, eventcount parking. False: the PR-2
  // mutex/condvar baseline, kept for apples-to-apples contention benches.
  bool lockfree_scheduler = true;
  // Per-plan event-ring capacity (rounded up to a power of two). Bursts
  // beyond it spill to a lock-free FIFO chain of ring segments —
  // correctness and admission semantics are unchanged, only that tail
  // leaves the single-CAS fast path. Lock-free mode only.
  size_t event_ring_capacity = 256;
  // Deadline-aware admission: when a request carries a deadline and the
  // plan's queue-delay EWMA already exceeds the remaining budget, shed at
  // admission with ResourceExhausted (plus retry-after hint) instead of
  // queueing work that will expire — the caller can retry elsewhere NOW
  // rather than learn of the miss after the deadline. Requests without a
  // deadline are never shed by this check.
  bool deadline_admission = true;
};

struct PlanRegistration {
  // > 0: dedicate this many executors to the plan. Dedicated executors are
  // additional threads so reservations never starve the shared pool.
  size_t reserve_cores = 0;
  // Per-plan adaptive batching overrides (0 / negative = runtime default).
  size_t max_batch = 0;
  int64_t max_delay_us = -1;
};

// A granted reservation: which plan owns which dedicated executors.
struct Reservation {
  size_t plan_id = 0;
  size_t num_cores = 0;
};

// Per-plan scheduler observability (GetMetrics snapshot).
struct PlanMetrics {
  size_t plan_id = 0;
  std::string plan_name;
  bool reserved = false;
  bool retired = false;  // Retire() completed; the plan no longer admits.
  size_t queue_depth = 0;           // Events queued right now.
  uint64_t inline_predictions = 0;  // Unreserved sync fast path.
  uint64_t enqueued_events = 0;
  uint64_t rejected_events = 0;     // Backpressure drops.
  uint64_t dispatches = 0;          // Executor pulls (quanta).
  uint64_t coalesced_singles = 0;   // Singles dispatched via coalescing.
  // Always 0: coalesced singles run the per-event ExecutePlan loop. Kept
  // because perfbench reports it as runtime.batched_share.
  uint64_t batched_singles = 0;
  uint64_t errors = 0;              // Failed records/singles.
  // Deadline accounting (requests that carried one). Work is dropped the
  // moment expiry is detectable: at admission, when a queued single reaches
  // its dispatch, and between a batch job's chunk quanta. Expired work is
  // NOT counted in `errors` — it failed the SLO, not the computation.
  uint64_t expired_admission = 0;   // Rejected before enqueue.
  uint64_t expired_dequeue = 0;     // Singles expired awaiting dispatch.
  uint64_t expired_quantum = 0;     // Batch records dropped between quanta.
  // Requests shed at admission because the queue-delay estimate exceeded
  // the remaining deadline budget (RuntimeOptions::deadline_admission).
  uint64_t shed_deadline = 0;
  // EWMA of enqueue->dispatch delay (the retry-after hint attached to this
  // plan's ResourceExhausted rejections).
  int64_t queue_delay_ewma_us = 0;
  // The SampleStats below are windowed (each per-executor shard restarts
  // when its window fills — kMetricsWindow in runtime.cc divided across the
  // group's shards), so long-running servers keep bounded memory and the
  // percentiles describe recent traffic. Snapshots merge the shards.
  SampleStats batch_records;        // Records per dispatch.
  SampleStats queue_wait_us;        // Enqueue -> dispatch.
  // Enqueue -> completion, sampled once per dispatch (the dispatched
  // group's oldest single, i.e. its worst case).
  SampleStats single_latency_us;
};

struct RuntimeMetrics {
  std::vector<PlanMetrics> plans;
  // Aggregated over every executor-owned cache plus the inline-path cache.
  SubPlanCache::Stats subplan_cache;
  size_t subplan_cache_entries = 0;
  size_t subplan_cache_bytes = 0;
  // Aggregated over every executor-owned VectorPool plus the inline-path
  // pool: free-list effectiveness and capacity-cap drops.
  VectorPool::Stats vector_pool;
};

// Merges `from` into `into`: cache/pool aggregates are summed, and plan
// entries are folded BY NAME — two entries with the same plan_name (the
// replicas a routing tier registers on several Runtimes) collapse into one
// logical row with summed counters, merged reservoirs, and an
// event-weighted queue-delay EWMA, so a replicated plan is never counted
// as N plans. Names unique within the fold (the common case) degrade to a
// plain append. plan_id keeps the first replica's shard-local id and is
// not meaningful across Runtimes; the per-shard breakdown (retained
// separately by the ShardRouter caller) is where per-replica ids live.
void MergeRuntimeMetrics(RuntimeMetrics& into, const RuntimeMetrics& from);

class Runtime {
 public:
  using PlanId = size_t;
  using BatchCallback = std::function<void(Status, std::span<const float>)>;
  using SingleCallback = std::function<void(Result<float>)>;

  Runtime(ObjectStore* store, const RuntimeOptions& options);
  // NO_THREAD_SAFETY_ANALYSIS: the destructor is single-threaded by
  // contract (callers must stop submitting before destruction) and must
  // join threads_ WITHOUT holding registry_mu_ — an in-flight callback on
  // an executor thread may re-enter Predict and take the shared side, so
  // joining under the writer lock would deadlock.
  ~Runtime() NO_THREAD_SAFETY_ANALYSIS;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  Result<PlanId> Register(std::shared_ptr<ModelPlan> plan,
                          const PlanRegistration& registration = {});

  // Retires a plan: new work is refused with NotFound, in-flight work (an
  // inline predict mid-execution, queued events, a dispatching quantum)
  // drains, and then the ModelPlan reference is dropped — so once the
  // ObjectStore has Released the version's params, Retire is the point its
  // unshared blobs can actually leave the heap. Blocking, control-plane
  // only; MUST NOT be called from an executor thread (it waits on executor
  // progress). Idempotent: a second call returns OK without re-draining.
  // The PlanQueue shell itself persists — id stability and the
  // QueueDelayCounter pointer contract are unchanged — only the plan (and
  // its parameter references) is reclaimed.
  Status Retire(PlanId id);

  // Every entry point takes an optional absolute deadline (NowNs() domain;
  // 0 = none). Expired work is dropped at admission, when a queued single
  // reaches dispatch, and between a batch job's chunk quanta — each drop
  // completes with Status::DeadlineExceeded whose message attributes where
  // the budget went (queue wait vs overrun), and lands in the plan's
  // expired_* counters. With deadline_admission, a request whose remaining
  // budget is already below the queue-delay estimate is shed up front with
  // ResourceExhausted (+ retry-after hint) instead.

  // Synchronous single prediction. Unreserved plans execute inline on the
  // caller's thread; reserved plans ride their dedicated queue so latency
  // isolation holds for sync traffic too. The input bytes are borrowed for
  // the call and may be a text record or a BinaryRecord wire record
  // (src/common/serialize.h) — binary records take the zero-parse path.
  Result<float> Predict(PlanId id, std::string_view input,
                        int64_t deadline_ns = 0);

  // Zero-copy binary entry point: `record` is one BinaryRecord, validated
  // and executed in place (an aligned dense payload aliases straight into
  // the kernels; no parse, no conversion).
  Result<float> PredictBinary(PlanId id, std::span<const uint8_t> record,
                              int64_t deadline_ns = 0);

  // Zero-copy binary batch: `records` is a back-to-back concatenation of
  // BinaryRecords (the wire batch framing — SplitBinaryBatch). The buffer
  // is split into borrowed per-record views and ridden through the
  // borrowed-span batch path: executors score aligned payloads in place
  // and write scores through `out`
  // (out.size() >= record count). Blocks until completion.
  Status PredictBinary(PlanId id, std::span<const uint8_t> records,
                       size_t max_batch, std::span<float> out,
                       int64_t deadline_ns = 0);

  // Asynchronous single prediction: an event on the plan's queue, eligible
  // for coalescing with other queued singles of the same plan. `callback`
  // fires exactly once, from an executor thread.
  Status PredictAsync(PlanId id, std::string input, SingleCallback callback,
                      int64_t deadline_ns = 0);

  // Splits `inputs` into sub-batches of at most `max_batch` records, fans
  // them across the executors, and returns the scores in input order.
  Result<std::vector<float>> PredictBatch(PlanId id,
                                          const std::vector<std::string>& inputs,
                                          size_t max_batch,
                                          int64_t deadline_ns = 0);

  // Copy-free variant: executors write scores straight through the caller's
  // span (out.size() >= inputs.size()), and the inputs are borrowed, not
  // copied — the caller blocks until completion, so both stay valid. This
  // is the batch hot path; the vector-returning overload wraps it.
  Status PredictBatch(PlanId id, const std::vector<std::string>& inputs,
                      size_t max_batch, std::span<float> out,
                      int64_t deadline_ns = 0);

  // Borrowed-views variant of the span overload: `inputs` points at `n`
  // record views (text or binary wire bytes) that stay valid for the call.
  // This is the path the binary batch entry point rides.
  Status PredictBatch(PlanId id, const std::string_view* inputs, size_t n,
                      size_t max_batch, std::span<float> out,
                      int64_t deadline_ns = 0);

  // Asynchronous batch: returns after enqueueing; `callback` fires exactly
  // once, from an executor thread, with scores in input order. A deadline
  // expiring mid-batch drops only the chunks not yet executed: records in
  // chunks that ran before expiry keep their scores, dropped records score
  // 0.0f, and the batch Status is DeadlineExceeded.
  Status PredictBatchAsync(PlanId id, std::vector<std::string> inputs,
                           BatchCallback callback, size_t max_batch,
                           int64_t deadline_ns = 0);

  // Snapshot of per-plan queue/batch/latency metrics, aggregate
  // sub-plan-cache effectiveness, and pool counters. Never blocks dispatch:
  // counters are atomics and the stats shards are copied per-executor.
  RuntimeMetrics GetMetrics() const EXCLUDES(registry_mu_);

  size_t num_executors() const { return options_.num_executors; }
  std::vector<Reservation> reservations() const EXCLUDES(registry_mu_);
  ObjectStore* store() const { return store_; }

  // Per-plan load export for a routing tier: a borrowed pointer to the
  // plan's enqueue->dispatch queue-delay EWMA (microseconds; relaxed
  // writer-side updates, so readers load relaxed). The pointee lives as
  // long as the Runtime — PlanQueues are never reclaimed — so a router may
  // cache the pointer at placement time and read live load on every
  // routing decision (power-of-two-choices) without re-entering the
  // registry lock or snapshotting full RuntimeMetrics. Null for unknown
  // ids.
  const std::atomic<int64_t>* QueueDelayCounter(PlanId id) const
      EXCLUDES(registry_mu_);

 private:
  struct BatchJob;
  // One schedulable unit: either a single prediction (job == nullptr) or a
  // sub-range of a BatchJob.
  struct Event {
    std::shared_ptr<BatchJob> job;
    size_t begin = 0;
    size_t end = 0;
    std::string input;
    SingleCallback done;
    int64_t enqueue_ns = 0;
    // Absolute expiry (singles; chunks carry the job's). 0 = none.
    int64_t deadline_ns = 0;
  };
  struct ExecGroup;
  struct PlanQueue;
  struct MetricShard;
  struct SpillSegment;

  // Appends to threads_ / executor_caches_ / executor_pools_; callers hold
  // the registry lock exclusively (constructor and Register).
  void SpawnExecutor(ExecGroup* group) REQUIRES(registry_mu_);
  // Deadline admission gate, shared by every queued entry point: rejects
  // already-expired work (DeadlineExceeded, expired_admission) and — with
  // deadline_admission — sheds work whose remaining budget is below the
  // queue-delay estimate (ResourceExhausted + hint, shed_deadline). `n` is
  // the record count the counters move by.
  Status AdmitDeadline(PlanQueue* pq, int64_t deadline_ns, size_t n);
  // Chunks a prepared BatchJob into per-quantum events and enqueues them.
  Status SubmitBatchJob(PlanQueue* pq, std::shared_ptr<BatchJob> job,
                        size_t max_batch);
  // Submits a borrowed-input job and blocks until its callback fires
  // (the synchronous span/views/binary batch entry points share this).
  Status SubmitBatchJobAndWait(PlanQueue* pq, std::shared_ptr<BatchJob> job,
                               size_t max_batch);
  void ExecutorLoop(ExecGroup* group, SubPlanCache* cache, VectorPool* pool,
                    size_t shard_idx);
  void ExecutorLoopMutex(ExecGroup* group, ExecContext& ctx, size_t shard_idx);
  PlanQueue* GetQueue(PlanId id) const EXCLUDES(registry_mu_);

  // The one enqueue protocol (cap check, stamping, publication, wakeups);
  // all entry points delegate to it. Dispatches on lockfree_scheduler.
  Status EnqueueEvents(PlanQueue* pq, Event* events, size_t n);
  Status Enqueue(PlanQueue* pq, std::vector<Event> events);
  // Allocation-free single-event fast path (async/sync singles).
  Status EnqueueOne(PlanQueue* pq, Event event);

  // Lock-free mode helpers.
  Status EnqueueLockFree(PlanQueue* pq, Event* events, size_t n);
  static void PushRunnable(ExecGroup* group, PlanQueue* pq);
  static bool PopRunnable(ExecGroup* group, PlanQueue** pq);
  // Pops the plan's next event (held slot, then ring, then spill chain).
  // Quantum-owner only.
  static bool PopEvent(PlanQueue* pq, Event* out);
  // Takes the oldest spilled event and bulk-refills the ring from the
  // remaining chain. Quantum-owner only.
  static bool PopSpill(PlanQueue* pq, Event* out);
  void LingerLockFree(ExecGroup* group, PlanQueue* pq, int64_t oldest_ns);
  // Executes one gathered quantum (outside all scheduler structures) and
  // records error/latency accounting into this executor's shard.
  void ExecuteQuantum(PlanQueue* pq, std::vector<Event>& batch,
                      ExecContext& ctx, size_t shard_idx);

  ObjectStore* store_;
  const RuntimeOptions options_;

  // Registry lock: guards the plan registry and the executor bookkeeping
  // vectors below. Register takes it exclusively; every request path takes
  // it shared just long enough to resolve PlanId -> PlanQueue* (the pointee
  // is never reclaimed while the Runtime lives, so the pointer may escape
  // the lock). Leaf lock: never held across plan execution, and executor
  // threads never acquire it.
  mutable SharedMutex registry_mu_;
  std::vector<std::unique_ptr<PlanQueue>> plan_queues_ GUARDED_BY(registry_mu_);
  std::vector<Reservation> reservations_ GUARDED_BY(registry_mu_);
  // Created once in the constructor, never reseated; the group's internals
  // carry their own synchronization.
  std::unique_ptr<ExecGroup> shared_group_;
  std::vector<std::unique_ptr<ExecGroup>> reserved_groups_
      GUARDED_BY(registry_mu_);
  std::vector<std::unique_ptr<SubPlanCache>> executor_caches_
      GUARDED_BY(registry_mu_);
  std::vector<std::unique_ptr<VectorPool>> executor_pools_
      GUARDED_BY(registry_mu_);

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_ GUARDED_BY(registry_mu_);

  // Contexts + cache for inline (caller-thread) predictions.
  VectorPool caller_pool_;
  ExecContextPool caller_contexts_;
  std::unique_ptr<SubPlanCache> caller_cache_;
};

}  // namespace pretzel

#endif  // PRETZEL_RUNTIME_RUNTIME_H_
