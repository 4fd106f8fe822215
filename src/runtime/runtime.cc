#include "src/runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/common/fault.h"
#include "src/common/serialize.h"

namespace pretzel {

// One logical batch request. Executors decrement `remaining` as they finish
// sub-ranges; the last one out invokes the callback. Inputs and results are
// either owned (async submissions) or borrowed from a blocked synchronous
// caller (the span PredictBatch — no string copies, no result copy).
struct Runtime::BatchJob {
  std::shared_ptr<ModelPlan> plan;
  std::vector<std::string> owned_inputs;
  // Binary batch framing: per-record views into the caller's wire buffer
  // (the caller blocks, so the buffer outlives the job).
  std::vector<std::string_view> owned_views;
  std::vector<float> owned_results;
  // Exactly one of these two is set: string records (owned or borrowed
  // from a blocked caller) or borrowed record views (text or binary wire
  // bytes).
  const std::string* str_inputs = nullptr;
  const std::string_view* view_inputs = nullptr;
  float* results = nullptr;
  size_t count = 0;
  std::atomic<size_t> remaining{0};
  BatchCallback callback;
  // Absolute expiry shared by every chunk; checked between quanta so a
  // deadline that dies mid-batch stops burning executors on the remainder.
  int64_t deadline_ns = 0;

  Mutex error_mu;
  Status first_error GUARDED_BY(error_mu);  // OK unless some record failed.
};

// Per-plan metric reservoirs are windowed: SampleStats keeps exact samples,
// so unbounded Add() on the dispatch path would grow forever. When a
// shard's window fills, its stats restart; percentiles describe the most
// recent window. The budget is split across a plan's shards, keeping total
// retained samples near kMetricsWindow per plan — up to the 256-sample
// per-shard floor, which preserves percentile fidelity for groups with
// many executors at the cost of a proportionally larger total window.
constexpr size_t kMetricsWindow = 4096;

// Capacity of each group's runnable rotation ring; a plan occupies at most
// one slot (the `scheduled` claim), so this bounds plans per group.
constexpr size_t kRunnableRingCapacity = 8192;

static void AddWindowed(SampleStats& stats, double value, size_t window) {
  if (stats.count() >= window) {
    stats = SampleStats();
  }
  stats.Add(value);
}

static void MergeStats(SampleStats& into, const SampleStats& from) {
  for (const double sample : from.samples()) {
    into.Add(sample);
  }
}

// Retry-after plumbing: every dispatch folds its queue wait into the plan's
// EWMA (alpha 1/8); a ResourceExhausted rejection attaches that estimate,
// floored at 1us so callers can test `retry_after_us() > 0` for presence.
static void RecordQueueDelay(std::atomic<int64_t>& ewma, int64_t wait_us) {
  const int64_t prev = ewma.load(std::memory_order_relaxed);
  ewma.store(prev + (wait_us - prev) / 8, std::memory_order_relaxed);
}

static int64_t RetryAfterHintUs(const std::atomic<int64_t>& ewma) {
  return std::max<int64_t>(1, ewma.load(std::memory_order_relaxed));
}

// Time-spent attribution for a deadline drop: where the budget went is
// something only the dropping tier knows. `enqueue_ns` == 0 means the work
// never entered a queue (admission-time drop). The machine-readable stage
// rides the status so ShardRouter's health accounting can tell "arrived
// already dead" (not this shard's fault) from "died in this shard".
static Status ExpiredStatus(const char* stage, DeadlineStage stage_tag,
                            int64_t now_ns, int64_t deadline_ns,
                            int64_t enqueue_ns) {
  std::string msg = std::string(stage) + ", " +
                    std::to_string((now_ns - deadline_ns) / 1000) +
                    "us past deadline";
  if (enqueue_ns > 0) {
    msg += " after " + std::to_string((now_ns - enqueue_ns) / 1000) +
           "us queued";
  }
  return Status::DeadlineExceeded(std::move(msg)).WithDeadlineStage(stage_tag);
}

// One executor's slice of a plan's latency/batch reservoirs. Only its
// owning executor writes it (one lock/unlock per dispatch, uncontended
// unless a GetMetrics snapshot is copying this exact shard), so metric
// recording never serializes executors against each other or against
// snapshots.
struct Runtime::MetricShard {
  Mutex mu;
  SampleStats batch_records GUARDED_BY(mu);
  SampleStats queue_wait_us GUARDED_BY(mu);
  SampleStats single_latency_us GUARDED_BY(mu);
};

// One link of a plan's overflow spill: a producer's burst remainder, packed
// into a ring segment chained FIFO behind the bounded event ring through
// the lock-free Vyukov MPSC queue. Sized exactly to the call's spilled
// events (trailing storage, one allocation) because the dominant spill
// producer is a single-event enqueue: a fixed-capacity segment would pay
// for dead Event constructions and kilobytes of slack per spilled single —
// a fixed per-event tax that measurably compresses the coalescing win.
// Producer-created on the (rare) spill path, consumer-destroyed after its
// events are drained or bulk-refilled into the ring.
struct Runtime::SpillSegment : MpscNode {
  size_t count = 0;

  Event* events() { return reinterpret_cast<Event*>(this + 1); }

  // Moves events[0, n) out of `src` into the trailing storage.
  static SpillSegment* Create(Event* src, size_t n) {
    static_assert(alignof(Event) <= alignof(SpillSegment),
                  "trailing Event storage would be misaligned");
    void* mem = ::operator new(sizeof(SpillSegment) + n * sizeof(Event));
    auto* segment = new (mem) SpillSegment();
    segment->count = n;
    for (size_t i = 0; i < n; ++i) {
      new (&segment->events()[i]) Event(std::move(src[i]));
    }
    return segment;
  }

  // Destroys every slot (moved-from ones included; at shutdown undrained
  // slots still hold events whose callbacks never ran — the same semantics
  // the stranded deque had).
  static void Destroy(SpillSegment* segment) {
    for (size_t i = 0; i < segment->count; ++i) {
      segment->events()[i].~Event();
    }
    segment->~SpillSegment();
    ::operator delete(segment);
  }
};

// An executor group: the threads draining one set of plans (the shared pool,
// or one reservation's dedicated executors) and the round-robin rotation of
// plans with queued events.
struct Runtime::ExecGroup {
  // Ring capacity bounds plans per group: the shared group gets the full
  // rotation in lock-free mode; a reserved group rotates exactly one plan,
  // and the mutex baseline never touches the ring at all (capacity 2, the
  // ring's minimum, instead of ~128KB of dead cells).
  explicit ExecGroup(size_t ring_capacity) : runnable_ring(ring_capacity) {}

  size_t num_executors = 1;
  size_t spawned = 0;  // Shard indices handed to executors (startup only).
  std::atomic<size_t> plan_count{0};

  // Lock-free mode: the runnable rotation is an MPMC ring; executors park
  // on the eventcount, so producers skip the kernel while executors are
  // busy. runnable_count mirrors the ring's occupancy for the adaptive
  // linger's "does anyone else have work" test.
  BoundedMpmcRing<PlanQueue*> runnable_ring;
  EventCount ec;
  std::atomic<size_t> runnable_count{0};

  // Mutex baseline (lockfree_scheduler = false): the PR-2 design, every
  // enqueue/dispatch serializes here. mu also guards the PlanQueue
  // mutex-mode fields (events, m_queued_chunks, m_runnable, m_lingering) of
  // every plan in this group — a cross-object invariant Clang's analysis
  // cannot express (GUARDED_BY on PlanQueue would name pq->group->mu, and
  // the analysis has no alias tracking to match it at use sites), so those
  // fields carry a documenting comment instead of an annotation.
  Mutex mu;
  std::condition_variable cv;
  std::deque<PlanQueue*> runnable GUARDED_BY(mu);
};

// Per-plan scheduler state. `plan` and the policy fields are written once
// under registry_mu_ before the queue is first published, and read-only
// afterwards.
//
// Lock-free mode: producers admit through the atomic `queued` counter, then
// publish into `ring` (bounded MPSC; bursts spill to the `spill` chain of
// ring segments, which stays FIFO-ordered after the ring's contents). The
// `scheduled` flag keeps the plan at most once in the group's runnable
// rotation; whoever pops it from the rotation is the queue's single
// consumer until it re-publishes or releases the claim. `held` stashes a
// chunk event the consumer popped while coalescing singles (consumer-
// private; ownership transfers with the claim).
struct Runtime::PlanQueue {
  explicit PlanQueue(size_t ring_capacity) : ring(ring_capacity) {}

  // Frees spill segments stranded at shutdown (their events' callbacks are
  // never invoked — the same semantics the stranded deque had).
  ~PlanQueue() {
    if (spill_cur != nullptr) {
      SpillSegment::Destroy(spill_cur);
    }
    while (MpscNode* node = spill.TryPop()) {
      SpillSegment::Destroy(static_cast<SpillSegment*>(node));
    }
  }

  PlanId id = 0;
  std::shared_ptr<ModelPlan> plan;
  ExecGroup* group = nullptr;
  bool reserved = false;
  size_t max_batch = 1;
  int64_t max_delay_us = 0;
  size_t shard_window = kMetricsWindow;

  // ---- Versioned lifecycle ----
  // Retire() publishes `retired`, then waits for scheduler occupancy and
  // `lifecycle_refs` to drain before dropping `plan`. Every path that
  // touches `plan` outside the registry lock holds a ref: admission gates
  // take theirs BEFORE loading `retired` (both seq_cst — the classic
  // store-buffering pair, so either the admitter sees the flag or the
  // retirer sees the ref), and executors take theirs for each gathered
  // quantum BEFORE decrementing `queued` (before releasing the group mutex
  // in the baseline), so gathered-but-executing events are never in neither
  // count.
  std::atomic<bool> retired{false};
  std::atomic<int64_t> lifecycle_refs{0};
  // Immutable name copy: GetMetrics stays readable after Retire drops
  // `plan`.
  std::string plan_name;

  // Admission half of the lifecycle protocol above. On false the ref is
  // already released; on true the caller must ReleaseLifecycle after its
  // last touch of `plan` (for queued work: after the enqueue publishes —
  // admitted events are then covered by the occupancy drain instead).
  bool AdmitLifecycle() {
    lifecycle_refs.fetch_add(1, std::memory_order_seq_cst);
    if (retired.load(std::memory_order_seq_cst)) {
      lifecycle_refs.fetch_sub(1, std::memory_order_seq_cst);
      return false;
    }
    return true;
  }
  void ReleaseLifecycle() {
    lifecycle_refs.fetch_sub(1, std::memory_order_seq_cst);
  }

  // ---- Lock-free mode ----
  BoundedMpmcRing<Event> ring;
  // Overflow spill: FIFO chain of SpillSegments (wait-free producer push);
  // spill_cur/spill_idx are the consumer's private cursor into the segment
  // it is draining (ownership travels with the dispatch claim).
  MpscIntrusiveQueue spill;
  SpillSegment* spill_cur = nullptr;
  size_t spill_idx = 0;
  // Spilled events not yet returned or refilled into the ring; incremented
  // before a segment is published so it never underflows.
  std::atomic<size_t> overflow_count{0};
  // Events admitted and not yet gathered into a dispatch quantum; doubles
  // as the backpressure cap check and the queue_depth metric.
  std::atomic<size_t> queued{0};
  // Chunk events among them; the adaptive linger must end as soon as batch
  // work exists anywhere in the queue.
  std::atomic<size_t> chunk_count{0};
  // True while the plan is in the runnable rotation or owned by an
  // executor; replaces PR-2's `runnable` bookkeeping under the group mutex.
  std::atomic<bool> scheduled{false};
  // True while an executor lingers for this plan's batch to fill; enqueues
  // then NotifyAll so the linger predicate is re-evaluated.
  std::atomic<bool> lingering{false};
  bool held_valid = false;  // Quantum-owner-private chunk stash.
  Event held;

  // ---- Mutex baseline (guarded by group->mu; see ExecGroup::mu for why
  // this is a comment, not a GUARDED_BY) ----
  std::deque<Event> events;
  size_t m_queued_chunks = 0;
  bool m_runnable = false;
  bool m_lingering = false;

  // ---- Counters (relaxed atomics, both modes) ----
  // Enqueue->dispatch delay EWMA (alpha 1/8), written by whichever executor
  // dispatches; the retry-after hint on this plan's rejections. Racy
  // updates are fine — it is an estimate.
  std::atomic<int64_t> queue_delay_ewma_us{0};
  std::atomic<uint64_t> inline_predictions{0};
  std::atomic<uint64_t> enqueued{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> dispatches{0};
  std::atomic<uint64_t> coalesced{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> expired_admission{0};
  std::atomic<uint64_t> expired_dequeue{0};
  std::atomic<uint64_t> expired_quantum{0};
  std::atomic<uint64_t> shed_deadline{0};
  std::vector<std::unique_ptr<MetricShard>> shards;  // One per group executor.
};

Runtime::Runtime(ObjectStore* store, const RuntimeOptions& options)
    : store_(store),
      options_([&] {
        RuntimeOptions o = options;
        o.num_executors = std::max<size_t>(1, o.num_executors);
        o.default_max_batch = std::max<size_t>(1, o.default_max_batch);
        o.event_ring_capacity = std::max<size_t>(8, o.event_ring_capacity);
        return o;
      }()),
      caller_contexts_(&caller_pool_, /*reuse_enabled=*/true) {
  if (options_.subplan_cache_bytes > 0) {
    caller_cache_ = std::make_unique<SubPlanCache>(options_.subplan_cache_bytes);
  }
  shared_group_ = std::make_unique<ExecGroup>(
      options_.lockfree_scheduler ? kRunnableRingCapacity : 2);
  shared_group_->num_executors = options_.num_executors;
  // No other thread exists yet; the lock only discharges SpawnExecutor's
  // REQUIRES(registry_mu_) (executors never take the registry lock, so
  // spawning under it cannot deadlock).
  WriterMutexLock lock(registry_mu_);
  for (size_t i = 0; i < options_.num_executors; ++i) {
    SpawnExecutor(shared_group_.get());
  }
}

Runtime::~Runtime() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    ReaderMutexLock lock(registry_mu_);
    if (options_.lockfree_scheduler) {
      shared_group_->ec.NotifyAll();
      for (const auto& group : reserved_groups_) {
        group->ec.NotifyAll();
      }
    } else {
      {
        MutexLock glock(shared_group_->mu);
        shared_group_->cv.notify_all();
      }
      for (const auto& group : reserved_groups_) {
        MutexLock glock(group->mu);
        group->cv.notify_all();
      }
    }
  }
  for (auto& thread : threads_) {
    thread.join();
  }
}

void Runtime::SpawnExecutor(ExecGroup* group) {
  SubPlanCache* cache = nullptr;
  if (options_.subplan_cache_bytes > 0) {
    executor_caches_.push_back(
        std::make_unique<SubPlanCache>(options_.subplan_cache_bytes));
    cache = executor_caches_.back().get();
  }
  executor_pools_.push_back(std::make_unique<VectorPool>());
  VectorPool* pool = executor_pools_.back().get();
  const size_t shard_idx = group->spawned++;
  threads_.emplace_back([this, group, cache, pool, shard_idx] {
    ExecutorLoop(group, cache, pool, shard_idx);
  });
}

Result<Runtime::PlanId> Runtime::Register(std::shared_ptr<ModelPlan> plan,
                                          const PlanRegistration& registration) {
  if (plan == nullptr) {
    return Status::InvalidArgument("null plan");
  }
  WriterMutexLock lock(registry_mu_);
  const PlanId id = plan_queues_.size();
  // The mutex baseline never touches the event ring; don't pay ~ring_cap *
  // sizeof(Event) per plan for dead cells there.
  auto pq = std::make_unique<PlanQueue>(
      options_.lockfree_scheduler ? options_.event_ring_capacity : 2);
  pq->id = id;
  pq->plan = std::move(plan);
  pq->plan_name = pq->plan->name();
  pq->max_batch = registration.max_batch > 0 ? registration.max_batch
                                             : options_.default_max_batch;
  pq->max_delay_us = registration.max_delay_us >= 0
                         ? registration.max_delay_us
                         : options_.default_max_delay_us;
  const size_t cores = std::min(registration.reserve_cores,
                                options_.max_reserved_cores_per_plan);
  if (cores > 0) {
    auto group = std::make_unique<ExecGroup>(2);  // Rotates exactly one plan.
    group->num_executors = cores;
    group->plan_count.store(1, std::memory_order_relaxed);
    pq->group = group.get();
    pq->reserved = true;
    reservations_.push_back(Reservation{id, cores});
    // Dedicated executors are extra threads: reserving never shrinks the
    // shared pool.
    for (size_t i = 0; i < cores; ++i) {
      SpawnExecutor(group.get());
    }
    reserved_groups_.push_back(std::move(group));
  } else {
    // Each plan occupies at most one runnable-ring slot, so the ring
    // capacity bounds plans per group.
    if (shared_group_->plan_count.fetch_add(1, std::memory_order_relaxed) + 1 >
        kRunnableRingCapacity) {
      shared_group_->plan_count.fetch_sub(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("shared executor group plan limit");
    }
    pq->group = shared_group_.get();
  }
  const size_t shard_count = std::max<size_t>(1, pq->group->num_executors);
  pq->shard_window = std::max<size_t>(256, kMetricsWindow / shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    pq->shards.push_back(std::make_unique<MetricShard>());
  }
  plan_queues_.push_back(std::move(pq));
  return id;
}

Runtime::PlanQueue* Runtime::GetQueue(PlanId id) const {
  ReaderMutexLock lock(registry_mu_);
  return id < plan_queues_.size() ? plan_queues_[id].get() : nullptr;
}

const std::atomic<int64_t>* Runtime::QueueDelayCounter(PlanId id) const {
  PlanQueue* pq = GetQueue(id);
  return pq == nullptr ? nullptr : &pq->queue_delay_ewma_us;
}

Status Runtime::Retire(PlanId id) {
  PlanQueue* pq = GetQueue(id);
  if (pq == nullptr) {
    return Status::NotFound("plan " + std::to_string(id));
  }
  if (pq->retired.exchange(true, std::memory_order_seq_cst)) {
    return Status::OK();  // Already retired; the first caller drained.
  }
  // Drain. The check order inside each pass is load-bearing: scheduler
  // occupancy FIRST, lifecycle_refs SECOND. Executors take their quantum
  // ref before decrementing `queued` (before leaving the group mutex in the
  // baseline) and admitters take theirs before loading `retired`, so any
  // in-flight work the occupancy check misses is visible to the refs check
  // of the same pass.
  for (;;) {
    bool drained;
    if (options_.lockfree_scheduler) {
      drained = pq->queued.load(std::memory_order_seq_cst) == 0 &&
                pq->overflow_count.load(std::memory_order_seq_cst) == 0 &&
                !pq->scheduled.load(std::memory_order_seq_cst);
    } else {
      MutexLock lock(pq->group->mu);
      drained = pq->events.empty() && !pq->m_runnable;
    }
    if (drained && pq->lifecycle_refs.load(std::memory_order_seq_cst) == 0) {
      break;
    }
    std::this_thread::yield();
  }
  // No admission can now succeed and no executor holds the plan: drop the
  // reference, so params the ObjectStore has Released can actually leave
  // the heap. The PlanQueue shell stays (id/counter pointer stability).
  pq->plan.reset();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Enqueue protocol. Cap check, timestamping, chunk accounting, runnable
// publication, and the wakeup rule live here and only here.

Status Runtime::AdmitDeadline(PlanQueue* pq, int64_t deadline_ns, size_t n) {
  if (deadline_ns <= 0) {
    return Status::OK();
  }
  const int64_t now = NowNs();
  if (now >= deadline_ns) {
    pq->expired_admission.fetch_add(n, std::memory_order_relaxed);
    return ExpiredStatus("at admission", DeadlineStage::kAdmission, now,
                         deadline_ns, /*enqueue_ns=*/0);
  }
  // The estimate forecasts the wait behind events queued NOW; with an empty
  // queue it is history, not forecast, and acting on it wedges the valve
  // open: shed everything -> nothing dispatches -> the EWMA never
  // refreshes -> shed forever, starving an idle plan (observed as goodput
  // collapse in bench_resilience's post-burst phase).
  // relaxed: queued is a monotonic-noise admission heuristic; a stale read
  // only mis-sheds or mis-admits one request, never corrupts state.
  if (options_.deadline_admission &&
      pq->queued.load(std::memory_order_relaxed) > 0) {
    const int64_t est_us =
        pq->queue_delay_ewma_us.load(std::memory_order_relaxed);
    const int64_t remaining_us = (deadline_ns - now) / 1000;
    if (est_us > remaining_us) {
      // Doomed-by-estimate: shed NOW with a retryable status instead of
      // queueing work that will expire — early ResourceExhausted beats late
      // DeadlineExceeded (the caller can fail over while budget remains).
      pq->shed_deadline.fetch_add(n, std::memory_order_relaxed);
      return Status::ResourceExhausted(
                 "plan " + std::to_string(pq->id) + " queue-delay estimate " +
                 std::to_string(est_us) + "us exceeds remaining deadline " +
                 std::to_string(remaining_us) + "us")
          .WithRetryAfterUs(RetryAfterHintUs(pq->queue_delay_ewma_us));
    }
  }
  return Status::OK();
}

Status Runtime::EnqueueEvents(PlanQueue* pq, Event* events, size_t n) {
  if (n == 0) {
    return Status::OK();
  }
  if (options_.lockfree_scheduler) {
    return EnqueueLockFree(pq, events, n);
  }
  // PR-2 mutex baseline: every producer serializes on the group mutex.
  ExecGroup* group = pq->group;
  bool wake_all = n > 1;
  {
    MutexLock lock(group->mu);
    if (options_.max_queued_events_per_plan > 0 &&
        pq->events.size() + n > options_.max_queued_events_per_plan) {
      pq->rejected.fetch_add(n, std::memory_order_relaxed);
      return Status::ResourceExhausted(
                 "plan " + std::to_string(pq->id) + " queue over " +
                 std::to_string(options_.max_queued_events_per_plan) +
                 " events")
          .WithRetryAfterUs(RetryAfterHintUs(pq->queue_delay_ewma_us));
    }
    const int64_t now = NowNs();
    for (size_t i = 0; i < n; ++i) {
      events[i].enqueue_ns = now;
      if (events[i].job != nullptr) {
        ++pq->m_queued_chunks;
      }
      pq->events.push_back(std::move(events[i]));
    }
    pq->enqueued.fetch_add(n, std::memory_order_relaxed);
    if (!pq->m_runnable) {
      pq->m_runnable = true;
      group->runnable.push_back(pq);
    }
    // A lingering executor must re-check its predicate; notify_one could be
    // swallowed by an idle sibling whose predicate is false.
    wake_all |= pq->m_lingering;
  }
  if (wake_all) {
    group->cv.notify_all();
  } else {
    group->cv.notify_one();
  }
  return Status::OK();
}

Status Runtime::EnqueueLockFree(PlanQueue* pq, Event* events, size_t n) {
  ExecGroup* group = pq->group;
  // Admission: an atomic counter replaces the cap check PR-2 made under the
  // group mutex. With a cap, admit by CAS so a rejected submission never
  // even transiently inflates `queued` (a blind fetch_add+undo could make a
  // concurrent fitting submission observe phantom occupancy and bounce).
  const size_t cap = options_.max_queued_events_per_plan;
  if (cap > 0) {
    size_t queued_now = pq->queued.load(std::memory_order_seq_cst);
    for (;;) {
      if (queued_now + n > cap) {
        pq->rejected.fetch_add(n, std::memory_order_relaxed);
        return Status::ResourceExhausted("plan " + std::to_string(pq->id) +
                                         " queue over " + std::to_string(cap) +
                                         " events")
            .WithRetryAfterUs(RetryAfterHintUs(pq->queue_delay_ewma_us));
      }
      if (pq->queued.compare_exchange_weak(queued_now, queued_now + n,
                                           std::memory_order_seq_cst)) {
        break;
      }
    }
  } else {
    pq->queued.fetch_add(n, std::memory_order_seq_cst);
  }
  const int64_t now = NowNs();
  size_t chunks = 0;
  for (size_t i = 0; i < n; ++i) {
    events[i].enqueue_ns = now;
    if (events[i].job != nullptr) {
      ++chunks;
    }
  }
  if (chunks > 0) {
    pq->chunk_count.fetch_add(chunks, std::memory_order_seq_cst);
  }
  // While spilled events exist, new ones must queue behind them (not jump
  // ahead through the ring), so FIFO degrades no further than the spill —
  // and once one event of this call spills, the rest follow it into the
  // chain, keeping the call's events contiguous per segment.
  size_t i = 0;
  while (i < n && pq->overflow_count.load(std::memory_order_acquire) == 0 &&
         !PRETZEL_FAULT_POINT("runtime.ring_full",
                              static_cast<int64_t>(pq->id)) &&
         pq->ring.TryPush(std::move(events[i]))) {
    ++i;
  }
  if (i < n) {
    // Count first: the consumer decrements only for events whose segment
    // publication it observed, so the counter never underflows; it may
    // transiently read count > 0 with the chain still mid-push, which it
    // treats exactly like empty.
    pq->overflow_count.fetch_add(n - i, std::memory_order_release);
    pq->spill.Push(SpillSegment::Create(events + i, n - i));
  }
  pq->enqueued.fetch_add(n, std::memory_order_relaxed);
  // Publish: first producer to find the plan unclaimed puts it in the
  // rotation; everyone else just wakes an executor.
  if (!pq->scheduled.exchange(true, std::memory_order_seq_cst)) {
    PushRunnable(group, pq);
  }
  if (n > 1 || pq->lingering.load(std::memory_order_seq_cst)) {
    group->ec.NotifyAll();
  } else {
    group->ec.NotifyOne();
  }
  return Status::OK();
}

Status Runtime::Enqueue(PlanQueue* pq, std::vector<Event> events) {
  return EnqueueEvents(pq, events.data(), events.size());
}

Status Runtime::EnqueueOne(PlanQueue* pq, Event event) {
  return EnqueueEvents(pq, &event, 1);
}

void Runtime::PushRunnable(ExecGroup* group, PlanQueue* pq) {
  group->runnable_count.fetch_add(1, std::memory_order_seq_cst);
  // A plan occupies at most one slot and Register bounds plans per group by
  // the ring capacity, so this cannot spin forever.
  PlanQueue* item = pq;
  while (!group->runnable_ring.TryPush(std::move(item))) {
    std::this_thread::yield();
  }
}

bool Runtime::PopRunnable(ExecGroup* group, PlanQueue** pq) {
  if (group->runnable_ring.TryPop(pq)) {
    group->runnable_count.fetch_sub(1, std::memory_order_seq_cst);
    return true;
  }
  return false;
}

// Quantum-owner only: held stash first, then the lock-free ring, then the
// spill chain (whose remainder is bulk-refilled into the ring so subsequent
// pops return to the single-CAS path).
bool Runtime::PopEvent(PlanQueue* pq, Event* out) {
  if (pq->held_valid) {
    *out = std::move(pq->held);
    pq->held_valid = false;
    return true;
  }
  if (pq->ring.TryPop(out)) {
    return true;
  }
  if (pq->spill_cur != nullptr ||
      pq->overflow_count.load(std::memory_order_acquire) > 0) {
    if (PopSpill(pq, out)) {
      return true;
    }
  }
  // A producer may have published between the ring check and the (empty)
  // spill check.
  return pq->ring.TryPop(out);
}

// Quantum-owner only. Returns the oldest spilled event, then drains as much
// of the chain as fits back into the ring (bulk refill) so the spill is an
// excursion, not a new steady state. A transiently inconsistent chain (a
// producer between its exchange and its link store) reads as empty; the
// caller's admitted-but-unpublished handling covers it.
bool Runtime::PopSpill(PlanQueue* pq, Event* out) {
  if (pq->spill_cur == nullptr) {
    MpscNode* node = pq->spill.TryPop();
    if (node == nullptr) {
      return false;
    }
    pq->spill_cur = static_cast<SpillSegment*>(node);
    pq->spill_idx = 0;
  }
  SpillSegment* segment = pq->spill_cur;
  *out = std::move(segment->events()[pq->spill_idx++]);
  size_t moved = 1;
  for (;;) {
    while (pq->spill_idx < segment->count &&
           pq->ring.TryPush(std::move(segment->events()[pq->spill_idx]))) {
      ++pq->spill_idx;
      ++moved;
    }
    if (pq->spill_idx < segment->count) {
      break;  // Ring full; the cursor resumes here next quantum.
    }
    SpillSegment::Destroy(segment);
    pq->spill_cur = nullptr;
    MpscNode* node = pq->spill.TryPop();
    if (node == nullptr) {
      break;
    }
    segment = static_cast<SpillSegment*>(node);
    pq->spill_cur = segment;
    pq->spill_idx = 0;
  }
  pq->overflow_count.fetch_sub(moved, std::memory_order_release);
  return true;
}

// ---------------------------------------------------------------------------
// Public prediction entry points.

Result<float> Runtime::Predict(PlanId id, std::string_view input,
                               int64_t deadline_ns) {
  PlanQueue* pq = GetQueue(id);
  if (pq == nullptr) {
    return Status::NotFound("plan " + std::to_string(id));
  }
  if (!pq->reserved) {
    // Inline fast path: a synchronous single on an unreserved plan gains
    // nothing from a queue hop. No shed check either — there is no queue
    // delay to estimate — but already-expired work is still refused.
    if (deadline_ns > 0) {
      const int64_t now = NowNs();
      if (now >= deadline_ns) {
        pq->expired_admission.fetch_add(1, std::memory_order_relaxed);
        return ExpiredStatus("at admission", DeadlineStage::kAdmission, now,
                             deadline_ns, 0);
      }
    }
    if (!pq->AdmitLifecycle()) {
      return Status::NotFound("plan " + std::to_string(id) + " retired");
    }
    pq->inline_predictions.fetch_add(1, std::memory_order_relaxed);
    std::unique_ptr<ExecContext> ctx = caller_contexts_.Acquire();
    ctx->subplan_cache = caller_cache_.get();
    Result<float> result = ExecutePlan(*pq->plan, input, *ctx);
    caller_contexts_.Release(std::move(ctx));
    pq->ReleaseLifecycle();
    return result;
  }
  // Reserved plan: ride the dedicated queue so sync traffic is served by
  // (and accounted against) the reserved executors, not the caller thread.
  if (Status admit = AdmitDeadline(pq, deadline_ns, 1); !admit.ok()) {
    return admit;
  }
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<float> result = Status::Error("pending");
  } waiter;
  Event event;
  event.input = std::string(input);
  event.deadline_ns = deadline_ns;
  event.done = [&waiter](Result<float> r) {
    std::lock_guard<std::mutex> lock(waiter.mu);
    waiter.result = std::move(r);
    waiter.done = true;
    waiter.cv.notify_one();
  };
  if (!pq->AdmitLifecycle()) {
    return Status::NotFound("plan " + std::to_string(id) + " retired");
  }
  Status submitted = EnqueueOne(pq, std::move(event));
  pq->ReleaseLifecycle();
  if (!submitted.ok()) {
    return submitted;
  }
  std::unique_lock<std::mutex> lock(waiter.mu);
  waiter.cv.wait(lock, [&] { return waiter.done; });
  return std::move(waiter.result);
}

Result<float> Runtime::PredictBinary(PlanId id,
                                     std::span<const uint8_t> record,
                                     int64_t deadline_ns) {
  // One wire record, borrowed: the executor validates it in place and an
  // aligned dense payload aliases straight into the kernels.
  return Predict(id,
                 std::string_view(reinterpret_cast<const char*>(record.data()),
                                  record.size()),
                 deadline_ns);
}

Status Runtime::PredictAsync(PlanId id, std::string input,
                             SingleCallback callback, int64_t deadline_ns) {
  PlanQueue* pq = GetQueue(id);
  if (pq == nullptr) {
    return Status::NotFound("plan " + std::to_string(id));
  }
  if (callback == nullptr) {
    return Status::InvalidArgument("null callback");
  }
  if (Status admit = AdmitDeadline(pq, deadline_ns, 1); !admit.ok()) {
    return admit;
  }
  Event event;
  event.input = std::move(input);
  event.done = std::move(callback);
  event.deadline_ns = deadline_ns;
  if (!pq->AdmitLifecycle()) {
    return Status::NotFound("plan " + std::to_string(id) + " retired");
  }
  Status submitted = EnqueueOne(pq, std::move(event));
  pq->ReleaseLifecycle();
  return submitted;
}

// Sub-batch size: fill every executor that serves this plan, but never
// exceed max_batch. Each chunk is one scheduling quantum, so other plans
// interleave between chunks instead of waiting out the whole batch.
Status Runtime::SubmitBatchJob(PlanQueue* pq, std::shared_ptr<BatchJob> job,
                               size_t max_batch) {
  const size_t parallelism = std::max<size_t>(1, pq->group->num_executors);
  const size_t n = job->count;
  size_t chunk = (n + parallelism - 1) / parallelism;
  if (max_batch > 0) {
    chunk = std::min(chunk, max_batch);
  }
  chunk = std::max<size_t>(1, chunk);
  std::vector<Event> events;
  events.reserve((n + chunk - 1) / chunk);
  for (size_t begin = 0; begin < n; begin += chunk) {
    Event event;
    event.job = job;
    event.begin = begin;
    event.end = std::min(n, begin + chunk);
    events.push_back(std::move(event));
  }
  return Enqueue(pq, std::move(events));
}

Status Runtime::PredictBatchAsync(PlanId id, std::vector<std::string> inputs,
                                  BatchCallback callback, size_t max_batch,
                                  int64_t deadline_ns) {
  PlanQueue* pq = GetQueue(id);
  if (pq == nullptr) {
    return Status::NotFound("plan " + std::to_string(id));
  }
  if (callback == nullptr) {
    return Status::InvalidArgument("null callback");
  }
  if (inputs.empty()) {
    callback(Status::OK(), {});
    return Status::OK();
  }
  if (Status admit = AdmitDeadline(pq, deadline_ns, inputs.size());
      !admit.ok()) {
    return admit;
  }
  if (!pq->AdmitLifecycle()) {
    return Status::NotFound("plan " + std::to_string(id) + " retired");
  }
  auto job = std::make_shared<BatchJob>();
  job->plan = pq->plan;
  job->owned_inputs = std::move(inputs);
  job->owned_results.assign(job->owned_inputs.size(), 0.0f);
  job->str_inputs = job->owned_inputs.data();
  job->results = job->owned_results.data();
  job->count = job->owned_inputs.size();
  job->remaining.store(job->count);
  job->callback = std::move(callback);
  job->deadline_ns = deadline_ns;
  Status submitted = SubmitBatchJob(pq, std::move(job), max_batch);
  pq->ReleaseLifecycle();
  return submitted;
}

// The synchronous borrowed-input protocol: submit, block until the last
// chunk's callback fires. Blocking is what makes borrowing safe — the
// caller's inputs and output span outlive every executor touch.
Status Runtime::SubmitBatchJobAndWait(PlanQueue* pq,
                                      std::shared_ptr<BatchJob> job,
                                      size_t max_batch) {
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
  } waiter;
  job->callback = [&waiter](Status s, std::span<const float>) {
    std::lock_guard<std::mutex> lock(waiter.mu);
    waiter.status = std::move(s);
    waiter.done = true;
    waiter.cv.notify_one();
  };
  Status submit = SubmitBatchJob(pq, std::move(job), max_batch);
  if (!submit.ok()) {
    return submit;
  }
  std::unique_lock<std::mutex> lock(waiter.mu);
  waiter.cv.wait(lock, [&] { return waiter.done; });
  return waiter.status;
}

Status Runtime::PredictBatch(PlanId id, const std::vector<std::string>& inputs,
                             size_t max_batch, std::span<float> out,
                             int64_t deadline_ns) {
  PlanQueue* pq = GetQueue(id);
  if (pq == nullptr) {
    return Status::NotFound("plan " + std::to_string(id));
  }
  if (inputs.empty()) {
    return Status::OK();
  }
  if (out.size() < inputs.size()) {
    return Status::InvalidArgument("output span narrower than batch");
  }
  if (Status admit = AdmitDeadline(pq, deadline_ns, inputs.size());
      !admit.ok()) {
    return admit;
  }
  // Borrowed inputs/results: this caller blocks until the last chunk
  // completes, so the executors write scores straight through the caller's
  // span and read the caller's strings in place — no copy on either side.
  if (!pq->AdmitLifecycle()) {
    return Status::NotFound("plan " + std::to_string(id) + " retired");
  }
  auto job = std::make_shared<BatchJob>();
  job->plan = pq->plan;
  job->str_inputs = inputs.data();
  job->results = out.data();
  job->count = inputs.size();
  job->remaining.store(job->count);
  job->deadline_ns = deadline_ns;
  Status submitted = SubmitBatchJobAndWait(pq, std::move(job), max_batch);
  pq->ReleaseLifecycle();
  return submitted;
}

Status Runtime::PredictBatch(PlanId id, const std::string_view* inputs,
                             size_t n, size_t max_batch, std::span<float> out,
                             int64_t deadline_ns) {
  PlanQueue* pq = GetQueue(id);
  if (pq == nullptr) {
    return Status::NotFound("plan " + std::to_string(id));
  }
  if (n == 0) {
    return Status::OK();
  }
  if (out.size() < n) {
    return Status::InvalidArgument("output span narrower than batch");
  }
  if (Status admit = AdmitDeadline(pq, deadline_ns, n); !admit.ok()) {
    return admit;
  }
  if (!pq->AdmitLifecycle()) {
    return Status::NotFound("plan " + std::to_string(id) + " retired");
  }
  auto job = std::make_shared<BatchJob>();
  job->plan = pq->plan;
  job->view_inputs = inputs;
  job->results = out.data();
  job->count = n;
  job->remaining.store(n);
  job->deadline_ns = deadline_ns;
  Status submitted = SubmitBatchJobAndWait(pq, std::move(job), max_batch);
  pq->ReleaseLifecycle();
  return submitted;
}

Status Runtime::PredictBinary(PlanId id, std::span<const uint8_t> records,
                              size_t max_batch, std::span<float> out,
                              int64_t deadline_ns) {
  PlanQueue* pq = GetQueue(id);
  if (pq == nullptr) {
    return Status::NotFound("plan " + std::to_string(id));
  }
  // Frame the wire buffer into per-record views — a header walk, no record
  // is parsed or copied — then ride the borrowed-views batch path: aligned
  // dense payloads alias straight into the kernels.
  auto job = std::make_shared<BatchJob>();
  Status split = SplitBinaryBatch(
      std::string_view(reinterpret_cast<const char*>(records.data()),
                       records.size()),
      &job->owned_views);
  if (!split.ok()) {
    return split;
  }
  if (job->owned_views.empty()) {
    return Status::OK();
  }
  if (out.size() < job->owned_views.size()) {
    return Status::InvalidArgument("output span narrower than batch");
  }
  if (Status admit = AdmitDeadline(pq, deadline_ns, job->owned_views.size());
      !admit.ok()) {
    return admit;
  }
  if (!pq->AdmitLifecycle()) {
    return Status::NotFound("plan " + std::to_string(id) + " retired");
  }
  job->plan = pq->plan;
  job->view_inputs = job->owned_views.data();
  job->results = out.data();
  job->count = job->owned_views.size();
  job->remaining.store(job->count);
  job->deadline_ns = deadline_ns;
  Status submitted = SubmitBatchJobAndWait(pq, std::move(job), max_batch);
  pq->ReleaseLifecycle();
  return submitted;
}

Result<std::vector<float>> Runtime::PredictBatch(
    PlanId id, const std::vector<std::string>& inputs, size_t max_batch,
    int64_t deadline_ns) {
  std::vector<float> scores(inputs.size(), 0.0f);
  Status status = PredictBatch(id, inputs, max_batch, std::span<float>(scores),
                               deadline_ns);
  if (!status.ok()) {
    return status;
  }
  return scores;
}

// ---------------------------------------------------------------------------
// Executors.

// Adaptive linger, lock-free mode: the oldest single is already in the
// owner's hand, so the deadline is measured from its enqueue stamp exactly
// as PR-2 measured from the deque front. The owner parks on the group
// eventcount; any enqueue to this plan sees `lingering` and NotifyAlls, any
// enqueue elsewhere in the group raises runnable_count — both re-arm the
// predicate below.
void Runtime::LingerLockFree(ExecGroup* group, PlanQueue* pq,
                             int64_t oldest_ns) {
  const auto deadline = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(oldest_ns + pq->max_delay_us * 1000));
  pq->lingering.store(true, std::memory_order_seq_cst);
  for (;;) {
    // relaxed: stop_ is a monotonic shutdown flag; a stale read only delays
    // linger exit by one iteration, and the destructor's NotifyAll forces a
    // re-check via the eventcount's seq_cst protocol.
    if (stop_.load(std::memory_order_relaxed) ||
        pq->queued.load(std::memory_order_seq_cst) >= pq->max_batch ||
        pq->chunk_count.load(std::memory_order_seq_cst) > 0 ||
        group->runnable_count.load(std::memory_order_seq_cst) > 0 ||
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    const uint64_t ticket = group->ec.PrepareWait();
    // relaxed: under a wait ticket; PrepareWait's seq_cst fence pairs with
    // the destructor's store(seq_cst)+NotifyAll, so a missed flag here still
    // wakes through the eventcount (no lost-wakeup).
    if (stop_.load(std::memory_order_relaxed) ||
        pq->queued.load(std::memory_order_seq_cst) >= pq->max_batch ||
        pq->chunk_count.load(std::memory_order_seq_cst) > 0 ||
        group->runnable_count.load(std::memory_order_seq_cst) > 0) {
      group->ec.CancelWait();
      break;
    }
    if (!group->ec.WaitUntil(ticket, deadline)) {
      break;  // Deadline: dispatch whatever has coalesced.
    }
  }
  pq->lingering.store(false, std::memory_order_seq_cst);
}

void Runtime::ExecutorLoop(ExecGroup* group, SubPlanCache* cache,
                           VectorPool* pool, size_t shard_idx) {
  // Executor-private pooled state: the paper's per-core ExecContext, with
  // this executor's own sub-plan materialization cache attached.
  ExecContext ctx(pool);
  ctx.subplan_cache = cache;
  if (!options_.lockfree_scheduler) {
    ExecutorLoopMutex(group, ctx, shard_idx);
    return;
  }
  std::vector<Event> batch;
  for (;;) {
    PlanQueue* pq = nullptr;
    if (!PopRunnable(group, &pq)) {
      // Park on the eventcount: re-check under a wait ticket so a publish
      // racing this gap falls straight through Wait.
      const uint64_t ticket = group->ec.PrepareWait();
      if (PopRunnable(group, &pq)) {
        group->ec.CancelWait();
      } else if (stop_.load(std::memory_order_seq_cst)) {
        group->ec.CancelWait();
        return;  // Fully drained.
      } else {
        group->ec.Wait(ticket);
        continue;
      }
    }
    // We hold the plan's dispatch quantum: single consumer of its queue.
    batch.clear();
    Event first;
    bool have = PopEvent(pq, &first);
    // Adaptive linger: if only a thin run of singles is waiting and no
    // other plan has work, wait out the plan's max-delay budget for more
    // arrivals to coalesce. Never delays when the system has other work.
    if (have && first.job == nullptr && pq->max_delay_us > 0 &&
        pq->max_batch > 1 &&
        pq->chunk_count.load(std::memory_order_seq_cst) == 0 &&
        group->runnable_count.load(std::memory_order_seq_cst) == 0 &&
        pq->queued.load(std::memory_order_seq_cst) < pq->max_batch) {
      LingerLockFree(group, pq, first.enqueue_ns);
    }
    // Gather one dispatch quantum: a single batch chunk, or a coalesced run
    // of up to max_batch queued singles (a chunk met mid-run is stashed in
    // `held` for the plan's next quantum).
    bool chunk_quantum = false;
    if (have) {
      if (first.job != nullptr) {
        chunk_quantum = true;
        batch.push_back(std::move(first));
      } else {
        batch.push_back(std::move(first));
        Event next;
        while (batch.size() < pq->max_batch && PopEvent(pq, &next)) {
          if (next.job != nullptr) {
            pq->held = std::move(next);
            pq->held_valid = true;
            break;
          }
          batch.push_back(std::move(next));
        }
      }
    }
    if (!batch.empty()) {
      // Quantum lifecycle ref, taken BEFORE the queued decrement below:
      // Retire's drain checks occupancy first and refs second, so gathered
      // events are never in neither count.
      pq->lifecycle_refs.fetch_add(1, std::memory_order_seq_cst);
      const int64_t dispatch_ns = NowNs();
      pq->dispatches.fetch_add(1, std::memory_order_relaxed);
      if (chunk_quantum) {
        pq->chunk_count.fetch_sub(1, std::memory_order_seq_cst);
      } else {
        pq->coalesced.fetch_add(batch.size(), std::memory_order_relaxed);
      }
      pq->queued.fetch_sub(batch.size(), std::memory_order_seq_cst);
      const size_t records = chunk_quantum
                                 ? batch.front().end - batch.front().begin
                                 : batch.size();
      const int64_t wait_ns = dispatch_ns - batch.front().enqueue_ns;
      RecordQueueDelay(pq->queue_delay_ewma_us, wait_ns / 1000);
      MetricShard& shard = *pq->shards[shard_idx];
      MutexLock lock(shard.mu);
      AddWindowed(shard.batch_records, static_cast<double>(records),
                  pq->shard_window);
      AddWindowed(shard.queue_wait_us, static_cast<double>(wait_ns) / 1e3,
                  pq->shard_window);
    }
    // Round-robin hand-off BEFORE executing: if events remain, the plan
    // goes back in the rotation (claim travels with the ring slot) so a
    // sibling can take its next quantum while we execute this one.
    // Otherwise release the claim, then re-check: a producer that enqueued
    // after our last pop saw scheduled == true and left publication to us.
    if (pq->held_valid || pq->queued.load(std::memory_order_seq_cst) > 0) {
      PushRunnable(group, pq);
      group->ec.NotifyOne();
    } else {
      pq->scheduled.store(false, std::memory_order_seq_cst);
      if (pq->queued.load(std::memory_order_seq_cst) > 0 &&
          !pq->scheduled.exchange(true, std::memory_order_seq_cst)) {
        PushRunnable(group, pq);
        group->ec.NotifyOne();
      }
    }
    if (batch.empty()) {
      // Admitted-but-unpublished producer race; the plan was re-published
      // above if its events are still pending.
      std::this_thread::yield();
      continue;
    }
    ExecuteQuantum(pq, batch, ctx, shard_idx);
    pq->ReleaseLifecycle();
  }
}

// The PR-2 scheduler, kept as the bench_contention baseline: every enqueue,
// dispatch, and wakeup serializes on group->mu.
void Runtime::ExecutorLoopMutex(ExecGroup* group, ExecContext& ctx,
                                size_t shard_idx) {
  std::vector<Event> batch;
  while (true) {
    batch.clear();
    PlanQueue* pq = nullptr;
    size_t records = 0;
    double wait_us = 0.0;
    bool wake_sibling = false;
    {
      MutexLock lock(group->mu);
      // Explicit predicate loop (not the lambda-predicate overload) so the
      // analysis sees the guarded `runnable` reads inside this locked scope.
      // relaxed: stop_ is a monotonic shutdown flag; the mutex/cv hand-off
      // already orders the surrounding state, the load needs only eventual
      // visibility (the destructor notifies after storing it).
      while (!stop_.load(std::memory_order_relaxed) &&
             group->runnable.empty()) {
        group->cv.wait(lock.native());
      }
      if (group->runnable.empty()) {
        if (stop_.load(std::memory_order_relaxed)) {  // relaxed: as above.
          return;  // Fully drained.
        }
        continue;
      }
      pq = group->runnable.front();
      group->runnable.pop_front();
      if (pq->max_delay_us > 0 && pq->max_batch > 1 &&
          group->runnable.empty() && !pq->events.empty() &&
          pq->m_queued_chunks == 0 && pq->events.size() < pq->max_batch) {
        const auto deadline = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(pq->events.front().enqueue_ns +
                                     pq->max_delay_us * 1000));
        pq->m_lingering = true;
        // relaxed: see the dispatch wait above.
        while (!stop_.load(std::memory_order_relaxed) &&
               pq->events.size() < pq->max_batch &&
               pq->m_queued_chunks == 0 && group->runnable.empty()) {
          if (group->cv.wait_until(lock.native(), deadline) ==
              std::cv_status::timeout) {
            break;  // Deadline: dispatch whatever has coalesced.
          }
        }
        pq->m_lingering = false;
      }
      if (!pq->events.empty() && pq->events.front().job != nullptr) {
        batch.push_back(std::move(pq->events.front()));
        pq->events.pop_front();
        --pq->m_queued_chunks;
      } else {
        while (!pq->events.empty() && pq->events.front().job == nullptr &&
               batch.size() < pq->max_batch) {
          batch.push_back(std::move(pq->events.front()));
          pq->events.pop_front();
        }
      }
      if (!batch.empty()) {
        // Quantum lifecycle ref, taken while still under the group mutex:
        // Retire's baseline drain checks the deque under this same mutex,
        // then refs, so a gathered-but-executing quantum is always covered.
        pq->lifecycle_refs.fetch_add(1, std::memory_order_seq_cst);
        const int64_t dispatch_ns = NowNs();
        pq->dispatches.fetch_add(1, std::memory_order_relaxed);
        records = batch.front().job != nullptr
                      ? batch.front().end - batch.front().begin
                      : batch.size();
        wait_us =
            static_cast<double>(dispatch_ns - batch.front().enqueue_ns) / 1e3;
        RecordQueueDelay(pq->queue_delay_ewma_us,
                         static_cast<int64_t>(wait_us));
        if (batch.front().job == nullptr) {
          pq->coalesced.fetch_add(batch.size(), std::memory_order_relaxed);
        }
      }
      // Round-robin: back of the ring if more events remain, so the next
      // runnable plan gets the next quantum.
      if (!pq->events.empty()) {
        group->runnable.push_back(pq);
        wake_sibling = true;  // Notified below, after the scoped unlock.
      } else {
        pq->m_runnable = false;
      }
    }
    if (wake_sibling) {
      // Outside the lock so the woken sibling doesn't immediately block on
      // mu; safe because the destructor joins this thread before the group
      // is destroyed.
      group->cv.notify_one();
    }
    if (batch.empty()) {
      continue;
    }
    {
      // Off the dispatch lock: stats ride this executor's shard.
      MetricShard& shard = *pq->shards[shard_idx];
      MutexLock lock(shard.mu);
      AddWindowed(shard.batch_records, static_cast<double>(records),
                  pq->shard_window);
      AddWindowed(shard.queue_wait_us, wait_us, pq->shard_window);
    }
    ExecuteQuantum(pq, batch, ctx, shard_idx);
    pq->ReleaseLifecycle();
  }
}

// Execute outside every scheduler structure; error counts are atomic and
// the sampled latency lands in this executor's shard.
void Runtime::ExecuteQuantum(PlanQueue* pq, std::vector<Event>& batch,
                             ExecContext& ctx, size_t shard_idx) {
  // Chaos site: an executor pinned mid-quantum (GC pause, page fault storm,
  // noisy neighbor). Injected before the deadline checks so stalled quanta
  // exercise the expiry paths.
  PRETZEL_FAULT_STALL("runtime.executor_stall", static_cast<int64_t>(pq->id));
  if (batch.front().job != nullptr) {
    const Event& item = batch.front();
    BatchJob& job = *item.job;
    const size_t count = item.end - item.begin;
    float* out = job.results + item.begin;
    if (job.deadline_ns > 0) {
      // Between-quanta deadline check: chunks of an expired batch complete
      // immediately (score 0.0f, batch status DeadlineExceeded) instead of
      // burning an executor on records nobody is waiting for. Chunks that
      // dispatched before expiry keep their scores — per-record attribution
      // stays correct for partial batches.
      const int64_t now = NowNs();
      if (now >= job.deadline_ns) {
        std::fill(out, out + count, 0.0f);
        {
          MutexLock lock(job.error_mu);
          if (job.first_error.ok()) {
            job.first_error =
                ExpiredStatus("between batch quanta", DeadlineStage::kExecution,
                              now, job.deadline_ns, item.enqueue_ns);
          }
        }
        pq->expired_quantum.fetch_add(count, std::memory_order_relaxed);
        if (job.remaining.fetch_sub(count) == count) {
          Status status;
          {
            MutexLock lock(job.error_mu);
            status = job.first_error;
          }
          job.callback(status, std::span<const float>(job.results, job.count));
        }
        return;
      }
    }
    // Executors consume record views; string jobs stage borrowed views in
    // scratch moved out of the context for the duration (ExecutePlan's
    // no-pooling ablation calls ReleaseScratch mid-chunk, which would
    // otherwise free the views out from under the loop).
    std::vector<std::string_view> views;
    const std::string_view* in;
    if (job.view_inputs != nullptr) {
      in = job.view_inputs + item.begin;
    } else {
      views = std::move(ctx.batch_views);
      views.resize(count);
      for (size_t i = 0; i < count; ++i) {
        views[i] = job.str_inputs[item.begin + i];
      }
      in = views.data();
    }
    Status chunk_error;
    const size_t failed =
        ExecutePlanBatch(*job.plan, in, count, out, ctx, &chunk_error);
    if (!views.empty()) {
      ctx.batch_views = std::move(views);
    }
    if (failed > 0) {
      MutexLock lock(job.error_mu);
      if (job.first_error.ok()) {
        job.first_error = chunk_error;
      }
    }
    if (job.remaining.fetch_sub(count) == count) {
      Status status;
      {
        MutexLock lock(job.error_mu);
        status = job.first_error;
      }
      job.callback(status, std::span<const float>(job.results, job.count));
    }
    if (failed > 0) {
      pq->errors.fetch_add(failed, std::memory_order_relaxed);
    }
    return;
  }
  // Dequeue-time deadline check: singles that expired while queued complete
  // with DeadlineExceeded (queue-wait attribution) without executing, and
  // the survivors are compacted in place so coalescing proceeds over live
  // work only.
  {
    size_t live = 0;
    int64_t now = 0;  // Lazy: most quanta carry no deadlines at all.
    for (size_t i = 0; i < batch.size(); ++i) {
      Event& event = batch[i];
      if (event.deadline_ns > 0) {
        if (now == 0) {
          now = NowNs();
        }
        if (now >= event.deadline_ns) {
          // Count before completing: a caller woken by this callback must
          // already see the expiry in GetMetrics.
          pq->expired_dequeue.fetch_add(1, std::memory_order_relaxed);
          event.done(ExpiredStatus("at dispatch", DeadlineStage::kQueue, now,
                                   event.deadline_ns, event.enqueue_ns));
          continue;
        }
      }
      if (live != i) {
        batch[live] = std::move(event);
      }
      ++live;
    }
    if (live < batch.size()) {
      batch.resize(live);
    }
    if (batch.empty()) {
      return;
    }
  }
  size_t failed = 0;
  for (Event& event : batch) {
    Result<float> r = ExecutePlan(*pq->plan, event.input, ctx);
    if (!r.ok()) {
      ++failed;
    }
    event.done(std::move(r));
  }
  // Sampled latency: one observation per dispatch, for the oldest event in
  // the group (the group's worst case) — keeps the per-event hot path free
  // of clock reads and stats writes.
  const double latency_us =
      static_cast<double>(NowNs() - batch.front().enqueue_ns) / 1e3;
  {
    MetricShard& shard = *pq->shards[shard_idx];
    MutexLock lock(shard.mu);
    AddWindowed(shard.single_latency_us, latency_us, pq->shard_window);
  }
  if (failed > 0) {
    pq->errors.fetch_add(failed, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Observability.

RuntimeMetrics Runtime::GetMetrics() const {
  RuntimeMetrics metrics;
  ReaderMutexLock lock(registry_mu_);
  metrics.plans.reserve(plan_queues_.size());
  for (const auto& pq : plan_queues_) {
    PlanMetrics pm;
    pm.plan_id = pq->id;
    pm.plan_name = pq->plan_name;  // Retained copy: valid after Retire.
    pm.reserved = pq->reserved;
    pm.retired = pq->retired.load(std::memory_order_relaxed);
    pm.inline_predictions =
        pq->inline_predictions.load(std::memory_order_relaxed);
    pm.enqueued_events = pq->enqueued.load(std::memory_order_relaxed);
    pm.rejected_events = pq->rejected.load(std::memory_order_relaxed);
    pm.dispatches = pq->dispatches.load(std::memory_order_relaxed);
    pm.coalesced_singles = pq->coalesced.load(std::memory_order_relaxed);
    pm.errors = pq->errors.load(std::memory_order_relaxed);
    pm.expired_admission =
        pq->expired_admission.load(std::memory_order_relaxed);
    pm.expired_dequeue = pq->expired_dequeue.load(std::memory_order_relaxed);
    pm.expired_quantum = pq->expired_quantum.load(std::memory_order_relaxed);
    pm.shed_deadline = pq->shed_deadline.load(std::memory_order_relaxed);
    pm.queue_delay_ewma_us =
        pq->queue_delay_ewma_us.load(std::memory_order_relaxed);
    if (options_.lockfree_scheduler) {
      pm.queue_depth = pq->queued.load(std::memory_order_relaxed);
    } else {
      // Size only — the PR-2 bug of copying whole reservoirs under the
      // dispatch mutex (stalling every executor in the group) is gone in
      // both modes; stats now live in per-executor shards.
      MutexLock glock(pq->group->mu);
      pm.queue_depth = pq->events.size();
    }
    for (const auto& shard : pq->shards) {
      SampleStats batch_records, queue_wait, single_latency;
      {
        // Brief per-shard copy: stalls at most the one executor that owns
        // this shard, and only if it is dispatching this exact plan.
        MutexLock slock(shard->mu);
        batch_records = shard->batch_records;
        queue_wait = shard->queue_wait_us;
        single_latency = shard->single_latency_us;
      }
      MergeStats(pm.batch_records, batch_records);
      MergeStats(pm.queue_wait_us, queue_wait);
      MergeStats(pm.single_latency_us, single_latency);
    }
    metrics.plans.push_back(std::move(pm));
  }
  const auto aggregate = [&metrics](const SubPlanCache& cache) {
    const SubPlanCache::Stats s = cache.GetStats();
    metrics.subplan_cache.lookups += s.lookups;
    metrics.subplan_cache.hits += s.hits;
    metrics.subplan_cache.insertions += s.insertions;
    metrics.subplan_cache.evictions += s.evictions;
    metrics.subplan_cache_entries += cache.NumEntries();
    metrics.subplan_cache_bytes += cache.SizeBytes();
  };
  for (const auto& cache : executor_caches_) {
    aggregate(*cache);
  }
  if (caller_cache_ != nullptr) {
    aggregate(*caller_cache_);
  }
  for (const auto& pool : executor_pools_) {
    metrics.vector_pool += pool->GetStats();
  }
  metrics.vector_pool += caller_pool_.GetStats();
  return metrics;
}

std::vector<Reservation> Runtime::reservations() const {
  ReaderMutexLock lock(registry_mu_);
  return reservations_;
}

// Folds one replica's row into the logical plan row. Counters sum; the
// queue-delay EWMA is weighted by each replica's event traffic (a cold
// replica's zero must not halve a hot replica's signal); reservation is a
// property of the logical plan on any shard.
static void MergePlanMetrics(PlanMetrics& into, const PlanMetrics& from) {
  const uint64_t into_events = into.inline_predictions + into.enqueued_events;
  const uint64_t from_events = from.inline_predictions + from.enqueued_events;
  const uint64_t total_events = into_events + from_events;
  if (total_events > 0) {
    into.queue_delay_ewma_us = static_cast<int64_t>(
        (static_cast<double>(into.queue_delay_ewma_us) * into_events +
         static_cast<double>(from.queue_delay_ewma_us) * from_events) /
        static_cast<double>(total_events));
  }
  into.reserved = into.reserved || from.reserved;
  // A logical plan is retired only once every replica is.
  into.retired = into.retired && from.retired;
  into.queue_depth += from.queue_depth;
  into.inline_predictions += from.inline_predictions;
  into.enqueued_events += from.enqueued_events;
  into.rejected_events += from.rejected_events;
  into.dispatches += from.dispatches;
  into.coalesced_singles += from.coalesced_singles;
  into.batched_singles += from.batched_singles;
  into.errors += from.errors;
  into.expired_admission += from.expired_admission;
  into.expired_dequeue += from.expired_dequeue;
  into.expired_quantum += from.expired_quantum;
  into.shed_deadline += from.shed_deadline;
  MergeStats(into.batch_records, from.batch_records);
  MergeStats(into.queue_wait_us, from.queue_wait_us);
  MergeStats(into.single_latency_us, from.single_latency_us);
}

void MergeRuntimeMetrics(RuntimeMetrics& into, const RuntimeMetrics& from) {
  // Name -> index, built once per fold: the cross-shard GetMetrics merge is
  // then linear in total plan rows instead of quadratic in fleet size.
  // Owned keys: push_back below can reallocate into.plans, which moves the
  // rows' SSO name bytes out from under any view into them.
  std::unordered_map<std::string, size_t> index;
  index.reserve(into.plans.size() + from.plans.size());
  for (size_t i = 0; i < into.plans.size(); ++i) {
    index.emplace(into.plans[i].plan_name, i);
  }
  for (const PlanMetrics& plan : from.plans) {
    auto [it, inserted] = index.emplace(plan.plan_name, into.plans.size());
    if (inserted) {
      into.plans.push_back(plan);
    } else {
      MergePlanMetrics(into.plans[it->second], plan);
    }
  }
  into.subplan_cache.lookups += from.subplan_cache.lookups;
  into.subplan_cache.hits += from.subplan_cache.hits;
  into.subplan_cache.insertions += from.subplan_cache.insertions;
  into.subplan_cache.evictions += from.subplan_cache.evictions;
  into.subplan_cache_entries += from.subplan_cache_entries;
  into.subplan_cache_bytes += from.subplan_cache_bytes;
  into.vector_pool += from.vector_pool;
}

}  // namespace pretzel
