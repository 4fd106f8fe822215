// Serving layer: scale-out across Runtimes. The white-box layers below
// (Flour/Oven/ObjectStore/Runtime) share state *within* one Runtime; this
// layer multiplies independent Runtimes — shards — behind a thin routing
// tier so nothing (no lock, cache, registry, or executor group) is shared
// cross-shard.
//
// ShardRouter owns N shards, each a {ObjectStore segment, Runtime} pair,
// and maps plan names to shards with a jump consistent hash (Lamping &
// Veach), whose defining property drives the deploy story: growing the
// shard count from S to S+1 remaps only ~1/(S+1) of the keys, and every
// remapped key lands on the NEW shard — resize never reshuffles traffic
// between surviving shards.
//
// Placement is the routing function: Place() compiles the pipeline against
// the owning shard's segment (Flour intern + Oven compile) and registers it
// with that shard's Runtime, so a plan's parameters are resident exactly
// where its requests land. The segment intern scope decides what "resident"
// shares: per-segment keeps checksum-dedup local to the shard (zero
// cross-shard coupling, duplicated hot dictionaries), router-global
// delegates dedup to one shared store (one resident copy system-wide, at
// the cost of a shared deploy-time intern point). Serving never touches the
// store either way — plans hold their params.
//
// Hot-plan replication: jump hash pins each plan to ONE shard, so under
// Zipf-skewed traffic the shard owning the head of the distribution
// saturates while siblings idle. MaintainReplication() watches each plan's
// routed-traffic share, replicates plans above a hotness threshold onto
// extra shards (the same Flour/Oven compile path as Place, once per
// replica), and routes replicated plans with power-of-two-choices over the
// replicas' live queue-delay EWMAs — the balanced-allocations result:
// sampling two queues and taking the shorter collapses max load from
// Θ(log n / log log n) to Θ(log log n). Plans that cool are de-replicated
// (deactivated, not torn down: the Runtime registration stays materialized
// so re-heating re-activates for free, and residency stays bounded by
// max_replicas_per_plan).
//
// Versioned lifecycle (zero-downtime model swaps): Deploy() compiles v(n+1)
// of an already-placed plan against the shard where v(n) lives, so the
// ObjectStore intern resolves every unchanged parameter to the resident
// blob — the swap costs O(changed params) bytes, not O(model). The new
// version starts as a CANARY taking a deterministic hash-fraction of the
// plan's traffic (exact in the count domain, like the fault layer's
// probabilities), watched by per-version failure/latency EWMAs; a degraded
// canary flips its CanarySplit kill switch from the data path and rolls
// back, a healthy one is Promote()d. Retiring the losing version is
// epoch-ordered: publish a table that no longer routes to it (RCU grace),
// close its VersionGate and wait out the stragglers that routed before the
// swap, drain its Runtime registrations (Runtime::Retire), then Release its
// ObjectStore pins and Sweep — resident bytes return to the pre-deploy
// baseline, and no request can ever observe a torn or retired version.
//
// The routing table is an immutable snapshot behind an RcuCell: the predict
// path takes NO mutex — one RCU read (two counter RMWs + a pointer load)
// covers the name lookup, the p2c pick, and the breaker gate. Writers
// (Place / Replicate / Failover / maintenance) copy-update under mu_ and
// swap the snapshot, with an epoch grace period before reclaiming the old
// table. See src/common/rcu.h for the memory-order argument.
//
// GetMetrics() folds every shard's RuntimeMetrics into one cross-shard
// snapshot (MergeRuntimeMetrics) while retaining the per-shard breakdown;
// the fold merges replicas of one plan BY NAME so a replicated plan is
// counted once, and the per-replica load breakdown is reported separately.
#ifndef PRETZEL_SERVING_SHARD_ROUTER_H_
#define PRETZEL_SERVING_SHARD_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/rcu.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/ops/params.h"
#include "src/runtime/runtime.h"
#include "src/serving/health.h"
#include "src/serving/lifecycle_gate.h"
#include "src/store/object_store.h"

namespace pretzel {

// Hot-plan replication policy. Shares are fractions of the router's routed
// requests since the previous maintenance scan.
struct ReplicationOptions {
  bool enabled = false;
  // Residency bound: a plan's parameters are materialized on at most this
  // many shards, ever (de-replication deactivates but keeps the
  // registration, so the bound is what ObjectStore residency pays).
  size_t max_replicas_per_plan = 4;
  // A plan at or above this traffic share is hot: replicate to
  // clamp(ceil(share * num_shards), 2, max). Hysteresis gap to
  // cool_share_threshold prevents flapping at the boundary.
  double hot_share_threshold = 0.08;
  // A replicated plan at or below this share has cooled: drop back to 1
  // active replica. Must be < hot_share_threshold.
  double cool_share_threshold = 0.04;
  // A maintenance scan is a no-op (no signal) until the router has routed
  // at least this many requests since the previous scan.
  uint64_t min_interval_requests = 256;
  // > 0 starts a background thread calling MaintainReplication() at this
  // period; 0 leaves maintenance to explicit calls (benches, tests).
  int64_t scan_interval_us = 0;
};

// Canary rollout policy for Deploy()ed plan versions.
struct RolloutOptions {
  // Canary share of the plan's traffic while a rollout is in flight, in
  // basis points (of 10000). 0 deploys dark: the version is compiled and
  // registered but takes no traffic until Promote().
  uint32_t canary_fraction_bp = 500;
  // The auto-rollback verdict needs at least this many canary-routed
  // requests of signal before it may fire.
  uint64_t min_canary_requests = 64;
  // Canary failure EWMA at or above this triggers auto-rollback.
  double rollback_failure_ewma = 0.5;
  // A canary whose mean latency stays above this multiple of the stable
  // version's, measured over the same interval, triggers auto-rollback.
  // Means are compared per window of canary completions and must exceed
  // the bound in several consecutive windows, so one stalled request or
  // one burst of queued completions cannot kill a healthy canary.
  double rollback_latency_x = 8.0;
  // false disables the controller: rollouts end only by explicit
  // Promote()/Rollback() calls.
  bool auto_rollback = true;
};

struct ShardRouterOptions {
  size_t num_shards = 1;
  // Applied to every shard's Runtime (shards are symmetric; executors,
  // caches, and backpressure caps are per-shard).
  RuntimeOptions runtime;
  // Where checksum-dedup happens at deploy time.
  enum class InternScope {
    kPerSegment,  // Each shard dedups privately; shards share no bytes.
    kGlobal,      // Segments delegate to one router-global store.
  };
  InternScope intern_scope = InternScope::kPerSegment;
  // Dedup policy for each segment (per-segment scope) or the global store.
  ObjectStore::Options store;
  // Per-shard circuit breaker (trips on consecutive shard faults — errors
  // and deadline blowouts inside the shard; backpressure, caller errors,
  // and requests that arrived already expired never count).
  CircuitBreakerOptions breaker;
  // When a shard's breaker is open, re-Place its plans onto healthy shards
  // through the normal Flour/Oven compile path instead of failing fast.
  bool failover_enabled = true;
  // Bounded movement: at most this many plans ever migrate off one shard,
  // so a flapping breaker cannot churn the whole placement map.
  size_t max_failover_placements = 4;
  // Hot-plan replication + power-of-two-choices routing.
  ReplicationOptions replication;
  // Versioned-deploy canary policy.
  RolloutOptions rollout;
};

// Where a deployed plan lives.
struct ShardPlacement {
  size_t shard = 0;
  Runtime::PlanId plan_id = 0;
};

// One shard's slice of a cross-shard snapshot.
struct ShardMetrics {
  size_t shard = 0;
  RuntimeMetrics runtime;
  size_t store_objects = 0;  // Objects resident in this shard's segment.
  size_t store_bytes = 0;
};

// One shard's health as seen by the routing tier.
struct ShardHealthSnapshot {
  CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
  uint64_t successes = 0;
  uint64_t errors = 0;    // Shard faults (unresponsive, internal).
  uint64_t timeouts = 0;  // Deadline blowouts attributed to the shard.
  uint64_t rejected = 0;  // Fast-failed while the breaker was open.
  uint64_t failovers = 0; // Plans migrated off this shard.
  uint64_t trips = 0;
  double failure_ewma = 0.0;  // Smoothed fault indicator in [0,1].
};

// One replica's slice of a plan's load breakdown.
struct ReplicaMetrics {
  size_t shard = 0;
  Runtime::PlanId plan_id = 0;
  bool active = false;           // Inactive = cooled, kept materialized.
  uint64_t routed = 0;           // Requests this replica was chosen for.
  int64_t queue_delay_ewma_us = 0;  // Live p2c signal at snapshot time.
};

// A logical plan's replica set (primary first).
struct PlanReplicaMetrics {
  std::string name;
  std::vector<ReplicaMetrics> replicas;
};

struct ShardedMetrics {
  std::vector<ShardMetrics> shards;  // Per-shard breakdown, index == shard.
  // Cross-shard fold of the above. Replicas of one plan merge BY NAME into
  // a single logical row (counters summed, EWMAs event-weighted) — a plan
  // replicated onto K shards is one plan, not K.
  RuntimeMetrics merged;
  size_t unique_plans = 0;       // == merged.plans.size(), deduplicated.
  size_t replicated_plans = 0;   // Plans with > 1 active replica.
  uint64_t replications = 0;     // Replica activations, lifetime.
  uint64_t dereplications = 0;   // Replica deactivations, lifetime.
  // Per-plan, per-replica load breakdown (primary first): where each
  // logical plan's traffic actually landed.
  std::vector<PlanReplicaMetrics> plan_replicas;
  // Resident parameter state: sum of the segments (per-segment scope) or
  // the global store's uniques (global scope).
  size_t store_objects = 0;
  size_t store_bytes = 0;
  // Versioned-lifecycle counters, lifetime.
  uint64_t deploys = 0;         // Canary versions registered.
  uint64_t promotes = 0;        // Canaries promoted to active.
  uint64_t rollbacks = 0;       // Rollouts aborted (manual + auto).
  uint64_t auto_rollbacks = 0;  // Subset fired by the health controller.
  // Per-shard load (index == shard): the event-weighted mean of the shard's
  // plan queue-delay EWMAs — hot plans dominate their shard's number, which
  // is exactly the hot-shard bound Zipf skew produces. `imbalance` is
  // max/mean across shards (1.0 = perfectly balanced; meaningless — and
  // left at 1.0 — when no shard has observed queue delay).
  std::vector<double> shard_queue_delay_us;
  double max_shard_queue_delay_us = 0.0;
  double mean_shard_queue_delay_us = 0.0;
  double queue_delay_imbalance = 1.0;
  size_t hottest_shard = 0;
  // Routing-tier health (index == shard).
  std::vector<ShardHealthSnapshot> shard_health;
};

// What one MaintainReplication() scan did.
struct MaintenanceReport {
  size_t plans_scanned = 0;
  uint64_t interval_requests = 0;  // Routed since the previous scan.
  size_t replications = 0;         // Replicas activated this scan.
  size_t dereplications = 0;       // Replicas deactivated this scan.
};

// One plan's lifecycle state, for tests and benches.
struct PlanVersionInfo {
  uint64_t active_version = 0;
  uint64_t next_version = 0;
  bool rollout_in_flight = false;
  uint64_t rollout_version = 0;
  // Live canary split; 0 once the kill switch fired (or a dark deploy).
  uint32_t canary_fraction_bp = 0;
  uint64_t canary_routed = 0;
  uint64_t canary_faults = 0;
  double canary_failure_ewma = 0.0;
  double canary_latency_ewma_us = 0.0;
  double stable_latency_ewma_us = 0.0;
  int64_t stable_inflight = 0;  // Requests currently inside the version gate.
};

class ShardRouter {
 public:
  explicit ShardRouter(const ShardRouterOptions& options);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Jump consistent hash (Lamping & Veach 2014): uniform over buckets, and
  // raising num_buckets moves a key only into the newly added buckets.
  static uint32_t JumpConsistentHash(uint64_t key, uint32_t num_buckets);
  // FNV-1a, the stable name->key step in front of the jump hash.
  static uint64_t HashName(const std::string& name);

  size_t ShardForKey(uint64_t key) const;
  size_t ShardFor(const std::string& name) const;

  // Compiles `spec` against the owning shard's segment and registers the
  // plan with that shard's Runtime. Names must be unique across the router.
  Result<ShardPlacement> Place(const PipelineSpec& spec,
                               const PlanRegistration& registration = {});

  // Request routing: one snapshot lookup (no mutex), breaker-gated; a
  // replicated plan picks its replica by power-of-two-choices over live
  // queue delay. `deadline_ns` (absolute, NowNs() domain; 0 = none) is
  // forwarded so expiry is enforced inside the shard's queues, not just at
  // the edge.
  Result<float> Predict(const std::string& name, const std::string& input,
                        int64_t deadline_ns = 0);
  // Binary wire record, borrowed: routed to the owning shard's zero-parse
  // entry point without copy or conversion.
  Result<float> PredictBinary(const std::string& name,
                              std::span<const uint8_t> record,
                              int64_t deadline_ns = 0);
  Status PredictAsync(const std::string& name, std::string input,
                      Runtime::SingleCallback callback,
                      int64_t deadline_ns = 0);
  Result<std::vector<float>> PredictBatch(const std::string& name,
                                          const std::vector<std::string>& inputs,
                                          size_t max_batch,
                                          int64_t deadline_ns = 0);

  // ---- Versioned lifecycle ----------------------------------------------
  // Begins a canary rollout of a new version of the already-placed plan
  // named `spec.name`: compiles against the shard where the active version
  // lives (so the ObjectStore intern shares every unchanged parameter —
  // the swap moves O(changed params) bytes), registers it with that shard's
  // Runtime, and splits rollout.canary_fraction_bp of the plan's traffic
  // onto it. One rollout per plan at a time. A compile or registration
  // failure surfaces here and leaves the active version untouched. Returns
  // the new version number.
  Result<uint64_t> Deploy(const PipelineSpec& spec);
  // Commits the rollout: the canary becomes the active version in one
  // snapshot swap, then the old version is epoch-reclaimed — its gate
  // drains, its Runtime registrations retire, and its ObjectStore pins are
  // released and swept. Blocking, control-plane only.
  Status Promote(const std::string& name);
  // Aborts the rollout: canary traffic stops in one snapshot swap and the
  // canary version is epoch-reclaimed. The active version never moved.
  Status Rollback(const std::string& name);
  // Lifecycle snapshot of one plan.
  Result<PlanVersionInfo> VersionInfo(const std::string& name) const;

  // The plan's primary replica (replica 0 — its jump-hash home until a
  // failover moves it).
  Result<ShardPlacement> Placement(const std::string& name) const;
  // Every ACTIVE replica, primary first.
  std::vector<ShardPlacement> Replicas(const std::string& name) const;

  // Pins `name`'s active replica count to `target_replicas` (clamped to
  // [1, min(max_replicas_per_plan, num_shards)]), compiling onto new shards
  // or re-activating materialized ones as needed. The admin/test face of
  // the machinery MaintainReplication() drives from traffic.
  Status Replicate(const std::string& name, size_t target_replicas);

  // One hotness scan: computes each plan's share of requests routed since
  // the previous scan, replicates plans above hot_share_threshold, and
  // de-replicates plans at or below cool_share_threshold. Cheap no-op when
  // the interval carried fewer than min_interval_requests. Runs inline on
  // the caller (or on the background thread when scan_interval_us > 0).
  MaintenanceReport MaintainReplication();

  // Cross-shard snapshot: per-shard breakdown plus the merged fold.
  ShardedMetrics GetMetrics() const;

  size_t num_shards() const { return shards_.size(); }
  Runtime* runtime(size_t shard) const { return shards_[shard]->runtime.get(); }
  ObjectStore* segment(size_t shard) const {
    return shards_[shard]->segment.get();
  }
  // Null in per-segment scope.
  ObjectStore* global_store() const { return global_store_.get(); }
  const ShardRouterOptions& options() const { return options_; }

  // Routing-tier view of one shard's health. Exposed for tests.
  const CircuitBreaker& breaker(size_t shard) const {
    return health_[shard]->breaker;
  }

 private:
  struct Shard {
    std::unique_ptr<ObjectStore> segment;
    std::unique_ptr<Runtime> runtime;
  };

  // Health is written on every request (lock-free counters + breaker) and
  // folded into GetMetrics. Heap-allocated so entries never move.
  struct ShardHealth {
    explicit ShardHealth(const CircuitBreakerOptions& options)
        : breaker(options) {}
    CircuitBreaker breaker;
    std::atomic<uint64_t> successes{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> failovers{0};
    // EWMA over the per-request fault indicator, alpha = 1/16; stored as
    // double bits, advanced by CAS (losing an update under contention only
    // softens the smoothing, never corrupts the value).
    std::atomic<uint64_t> failure_ewma_bits{0};
  };

  // Per-replica routing counters. Heap-allocated, owned by the PlanState
  // and never reclaimed while the router lives, so published snapshots can
  // hold raw pointers across table swaps.
  struct ReplicaStats {
    std::atomic<uint64_t> routed{0};
  };
  // Per-logical-plan traffic, the hotness signal. Same lifetime rule.
  struct PlanTraffic {
    std::atomic<uint64_t> routed{0};
    // Maintenance bookkeeping (cumulative count at the previous scan).
    // Touched only under control_mu_.
    uint64_t last_scan_routed = 0;
  };

  // Per-version health/latency signal for the canary controller. Same
  // lifetime rule (pool-owned, never freed while the router lives).
  struct VersionStats {
    std::atomic<uint64_t> routed{0};
    std::atomic<uint64_t> successes{0};
    std::atomic<uint64_t> faults{0};  // Errors + shard-attributed timeouts.
    // EWMAs, alpha = 1/16, stored as double bits advanced by CAS.
    std::atomic<uint64_t> failure_ewma_bits{0};
    std::atomic<uint64_t> latency_ewma_bits{0};
    // Cumulative latency of completed requests, for windowed means.
    std::atomic<uint64_t> latency_ns_sum{0};
    std::atomic<uint64_t> latency_n{0};
    // Canary only: both versions' cumulative sums where the current
    // latency window opened, and the run of consecutive slow windows.
    std::atomic<uint64_t> mark_sum{0};
    std::atomic<uint64_t> mark_stable_sum{0};
    std::atomic<uint64_t> mark_stable_n{0};
    std::atomic<uint32_t> slow_windows{0};
  };

  // One materialized registration of a plan on a shard. Control-plane
  // record, under mu_; the published table carries flat ReplicaRef copies.
  struct ReplicaState {
    size_t shard = 0;
    Runtime::PlanId plan_id = 0;
    // Borrowed from the shard's Runtime (valid for its lifetime): the live
    // queue-delay EWMA p2c compares.
    const std::atomic<int64_t>* queue_delay_us = nullptr;
    std::unique_ptr<ReplicaStats> stats;
    bool active = true;
    // ObjectStore pins this registration's compile took, released against
    // its shard's segment when the version retires.
    std::vector<uint64_t> checksums;
  };

  // An in-flight canary rollout: one registration of the new version on the
  // active primary's shard. gate/stats/split are lifecycle_-pool pointers.
  struct Rollout {
    uint64_t version = 0;
    uint32_t initial_fraction_bp = 0;  // Configured split at Deploy time.
    PipelineSpec spec;
    ReplicaState replica;
    VersionGate* gate = nullptr;
    VersionStats* stats = nullptr;
    CanarySplit* split = nullptr;
  };

  struct PlanState {
    PipelineSpec spec;              // Kept for replica/failover recompiles.
    PlanRegistration registration;
    std::vector<ReplicaState> replicas;  // Every materialized registration.
    size_t primary = 0;             // Index into replicas.
    bool pending = true;            // Claimed, compile still in flight.
    std::unique_ptr<PlanTraffic> traffic;
    // Versioned lifecycle. The gate and stats belong to the ACTIVE version
    // (replicas above are its materializations); a non-null rollout is the
    // one in-flight canary of the next version.
    uint64_t active_version = 1;
    uint64_t next_version = 2;
    VersionGate* gate = nullptr;     // Pool-owned.
    VersionStats* vstats = nullptr;  // Pool-owned.
    std::unique_ptr<Rollout> rollout;
  };

  // The immutable snapshot the predict path reads. Rebuilt (copied) by
  // every control-plane mutation, swapped through table_.
  struct ReplicaRef {
    size_t shard = 0;
    Runtime::PlanId plan_id = 0;
    const std::atomic<int64_t>* queue_delay_us = nullptr;
    ReplicaStats* stats = nullptr;
  };
  struct PlanRouting {
    std::vector<ReplicaRef> replicas;  // ACTIVE replicas, primary first.
    PlanTraffic* traffic = nullptr;
    // Active-version lifecycle handles (pool-owned, always valid).
    uint64_t version = 0;
    VersionGate* gate = nullptr;
    VersionStats* stats = nullptr;
    // Canary (rollout in flight when has_canary).
    bool has_canary = false;
    uint64_t canary_version = 0;
    ReplicaRef canary;
    VersionGate* canary_gate = nullptr;
    VersionStats* canary_stats = nullptr;
    CanarySplit* split = nullptr;
  };
  struct RoutingTable {
    std::unordered_map<std::string, PlanRouting> plans;
  };

  // What Route hands a predict wrapper: where to send the request, plus the
  // version bookkeeping the wrapper must settle. A returned decision holds
  // an Enter() on `gate`; FinishVersion() exits it.
  struct RouteDecision {
    size_t shard = 0;
    Runtime::PlanId plan_id = 0;
    uint64_t version = 0;
    bool canary = false;
    VersionGate* gate = nullptr;
    VersionStats* stats = nullptr;
    VersionStats* baseline = nullptr;  // Stable-version stats (canary only).
    CanarySplit* split = nullptr;      // Kill switch (canary only).
  };

  // The breaker gate + canary split + p2c pick + failover step shared by
  // every predict entry point. Mutex-free in the common (routed) case.
  Result<RouteDecision> Route(const std::string& name);
  // Books a finished request's outcome into the owning shard's health.
  void RecordOutcome(size_t shard, const Status& status);
  // Books the outcome into the decision's per-version stats, evaluates the
  // canary auto-rollback verdict (firing the kill switch while still inside
  // the gate), and exits the gate. Returns true when the caller should
  // complete the rollback via TryAutoRollback — callers on executor threads
  // (async completions) must NOT: Runtime::Retire blocks there, so they
  // leave completion to a sync caller or the next maintenance scan.
  bool FinishVersion(const RouteDecision& decision, const Status& status,
                     int64_t start_ns);
  // Closes a canary latency window: the canary's mean latency over it vs
  // the stable version's over the same interval; advances or resets the
  // canary's slow-window streak.
  static void CloseLatencyWindow(VersionStats* canary,
                                 const VersionStats& stable,
                                 double latency_x);
  // Completes a kill-switched rollback if the control plane is free; a held
  // control_mu_ means another lifecycle op is already running and the
  // backstop in MaintainReplication will finish the job.
  void TryAutoRollback(const std::string& name, uint64_t version);
  // Rollback body. REQUIRES control_mu_. expect_version 0 matches any.
  Status RollbackLocked(const std::string& name, uint64_t expect_version,
                        bool auto_trigger);
  // Epoch-reclaims one retired version: closes and drains its gate (every
  // straggler that routed before the swap exits), retires each
  // materialized registration with its shard's Runtime, releases the
  // version's ObjectStore pins, and sweeps the affected segments. REQUIRES
  // control_mu_; must not hold mu_.
  void ReclaimVersion(VersionGate* gate, std::vector<ReplicaState> replicas);
  // Injected shard-unresponsive fault (chaos builds only): stalls, books a
  // failure, and yields the error the caller should return.
  Status InjectedShardFault(size_t shard);
  // Moves `name`'s primary off tripped shard `from`: re-activates a
  // materialized replica on a healthy shard if one exists, else re-compiles
  // through the normal Place path. Serialized by control_mu_.
  Result<ShardPlacement> Failover(const std::string& name, size_t from);
  // Pins the active replica count; REQUIRES control_mu_ (compiles outside
  // mu_, commits + publishes under it). Returns net change in active
  // replicas (negative = deactivated).
  Result<int> SetActiveReplicas(const std::string& name, size_t target);
  // Rebuilds the snapshot from plans_ and swaps it in, reclaiming the old
  // table after the RCU grace period. Readers never block this (they hold
  // no lock), and holding mu_ across the grace wait is safe because read
  // sections never acquire mu_.
  void PublishLocked() REQUIRES(mu_);

  const ShardRouterOptions options_;
  std::unique_ptr<ObjectStore> global_store_;  // kGlobal scope only.
  // Version-lifecycle objects (gates, per-version stats, canary splits) are
  // allocated here and never freed while the router lives: published
  // snapshots and in-flight decisions hold raw pointers across table swaps,
  // and async completions book into them on shard executors — the pool is
  // declared before shards_ so it outlives the executor join. Growth is one
  // ~56-byte triple per Deploy; the bytes that matter (parameter blobs) are
  // what ReclaimVersion sweeps.
  struct LifecyclePool {
    std::mutex mu;
    std::vector<std::unique_ptr<VersionGate>> gates;
    std::vector<std::unique_ptr<VersionStats>> stats;
    std::vector<std::unique_ptr<CanarySplit>> splits;
  };
  LifecyclePool lifecycle_;
  VersionGate* NewGate();
  VersionStats* NewVersionStats();
  CanarySplit* NewSplit();
  // Declared before shards_ so it outlives them: async callbacks running on
  // shard executors record outcomes here, and members destroy in reverse
  // declaration order (shards_ joins its executors first).
  std::vector<std::unique_ptr<ShardHealth>> health_;
  // Shards are constructed once in the constructor and never added, removed,
  // or reseated afterwards, so the vector itself needs no guard; each
  // shard's Runtime/ObjectStore do their own internal locking. GetMetrics
  // reads the shards WITHOUT mu_ — per-shard snapshots and the cross-shard
  // merge touch only Runtime/segment state — and takes a brief reader mu_
  // only for the replica breakdown, so a snapshot cannot stall behind a
  // concurrent compile (compiles run with mu_ dropped).
  std::vector<std::unique_ptr<Shard>> shards_;

  // Control-plane state. Predict paths never touch it — they read table_.
  // Lock order: control_mu_ -> mu_; mu_ is a leaf — never acquired while
  // holding any Runtime or ObjectStore lock, and every compile+register
  // step runs with it dropped.
  mutable SharedMutex mu_;
  std::unordered_map<std::string, PlanState> plans_ GUARDED_BY(mu_);
  // The published routing snapshot. Swapped under mu_ (writers), read by
  // predicts with no lock at all.
  RcuCell<RoutingTable> table_;
  // Serializes control-plane multi-step operations (failover, replication,
  // maintenance) so racing requests cannot double-migrate or double-
  // replicate one plan. Cold path only.
  std::mutex control_mu_;

  // Lifetime replication counters (maintenance + explicit Replicate).
  std::atomic<uint64_t> replications_{0};
  std::atomic<uint64_t> dereplications_{0};
  // Lifetime lifecycle counters.
  std::atomic<uint64_t> deploys_{0};
  std::atomic<uint64_t> promotes_{0};
  std::atomic<uint64_t> rollbacks_{0};
  std::atomic<uint64_t> auto_rollbacks_{0};

  // Optional background maintenance (scan_interval_us > 0). Declared last:
  // destroyed (joined) first, before the state it scans.
  std::mutex maintenance_mu_;
  std::condition_variable maintenance_cv_;
  bool stop_maintenance_ = false;
  std::thread maintenance_thread_;
};

}  // namespace pretzel

#endif  // PRETZEL_SERVING_SHARD_ROUTER_H_
