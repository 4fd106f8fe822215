#include "src/serving/shard_router.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>

#include "src/common/clock.h"
#include "src/common/fault.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"

namespace pretzel {

namespace {

constexpr double kEwmaAlpha = 1.0 / 16.0;

double LoadEwma(const std::atomic<uint64_t>& bits) {
  return std::bit_cast<double>(bits.load(std::memory_order_relaxed));
}

// The canary latency verdict compares mean latencies over windows of this
// many canary completions, and fires after this many slow windows in a row.
// A stalled request or a burst of queued completions lands in one window;
// only a canary that stays slow across windows is rolled back.
constexpr uint64_t kLatencyWindow = 32;
constexpr uint32_t kSlowWindowsToKill = 3;

void UpdateEwma(std::atomic<uint64_t>& bits, double sample) {
  uint64_t current = bits.load(std::memory_order_relaxed);
  const double prev = std::bit_cast<double>(current);
  const double next = prev + (sample - prev) * kEwmaAlpha;
  // Single-shot CAS: a lost race under contention drops one smoothing step,
  // never corrupts the value.
  bits.compare_exchange_weak(current, std::bit_cast<uint64_t>(next),
                             std::memory_order_relaxed,
                             std::memory_order_relaxed);
}

// Per-thread xorshift for the p2c sample — routing needs cheap, not
// cryptographic, and a shared RNG would put a contended line on every
// predict.
uint64_t NextRand() {
  thread_local uint64_t state =
      std::hash<std::thread::id>()(std::this_thread::get_id()) | 1;
  uint64_t x = state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  state = x;
  return x;
}

// The ObjectStore pins a compile took: one per op param; released against
// the compiling shard's segment when the version retires.
std::vector<uint64_t> CollectChecksums(const LogicalProgram& program) {
  std::vector<uint64_t> checksums;
  checksums.reserve(program.ops.size());
  for (const auto& op : program.ops) {
    checksums.push_back(op.params->ContentChecksum());
  }
  return checksums;
}

// Unwinds an aborted compile: drops the pins the lowering's interning took
// and sweeps the segment, so a failed Plan/Register (including an armed
// oven.compile_fail) leaves the store exactly as it found it. Leaked pins
// would keep retired blobs resident forever.
void ReleaseProgramPins(ObjectStore* segment, const LogicalProgram& program) {
  for (const uint64_t checksum : CollectChecksums(program)) {
    (void)segment->Release(checksum);
  }
  (void)segment->Sweep();
}

}  // namespace

ShardRouter::ShardRouter(const ShardRouterOptions& options)
    : options_([&] {
        ShardRouterOptions o = options;
        o.num_shards = std::max<size_t>(1, o.num_shards);
        return o;
      }()),
      table_(new RoutingTable()) {
  if (options_.intern_scope == ShardRouterOptions::InternScope::kGlobal) {
    global_store_ = std::make_unique<ObjectStore>(options_.store);
  }
  health_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    health_.push_back(std::make_unique<ShardHealth>(options_.breaker));
  }
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->segment = global_store_ != nullptr
                         ? std::make_unique<ObjectStore>(options_.store,
                                                         global_store_.get())
                         : std::make_unique<ObjectStore>(options_.store);
    shard->runtime =
        std::make_unique<Runtime>(shard->segment.get(), options_.runtime);
    shards_.push_back(std::move(shard));
  }
  if (options_.replication.scan_interval_us > 0) {
    maintenance_thread_ = std::thread([this] {
      const auto period =
          std::chrono::microseconds(options_.replication.scan_interval_us);
      std::unique_lock<std::mutex> lock(maintenance_mu_);
      while (!stop_maintenance_) {
        maintenance_cv_.wait_for(lock, period);
        if (stop_maintenance_) {
          break;
        }
        lock.unlock();
        MaintainReplication();
        lock.lock();
      }
    });
  }
}

ShardRouter::~ShardRouter() {
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    stop_maintenance_ = true;
  }
  maintenance_cv_.notify_all();
  if (maintenance_thread_.joinable()) {
    maintenance_thread_.join();
  }
}

uint32_t ShardRouter::JumpConsistentHash(uint64_t key, uint32_t num_buckets) {
  int64_t bucket = -1;
  int64_t next = 0;
  while (next < static_cast<int64_t>(num_buckets)) {
    bucket = next;
    key = key * 2862933555777941757ULL + 1;
    next = static_cast<int64_t>(
        static_cast<double>(bucket + 1) *
        (static_cast<double>(1LL << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<uint32_t>(bucket);
}

uint64_t ShardRouter::HashName(const std::string& name) {
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64-bit offset basis.
  for (const char c : name) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ULL;  // FNV prime.
  }
  return hash;
}

size_t ShardRouter::ShardForKey(uint64_t key) const {
  return JumpConsistentHash(key, static_cast<uint32_t>(shards_.size()));
}

size_t ShardRouter::ShardFor(const std::string& name) const {
  return ShardForKey(HashName(name));
}

// ---------------------------------------------------------------------------
// Snapshot publication.

void ShardRouter::PublishLocked() {
  auto* table = new RoutingTable();
  table->plans.reserve(plans_.size());
  for (const auto& [name, st] : plans_) {
    if (st.pending) {
      continue;  // Claimed name, compile still in flight: not routable.
    }
    PlanRouting routing;
    routing.traffic = st.traffic.get();
    routing.version = st.active_version;
    routing.gate = st.gate;
    routing.stats = st.vstats;
    if (st.rollout != nullptr) {
      const ReplicaState& c = st.rollout->replica;
      routing.has_canary = true;
      routing.canary_version = st.rollout->version;
      routing.canary =
          ReplicaRef{c.shard, c.plan_id, c.queue_delay_us, c.stats.get()};
      routing.canary_gate = st.rollout->gate;
      routing.canary_stats = st.rollout->stats;
      routing.split = st.rollout->split;
    }
    const ReplicaState& primary = st.replicas[st.primary];
    routing.replicas.push_back(ReplicaRef{primary.shard, primary.plan_id,
                                          primary.queue_delay_us,
                                          primary.stats.get()});
    for (size_t i = 0; i < st.replicas.size(); ++i) {
      if (i == st.primary || !st.replicas[i].active) {
        continue;
      }
      const ReplicaState& r = st.replicas[i];
      routing.replicas.push_back(
          ReplicaRef{r.shard, r.plan_id, r.queue_delay_us, r.stats.get()});
    }
    table->plans.emplace(name, std::move(routing));
  }
  // The grace wait cannot deadlock against readers: route-path read
  // sections never acquire mu_ (or any lock), so holding mu_ here is safe.
  delete table_.Exchange(table);
}

// ---------------------------------------------------------------------------
// Placement.

Result<ShardPlacement> ShardRouter::Place(const PipelineSpec& spec,
                                          const PlanRegistration& registration) {
  const size_t shard = ShardFor(spec.name);
  {
    // Claim the name BEFORE the compile (entry stays pending, unpublished),
    // so a racing Place of the same name fails fast instead of registering
    // a duplicate, orphaned plan with the shard's Runtime.
    WriterMutexLock lock(mu_);
    auto [it, inserted] = plans_.try_emplace(spec.name);
    if (!inserted) {
      return Status::InvalidArgument("plan '" + spec.name +
                                     "' already placed");
    }
    it->second.pending = true;
  }
  // Compile against the owning shard's segment — outside the lock; the
  // pending entry holds the name. Flour interns the params into the segment
  // (or through it into the global store), Oven binds there.
  const auto fail = [&](Status status) -> Result<ShardPlacement> {
    WriterMutexLock lock(mu_);
    plans_.erase(spec.name);  // Pending, never published: plain erase.
    return status;
  };
  FlourContext flour(shards_[shard]->segment.get());
  auto program = flour.FromPipeline(spec);
  if (program == nullptr) {
    return fail(Status::InvalidArgument("pipeline '" + spec.name +
                                        "' did not lower"));
  }
  Result<std::shared_ptr<ModelPlan>> plan = Plan(*program, spec.name);
  if (!plan.ok()) {
    ReleaseProgramPins(shards_[shard]->segment.get(), *program);
    return fail(plan.status());
  }
  Result<Runtime::PlanId> id =
      shards_[shard]->runtime->Register(std::move(*plan), registration);
  if (!id.ok()) {
    ReleaseProgramPins(shards_[shard]->segment.get(), *program);
    return fail(id.status());
  }
  ShardPlacement placement{shard, *id};
  VersionGate* gate = NewGate();
  VersionStats* vstats = NewVersionStats();
  WriterMutexLock lock(mu_);
  PlanState& st = plans_.at(spec.name);
  st.spec = spec;  // Retained for replica / failover recompiles.
  st.registration = registration;
  st.traffic = std::make_unique<PlanTraffic>();
  st.active_version = 1;
  st.next_version = 2;
  st.gate = gate;
  st.vstats = vstats;
  ReplicaState replica;
  replica.shard = shard;
  replica.plan_id = *id;
  replica.queue_delay_us = shards_[shard]->runtime->QueueDelayCounter(*id);
  replica.stats = std::make_unique<ReplicaStats>();
  replica.active = true;
  replica.checksums = CollectChecksums(*program);
  st.replicas.push_back(std::move(replica));
  st.primary = 0;
  st.pending = false;
  PublishLocked();
  return placement;
}

// ---------------------------------------------------------------------------
// Versioned lifecycle.

VersionGate* ShardRouter::NewGate() {
  std::lock_guard<std::mutex> lock(lifecycle_.mu);
  lifecycle_.gates.push_back(std::make_unique<VersionGate>());
  return lifecycle_.gates.back().get();
}

ShardRouter::VersionStats* ShardRouter::NewVersionStats() {
  std::lock_guard<std::mutex> lock(lifecycle_.mu);
  lifecycle_.stats.push_back(std::make_unique<VersionStats>());
  return lifecycle_.stats.back().get();
}

CanarySplit* ShardRouter::NewSplit() {
  std::lock_guard<std::mutex> lock(lifecycle_.mu);
  lifecycle_.splits.push_back(std::make_unique<CanarySplit>());
  return lifecycle_.splits.back().get();
}

Result<uint64_t> ShardRouter::Deploy(const PipelineSpec& spec) {
  std::lock_guard<std::mutex> control(control_mu_);
  size_t shard = 0;
  uint64_t version = 0;
  PlanRegistration registration;
  {
    ReaderMutexLock lock(mu_);
    auto it = plans_.find(spec.name);
    if (it == plans_.end() || it->second.pending) {
      return Status::NotFound("plan '" + spec.name +
                              "' not placed (Deploy upgrades; Place first)");
    }
    const PlanState& st = it->second;
    if (st.rollout != nullptr) {
      return Status::InvalidArgument("rollout already in flight for '" +
                                     spec.name + "'");
    }
    // Compile where the active version lives: its params are interned in
    // that shard's segment, so v(n+1)'s unchanged blobs resolve to hits.
    shard = st.replicas[st.primary].shard;
    version = st.next_version;
    registration = st.registration;
  }
  // Compile + register outside every router lock (mu_ is a leaf; the
  // control mutex serializes lifecycle ops only). A failure — including an
  // armed oven.compile_fail — returns here with the live version untouched.
  FlourContext flour(shards_[shard]->segment.get());
  auto program = flour.FromPipeline(spec);
  if (program == nullptr) {
    return Status::InvalidArgument("pipeline '" + spec.name +
                                   "' did not lower");
  }
  Result<std::shared_ptr<ModelPlan>> plan = Plan(*program, spec.name);
  if (!plan.ok()) {
    ReleaseProgramPins(shards_[shard]->segment.get(), *program);
    return plan.status();
  }
  Result<Runtime::PlanId> id =
      shards_[shard]->runtime->Register(std::move(*plan), registration);
  if (!id.ok()) {
    ReleaseProgramPins(shards_[shard]->segment.get(), *program);
    return id.status();
  }
  auto rollout = std::make_unique<Rollout>();
  rollout->version = version;
  rollout->initial_fraction_bp = options_.rollout.canary_fraction_bp;
  rollout->spec = spec;
  rollout->replica.shard = shard;
  rollout->replica.plan_id = *id;
  rollout->replica.queue_delay_us =
      shards_[shard]->runtime->QueueDelayCounter(*id);
  rollout->replica.stats = std::make_unique<ReplicaStats>();
  rollout->replica.active = true;
  rollout->replica.checksums = CollectChecksums(*program);
  rollout->gate = NewGate();
  rollout->stats = NewVersionStats();
  rollout->split = NewSplit();
  rollout->split->Publish(rollout->initial_fraction_bp, version);
  {
    WriterMutexLock lock(mu_);
    PlanState& st = plans_.at(spec.name);
    // The canary's first latency window opens now, for both versions.
    rollout->stats->mark_stable_sum.store(
        st.vstats->latency_ns_sum.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    rollout->stats->mark_stable_n.store(
        st.vstats->latency_n.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    st.next_version = version + 1;
    st.rollout = std::move(rollout);
    PublishLocked();
  }
  deploys_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

Status ShardRouter::Promote(const std::string& name) {
  std::lock_guard<std::mutex> control(control_mu_);
  std::vector<ReplicaState> old_replicas;
  VersionGate* old_gate = nullptr;
  uint64_t killed_version = 0;
  {
    WriterMutexLock lock(mu_);
    auto it = plans_.find(name);
    if (it == plans_.end() || it->second.pending) {
      return Status::NotFound("plan '" + name + "'");
    }
    PlanState& st = it->second;
    if (st.rollout == nullptr) {
      return Status::NotFound("no rollout in flight for '" + name + "'");
    }
    if (st.rollout->initial_fraction_bp != 0 &&
        st.rollout->split->Load().fraction_bp == 0) {
      // The data path's kill switch fired but nothing has completed the
      // teardown yet (async completions only flip the switch; the sync and
      // maintenance paths may not have run since). Promoting a canary the
      // health gate condemned would defeat the controller, so finish the
      // rollback instead and tell the caller why.
      killed_version = st.rollout->version;
    } else {
      std::unique_ptr<Rollout> rollout = std::move(st.rollout);
      old_replicas = std::move(st.replicas);
      old_gate = st.gate;
      st.replicas.clear();
      st.replicas.push_back(std::move(rollout->replica));
      st.primary = 0;
      st.spec = std::move(rollout->spec);
      st.active_version = rollout->version;
      st.gate = rollout->gate;
      st.vstats = rollout->stats;
      // One swap: all traffic moves to the new version, the canary split
      // disappears from the snapshot. The RCU grace inside guarantees no
      // reader still routes to the old version when we return.
      PublishLocked();
    }
  }
  if (killed_version != 0) {
    (void)RollbackLocked(name, killed_version, /*auto_trigger=*/true);
    return Status::Error("canary for '" + name +
                         "' was killed by the health gate; rolled back");
  }
  promotes_.fetch_add(1, std::memory_order_relaxed);
  ReclaimVersion(old_gate, std::move(old_replicas));
  return Status::OK();
}

Status ShardRouter::Rollback(const std::string& name) {
  std::lock_guard<std::mutex> control(control_mu_);
  return RollbackLocked(name, /*expect_version=*/0, /*auto_trigger=*/false);
}

Status ShardRouter::RollbackLocked(const std::string& name,
                                   uint64_t expect_version,
                                   bool auto_trigger) {
  std::unique_ptr<Rollout> rollout;
  {
    WriterMutexLock lock(mu_);
    auto it = plans_.find(name);
    if (it == plans_.end() || it->second.rollout == nullptr) {
      return Status::NotFound("no rollout in flight for '" + name + "'");
    }
    if (expect_version != 0 &&
        it->second.rollout->version != expect_version) {
      return Status::NotFound("rollout for '" + name + "' superseded");
    }
    rollout = std::move(it->second.rollout);
    PublishLocked();  // Snapshot without the canary: no new canary routes.
  }
  // Belt and braces: the kill switch may already have fired from the data
  // path; republish 0 so every observer agrees before the teardown.
  rollout->split->Publish(0, rollout->version);
  std::vector<ReplicaState> replicas;
  replicas.push_back(std::move(rollout->replica));
  ReclaimVersion(rollout->gate, std::move(replicas));
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  if (auto_trigger) {
    auto_rollbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void ShardRouter::TryAutoRollback(const std::string& name, uint64_t version) {
  std::unique_lock<std::mutex> control(control_mu_, std::try_to_lock);
  if (!control.owns_lock()) {
    // Another lifecycle/control op is running. The kill switch has already
    // stopped canary traffic; the MaintainReplication backstop (or the next
    // sync request) completes the teardown.
    return;
  }
  (void)RollbackLocked(name, version, /*auto_trigger=*/true);
}

void ShardRouter::ReclaimVersion(VersionGate* gate,
                                 std::vector<ReplicaState> replicas) {
  // Chaos site: the swap commit stalls (slow store, straggling drain). The
  // armed latency lands HERE — on the control plane, after the new snapshot
  // is live — so a stalled reclaim can never block the route path. That
  // separation is the invariant the chaos scenario asserts.
  PRETZEL_FAULT_STALL("store.swap_stall", static_cast<int64_t>(0));
  // Epoch order: the table swap's RCU grace already passed (PublishLocked),
  // so no new request can reach this gate; close it and wait out the
  // stragglers that routed before the swap.
  gate->Close();
  gate->AwaitDrain();
  for (const ReplicaState& r : replicas) {
    (void)shards_[r.shard]->runtime->Retire(r.plan_id);
    for (const uint64_t checksum : r.checksums) {
      shards_[r.shard]->segment->Release(checksum);
    }
  }
  // Sweep once per distinct segment (global scope delegates, so any one
  // sweep clears the shared store's zero-pin entries).
  std::vector<bool> swept(shards_.size(), false);
  for (const ReplicaState& r : replicas) {
    if (!swept[r.shard]) {
      swept[r.shard] = true;
      shards_[r.shard]->segment->Sweep();
    }
  }
}

void ShardRouter::CloseLatencyWindow(VersionStats* canary,
                                     const VersionStats& stable,
                                     double latency_x) {
  // The stable version's mean is taken over the same wall-clock interval as
  // the canary's window (both marks move together), so load that hits both
  // versions moves both means. Racing window closes can misattribute a few
  // samples between adjacent windows; the verdict is an estimate.
  const uint64_t sum = canary->latency_ns_sum.load(std::memory_order_relaxed);
  const uint64_t stable_sum =
      stable.latency_ns_sum.load(std::memory_order_relaxed);
  const uint64_t stable_n = stable.latency_n.load(std::memory_order_relaxed);
  const double window_mean =
      static_cast<double>(
          sum - canary->mark_sum.exchange(sum, std::memory_order_relaxed)) /
      kLatencyWindow;
  const uint64_t stable_window_sum =
      stable_sum -
      canary->mark_stable_sum.exchange(stable_sum, std::memory_order_relaxed);
  const uint64_t stable_window_n =
      stable_n -
      canary->mark_stable_n.exchange(stable_n, std::memory_order_relaxed);
  if (stable_window_n > 0 &&
      window_mean > latency_x * static_cast<double>(stable_window_sum) /
                        static_cast<double>(stable_window_n)) {
    canary->slow_windows.fetch_add(1, std::memory_order_relaxed);
  } else {
    canary->slow_windows.store(0, std::memory_order_relaxed);
  }
}

bool ShardRouter::FinishVersion(const RouteDecision& decision,
                                const Status& status, int64_t start_ns) {
  bool want_rollback = false;
  if (decision.stats != nullptr) {
    // Mirror RecordOutcome's verdict taxonomy: backpressure, caller errors,
    // and admission-expired requests say nothing about the version either.
    const bool fault =
        (status.IsDeadlineExceeded() &&
         status.deadline_stage() != DeadlineStage::kAdmission) ||
        status.code() == StatusCode::kError;
    if (status.ok()) {
      decision.stats->successes.fetch_add(1, std::memory_order_relaxed);
    } else if (fault) {
      decision.stats->faults.fetch_add(1, std::memory_order_relaxed);
    }
    if (status.ok() || fault) {
      const int64_t latency_ns = NowNs() - start_ns;
      UpdateEwma(decision.stats->failure_ewma_bits, fault ? 1.0 : 0.0);
      UpdateEwma(decision.stats->latency_ewma_bits,
                 static_cast<double>(latency_ns) / 1000.0);
      decision.stats->latency_ns_sum.fetch_add(
          static_cast<uint64_t>(std::max<int64_t>(latency_ns, 0)),
          std::memory_order_relaxed);
      const uint64_t timed =
          decision.stats->latency_n.fetch_add(1, std::memory_order_relaxed) +
          1;
      if (decision.canary && decision.baseline != nullptr &&
          timed % kLatencyWindow == 0) {
        CloseLatencyWindow(decision.stats, *decision.baseline,
                           options_.rollout.rollback_latency_x);
      }
    }
    if (decision.canary && options_.rollout.auto_rollback &&
        decision.split != nullptr && decision.baseline != nullptr) {
      // Verdict is evaluated INSIDE the gate: the rollout (and these stats)
      // cannot be reclaimed until we exit.
      const RolloutOptions& ro = options_.rollout;
      // relaxed: monotone counter; a stale read only delays the verdict by
      // a request or two.
      const uint64_t seen =
          decision.stats->routed.load(std::memory_order_relaxed);
      const uint32_t slow_windows =
          decision.stats->slow_windows.load(std::memory_order_relaxed);
      if (seen >= ro.min_canary_requests &&
          (LoadEwma(decision.stats->failure_ewma_bits) >=
               ro.rollback_failure_ewma ||
           slow_windows >= kSlowWindowsToKill)) {
        // Kill switch first — lock-free, stops canary traffic NOW; the
        // heavyweight teardown follows outside the gate.
        decision.split->Publish(0, decision.version);
        want_rollback = true;
      }
    }
  }
  if (decision.gate != nullptr) {
    decision.gate->Exit();
  }
  return want_rollback;
}

// ---------------------------------------------------------------------------
// Health, breaker gate, and failover.

void ShardRouter::RecordOutcome(size_t shard, const Status& status) {
  ShardHealth& health = *health_[shard];
  bool fault = false;
  if (status.ok()) {
    health.successes.fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsDeadlineExceeded() &&
             status.deadline_stage() != DeadlineStage::kAdmission) {
    // Expired inside the shard — its queues or execution burned the budget
    // (kQueue / kExecution; untagged kUnspecified counts conservatively).
    health.timeouts.fetch_add(1, std::memory_order_relaxed);
    fault = true;
  } else if (status.code() == StatusCode::kError) {
    health.errors.fetch_add(1, std::memory_order_relaxed);
    fault = true;
  } else {
    // Backpressure (ResourceExhausted), caller errors (NotFound /
    // InvalidArgument), and admission-time deadline expiry (the request
    // arrived already dead — the budget was burned upstream, the shard did
    // no work) say nothing about the shard's health: counting them would
    // let an overload or a flood of doomed clients trip the breaker and
    // amplify the very outage it guards against. A verdictless outcome
    // still owes the breaker its probe token back, or half-open wedges
    // with every token burned and no verdict ever coming.
    health.breaker.OnProbeAbandoned(NowNs() / 1000);
    return;
  }
  UpdateEwma(health.failure_ewma_bits, fault ? 1.0 : 0.0);
  const int64_t now_us = NowNs() / 1000;
  if (fault) {
    health.breaker.OnFailure(now_us);
  } else {
    health.breaker.OnSuccess(now_us);
  }
}

Status ShardRouter::InjectedShardFault(size_t shard) {
  // Chaos site: the owning shard has gone unresponsive — the request burns
  // the armed latency, then fails as a shard fault so the breaker sees it.
  if (PRETZEL_FAULT_POINT("serving.shard_unresponsive",
                          static_cast<int64_t>(shard))) {
    SleepUs(fault::LatencyUs("serving.shard_unresponsive"));
    Status down = Status::Error("shard " + std::to_string(shard) +
                                " unresponsive (fault-injected)");
    RecordOutcome(shard, down);
    return down;
  }
  return Status::OK();
}

Result<ShardPlacement> ShardRouter::Failover(const std::string& name,
                                             size_t from) {
  std::lock_guard<std::mutex> control(control_mu_);
  // Re-check under the control lock: a racing request may already have
  // moved the plan while this one waited.
  Result<ShardPlacement> current = Placement(name);
  if (!current.ok()) {
    return current.status();
  }
  if (current->shard != from) {
    return *current;
  }
  ShardHealth& health = *health_[from];
  // relaxed: failovers is only ever advanced under control_mu_ (held
  // here), so this read cannot race another budget check.
  if (health.failovers.load(std::memory_order_relaxed) >=
      options_.max_failover_placements) {
    return Status::ResourceExhausted("shard " + std::to_string(from) +
                                     " failover budget spent");
  }
  PipelineSpec spec;
  PlanRegistration registration;
  std::vector<bool> hosted(shards_.size(), false);
  {
    // Cheapest exit first: a replica already materialized on a healthy
    // shard becomes the new primary with zero compiles — replication work
    // doubles as pre-staged failover capacity. The sick replica leaves the
    // route set but stays registered so in-flight work drains; movement is
    // additive, never a teardown.
    WriterMutexLock lock(mu_);
    auto it = plans_.find(name);
    if (it == plans_.end() || it->second.pending) {
      return Status::NotFound("plan '" + name + "'");
    }
    PlanState& st = it->second;
    for (size_t i = 0; i < st.replicas.size(); ++i) {
      ReplicaState& r = st.replicas[i];
      hosted[r.shard] = true;
      if (r.shard == from ||
          health_[r.shard]->breaker.state() !=
              CircuitBreaker::State::kClosed) {
        continue;
      }
      r.active = true;
      st.replicas[st.primary].active = false;
      st.primary = i;
      PublishLocked();
      health.failovers.fetch_add(1, std::memory_order_relaxed);
      return ShardPlacement{r.shard, r.plan_id};
    }
    spec = st.spec;
    registration = st.registration;
  }
  // No usable replica: candidate scan starts at a name-keyed offset so one
  // sick shard's plans spread over the survivors instead of piling onto a
  // single neighbor.
  const size_t n = shards_.size();
  size_t target = from;
  if (n > 1) {
    const size_t start = (from + 1 + HashName(name) % (n - 1)) % n;
    for (size_t k = 0; k < n; ++k) {
      const size_t candidate = (start + k) % n;
      if (candidate == from || hosted[candidate]) {
        continue;
      }
      if (health_[candidate]->breaker.state() ==
          CircuitBreaker::State::kClosed) {
        target = candidate;
        break;
      }
    }
  }
  if (target == from) {
    return Status::Error("no healthy shard to fail '" + name + "' over to");
  }
  // Same compile path as Place, against the target shard's segment; mu_
  // stays dropped around the compile (it is a leaf lock).
  FlourContext flour(shards_[target]->segment.get());
  auto program = flour.FromPipeline(spec);
  if (program == nullptr) {
    return Status::Error("pipeline '" + name + "' did not re-lower");
  }
  Result<std::shared_ptr<ModelPlan>> plan = Plan(*program, spec.name);
  if (!plan.ok()) {
    ReleaseProgramPins(shards_[target]->segment.get(), *program);
    return plan.status();
  }
  Result<Runtime::PlanId> id =
      shards_[target]->runtime->Register(std::move(*plan), registration);
  if (!id.ok()) {
    ReleaseProgramPins(shards_[target]->segment.get(), *program);
    return id.status();
  }
  ShardPlacement placement{target, *id};
  {
    WriterMutexLock lock(mu_);
    PlanState& st = plans_.at(name);
    ReplicaState replica;
    replica.shard = target;
    replica.plan_id = *id;
    replica.queue_delay_us = shards_[target]->runtime->QueueDelayCounter(*id);
    replica.stats = std::make_unique<ReplicaStats>();
    replica.active = true;
    replica.checksums = CollectChecksums(*program);
    st.replicas[st.primary].active = false;
    st.replicas.push_back(std::move(replica));
    st.primary = st.replicas.size() - 1;
    PublishLocked();
  }
  health.failovers.fetch_add(1, std::memory_order_relaxed);
  return placement;
}

// ---------------------------------------------------------------------------
// Replication control plane.

Result<int> ShardRouter::SetActiveReplicas(const std::string& name,
                                           size_t target) {
  const size_t cap = std::max<size_t>(
      1, std::min(options_.replication.max_replicas_per_plan,
                  shards_.size()));
  target = std::min(std::max<size_t>(1, target), cap);
  size_t active = 0;
  std::vector<bool> hosted(shards_.size(), false);
  PipelineSpec spec;
  PlanRegistration registration;
  {
    ReaderMutexLock lock(mu_);
    auto it = plans_.find(name);
    if (it == plans_.end() || it->second.pending) {
      return Status::NotFound("plan '" + name + "'");
    }
    spec = it->second.spec;
    registration = it->second.registration;
    for (const ReplicaState& r : it->second.replicas) {
      hosted[r.shard] = true;
      if (r.active) {
        ++active;
      }
    }
  }
  if (target == active) {
    return 0;
  }
  if (target < active) {
    // Cooling: deactivate non-primary extras, newest first. Registrations
    // stay materialized — a re-heated plan re-activates with zero compiles,
    // and residency was already bounded by the cap at materialize time.
    WriterMutexLock lock(mu_);
    PlanState& st = plans_.at(name);
    int removed = 0;
    for (size_t i = st.replicas.size(); i-- > 0 && active > target;) {
      if (i == st.primary || !st.replicas[i].active) {
        continue;
      }
      st.replicas[i].active = false;
      --active;
      ++removed;
    }
    if (removed > 0) {
      dereplications_.fetch_add(removed, std::memory_order_relaxed);
      PublishLocked();
    }
    return -removed;
  }
  // Heating. Free step first: re-activate materialized replicas. The
  // activation flips are committed now (under mu_) but published together
  // with the materialized remainder below — one snapshot swap for the
  // whole heat-up.
  int added = 0;
  {
    WriterMutexLock lock(mu_);
    PlanState& st = plans_.at(name);
    for (size_t i = 0; i < st.replicas.size() && active < target; ++i) {
      if (st.replicas[i].active) {
        continue;
      }
      st.replicas[i].active = true;
      ++active;
      ++added;
    }
  }
  // Materialize the remainder onto healthy, not-yet-hosting shards walking
  // the ring from the plan's home — deterministic, and different plans'
  // homes stagger so replicas spread. Compiles run with no router lock
  // held; the fresh replicas are collected locally and committed in ONE
  // publish after the loop. Per-replica activation visibility mid-loop is
  // not load-bearing, and PublishLocked blocks in the RCU grace wait while
  // holding mu_ — publishing per replica would charge a K-replica heat-up
  // K table copies and K grace waits, stalling other control-plane
  // writers.
  std::vector<ReplicaState> fresh;
  const size_t home = ShardFor(name);
  for (size_t k = 1; k < shards_.size() && active < target; ++k) {
    const size_t candidate = (home + k) % shards_.size();
    if (hosted[candidate] ||
        health_[candidate]->breaker.state() !=
            CircuitBreaker::State::kClosed) {
      continue;
    }
    FlourContext flour(shards_[candidate]->segment.get());
    auto program = flour.FromPipeline(spec);
    if (program == nullptr) {
      break;  // Spec no longer lowers; nothing later will either.
    }
    Result<std::shared_ptr<ModelPlan>> plan = Plan(*program, spec.name);
    if (!plan.ok()) {
      ReleaseProgramPins(shards_[candidate]->segment.get(), *program);
      break;
    }
    Result<Runtime::PlanId> id =
        shards_[candidate]->runtime->Register(std::move(*plan), registration);
    if (!id.ok()) {
      ReleaseProgramPins(shards_[candidate]->segment.get(), *program);
      continue;  // This shard is full; the next candidate may not be.
    }
    ReplicaState replica;
    replica.shard = candidate;
    replica.plan_id = *id;
    replica.queue_delay_us =
        shards_[candidate]->runtime->QueueDelayCounter(*id);
    replica.stats = std::make_unique<ReplicaStats>();
    replica.active = true;
    replica.checksums = CollectChecksums(*program);
    fresh.push_back(std::move(replica));
    ++active;
    ++added;
  }
  if (added > 0) {
    WriterMutexLock lock(mu_);
    PlanState& st = plans_.at(name);
    for (ReplicaState& replica : fresh) {
      st.replicas.push_back(std::move(replica));
    }
    PublishLocked();
    replications_.fetch_add(static_cast<uint64_t>(added),
                            std::memory_order_relaxed);
  }
  return added;
}

Status ShardRouter::Replicate(const std::string& name,
                              size_t target_replicas) {
  std::lock_guard<std::mutex> control(control_mu_);
  Result<int> delta = SetActiveReplicas(name, target_replicas);
  return delta.ok() ? Status::OK() : delta.status();
}

MaintenanceReport ShardRouter::MaintainReplication() {
  std::lock_guard<std::mutex> control(control_mu_);
  MaintenanceReport report;
  // Lifecycle backstop: a canary whose kill switch fired on a thread that
  // could not run the blocking teardown (async completions book outcomes on
  // executor threads, and TryAutoRollback yields when the control plane is
  // busy) is finished here. "Killed" = live fraction reached 0 while the
  // configured split was nonzero — a dark deploy (configured 0) is not a
  // kill.
  {
    std::vector<std::string> killed;
    {
      ReaderMutexLock lock(mu_);
      for (const auto& [name, st] : plans_) {
        if (st.rollout != nullptr && st.rollout->initial_fraction_bp != 0 &&
            st.rollout->split->Load().fraction_bp == 0) {
          killed.push_back(name);
        }
      }
    }
    for (const std::string& name : killed) {
      (void)RollbackLocked(name, /*expect_version=*/0, /*auto_trigger=*/true);
    }
  }
  struct Row {
    std::string name;
    uint64_t interval = 0;
    size_t active = 0;
  };
  std::vector<Row> rows;
  uint64_t total = 0;
  {
    ReaderMutexLock lock(mu_);
    rows.reserve(plans_.size());
    for (auto& [name, st] : plans_) {
      if (st.pending) {
        continue;
      }
      // relaxed: cumulative routed count read for an interval diff; the
      // scan needs no ordering against the routes it counts — a straggling
      // increment simply lands in the next interval.
      const uint64_t cum = st.traffic->routed.load(std::memory_order_relaxed);
      Row row;
      row.name = name;
      row.interval = cum - st.traffic->last_scan_routed;
      st.traffic->last_scan_routed = cum;  // Guarded by control_mu_.
      for (const ReplicaState& r : st.replicas) {
        row.active += r.active ? 1 : 0;
      }
      total += row.interval;
      rows.push_back(std::move(row));
    }
  }
  report.plans_scanned = rows.size();
  report.interval_requests = total;
  if (!options_.replication.enabled ||
      total < options_.replication.min_interval_requests) {
    return report;  // Disabled, or the interval carried no signal.
  }
  const size_t cap = std::max<size_t>(
      1, std::min(options_.replication.max_replicas_per_plan,
                  shards_.size()));
  for (const Row& row : rows) {
    const double share =
        static_cast<double>(row.interval) / static_cast<double>(total);
    size_t target = row.active;
    if (share >= options_.replication.hot_share_threshold) {
      // Replica count proportional to the plan's traffic share of the
      // fleet (at least 2 — it is hot), bounded by the residency cap.
      target = std::min(
          cap, std::max<size_t>(
                   2, static_cast<size_t>(std::ceil(
                          share * static_cast<double>(shards_.size())))));
    } else if (share <= options_.replication.cool_share_threshold) {
      target = 1;
    }
    // Between the thresholds: hysteresis — keep whatever it has.
    if (target == row.active) {
      continue;
    }
    Result<int> delta = SetActiveReplicas(row.name, target);
    if (!delta.ok()) {
      continue;  // Unhealthy candidates etc.; the next scan retries.
    }
    if (*delta > 0) {
      report.replications += static_cast<size_t>(*delta);
    } else {
      report.dereplications += static_cast<size_t>(-*delta);
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Request routing.

Result<ShardRouter::RouteDecision> ShardRouter::Route(
    const std::string& name) {
  size_t blocked_shard = 0;
  // A successful failover republishes the table, so the route is retried
  // against the fresh snapshot (the new primary enters its version gate
  // like any other route). Bounded: each extra pass requires a failover
  // that succeeded, and the budget caps those.
  for (int attempt = 0; attempt < 3; ++attempt) {
    {
      // The common case runs entirely inside this read section: no mutex,
      // just the RCU enter/exit counters around a snapshot lookup, the
      // canary split, the p2c pick, and the breaker gate.
      auto guard = table_.Read();
      auto it = guard->plans.find(name);
      if (it == guard->plans.end()) {
        return Status::NotFound("plan '" + name + "'");
      }
      const PlanRouting& routing = it->second;
      const uint64_t seq =
          routing.traffic->routed.fetch_add(1, std::memory_order_relaxed);
      const int64_t now_us = NowNs() / 1000;
      // ---- Canary split. Deterministic in the count domain: request seq
      // hashes against the live fraction, so a 5% canary sees 5% exactly,
      // reproducibly. The split's target token must match the snapshot's
      // canary version — a reader can never send traffic to a canary whose
      // fraction it observed without its identity.
      if (routing.has_canary) {
        const CanarySplit::Split split = routing.split->Load();
        if (split.fraction_bp != 0 &&
            split.target == routing.canary_version &&
            CanarySplit::InCanary(seq, split.fraction_bp) &&
            health_[routing.canary.shard]->breaker.Allow(now_us)) {
          // Gate entry INSIDE the read section: the snapshot holding this
          // gate is what keeps it un-reclaimed until we are counted. A
          // closed gate (rollout tearing down) falls through to stable —
          // the request is never lost.
          if (routing.canary_gate->Enter()) {
            routing.canary.stats->routed.fetch_add(1,
                                                   std::memory_order_relaxed);
            routing.canary_stats->routed.fetch_add(1,
                                                   std::memory_order_relaxed);
            RouteDecision decision;
            decision.shard = routing.canary.shard;
            decision.plan_id = routing.canary.plan_id;
            decision.version = routing.canary_version;
            decision.canary = true;
            decision.gate = routing.canary_gate;
            decision.stats = routing.canary_stats;
            decision.baseline = routing.stats;
            decision.split = routing.split;
            return decision;
          }
        }
      }
      const size_t n = routing.replicas.size();
      size_t first = 0;
      size_t second = 0;
      if (n > 1) {
        // Power-of-two-choices: sample two distinct replicas, prefer the one
        // with the shorter live queue delay (balanced allocations: max load
        // drops from ~log n/log log n to ~log log n versus random).
        const uint64_t r = NextRand();
        first = static_cast<size_t>(r >> 32) % n;
        second = static_cast<size_t>(r & 0xffffffffULL) % (n - 1);
        if (second >= first) {
          ++second;
        }
        // relaxed: live queue-delay EWMAs are advisory p2c samples — any
        // coherent value is acceptable; staleness costs pick quality only,
        // never safety (the breaker gate below decides admissibility).
        const int64_t delay_first =
            routing.replicas[first].queue_delay_us->load(
                std::memory_order_relaxed);
        const int64_t delay_second =
            routing.replicas[second].queue_delay_us->load(
                std::memory_order_relaxed);
        if (delay_second < delay_first) {
          std::swap(first, second);
        }
      }
      // Breaker-gate the chosen replica, then the runner-up, then sweep the
      // rest — Allow() is called per attempted replica only (it claims
      // half-open probe tokens; probing replicas we will not use would burn
      // them).
      for (size_t i = 0; i < n + 2; ++i) {
        const size_t idx = i == 0 ? first : (i == 1 ? second : i - 2);
        if ((i >= 2 && (idx == first || idx == second)) ||
            (i == 1 && second == first)) {
          continue;
        }
        const ReplicaRef& replica = routing.replicas[idx];
        if (health_[replica.shard]->breaker.Allow(now_us)) {
          // The active version's gate closes only after a snapshot without
          // it has published and its grace passed, so inside this read
          // section entry cannot fail; the check is defense in depth (a
          // rejection falls to the blocked path like an open breaker).
          if (!routing.gate->Enter()) {
            break;
          }
          replica.stats->routed.fetch_add(1, std::memory_order_relaxed);
          routing.stats->routed.fetch_add(1, std::memory_order_relaxed);
          RouteDecision decision;
          decision.shard = replica.shard;
          decision.plan_id = replica.plan_id;
          decision.version = routing.version;
          decision.gate = routing.gate;
          decision.stats = routing.stats;
          return decision;
        }
      }
      blocked_shard = routing.replicas[0].shard;  // Primary owns the slow path.
    }
    // Guard dropped before the control plane: a thread inside an RCU read
    // section must never publish (Failover swaps the table and would wait on
    // its own read guard).
    health_[blocked_shard]->rejected.fetch_add(1, std::memory_order_relaxed);
    if (!options_.failover_enabled) {
      break;
    }
    Result<ShardPlacement> moved = Failover(name, blocked_shard);
    if (!moved.ok()) {
      break;
    }
    // Loop: re-route through the republished snapshot.
  }
  const int64_t now_us = NowNs() / 1000;
  const int64_t reopen_us = health_[blocked_shard]->breaker.reopen_at_us();
  return Status::ResourceExhausted("shard " + std::to_string(blocked_shard) +
                                   " circuit open")
      .WithRetryAfterUs(std::max<int64_t>(1, reopen_us - now_us));
}

Result<PlanVersionInfo> ShardRouter::VersionInfo(
    const std::string& name) const {
  ReaderMutexLock lock(mu_);
  auto it = plans_.find(name);
  if (it == plans_.end() || it->second.pending) {
    return Status::NotFound("plan '" + name + "'");
  }
  const PlanState& st = it->second;
  PlanVersionInfo info;
  info.active_version = st.active_version;
  info.next_version = st.next_version;
  if (st.vstats != nullptr) {
    info.stable_latency_ewma_us = LoadEwma(st.vstats->latency_ewma_bits);
  }
  if (st.gate != nullptr) {
    info.stable_inflight = st.gate->inflight();
  }
  if (st.rollout != nullptr) {
    info.rollout_in_flight = true;
    info.rollout_version = st.rollout->version;
    info.canary_fraction_bp = st.rollout->split->Load().fraction_bp;
    // relaxed: point-in-time snapshot for tests/benches; no decision rides
    // on cross-counter consistency.
    info.canary_routed =
        st.rollout->stats->routed.load(std::memory_order_relaxed);
    info.canary_faults =
        st.rollout->stats->faults.load(std::memory_order_relaxed);
    info.canary_failure_ewma = LoadEwma(st.rollout->stats->failure_ewma_bits);
    info.canary_latency_ewma_us =
        LoadEwma(st.rollout->stats->latency_ewma_bits);
  }
  return info;
}

Result<ShardPlacement> ShardRouter::Placement(const std::string& name) const {
  auto guard = table_.Read();
  auto it = guard->plans.find(name);
  if (it == guard->plans.end()) {
    return Status::NotFound("plan '" + name + "'");
  }
  const ReplicaRef& primary = it->second.replicas.front();
  return ShardPlacement{primary.shard, primary.plan_id};
}

std::vector<ShardPlacement> ShardRouter::Replicas(
    const std::string& name) const {
  std::vector<ShardPlacement> replicas;
  auto guard = table_.Read();
  auto it = guard->plans.find(name);
  if (it == guard->plans.end()) {
    return replicas;
  }
  replicas.reserve(it->second.replicas.size());
  for (const ReplicaRef& r : it->second.replicas) {
    replicas.push_back(ShardPlacement{r.shard, r.plan_id});
  }
  return replicas;
}

Result<float> ShardRouter::Predict(const std::string& name,
                                   const std::string& input,
                                   int64_t deadline_ns) {
  Result<RouteDecision> route = Route(name);
  if (!route.ok()) {
    return route.status();
  }
  const RouteDecision decision = *route;
  const int64_t start_ns = NowNs();
  if (Status fault = InjectedShardFault(decision.shard); !fault.ok()) {
    if (FinishVersion(decision, fault, start_ns)) {
      TryAutoRollback(name, decision.version);
    }
    return fault;
  }
  Result<float> result = shards_[decision.shard]->runtime->Predict(
      decision.plan_id, input, deadline_ns);
  RecordOutcome(decision.shard, result.status());
  if (FinishVersion(decision, result.status(), start_ns)) {
    TryAutoRollback(name, decision.version);
  }
  return result;
}

Result<float> ShardRouter::PredictBinary(const std::string& name,
                                         std::span<const uint8_t> record,
                                         int64_t deadline_ns) {
  Result<RouteDecision> route = Route(name);
  if (!route.ok()) {
    return route.status();
  }
  const RouteDecision decision = *route;
  const int64_t start_ns = NowNs();
  if (Status fault = InjectedShardFault(decision.shard); !fault.ok()) {
    if (FinishVersion(decision, fault, start_ns)) {
      TryAutoRollback(name, decision.version);
    }
    return fault;
  }
  Result<float> result = shards_[decision.shard]->runtime->PredictBinary(
      decision.plan_id, record, deadline_ns);
  RecordOutcome(decision.shard, result.status());
  if (FinishVersion(decision, result.status(), start_ns)) {
    TryAutoRollback(name, decision.version);
  }
  return result;
}

Status ShardRouter::PredictAsync(const std::string& name, std::string input,
                                 Runtime::SingleCallback callback,
                                 int64_t deadline_ns) {
  Result<RouteDecision> route = Route(name);
  if (!route.ok()) {
    return route.status();
  }
  const RouteDecision decision = *route;
  const int64_t start_ns = NowNs();
  if (Status fault = InjectedShardFault(decision.shard); !fault.ok()) {
    FinishVersion(decision, fault, start_ns);
    return fault;
  }
  // Outcome books from the completion, not the submit: `this` outlives the
  // callback because shards_ (joined first, reverse declaration order)
  // drains its executors before health_ and the lifecycle pool go away.
  // The completion runs on an executor thread, so FinishVersion's rollback
  // verdict is NOT acted on here — the kill switch it fires stops canary
  // traffic, and a sync caller or the maintenance backstop finishes the
  // teardown (Runtime::Retire must never run on an executor).
  Status status = shards_[decision.shard]->runtime->PredictAsync(
      decision.plan_id, std::move(input),
      [this, decision, start_ns,
       done = std::move(callback)](Result<float> result) mutable {
        RecordOutcome(decision.shard, result.status());
        FinishVersion(decision, result.status(), start_ns);
        done(std::move(result));
      },
      deadline_ns);
  if (!status.ok()) {
    // Admission failed synchronously: the callback never fires, so the
    // gate exits here, exactly once.
    RecordOutcome(decision.shard, status);
    FinishVersion(decision, status, start_ns);
  }
  return status;
}

Result<std::vector<float>> ShardRouter::PredictBatch(
    const std::string& name, const std::vector<std::string>& inputs,
    size_t max_batch, int64_t deadline_ns) {
  Result<RouteDecision> route = Route(name);
  if (!route.ok()) {
    return route.status();
  }
  const RouteDecision decision = *route;
  const int64_t start_ns = NowNs();
  if (Status fault = InjectedShardFault(decision.shard); !fault.ok()) {
    if (FinishVersion(decision, fault, start_ns)) {
      TryAutoRollback(name, decision.version);
    }
    return fault;
  }
  Result<std::vector<float>> result =
      shards_[decision.shard]->runtime->PredictBatch(decision.plan_id, inputs,
                                                     max_batch, deadline_ns);
  RecordOutcome(decision.shard, result.status());
  if (FinishVersion(decision, result.status(), start_ns)) {
    TryAutoRollback(name, decision.version);
  }
  return result;
}

ShardedMetrics ShardRouter::GetMetrics() const {
  ShardedMetrics metrics;
  metrics.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardMetrics shard;
    shard.shard = i;
    shard.runtime = shards_[i]->runtime->GetMetrics();
    shard.store_objects = shards_[i]->segment->NumObjects();
    shard.store_bytes = shards_[i]->segment->TotalBytes();
    // The fold dedups by plan name, so a replicated plan contributes one
    // logical row with summed counters — never K rows for K replicas.
    MergeRuntimeMetrics(metrics.merged, shard.runtime);
    metrics.store_objects += shard.store_objects;
    metrics.store_bytes += shard.store_bytes;
    metrics.shards.push_back(std::move(shard));
  }
  metrics.unique_plans = metrics.merged.plans.size();
  metrics.replications = replications_.load(std::memory_order_relaxed);
  metrics.dereplications = dereplications_.load(std::memory_order_relaxed);
  metrics.deploys = deploys_.load(std::memory_order_relaxed);
  metrics.promotes = promotes_.load(std::memory_order_relaxed);
  metrics.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  metrics.auto_rollbacks = auto_rollbacks_.load(std::memory_order_relaxed);
  if (global_store_ != nullptr) {
    // Delegating segments hold nothing; the uniques live here.
    metrics.store_objects = global_store_->NumObjects();
    metrics.store_bytes = global_store_->TotalBytes();
  }
  // Load imbalance: fold each shard's plan queue-delay EWMAs into one
  // event-weighted number per shard, then compare the hottest shard to the
  // mean (the hot-shard bound bench_shard reports under Zipf skew).
  metrics.shard_queue_delay_us.reserve(metrics.shards.size());
  double sum = 0.0;
  for (const ShardMetrics& shard : metrics.shards) {
    double weighted = 0.0;
    double events = 0.0;
    for (const PlanMetrics& pm : shard.runtime.plans) {
      const double weight = static_cast<double>(pm.enqueued_events);
      weighted += static_cast<double>(pm.queue_delay_ewma_us) * weight;
      events += weight;
    }
    const double load = events > 0.0 ? weighted / events : 0.0;
    metrics.shard_queue_delay_us.push_back(load);
    sum += load;
    if (load > metrics.max_shard_queue_delay_us) {
      metrics.max_shard_queue_delay_us = load;
      metrics.hottest_shard = metrics.shard_queue_delay_us.size() - 1;
    }
  }
  if (!metrics.shard_queue_delay_us.empty()) {
    metrics.mean_shard_queue_delay_us =
        sum / static_cast<double>(metrics.shard_queue_delay_us.size());
  }
  if (metrics.mean_shard_queue_delay_us > 0.0) {
    metrics.queue_delay_imbalance =
        metrics.max_shard_queue_delay_us / metrics.mean_shard_queue_delay_us;
  }
  {
    // Per-replica breakdown: where each logical plan's traffic landed.
    // Brief reader-side mu_ — control-plane state, not the route path.
    ReaderMutexLock lock(mu_);
    metrics.plan_replicas.reserve(plans_.size());
    for (const auto& [name, st] : plans_) {
      if (st.pending) {
        continue;
      }
      PlanReplicaMetrics plan;
      plan.name = name;
      plan.replicas.reserve(st.replicas.size());
      size_t active = 0;
      const auto snapshot = [](const ReplicaState& r) {
        ReplicaMetrics m;
        m.shard = r.shard;
        m.plan_id = r.plan_id;
        m.active = r.active;
        m.routed = r.stats->routed.load(std::memory_order_relaxed);
        m.queue_delay_ewma_us =
            r.queue_delay_us->load(std::memory_order_relaxed);
        return m;
      };
      plan.replicas.push_back(snapshot(st.replicas[st.primary]));
      active += st.replicas[st.primary].active ? 1 : 0;
      for (size_t i = 0; i < st.replicas.size(); ++i) {
        if (i == st.primary) {
          continue;
        }
        plan.replicas.push_back(snapshot(st.replicas[i]));
        active += st.replicas[i].active ? 1 : 0;
      }
      if (active > 1) {
        ++metrics.replicated_plans;
      }
      metrics.plan_replicas.push_back(std::move(plan));
    }
  }
  metrics.shard_health.reserve(health_.size());
  for (const auto& health : health_) {
    ShardHealthSnapshot snapshot;
    snapshot.breaker_state = health->breaker.state();
    snapshot.successes = health->successes.load(std::memory_order_relaxed);
    snapshot.errors = health->errors.load(std::memory_order_relaxed);
    snapshot.timeouts = health->timeouts.load(std::memory_order_relaxed);
    snapshot.rejected = health->rejected.load(std::memory_order_relaxed);
    snapshot.failovers = health->failovers.load(std::memory_order_relaxed);
    snapshot.trips = health->breaker.trips();
    snapshot.failure_ewma = LoadEwma(health->failure_ewma_bits);
    metrics.shard_health.push_back(snapshot);
  }
  return metrics;
}

}  // namespace pretzel
