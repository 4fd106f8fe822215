// Serving layer: jump-consistent-hash routing stability (<= K/N key
// movement on shard-count change, remapped keys land only on new shards,
// near-uniform spread), sharded-vs-monolith prediction parity, cross-shard
// GetMetrics aggregation == sum of per-shard snapshots, the per-segment vs
// router-global intern trade-off, ShardedBackend drop aggregation with
// retry-after hints, a FrontEnd round trip over the sharded stack, and the
// versioned lifecycle: Deploy/Promote/Rollback with O(changed-params) swaps
// and post-retire byte reclamation, plus route-under-churn with version
// swaps and replication flapping racing live predicts (ASan+TSan in CI).
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/flour/flour.h"
#include "src/frontend/frontend.h"
#include "src/oven/model_plan.h"
#include "src/serving/shard_router.h"
#include "src/serving/sharded_backend.h"
#include "src/workload/load_gen.h"
#include "src/workload/sa_workload.h"
#include "tests/test_util.h"

using namespace pretzel;

namespace {

SaWorkload SmallSa(size_t pipelines) {
  SaWorkloadOptions opts;
  opts.num_pipelines = pipelines;
  opts.char_dict_entries = 400;
  opts.word_dict_entries = 120;
  opts.vocabulary_size = 250;
  return SaWorkload::Generate(opts);
}

// Jump-hash contract, the property that makes shard-count changes cheap:
// going S -> S+1 moves ~1/(S+1) of the keys, every moved key lands on the
// NEW bucket, and the spread stays near-uniform.
void TestJumpHashStability() {
  constexpr size_t kKeys = 20000;
  for (uint32_t shards = 1; shards <= 8; ++shards) {
    std::vector<size_t> bucket_counts(shards, 0);
    size_t moved = 0;
    for (size_t i = 0; i < kKeys; ++i) {
      const uint64_t key = ShardRouter::HashName("plan-" + std::to_string(i));
      const uint32_t before = ShardRouter::JumpConsistentHash(key, shards);
      const uint32_t after = ShardRouter::JumpConsistentHash(key, shards + 1);
      CHECK(before < shards);
      CHECK(after < shards + 1);
      ++bucket_counts[before];
      if (after != before) {
        ++moved;
        // The defining jump property: a key only ever moves INTO the bucket
        // that did not exist before.
        CHECK_EQ(after, shards);
      }
    }
    // Expected movement is K/(S+1); allow 25% slack over the binomial mean
    // (sigma here is ~1% of the mean, so 25% is far outside noise).
    const double expected = static_cast<double>(kKeys) / (shards + 1);
    CHECK_MSG(static_cast<double>(moved) <= expected * 1.25,
              "shards %u -> %u moved %zu keys, expected <= %.0f", shards,
              shards + 1, moved, expected * 1.25);
    CHECK_MSG(moved > 0, "shards %u -> %u moved nothing", shards, shards + 1);
    // Near-uniform spread: each bucket within 5 sigma of K/S.
    const double mean = static_cast<double>(kKeys) / shards;
    const double sigma = std::sqrt(mean * (1.0 - 1.0 / shards));
    for (uint32_t b = 0; b < shards; ++b) {
      CHECK_MSG(std::fabs(static_cast<double>(bucket_counts[b]) - mean) <=
                    5.0 * sigma + 1.0,
                "bucket %u holds %zu keys, mean %.0f", b, bucket_counts[b],
                mean);
    }
  }
}

// Two routers over the same names with S and S+1 shards agree on all but
// <= K/N placements (ShardFor is a pure function of name + shard count).
void TestRouterRemapBound() {
  constexpr size_t kNames = 8000;
  ShardRouterOptions four;
  four.num_shards = 4;
  ShardRouterOptions five;
  five.num_shards = 5;
  ShardRouter router4(four);
  ShardRouter router5(five);
  size_t moved = 0;
  for (size_t i = 0; i < kNames; ++i) {
    const std::string name = "sa_model_" + std::to_string(i);
    const size_t s4 = router4.ShardFor(name);
    const size_t s5 = router5.ShardFor(name);
    if (s4 != s5) {
      ++moved;
      CHECK_EQ(s5, size_t{4});  // Only onto the new shard.
    }
  }
  CHECK_MSG(static_cast<double>(moved) <=
                static_cast<double>(kNames) / 5.0 * 1.25,
            "4 -> 5 shards moved %zu of %zu names", moved, kNames);
  CHECK(moved > 0);
}

// The sharded stack scores exactly what one monolithic Runtime scores, and
// every plan lands on the shard ShardFor names.
void TestShardedPredictMatchesMonolith() {
  auto sa = SmallSa(12);

  ObjectStore mono_store;
  RuntimeOptions ropts;
  ropts.num_executors = 1;
  Runtime monolith(&mono_store, ropts);
  FlourContext flour(&mono_store);
  std::vector<Runtime::PlanId> mono_ids;
  for (const auto& spec : sa.pipelines()) {
    auto program = flour.FromPipeline(spec);
    mono_ids.push_back(*monolith.Register(*Plan(*program, spec.name)));
  }

  ShardRouterOptions sopts;
  sopts.num_shards = 4;
  sopts.runtime.num_executors = 1;
  ShardRouter router(sopts);
  std::set<size_t> shards_used;
  for (const auto& spec : sa.pipelines()) {
    auto placement = router.Place(spec);
    CHECK(placement.ok());
    CHECK_EQ(placement->shard, router.ShardFor(spec.name));
    shards_used.insert(placement->shard);
  }
  CHECK_MSG(shards_used.size() >= 2, "12 plans all hashed to one shard");
  // Re-placing a name is rejected.
  CHECK(!router.Place(sa.pipelines()[0]).ok());
  // Unknown names are NotFound.
  CHECK(!router.Predict("no-such-plan", "x").ok());

  Rng rng(71);
  for (size_t i = 0; i < sa.pipelines().size(); ++i) {
    for (int rep = 0; rep < 3; ++rep) {
      const std::string input = sa.SampleInput(rng);
      auto expected = monolith.Predict(mono_ids[i], input);
      auto got = router.Predict(sa.pipelines()[i].name, input);
      CHECK(expected.ok());
      CHECK(got.ok());
      CHECK_EQ(*expected, *got);
    }
    // Batch path routes to the same shard/plan.
    auto batch = router.PredictBatch(sa.pipelines()[i].name,
                                     {sa.SampleInput(rng)}, 4);
    CHECK(batch.ok());
    CHECK_EQ(batch->size(), size_t{1});
  }
}

// Requests that ARRIVE already expired burned their budget upstream — the
// shard did no work, so they must not be booked as shard timeouts or trip
// its breaker. A flood of doomed clients (tiny deadlines, slow network)
// would otherwise blackhole a healthy shard and set off failover churn.
void TestExpiredArrivalNotAShardFault() {
  auto sa = SmallSa(1);
  ShardRouterOptions sopts;
  sopts.num_shards = 1;
  sopts.runtime.num_executors = 1;
  sopts.breaker.failure_threshold = 3;
  ShardRouter router(sopts);
  const auto& spec = sa.pipelines()[0];
  CHECK(router.Place(spec).ok());

  Rng rng(5);
  const std::string input = sa.SampleInput(rng);
  // Far more arrived-dead requests than the trip threshold.
  for (int i = 0; i < 10; ++i) {
    auto dead = router.Predict(spec.name, input, /*deadline_ns=*/1);
    CHECK(!dead.ok());
    CHECK(dead.status().IsDeadlineExceeded());
    CHECK(dead.status().deadline_stage() == DeadlineStage::kAdmission);
  }
  CHECK(router.breaker(0).state() == CircuitBreaker::State::kClosed);
  const ShardedMetrics metrics = router.GetMetrics();
  CHECK_EQ(metrics.shard_health[0].timeouts, uint64_t{0});
  CHECK_EQ(metrics.shard_health[0].trips, uint64_t{0});
  // The shard still serves live-budget traffic.
  CHECK(router.Predict(spec.name, input).ok());
}

// Cross-shard GetMetrics: the merged fold equals the sum of the per-shard
// snapshots it retains.
void TestCrossShardMetricsAggregation() {
  auto sa = SmallSa(10);
  ShardRouterOptions sopts;
  sopts.num_shards = 4;
  sopts.runtime.num_executors = 1;
  ShardRouter router(sopts);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }

  Rng rng(81);
  std::atomic<int> pending{0};
  for (int round = 0; round < 20; ++round) {
    for (const auto& spec : sa.pipelines()) {
      CHECK(router.Predict(spec.name, sa.SampleInput(rng)).ok());
      pending.fetch_add(1);
      Status st = router.PredictAsync(spec.name, sa.SampleInput(rng),
                                      [&](Result<float> r) {
                                        CHECK(r.ok());
                                        pending.fetch_sub(1);
                                      });
      CHECK(st.ok());
    }
  }
  while (pending.load() > 0) {
    std::this_thread::yield();
  }

  const ShardedMetrics metrics = router.GetMetrics();
  CHECK_EQ(metrics.shards.size(), size_t{4});
  size_t plans = 0;
  uint64_t enqueued = 0, inline_preds = 0, dispatches = 0;
  uint64_t cache_lookups = 0;
  size_t cache_bytes = 0;
  size_t store_objects = 0, store_bytes = 0;
  for (const auto& shard : metrics.shards) {
    plans += shard.runtime.plans.size();
    for (const auto& pm : shard.runtime.plans) {
      enqueued += pm.enqueued_events;
      inline_preds += pm.inline_predictions;
      dispatches += pm.dispatches;
    }
    cache_lookups += shard.runtime.subplan_cache.lookups;
    cache_bytes += shard.runtime.subplan_cache_bytes;
    store_objects += shard.store_objects;
    store_bytes += shard.store_bytes;
  }
  CHECK_EQ(metrics.merged.plans.size(), plans);
  CHECK_EQ(metrics.merged.plans.size(), sa.pipelines().size());
  uint64_t merged_enqueued = 0, merged_inline = 0, merged_dispatches = 0;
  for (const auto& pm : metrics.merged.plans) {
    merged_enqueued += pm.enqueued_events;
    merged_inline += pm.inline_predictions;
    merged_dispatches += pm.dispatches;
  }
  CHECK_EQ(merged_enqueued, enqueued);
  CHECK_EQ(merged_inline, inline_preds);
  CHECK_EQ(merged_dispatches, dispatches);
  CHECK_EQ(metrics.merged.subplan_cache.lookups, cache_lookups);
  CHECK_EQ(metrics.merged.subplan_cache_bytes, cache_bytes);
  // Per-segment scope: resident state is the sum of the segments.
  CHECK_EQ(metrics.store_objects, store_objects);
  CHECK_EQ(metrics.store_bytes, store_bytes);
  CHECK(store_bytes > 0);
  // Every async single was enqueued, every sync single ran inline.
  CHECK_EQ(inline_preds, uint64_t{20 * 10});
  CHECK_EQ(enqueued, uint64_t{20 * 10});
}

// Segment-vs-global intern: with router-global scope, dictionaries shared
// across shards are resident once; per-segment scope duplicates them per
// shard. Predictions agree either way.
void TestInternScopeTradeOff() {
  auto sa = SmallSa(12);

  ShardRouterOptions per_segment;
  per_segment.num_shards = 4;
  per_segment.runtime.num_executors = 1;
  ShardRouter segmented(per_segment);

  ShardRouterOptions global = per_segment;
  global.intern_scope = ShardRouterOptions::InternScope::kGlobal;
  ShardRouter shared(global);
  CHECK(shared.global_store() != nullptr);
  CHECK(segmented.global_store() == nullptr);

  for (const auto& spec : sa.pipelines()) {
    CHECK(segmented.Place(spec).ok());
    CHECK(shared.Place(spec).ok());
  }
  const ShardedMetrics seg_metrics = segmented.GetMetrics();
  const ShardedMetrics shr_metrics = shared.GetMetrics();
  // The SA suite shares one tokenizer and a handful of dictionary versions
  // across all pipelines; with 12 plans spread over 4 shards, at least one
  // shared object must appear on two shards, so global intern is a strict
  // byte win.
  CHECK_MSG(shr_metrics.store_bytes < seg_metrics.store_bytes,
            "global intern %zu bytes !< per-segment %zu bytes",
            shr_metrics.store_bytes, seg_metrics.store_bytes);
  // Delegating segments hold no objects themselves.
  for (const auto& shard : shr_metrics.shards) {
    CHECK_EQ(shard.store_bytes, size_t{0});
  }

  Rng rng(91);
  for (const auto& spec : sa.pipelines()) {
    const std::string input = sa.SampleInput(rng);
    auto a = segmented.Predict(spec.name, input);
    auto b = shared.Predict(spec.name, input);
    CHECK(a.ok());
    CHECK(b.ok());
    CHECK_EQ(*a, *b);
  }
}

// ShardedBackend aggregates admission drops across shards and the rejected
// statuses carry retry-after hints.
void TestShardedBackendDrops() {
  auto sa = SmallSa(4);
  ShardRouterOptions sopts;
  sopts.num_shards = 2;
  sopts.runtime.num_executors = 1;
  sopts.runtime.max_queued_events_per_plan = 2;
  ShardRouter router(sopts);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  ShardedBackend backend(&router);

  Rng rng(101);
  std::atomic<int> pending{0};
  std::atomic<int> rejected{0};
  std::atomic<int64_t> max_hint{0};
  for (int i = 0; i < 400; ++i) {
    const auto& spec = sa.pipelines()[i % sa.pipelines().size()];
    pending.fetch_add(1);
    backend.PredictAsync(spec.name, sa.SampleInput(rng), [&](Result<float> r) {
      if (!r.ok()) {
        CHECK(r.status().IsResourceExhausted());
        rejected.fetch_add(1);
        int64_t hint = r.status().retry_after_us();
        int64_t prev = max_hint.load();
        while (hint > prev && !max_hint.compare_exchange_weak(prev, hint)) {
        }
      }
      pending.fetch_sub(1);
    });
  }
  while (pending.load() > 0) {
    std::this_thread::yield();
  }
  // 400 back-to-back submissions against cap-2 queues on single-executor
  // shards doing real scoring: some must shed.
  CHECK_MSG(rejected.load() > 0, "no submission was shed at cap 2");
  CHECK_EQ(backend.dropped(), static_cast<uint64_t>(rejected.load()));
  CHECK_MSG(max_hint.load() >= 1, "rejections carried no retry-after hint");
}

// End to end: FrontEnd -> ShardedBackend -> ShardRouter -> shard Runtime.
void TestFrontEndOverShardedStack() {
  auto sa = SmallSa(6);
  ShardRouterOptions sopts;
  sopts.num_shards = 3;
  sopts.runtime.num_executors = 1;
  ShardRouter router(sopts);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  ShardedBackend backend(&router);
  FrontEndOptions fopts;
  fopts.network_delay_us = 0;
  fopts.num_io_threads = 2;
  FrontEnd frontend(&backend, fopts);

  Rng rng(111);
  std::mutex mu;
  std::condition_variable cv;
  int completions = 0;
  for (int i = 0; i < 30; ++i) {
    const auto& spec = sa.pipelines()[i % sa.pipelines().size()];
    auto sync = frontend.Request(spec.name, sa.SampleInput(rng));
    CHECK(sync.ok());
    Status st = frontend.RequestAsync(spec.name, sa.SampleInput(rng),
                                      [&](Result<float> r) {
                                        CHECK(r.ok());
                                        std::lock_guard<std::mutex> lock(mu);
                                        ++completions;
                                        cv.notify_one();
                                      });
    CHECK(st.ok());
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return completions == 30; });
  CHECK_EQ(backend.dropped(), uint64_t{0});
}

// Replica parity: a plan replicated onto K shards is the SAME model K
// times — every replica, driven directly through its shard's Runtime,
// scores exactly what one monolithic Runtime scores. (Each replica is an
// independent Flour+Oven compile against a different segment, so this
// pins down compile determinism across segments, not just routing.)
void TestReplicaParity() {
  auto sa = SmallSa(6);

  ObjectStore mono_store;
  RuntimeOptions ropts;
  ropts.num_executors = 1;
  Runtime monolith(&mono_store, ropts);
  FlourContext flour(&mono_store);
  std::vector<Runtime::PlanId> mono_ids;
  for (const auto& spec : sa.pipelines()) {
    auto program = flour.FromPipeline(spec);
    mono_ids.push_back(*monolith.Register(*Plan(*program, spec.name)));
  }

  ShardRouterOptions sopts;
  sopts.num_shards = 4;
  sopts.runtime.num_executors = 1;
  sopts.replication.enabled = true;
  sopts.replication.max_replicas_per_plan = 3;
  ShardRouter router(sopts);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Replicate(spec.name, 3).ok());
    CHECK_EQ(router.Replicas(spec.name).size(), size_t{3});
  }

  Rng rng(121);
  for (size_t i = 0; i < sa.pipelines().size(); ++i) {
    const std::string& name = sa.pipelines()[i].name;
    const std::vector<ShardPlacement> replicas = router.Replicas(name);
    std::set<size_t> shards;
    for (int rep = 0; rep < 3; ++rep) {
      const std::string input = sa.SampleInput(rng);
      auto expected = monolith.Predict(mono_ids[i], input);
      CHECK(expected.ok());
      for (const ShardPlacement& r : replicas) {
        shards.insert(r.shard);
        auto got = router.runtime(r.shard)->Predict(r.plan_id, input);
        CHECK(got.ok());
        CHECK_EQ(*expected, *got);
      }
      // The routed path (whichever replica p2c lands on) agrees too.
      auto routed = router.Predict(name, input);
      CHECK(routed.ok());
      CHECK_EQ(*expected, *routed);
    }
    CHECK_EQ(shards.size(), size_t{3});  // Replicas on 3 distinct shards.
  }
}

// The hotness detector, driven by a real Zipf trace: maintenance must
// replicate the TRUE head of the distribution (checked against
// ZipfExpectedShares, not eyeballed counters), leave the tail at one
// replica, and de-replicate once the head cools. Along the way the merged
// metrics must count the replicated plan ONCE (the dedup fix) while the
// per-replica breakdown accounts for where its traffic went.
void TestHotDetectorReplicatesHead() {
  constexpr size_t kModels = 8;
  auto sa = SmallSa(kModels);
  ShardRouterOptions sopts;
  sopts.num_shards = 4;
  sopts.runtime.num_executors = 1;
  sopts.replication.enabled = true;
  sopts.replication.max_replicas_per_plan = 3;
  sopts.replication.min_interval_requests = 64;
  ShardRouter router(sopts);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }

  // Zipf(2) over 8 models: the exact head share is ~0.83 — far above the
  // hot threshold; every tail model from rank 1 down is below it.
  const std::vector<double> shares = ZipfExpectedShares(kModels, 2.0);
  CHECK(shares[0] > sopts.replication.hot_share_threshold);
  CHECK(shares[2] < sopts.replication.hot_share_threshold);
  const std::vector<size_t> trace = ZipfModelSequence(kModels, 1200, 2.0, 7);

  Rng rng(131);
  for (const size_t model : trace) {
    CHECK(router.Predict(sa.pipelines()[model].name, sa.SampleInput(rng)).ok());
  }
  const MaintenanceReport scan = router.MaintainReplication();
  CHECK_EQ(scan.plans_scanned, kModels);
  CHECK_EQ(scan.interval_requests, uint64_t{1200});
  CHECK_MSG(scan.replications > 0, "hot head not replicated");

  // The detector found the true head: rank 0 is replicated...
  const std::string& head = sa.pipelines()[0].name;
  const size_t head_replicas = router.Replicas(head).size();
  CHECK_MSG(head_replicas > 1, "head '%s' still single-replica", head.c_str());
  CHECK(head_replicas <= sopts.replication.max_replicas_per_plan);
  // ...and the deep tail is not (rank 2 share ~3.7% is sub-threshold; rank
  // 1 at ~21% may legitimately replicate).
  for (size_t m = 2; m < kModels; ++m) {
    CHECK_EQ(router.Replicas(sa.pipelines()[m].name).size(), size_t{1});
  }

  // Spread the head's traffic over its replicas, then audit the metrics.
  for (int i = 0; i < 200; ++i) {
    CHECK(router.Predict(head, sa.SampleInput(rng)).ok());
  }
  const ShardedMetrics metrics = router.GetMetrics();
  // Dedup: the merged fold reports 8 logical plans even though the shards
  // together hold more registrations than that.
  size_t registrations = 0;
  uint64_t shard_events = 0;
  for (const auto& shard : metrics.shards) {
    registrations += shard.runtime.plans.size();
    for (const auto& pm : shard.runtime.plans) {
      shard_events += pm.inline_predictions + pm.enqueued_events;
    }
  }
  CHECK_MSG(registrations > kModels, "replication left no extra registration");
  CHECK_EQ(metrics.merged.plans.size(), kModels);
  CHECK_EQ(metrics.unique_plans, kModels);
  CHECK(metrics.replicated_plans >= 1);
  CHECK_EQ(metrics.replications, static_cast<uint64_t>(scan.replications));
  // The fold preserves totals: merging by name sums, never drops.
  uint64_t merged_events = 0;
  for (const auto& pm : metrics.merged.plans) {
    merged_events += pm.inline_predictions + pm.enqueued_events;
  }
  CHECK_EQ(merged_events, shard_events);
  // Per-replica breakdown: the head's row shows > 1 active replica and its
  // routed counts add up to everything p2c sent its way.
  bool found_head = false;
  for (const auto& plan : metrics.plan_replicas) {
    if (plan.name != head) {
      continue;
    }
    found_head = true;
    size_t active = 0;
    uint64_t routed = 0;
    for (const auto& replica : plan.replicas) {
      active += replica.active ? 1 : 0;
      routed += replica.routed;
    }
    CHECK_EQ(active, head_replicas);
    CHECK_MSG(routed >= 200, "head breakdown lost routed traffic");
  }
  CHECK(found_head);

  // Cooling: an interval where the head goes quiet de-replicates it back
  // to one ACTIVE replica (the registrations stay materialized — cooling
  // is deactivation, not teardown). Scan once first so the audit traffic
  // above does not bleed into the cooling interval.
  router.MaintainReplication();
  for (int i = 0; i < 200; ++i) {
    const auto& spec = sa.pipelines()[1 + (i % (kModels - 1))];
    CHECK(router.Predict(spec.name, sa.SampleInput(rng)).ok());
  }
  const MaintenanceReport cool = router.MaintainReplication();
  CHECK_MSG(cool.dereplications > 0, "cooled head not de-replicated");
  CHECK_EQ(router.Replicas(head).size(), size_t{1});
  const ShardedMetrics after = router.GetMetrics();
  CHECK_EQ(after.unique_plans, kModels);
  CHECK(after.dereplications >= cool.dereplications);
}

// Replicate/de-replicate churning against racing predicts: every request
// completes exactly once with the correct score — routing over snapshot
// swaps never drops a request (stale table: the old replica is still
// registered) and never double-executes one (each request routes to
// exactly one replica). Run under ASan+TSan in CI.
void TestRouteUnderChurn() {
  auto sa = SmallSa(4);
  ShardRouterOptions sopts;
  sopts.num_shards = 4;
  sopts.runtime.num_executors = 1;
  sopts.replication.enabled = true;
  sopts.replication.max_replicas_per_plan = 3;
  ShardRouter router(sopts);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const std::string churned = sa.pipelines()[0].name;

  // Ground-truth scores from the pre-churn single replica.
  Rng rng(141);
  std::vector<std::string> inputs;
  std::vector<float> expected;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(sa.SampleInput(rng));
    auto score = router.Predict(churned, inputs.back());
    CHECK(score.ok());
    expected.push_back(*score);
  }

  constexpr int kPredictThreads = 4;
  constexpr int kPredictsPerThread = 300;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_predicts{0};
  std::thread churn([&] {
    // Grow/shrink the churned plan's replica set as fast as the control
    // plane allows; every cycle publishes at least two table swaps.
    while (!stop.load(std::memory_order_relaxed)) {
      CHECK(router.Replicate(churned, 3).ok());
      CHECK(router.Replicate(churned, 1).ok());
    }
  });
  std::vector<std::thread> predictors;
  for (int t = 0; t < kPredictThreads; ++t) {
    predictors.emplace_back([&, t] {
      for (int i = 0; i < kPredictsPerThread; ++i) {
        const size_t which = static_cast<size_t>(t + i) % inputs.size();
        auto got = router.Predict(churned, inputs[which]);
        CHECK(got.ok());
        CHECK_EQ(*got, expected[which]);
        ok_predicts.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : predictors) {
    thread.join();
  }
  stop.store(true);
  churn.join();
  // Exactly-once completion: nothing dropped, nothing duplicated.
  CHECK_EQ(ok_predicts.load(),
           static_cast<uint64_t>(kPredictThreads * kPredictsPerThread));
  // The routed totals booked against the plan match the requests issued
  // (8 ground-truth + the churned predicts), counted once each.
  const ShardedMetrics metrics = router.GetMetrics();
  for (const auto& plan : metrics.plan_replicas) {
    if (plan.name != churned) {
      continue;
    }
    uint64_t routed = 0;
    for (const auto& replica : plan.replicas) {
      routed += replica.routed;
    }
    CHECK_EQ(routed, static_cast<uint64_t>(
                         8 + kPredictThreads * kPredictsPerThread));
  }
}

// Versioned lifecycle, the full arc: Deploy a v2 whose only change is the
// linear-weights node, watch the ObjectStore grow by EXACTLY that node's
// bytes (every shared parameter interns against the resident v1 blob — the
// O(changed-params) swap), split live traffic across both versions with no
// request ever observing a torn mix, Promote and verify the old version's
// bytes leave the process, then Rollback a v3 and verify the store returns
// to the post-promote baseline to the byte.
void TestVersionedDeployLifecycle() {
  auto sa = SmallSa(8);
  ShardRouterOptions sopts;
  sopts.num_shards = 4;
  sopts.runtime.num_executors = 1;
  sopts.rollout.canary_fraction_bp = 5000;  // 50%: both versions see load.
  ShardRouter router(sopts);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const PipelineSpec& v1 = sa.pipelines()[0];
  const size_t home = router.ShardFor(v1.name);

  // Donor weights for v2/v3: linear nodes from pipelines homed on OTHER
  // shards, so neither blob is resident in v1's segment before the deploy.
  std::vector<const PipelineSpec*> donors;
  for (size_t i = 1; i < sa.pipelines().size() && donors.size() < 2; ++i) {
    if (router.ShardFor(sa.pipelines()[i].name) != home) {
      donors.push_back(&sa.pipelines()[i]);
    }
  }
  CHECK_EQ(donors.size(), size_t{2});
  PipelineSpec v2 = v1;
  v2.nodes[4].params = donors[0]->nodes[4].params;
  PipelineSpec v3 = v1;
  v3.nodes[4].params = donors[1]->nodes[4].params;

  // Ground truth for both versions from monolithic compiles.
  ObjectStore ref_store;
  RuntimeOptions ropts;
  ropts.num_executors = 1;
  Runtime reference(&ref_store, ropts);
  FlourContext flour(&ref_store);
  const Runtime::PlanId ref_v1 =
      *reference.Register(*Plan(*flour.FromPipeline(v1), "ref_v1"));
  const Runtime::PlanId ref_v2 =
      *reference.Register(*Plan(*flour.FromPipeline(v2), "ref_v2"));

  Rng rng(151);
  std::vector<std::string> inputs;
  std::vector<float> expect_v1, expect_v2;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(sa.SampleInput(rng));
    expect_v1.push_back(*reference.Predict(ref_v1, inputs.back()));
    expect_v2.push_back(*reference.Predict(ref_v2, inputs.back()));
    auto live = router.Predict(v1.name, inputs.back());
    CHECK(live.ok());
    CHECK_EQ(*live, expect_v1.back());
  }
  const size_t baseline_bytes = router.GetMetrics().store_bytes;

  // Deploy: the canary registers and the store grows by exactly the
  // changed node — every other parameter was an intern hit.
  auto deployed = router.Deploy(v2);
  CHECK(deployed.ok());
  CHECK_EQ(*deployed, uint64_t{2});
  CHECK_EQ(router.GetMetrics().store_bytes,
           baseline_bytes + v2.nodes[4].params->HeapBytes());
  // One rollout per plan at a time; unknown plans are rejected.
  CHECK(!router.Deploy(v2).ok());
  PipelineSpec ghost = v2;
  ghost.name = "no-such-plan";
  CHECK(!router.Deploy(ghost).ok());
  // No rollout -> nothing to promote or abort (on a DIFFERENT plan).
  CHECK(!router.Promote(sa.pipelines()[1].name).ok());
  CHECK(!router.Rollback(sa.pipelines()[1].name).ok());
  auto info = router.VersionInfo(v1.name);
  CHECK(info.ok());
  CHECK_EQ(info->active_version, uint64_t{1});
  CHECK(info->rollout_in_flight);
  CHECK_EQ(info->rollout_version, uint64_t{2});
  CHECK_EQ(info->canary_fraction_bp, uint32_t{5000});

  // Split traffic: every response is EXACTLY v1's or v2's score — a torn
  // version (v2 weights over v1 dictionaries, or vice versa) would match
  // neither. Both versions must take load at a 50% split.
  size_t saw_v1 = 0, saw_v2 = 0;
  for (int i = 0; i < 400; ++i) {
    const size_t which = static_cast<size_t>(i) % inputs.size();
    auto got = router.Predict(v1.name, inputs[which]);
    CHECK(got.ok());
    if (*got == expect_v1[which]) {
      ++saw_v1;
    } else {
      CHECK_EQ(*got, expect_v2[which]);
      ++saw_v2;
    }
  }
  CHECK_MSG(saw_v1 > 50 && saw_v2 > 50,
            "50%% split routed %zu/%zu stable/canary", saw_v1, saw_v2);
  info = router.VersionInfo(v1.name);
  CHECK_MSG(info->canary_routed == static_cast<uint64_t>(saw_v2),
            "canary_routed %llu vs saw_v2 %zu; auto_rollbacks %llu; "
            "VersionInfo: active v%llu, rollout_in_flight %d (v%llu), "
            "split %u bp, canary faults %llu, failure ewma %.3f, "
            "canary latency ewma %.1f us, stable latency ewma %.1f us",
            static_cast<unsigned long long>(info->canary_routed), saw_v2,
            static_cast<unsigned long long>(
                router.GetMetrics().auto_rollbacks),
            static_cast<unsigned long long>(info->active_version),
            info->rollout_in_flight ? 1 : 0,
            static_cast<unsigned long long>(info->rollout_version),
            info->canary_fraction_bp,
            static_cast<unsigned long long>(info->canary_faults),
            info->canary_failure_ewma, info->canary_latency_ewma_us,
            info->stable_latency_ewma_us);

  // Promote: v2 becomes the version in one swap; v1's registration retires
  // and its now-unshared weights are swept — bytes return to baseline (the
  // retired and promoted linear nodes are the same shape, so the footprint
  // is byte-identical).
  CHECK(router.Promote(v1.name).ok());
  CHECK_EQ(v1.nodes[4].params->HeapBytes(), v2.nodes[4].params->HeapBytes());
  CHECK_EQ(router.GetMetrics().store_bytes, baseline_bytes);
  info = router.VersionInfo(v1.name);
  CHECK_EQ(info->active_version, uint64_t{2});
  CHECK(!info->rollout_in_flight);
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto got = router.Predict(v1.name, inputs[i]);
    CHECK(got.ok());
    CHECK_EQ(*got, expect_v2[i]);
  }

  // Rollback: v3's canary bytes leave the process, v2 never moves.
  CHECK(router.Deploy(v3).ok());
  CHECK(router.GetMetrics().store_bytes > baseline_bytes);
  for (int i = 0; i < 40; ++i) {
    CHECK(router.Predict(v1.name, inputs[i % inputs.size()]).ok());
  }
  CHECK(router.Rollback(v1.name).ok());
  CHECK_EQ(router.GetMetrics().store_bytes, baseline_bytes);
  info = router.VersionInfo(v1.name);
  CHECK_EQ(info->active_version, uint64_t{2});
  CHECK(!info->rollout_in_flight);
  CHECK_EQ(info->next_version, uint64_t{4});
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto got = router.Predict(v1.name, inputs[i]);
    CHECK(got.ok());
    CHECK_EQ(*got, expect_v2[i]);
  }
  const ShardedMetrics metrics = router.GetMetrics();
  CHECK_EQ(metrics.deploys, uint64_t{2});
  CHECK_EQ(metrics.promotes, uint64_t{1});
  CHECK_EQ(metrics.rollbacks, uint64_t{1});
  CHECK_EQ(metrics.auto_rollbacks, uint64_t{0});
}

// Version swaps AND hot-plan replication flapping racing live predicts:
// one thread Deploy/Promote/Rollback-cycles the plan (each promote
// epoch-reclaims the outgoing version under traffic), another grows and
// shrinks its replica set, while sync and async predictors hammer it.
// Every version is compiled from the SAME spec, so any request that
// observed a torn or reclaimed version would misscore or fail — the test
// demands exactly-once completion with the exact score, always. Run under
// ASan+TSan in CI.
void TestRouteUnderVersionChurn() {
  auto sa = SmallSa(4);
  ShardRouterOptions sopts;
  sopts.num_shards = 4;
  sopts.runtime.num_executors = 1;
  sopts.replication.enabled = true;
  sopts.replication.max_replicas_per_plan = 3;
  sopts.rollout.canary_fraction_bp = 5000;
  ShardRouter router(sopts);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const PipelineSpec& churned = sa.pipelines()[0];

  Rng rng(161);
  std::vector<std::string> inputs;
  std::vector<float> expected;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(sa.SampleInput(rng));
    auto score = router.Predict(churned.name, inputs.back());
    CHECK(score.ok());
    expected.push_back(*score);
  }
  const size_t baseline_bytes = router.GetMetrics().store_bytes;

  constexpr int kPredictThreads = 4;
  constexpr int kPredictsPerThread = 250;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> ok_predicts{0};
  std::atomic<uint64_t> swaps{0};
  std::thread lifecycle([&] {
    // Deploy -> (mostly) Promote, sometimes Rollback, as fast as the
    // control plane allows; every cycle epoch-reclaims a version while the
    // predictors are mid-flight.
    uint64_t cycle = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      CHECK(router.Deploy(churned).ok());
      const Status swapped = ++cycle % 4 == 0
                                 ? router.Rollback(churned.name)
                                 : router.Promote(churned.name);
      CHECK_MSG(swapped.ok(), "cycle %llu: %s; auto_rollbacks %llu",
                static_cast<unsigned long long>(cycle),
                swapped.ToString().c_str(),
                static_cast<unsigned long long>(
                    router.GetMetrics().auto_rollbacks));
      swaps.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread flapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      CHECK(router.Replicate(churned.name, 3).ok());
      CHECK(router.Replicate(churned.name, 1).ok());
    }
  });
  std::vector<std::thread> predictors;
  for (int t = 0; t < kPredictThreads; ++t) {
    predictors.emplace_back([&, t] {
      std::atomic<int> pending{0};
      // Keep predicting until the churn thread has swapped at least twice:
      // on a starved host the control plane can lag the predictors, and a
      // churn test whose predicts all land before the churn tests nothing.
      for (int i = 0; i < kPredictsPerThread || swaps.load() < 2; ++i) {
        issued.fetch_add(1, std::memory_order_relaxed);
        const size_t which = static_cast<size_t>(t + i) % inputs.size();
        if (i % 4 == 3) {
          // Async: the gate exit rides the executor-side completion.
          pending.fetch_add(1);
          Status st = router.PredictAsync(
              churned.name, inputs[which],
              [&, which](Result<float> r) {
                CHECK(r.ok());
                CHECK_EQ(*r, expected[which]);
                ok_predicts.fetch_add(1, std::memory_order_relaxed);
                pending.fetch_sub(1);
              });
          CHECK(st.ok());
        } else {
          auto got = router.Predict(churned.name, inputs[which]);
          CHECK(got.ok());
          CHECK_EQ(*got, expected[which]);
          ok_predicts.fetch_add(1, std::memory_order_relaxed);
        }
      }
      while (pending.load() > 0) {
        std::this_thread::yield();
      }
    });
  }
  for (auto& thread : predictors) {
    thread.join();
  }
  stop.store(true);
  lifecycle.join();
  flapper.join();
  CHECK_MSG(swaps.load() >= 2, "churn thread completed %llu swaps",
            static_cast<unsigned long long>(swaps.load()));
  // Exactly-once completion, exact scores, throughout the churn.
  CHECK(issued.load() >=
        static_cast<uint64_t>(kPredictThreads * kPredictsPerThread));
  CHECK_EQ(ok_predicts.load(), issued.load());

  // Settle to a clean single-replica state: one last Deploy+Promote retires
  // every replica of the final churn-era version, so resident bytes must
  // return to the pre-churn baseline exactly (same spec each version — the
  // whole churn was a zero-byte swap repeated).
  CHECK(router.Deploy(churned).ok());
  CHECK(router.Promote(churned.name).ok());
  CHECK_EQ(router.GetMetrics().store_bytes, baseline_bytes);
  auto info = router.VersionInfo(churned.name);
  CHECK(info.ok());
  CHECK(!info->rollout_in_flight);
  auto final_score = router.Predict(churned.name, inputs[0]);
  CHECK(final_score.ok());
  CHECK_EQ(*final_score, expected[0]);
}

}  // namespace

int main() {
  TestJumpHashStability();
  TestRouterRemapBound();
  TestShardedPredictMatchesMonolith();
  TestExpiredArrivalNotAShardFault();
  TestCrossShardMetricsAggregation();
  TestInternScopeTradeOff();
  TestShardedBackendDrops();
  TestFrontEndOverShardedStack();
  TestReplicaParity();
  TestHotDetectorReplicatesHead();
  TestRouteUnderChurn();
  TestVersionedDeployLifecycle();
  TestRouteUnderVersionChurn();
  std::printf("shard_router_test: PASS\n");
  return 0;
}
