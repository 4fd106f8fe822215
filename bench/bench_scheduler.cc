// Event-driven per-plan scheduler (Section 5.4): two properties the
// single-shared-FIFO design could not provide, measured under Zipf load.
//
//  1. Isolation: with the shared pool saturated by a continuous stream of
//     10k-record batches, p99 of synchronous predictions to a RESERVED plan
//     stays within a small factor of its unloaded p99 (Section 5.4.1 —
//     reservations now cover sync traffic, not just batches).
//  2. Adaptive coalescing: under high offered load of single-prediction
//     events, per-plan coalescing (max_batch > 1) beats one-request-per-
//     event dispatch on throughput by amortizing queue/wakeup costs.
//
// Also prints the serving-path sub-plan cache effectiveness (the Figure-10
// optimization, now owned by the Runtime's executors).
#include <atomic>
#include <condition_variable>
#include <thread>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"
#include "src/runtime/runtime.h"
#include "src/workload/load_gen.h"

namespace pretzel {
namespace {

struct Harness {
  ObjectStore store;
  std::unique_ptr<Runtime> runtime;
  std::vector<Runtime::PlanId> ids;

  void Build(const SaWorkload& sa, const RuntimeOptions& opts,
             size_t reserve_first_cores) {
    runtime = std::make_unique<Runtime>(&store, opts);
    FlourContext flour(&store);
    for (size_t i = 0; i < sa.pipelines().size(); ++i) {
      auto program = flour.FromPipeline(sa.pipelines()[i]);
      PlanRegistration reg;
      if (i == 0) {
        reg.reserve_cores = reserve_first_cores;
      }
      ids.push_back(*runtime->Register(*Plan(*program, sa.pipelines()[i].name), reg));
    }
  }
};

// Paced synchronous predictions against one plan; returns the latency
// distribution. Pacing keeps this latency-sensitive traffic open-loop-ish:
// each request arrives at an idle moment of its dedicated executor.
SampleStats MeasureSyncLatency(Runtime& runtime, Runtime::PlanId id,
                               const std::string& input, int n,
                               int64_t pace_us) {
  SampleStats stats;
  for (int i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    auto r = runtime.Predict(id, input);
    if (r.ok()) {
      stats.Add(static_cast<double>(NowNs() - t0));
    }
    SleepUs(pace_us);
  }
  return stats;
}

// Continuously keeps `depth` batches of `records` records outstanding
// against the unreserved plans (Zipf-weighted) until told to stop.
class Saturator {
 public:
  Saturator(Runtime& runtime, const std::vector<Runtime::PlanId>& ids,
            const std::vector<std::string>& inputs, size_t records,
            size_t depth)
      : runtime_(runtime), ids_(ids), inputs_(inputs), records_(records) {
    for (size_t i = 0; i < depth; ++i) {
      Submit(i);
    }
  }

  void Stop() {
    stop_.store(true);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
  }

  size_t batches_run() const { return batches_.load(); }

 private:
  void Submit(size_t seed) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++outstanding_;
    }
    // Zipf-ish: favor the first unreserved plans, like the head of a
    // popularity distribution.
    const size_t m = seed % 3 % ids_.size();
    std::vector<std::string> inputs(records_, inputs_[m]);
    Status st = runtime_.PredictBatchAsync(
        ids_[m], std::move(inputs),
        [this, seed](Status, std::span<const float>) {
          batches_.fetch_add(1);
          if (!stop_.load()) {
            Submit(seed + 1);
          }
          std::lock_guard<std::mutex> lock(mu_);
          if (--outstanding_ == 0) {
            cv_.notify_one();
          }
        },
        /*max_batch=*/64);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (--outstanding_ == 0) {
        cv_.notify_one();
      }
    }
  }

  Runtime& runtime_;
  const std::vector<Runtime::PlanId>& ids_;
  const std::vector<std::string>& inputs_;
  const size_t records_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> batches_{0};
  std::mutex mu_;
  size_t outstanding_ = 0;
  std::condition_variable cv_;
};

// Offered-load drain: pre-generated Zipf event stream of async singles.
// The (single) executor is first stalled with one long chunk quantum on
// `blocker_id` while every plan's queue is pre-filled, so the timed region
// — blocker completion to last single completion — measures pure
// dispatch+execution drain of a deep backlog, not submission interleave.
// That is exactly the regime adaptive coalescing targets: the per-dispatch
// scheduling cost is amortized over a coalesced run instead of being paid
// per event.
double DrainThroughput(Runtime& runtime, const std::vector<Runtime::PlanId>& ids,
                       const std::vector<std::string>& inputs,
                       const std::vector<LoadEvent>& schedule,
                       Runtime::PlanId blocker_id, const std::string& blocker_input,
                       size_t blocker_records) {
  std::atomic<size_t> pending{schedule.size()};
  std::atomic<int64_t> drain_start{0};
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> blocker(blocker_records, blocker_input);
  Status st = runtime.PredictBatchAsync(
      blocker_id, std::move(blocker),
      [&](Status status, std::span<const float>) {
        if (!status.ok()) {
          std::abort();
        }
        drain_start.store(NowNs());
      },
      /*max_batch=*/blocker_records);  // One chunk: one long quantum.
  if (!st.ok()) {
    std::abort();
  }
  for (const LoadEvent& event : schedule) {
    const size_t m = event.model_index;
    Status s = runtime.PredictAsync(ids[m], inputs[m], [&](Result<float> r) {
      if (!r.ok()) {
        std::abort();
      }
      if (pending.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_one();
      }
    });
    if (!s.ok() && pending.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_one();
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending.load() == 0; });
  }
  const int64_t t1 = NowNs();
  // If the blocker outlived submission (the intended regime), the drain
  // started at its completion; otherwise fall back to whatever overlap
  // happened — identical protocol for both configs either way.
  const int64_t t0 = drain_start.load();
  return static_cast<double>(schedule.size()) /
         (static_cast<double>(t1 - t0) / 1e9);
}

}  // namespace
}  // namespace pretzel

int main(int argc, char** argv) {
  using namespace pretzel;
  BenchFlags flags(argc, argv);
  PrintHeader("Scheduler", "Per-plan event scheduler: isolation + adaptive coalescing");

  auto sa_opts = DefaultSaOptions(flags);
  sa_opts.num_pipelines = static_cast<size_t>(flags.GetInt("pipelines", 16));
  sa_opts.char_dict_entries = static_cast<size_t>(flags.GetInt("char_entries", 2000));
  sa_opts.word_dict_entries = static_cast<size_t>(flags.GetInt("word_entries", 600));
  sa_opts.vocabulary_size = static_cast<size_t>(flags.GetInt("vocab", 1200));
  auto sa = SaWorkload::Generate(sa_opts);
  const size_t executors = static_cast<size_t>(flags.GetInt("executors", 2));

  Rng rng(9001);
  std::vector<std::string> inputs;
  for (const auto& spec : sa.pipelines()) {
    (void)spec;
    inputs.push_back(sa.SampleInput(rng));
  }
  // Heavy input for the latency-sensitive plan: several sentences, so one
  // prediction is real work and the measured ratio reflects scheduling, not
  // wakeup noise.
  std::string heavy;
  for (int i = 0; i < static_cast<int>(flags.GetInt("heavy_concat", 16)); ++i) {
    heavy += sa.SampleInput(rng) + " ";
  }

  // ------------------------------------------------------------------
  // Part 1: reserved-plan isolation under shared-pool saturation.
  std::printf("\n-- Part 1: reservation isolation (Section 5.4.1) --\n");
  const int lat_samples = static_cast<int>(flags.GetInt("lat_samples", 500));
  const size_t batch_records = static_cast<size_t>(flags.GetInt("batch_records", 10000));
  double p99_ratio = 0.0;
  {
    Harness h;
    RuntimeOptions ropts;
    ropts.num_executors = executors;
    h.Build(sa, ropts, /*reserve_first_cores=*/1);

    // Warm the reserved path and its executor cache.
    for (int i = 0; i < 30; ++i) {
      (void)h.runtime->Predict(h.ids[0], heavy);
    }
    // Median-of-3 runs per phase: a single run's p99 on a shared host is a
    // scheduling fluke magnet in both directions.
    SampleStats u99, l99;
    SampleStats unloaded, loaded;
    for (int r = 0; r < 3; ++r) {
      unloaded = MeasureSyncLatency(*h.runtime, h.ids[0], heavy, lat_samples, 200);
      u99.Add(unloaded.P99());
    }
    std::vector<Runtime::PlanId> shared_ids(h.ids.begin() + 1, h.ids.end());
    Saturator saturator(*h.runtime, shared_ids, inputs, batch_records,
                        /*depth=*/2);
    // Only measure once the shared pool is visibly backlogged.
    for (int spin = 0; spin < 1000; ++spin) {
      size_t depth = 0;
      for (const PlanMetrics& pm : h.runtime->GetMetrics().plans) {
        if (!pm.reserved) {
          depth += pm.queue_depth;
        }
      }
      if (depth > 0) {
        break;
      }
      SleepUs(1000);
    }
    for (int r = 0; r < 3; ++r) {
      loaded = MeasureSyncLatency(*h.runtime, h.ids[0], heavy, lat_samples, 200);
      l99.Add(loaded.P99());
    }
    saturator.Stop();

    PrintCdfSummary("reserved, unloaded", unloaded);
    PrintCdfSummary("reserved, saturated pool", loaded);
    std::printf("  background: %zu batches x %zu records drained during run\n",
                saturator.batches_run(), batch_records);
    p99_ratio = l99.Median() / u99.Median();
    std::printf("  p99 (median of 3 runs): unloaded %s, loaded %s\n",
                FormatDurationNs(u99.Median()).c_str(),
                FormatDurationNs(l99.Median()).c_str());
    std::printf("  p99 ratio (loaded / unloaded): %.2fx\n", p99_ratio);
  }
  bool pass = ShapeCheck(
      p99_ratio < 5.0,
      "reserved-plan sync p99 under 10k-record batch saturation stays within "
      "5x of unloaded (Section 5.4.1 isolation covers sync traffic)");

  // ------------------------------------------------------------------
  // Part 2: adaptive coalescing under high offered Zipf load.
  std::printf("\n-- Part 2: adaptive batching under Zipf(2) offered load --\n");
  const size_t load_events = static_cast<size_t>(flags.GetInt("load_events", 60000));
  const int reps = static_cast<int>(flags.GetInt("reps", 4));
  auto schedule = GenerateLoadSchedule(sa.pipelines().size(), /*rps=*/1e6,
                                       static_cast<double>(load_events) / 1e6,
                                       /*zipf_alpha=*/2.0, 9002);
  // Two identical runtimes, differing only in batching policy. Interleaved
  // best-of-N reps: on a loaded host a single run's throughput is mostly an
  // OS-timeslicing roll; the best rep measures the scheduler, not the roll.
  // Both runtimes share the scheduler substrate (default: the shipped
  // lock-free one; --policy_lockfree=0 re-runs the comparison on the PR-2
  // mutex baseline) and differ only in batching policy. The lock-free vs
  // mutex substrate comparison itself lives in bench_contention.
  const bool policy_lockfree = flags.GetBool("policy_lockfree", true);
  Harness one_by_one;
  {
    RuntimeOptions ropts;
    ropts.num_executors = 1;  // Scheduling overhead, not parallelism, at test.
    ropts.default_max_batch = 1;  // One event per dispatch (the old model).
    ropts.lockfree_scheduler = policy_lockfree;
    one_by_one.Build(sa, ropts, 0);
  }
  Harness adaptive;
  {
    RuntimeOptions ropts;
    ropts.num_executors = 1;
    ropts.default_max_batch =
        static_cast<size_t>(flags.GetInt("max_batch", 64));
    ropts.default_max_delay_us = flags.GetInt("max_delay_us", 200);
    ropts.lockfree_scheduler = policy_lockfree;
    adaptive.Build(sa, ropts, 0);
  }
  // Warm both: bind every plan and populate the executor caches, so the
  // timed region measures steady-state serving.
  for (Harness* h : {&one_by_one, &adaptive}) {
    for (size_t m = 0; m < h->ids.size(); ++m) {
      (void)h->runtime->PredictBatch(h->ids[m], {inputs[m]}, 1);
    }
  }
  // Blocker sizing: long enough on this host that submission of the whole
  // schedule finishes while the executor is still inside the blocker
  // quantum (the drain then starts from a fully pre-filled backlog).
  const size_t blocker_records =
      static_cast<size_t>(flags.GetInt("blocker_records", 20000));
  double one_per_event = 0.0;
  double coalesced = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    one_per_event = std::max(
        one_per_event,
        DrainThroughput(*one_by_one.runtime, one_by_one.ids, inputs, schedule,
                        one_by_one.ids[0], heavy, blocker_records));
    coalesced = std::max(
        coalesced,
        DrainThroughput(*adaptive.runtime, adaptive.ids, inputs, schedule,
                        adaptive.ids[0], heavy, blocker_records));
  }
  double mean_batch = 0.0;
  SubPlanCache::Stats cache_stats;
  {
    const RuntimeMetrics m = adaptive.runtime->GetMetrics();
    double records = 0.0, dispatches = 0.0;
    for (const PlanMetrics& pm : m.plans) {
      records += static_cast<double>(pm.coalesced_singles);
      dispatches += static_cast<double>(pm.dispatches);
    }
    mean_batch = dispatches > 0 ? records / dispatches : 0.0;
    cache_stats = m.subplan_cache;
  }
  std::printf("  one-request-per-event: %10.0f events/s\n", one_per_event);
  std::printf("  adaptive coalescing:   %10.0f events/s (mean batch %.1f)\n",
              coalesced, mean_batch);
  std::printf("  coalescing speedup: %.2fx\n", coalesced / one_per_event);
  pass &= ShapeCheck(
      coalesced > 1.3 * one_per_event,
      "adaptive coalescing yields >= 1.3x throughput over one-request-per-"
      "event dispatch at high offered load");

  // ------------------------------------------------------------------
  // Serving-path sub-plan cache (Figure 10, now Runtime-owned).
  const double hit_rate =
      100.0 * static_cast<double>(cache_stats.hits) /
      static_cast<double>(std::max<uint64_t>(1, cache_stats.lookups));
  std::printf("\n  serving-path sub-plan cache: %llu lookups, %.1f%% hits\n",
              static_cast<unsigned long long>(cache_stats.lookups), hit_rate);
  pass &= ShapeCheck(cache_stats.hits > 0,
                     "sub-plan materialization cache is active (nonzero hits) "
                     "in a default serving run");

  BenchJson json("scheduler");
  json.Add("isolation_p99_ratio", p99_ratio);
  json.Add("one_per_event_eps", one_per_event);
  json.Add("coalesced_eps", coalesced);
  json.Add("coalescing_speedup", coalesced / one_per_event);
  json.Add("mean_batch", mean_batch);
  json.Add("subplan_cache_hit_pct", hit_rate);
  json.Add("policy_lockfree", policy_lockfree ? "true" : "false");
  json.Add("shape_check", pass ? "PASS" : "FAIL");
  json.Write();
  (void)pass;  // Shape results are the printed contract; exit 0 like the suite.
  return 0;
}
