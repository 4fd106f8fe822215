// Served-path benchmark: drives the whole PRETZEL serving stack through its
// public APIs and reports end-to-end and per-layer numbers.
//
// Request path measured: FrontEnd -> ShardedBackend -> ShardRouter ->
// Runtime -> Oven plan -> ops kernels, with every plan built from a
// serialized model image through ObjectStore / Flour / Oven. The ML.Net and
// Clipper emulations are not part of it; the figure benches under bench/
// keep those comparisons.
//
// Served configuration (every workload):
//   - ShardRouter: 2 shards x 1 executor, router-global intern scope,
//     hot-plan replication on. Its maintenance scan is called explicitly
//     during warm-up only, so replica placement is fixed before timing.
//   - FrontEnd: 1 IO thread, network_delay_us = 0 (the emulated hop is a
//     sleep_for, which would measure the OS timer, not the program).
//   - Load comes from this one process with at most nproc threads. The
//     open-loop generator sleeps to each due time (never spins: on 4 vCPUs
//     a spinning generator competes with the executors it wakes), times
//     every request from its due time, and reports its own lateness.
//
// Every served score is checked against ExecutePlan on a privately compiled
// copy of the same model, within 1e-5.
//
// The workloads are defined, and documented, in RunSaZipf, RunAcBatch and
// RunSaChurn below. perfbench/README.md maps every metric to the layer it
// measures and the workload it should move on.
//
//   served_bench --workload sa-zipf|ac-batch|sa-churn --seed N --seconds S
//                --trace 0|1 [--trace-out FILE] [--tiny 1]
//
// Output: human-readable lines, then one JSON line with the verdict
// ("correct", "attempted", "failed", "checked"), every metric with its unit
// and the host facts. perfbench/run.py turns that into the benchmark's
// result line.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/flour/flour.h"
#include "src/frontend/frontend.h"
#include "src/ops/kernels.h"
#include "src/oven/model_plan.h"
#include "src/runtime/exec_context.h"
#include "src/serving/shard_router.h"
#include "src/serving/sharded_backend.h"
#include "src/store/model_loader.h"
#include "src/store/object_store.h"
#include "src/workload/ac_workload.h"
#include "src/workload/load_gen.h"
#include "src/workload/sa_workload.h"

namespace pretzel {
namespace {

// ---------------------------------------------------------------------------
// Fixed benchmark constants. Absolute on purpose: a later change is judged
// against the same rates and limits, never against a figure recalibrated on
// its own build.

constexpr size_t kShards = 2;
constexpr double kZipfAlpha = 2.0;
// The reference rate for every latency number of the SA workloads: about a
// quarter of the stack's closed-loop peak on a 4-vCPU host.
constexpr double kReferenceRps = 20000.0;
// sustained_rps ladder: fixed absolute rates crossing the knee, and the p99
// limit a step must meet (see SustainedRps).
constexpr double kLadderRps[] = {20000,  40000,  60000,  70000,  80000,
                                 90000,  100000, 110000, 120000, 130000,
                                 140000, 150000, 160000, 180000, 200000};
constexpr double kP99LimitUs = 1000.0;
// Each ladder step lasts this share of --seconds.
constexpr double kLadderStepShare = 0.05;
constexpr int kMaxStepAttempts = 4;
// The reference-rate phase runs as this many equal drives, each started by
// the calm gate.
constexpr int kReferenceChunks = 4;
// Latency figures are taken per window of this many consecutive requests
// (see Summarize): a steal burst spoils a window, not the run.
constexpr size_t kLatencyWindow = 1000;
// Sentence pool shared by all SA models: sized so that roughly half of the
// SubPlanCache lookups hit and the rest run real char-ngram scans.
constexpr size_t kSentencePool = 16000;
// ac-batch: records per PredictBatch call, the Runtime chunk quantum, the
// distinct-record pool and the number of prebuilt batches drawn from it.
constexpr size_t kAcBatch = 256;
constexpr size_t kAcChunk = 64;
constexpr size_t kAcRecordPool = 1024;
constexpr size_t kAcBatchPool = 64;
constexpr size_t kAcClients = 2;
// sa-churn control plane: one Deploy per tick; the canary lives for one
// tick, then the next tick Promotes it (Rolls it back every fourth cycle)
// and Deploys the next model. A deploy-heavy cadence whose cycle (Deploy +
// Promote, about 180 us on a 4-vCPU host) fits in the tick with room.
constexpr int64_t kChurnTickUs = 500;
// Warm-up before timing: fills the SubPlanCaches to steady state and lets
// the replication scan settle replica placement.
constexpr double kWarmUpSeconds = 2.0;
// Setups per run; setup_s is their median.
constexpr int kSetups = 15;
// sa-churn's deploy cycles are summarized per window of this many.
constexpr size_t kDeployWindow = 100;
constexpr double kScoreTolerance = 1e-5;  // datapath_parity_test's.

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--tiny") {
      args->tiny = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || args->seconds <= 0.0) {
    return false;
  }
  return args->workload == "sa-zipf" || args->workload == "ac-batch" ||
         args->workload == "sa-churn";
}

// ---------------------------------------------------------------------------
// Statistics and host probes.

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

void SleepNs(int64_t ns) {
  if (ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  }
}

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Aggregate CPU ticks from /proc/stat: total and hypervisor steal.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 10 && stat; ++field) {
    uint64_t v = 0;
    stat >> v;
    if (field < 8) {  // guest time is already counted in user/nice.
      ticks.total += v;
    }
    if (field == 7) {
      ticks.steal = v;
    }
  }
  return ticks;
}

double StealShare(const CpuTicks& a, const CpuTicks& b) {
  const double total = static_cast<double>(b.total - a.total);
  return total > 0 ? static_cast<double>(b.steal - a.steal) / total : 0.0;
}

// CPU time (user + system) this process has used, all threads. Unlike
// wall time it does not grow while the hypervisor runs someone else.
double ProcessCpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Samples peak RSS and the host's cumulative steal ticks. Polled by the
// thread that drives load, at most once per kHostPollNs.
constexpr int64_t kHostPollNs = 50'000'000;
// Calm gate: a measurement starts once no steal tick has landed for kCalmNs
// (polled every kCalmPollNs), waiting at most kCalmBudgetNs per run in all.
constexpr int64_t kCalmNs = 250'000'000;
constexpr int64_t kCalmPollNs = 20'000'000;
constexpr int64_t kCalmBudgetNs = 12'000'000'000;

class HostMonitor {
 public:
  void Poll(int64_t now) {
    if (now >= next_poll_) {
      Sample(now);
    }
  }
  void Sample(int64_t now) {
    rss_peak_ = std::max(rss_peak_, ResidentMb());
    const uint64_t steal = ReadCpuTicks().steal;
    if (steal_.empty() || steal != steal_.back().steal) {
      last_steal_ns_ = now;
    }
    steal_.push_back({now, steal});
    next_poll_ = now + kHostPollNs;
  }
  // Sleeps until the host has stolen no CPU time for kCalmNs, or until the
  // run's waiting budget (kCalmBudgetNs over all calls) is spent. Measuring
  // through a steal burst would time the other guests, not the program.
  void WaitCalm() {
    const int64_t start = NowNs();
    for (int64_t now = start;; now = NowNs()) {
      Sample(now);
      if (now - last_steal_ns_ >= kCalmNs ||
          waited_ns_ + (now - start) >= kCalmBudgetNs) {
        break;
      }
      SleepNs(kCalmPollNs);
    }
    waited_ns_ += NowNs() - start;
  }
  double waited_s() const { return static_cast<double>(waited_ns_) / 1e9; }
  double rss_peak() const { return rss_peak_; }
  // Whether the host stole no CPU time from this machine over [a, b],
  // judged from the samples bracketing the span (/proc/stat counts in
  // 10 ms ticks, so short steals may only show in a neighbouring window).
  bool Clean(int64_t a, int64_t b) const {
    const Sample_* before = nullptr;
    const Sample_* after = nullptr;
    for (const Sample_& x : steal_) {
      if (x.ns <= a) {
        before = &x;
      }
      if (x.ns >= b && after == nullptr) {
        after = &x;
      }
    }
    return before != nullptr && after != nullptr && after->steal == before->steal;
  }

 private:
  struct Sample_ {
    int64_t ns;
    uint64_t steal;
  };
  double rss_peak_ = 0.0;
  int64_t next_poll_ = 0;
  int64_t last_steal_ns_ = 0;  // When the steal count last moved.
  int64_t waited_ns_ = 0;
  std::vector<Sample_> steal_;
};

// Latency samples keyed by when each request was due (open loop) or sent
// (closed loop), in time order.
struct Timed {
  int64_t t_ns;
  double us;
};

// Latency statistics over windows: consecutive runs of kLatencyWindow
// requests (the last window takes the remainder), each summarized by its
// p50, p99 and rate. Host noise (hypervisor steal, slow vCPU wake-ups) only
// ever makes a window slower, so the run's figure is the quartile of the
// windows on the undisturbed side (lower for latency, upper for rate),
// taken over the windows in which the host stole no CPU time; when fewer
// than a fifth of the windows (or 3) are steal-free, over all windows. A
// disturbance has to spoil three quarters of a run's windows to move it.
struct Window {
  std::vector<double> us;
  double p50 = 0.0;
  double p99 = 0.0;
  double rate = 0.0;  // Samples per second.
  bool clean = false;
};

struct WindowStats {
  double p50 = 0.0;
  double p99 = 0.0;
  double rate = 0.0;
  double pooled_p99 = 0.0;  // p99 of every sample in the windows used.
  size_t windows = 0;
  size_t clean = 0;
  bool used_clean = false;
};

// Cuts one drive's time-ordered series into windows and appends them.
void AddWindows(const std::vector<Timed>& series, const HostMonitor& host,
                int64_t end_ns, std::vector<Window>* out) {
  struct Span {
    size_t begin, end;
    int64_t from, to;
  };
  std::vector<Span> spans;
  size_t begin = 0;
  for (size_t i = 0; i <= series.size(); ++i) {
    const bool last = i == series.size();
    if (!last && i - begin < kLatencyWindow) {
      continue;
    }
    if (i > begin) {
      spans.push_back({begin, i, series[begin].t_ns,
                       last ? end_ns : series[i].t_ns});
    }
    begin = i;
  }
  if (spans.size() > 1 && spans.back().end - spans.back().begin < kLatencyWindow) {
    spans[spans.size() - 2].end = spans.back().end;  // Merge the tail.
    spans[spans.size() - 2].to = spans.back().to;
    spans.pop_back();
  }
  for (const Span& sp : spans) {
    std::vector<double> v;
    for (size_t i = sp.begin; i < sp.end; ++i) {
      v.push_back(series[i].us);
    }
    Window w;
    w.p50 = Percentile(v, 50.0);
    w.p99 = Percentile(v, 99.0);
    w.rate = static_cast<double>(v.size()) * 1e9 /
             static_cast<double>(std::max<int64_t>(1, sp.to - sp.from));
    // One poll interval of margin on each side: /proc/stat's 10 ms ticks
    // can book a steal in the neighbouring sample.
    w.clean = host.Clean(sp.from - kHostPollNs, sp.to + kHostPollNs);
    w.us = std::move(v);
    out->push_back(std::move(w));
  }
}

WindowStats Summarize(const std::vector<Window>& windows) {
  WindowStats ws;
  ws.windows = windows.size();
  for (const Window& w : windows) {
    ws.clean += w.clean;
  }
  ws.used_clean = ws.clean >= std::max<size_t>(3, windows.size() / 5);
  std::vector<double> p50s, p99s, rates, pooled;
  for (const Window& w : windows) {
    if (ws.used_clean && !w.clean) {
      continue;
    }
    p50s.push_back(w.p50);
    p99s.push_back(w.p99);
    rates.push_back(w.rate);
    pooled.insert(pooled.end(), w.us.begin(), w.us.end());
  }
  ws.pooled_p99 = Percentile(pooled, 99.0);
  ws.p50 = Percentile(p50s, 25.0);
  ws.p99 = Percentile(p99s, 25.0);
  ws.rate = Percentile(rates, 75.0);
  return ws;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

std::string HostFactsJson() {
  __builtin_cpu_init();
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
     << ", \"avx512f\": "
     << (__builtin_cpu_supports("avx512f") ? "true" : "false")
     << ", \"kernel_backend\": \""
     << KernelBackendName(ActiveKernelBackend()) << "\""
     << ", \"build_type\": \"" << JsonEscape(PERFBENCH_BUILD_TYPE) << "\""
     << ", \"cxx_flags\": \"" << JsonEscape(PERFBENCH_CXX_FLAGS) << "\""
     << ", \"compiler\": \"" << JsonEscape(PERFBENCH_COMPILER) << "\"}";
  return os.str();
}

// Metrics in emission order, each with its unit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  void Print() const {
    for (const auto& e : entries_) {
      std::printf("  %-32s %14.4f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::string Json() const {
    std::ostringstream os;
    os.precision(10);
    os << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      os << (i ? ", " : "") << "\"" << entries_[i].name
         << "\": {\"value\": " << entries_[i].value << ", \"unit\": \""
         << entries_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Models: the 250-model suites, their serialized images, and the variant B
// of each model that sa-churn swaps in.

struct Suite {
  std::vector<PipelineSpec> specs;   // As generated (reference copies).
  std::vector<std::string> images;   // SaveModelImage of each spec.
  std::vector<std::string> names;
  std::vector<double> popularity_cdf;  // Model choice for requests.
};

std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf = ZipfExpectedShares(n, kZipfAlpha);
  for (size_t i = 1; i < cdf.size(); ++i) {
    cdf[i] += cdf[i - 1];
  }
  return cdf;
}

std::vector<double> UniformCdf(size_t n) {
  std::vector<double> cdf(n);
  for (size_t i = 0; i < n; ++i) {
    cdf[i] = static_cast<double>(i + 1) / static_cast<double>(n);
  }
  return cdf;
}

uint32_t Draw(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.Uniform01() * cdf.back();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<uint32_t>(
      std::min<ptrdiff_t>(it - cdf.begin(), static_cast<ptrdiff_t>(cdf.size()) - 1));
}

void FillSuite(Suite* suite) {
  for (const auto& spec : suite->specs) {
    suite->images.push_back(SaveModelImage(spec));
    suite->names.push_back(spec.name);
  }
}

// Variant B of model m: model (m+1)'s final node (SA linear weights, AC
// final forest). Exactly one node differs, so a deploy interns every other
// parameter against the resident blob.
std::vector<PipelineSpec> VariantB(const std::vector<PipelineSpec>& a) {
  std::vector<PipelineSpec> b;
  for (size_t m = 0; m < a.size(); ++m) {
    PipelineSpec spec = a[m];
    spec.nodes[4].params = a[(m + 1) % a.size()].nodes[4].params;
    b.push_back(std::move(spec));
  }
  return b;
}

// ---------------------------------------------------------------------------
// Reference scoring: ExecutePlan on privately compiled plans (own store, no
// sub-plan cache). Flour lowering and Oven compile are timed on the way,
// which gives the flour and oven per-layer compile numbers.

struct Reference {
  std::unique_ptr<ObjectStore> store;
  std::vector<std::shared_ptr<ModelPlan>> plans;
  std::vector<double> lower_us;
  std::vector<double> compile_us;
};

bool CompileReference(const std::vector<PipelineSpec>& specs, Reference* ref) {
  ref->store = std::make_unique<ObjectStore>();
  FlourContext flour(ref->store.get());
  for (const auto& spec : specs) {
    const int64_t t0 = NowNs();
    std::unique_ptr<LogicalProgram> program = flour.FromPipeline(spec);
    const int64_t t1 = NowNs();
    auto plan = CompilePlan(*program, spec.name + "_ref", CompileOptions{});
    const int64_t t2 = NowNs();
    if (!plan.ok()) {
      std::printf("reference compile of %s failed: %s\n", spec.name.c_str(),
                  plan.status().ToString().c_str());
      return false;
    }
    (*plan)->EnsureBound();
    ref->plans.push_back(*plan);
    ref->lower_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    ref->compile_us.push_back(static_cast<double>(t2 - t1) / 1e3);
  }
  return true;
}

// Lazily filled table of reference scores, one slot per (model, input).
class ScoreTable {
 public:
  ScoreTable(const Reference* ref, const std::vector<std::string>* inputs)
      : ref_(ref),
        inputs_(inputs),
        scores_(ref->plans.size() * inputs->size(),
                std::numeric_limits<float>::quiet_NaN()),
        needed_(scores_.size(), 0) {}

  void Need(uint32_t model, uint32_t input) { needed_[Slot(model, input)] = 1; }

  // Computes every needed slot, on up to `threads` threads. A slot whose
  // reference execution fails stays NaN and so matches no served score.
  void Fill(size_t threads) {
    std::vector<size_t> todo;
    for (size_t s = 0; s < needed_.size(); ++s) {
      if (needed_[s] && std::isnan(scores_[s])) {
        todo.push_back(s);
      }
    }
    std::atomic<size_t> next{0};
    auto work = [&] {
      VectorPool pool;
      ExecContext ctx(&pool);
      for (;;) {
        const size_t i = next.fetch_add(256);
        if (i >= todo.size()) {
          return;
        }
        for (size_t j = i; j < std::min(i + 256, todo.size()); ++j) {
          const size_t s = todo[j];
          const size_t model = s / inputs_->size();
          const size_t input = s % inputs_->size();
          auto r = ExecutePlan(*ref_->plans[model], (*inputs_)[input], ctx);
          if (r.ok()) {
            scores_[s] = *r;
          }
        }
      }
    };
    std::vector<std::thread> pool;
    for (size_t t = 1; t < threads; ++t) {
      pool.emplace_back(work);
    }
    work();
    for (auto& t : pool) {
      t.join();
    }
  }

  float Score(uint32_t model, uint32_t input) const {
    return scores_[Slot(model, input)];
  }

 private:
  size_t Slot(uint32_t model, uint32_t input) const {
    return static_cast<size_t>(model) * inputs_->size() + input;
  }
  const Reference* ref_;
  const std::vector<std::string>* inputs_;
  std::vector<float> scores_;
  std::vector<uint8_t> needed_;
};

bool Matches(float got, float want) {
  return !std::isnan(want) && std::fabs(got - want) <= kScoreTolerance;
}

// ---------------------------------------------------------------------------
// The serving stack.

ShardRouterOptions StackOptions() {
  ShardRouterOptions o;
  o.num_shards = kShards;
  o.runtime.num_executors = 1;
  o.intern_scope = ShardRouterOptions::InternScope::kGlobal;
  o.replication.enabled = true;
  o.replication.scan_interval_us = 0;  // Scans run only in warm-up.
  return o;
}

struct Stack {
  std::unique_ptr<ShardRouter> router;
  std::vector<PipelineSpec> loaded;  // Specs as interned by the router.
};

// setup: serialized images in memory -> LoadModelImageWithStore + Place for
// every plan + one request per plan. Returns false on any failure.
bool BuildStack(const Suite& suite, const std::vector<std::string>& probe,
                Stack* stack, double* seconds) {
  const int64_t t0 = NowNs();
  stack->router = std::make_unique<ShardRouter>(StackOptions());
  stack->loaded.clear();
  for (size_t m = 0; m < suite.images.size(); ++m) {
    auto spec = LoadModelImageWithStore(suite.images[m],
                                        stack->router->global_store());
    if (!spec.ok()) {
      std::printf("load %s failed: %s\n", suite.names[m].c_str(),
                  spec.status().ToString().c_str());
      return false;
    }
    auto placed = stack->router->Place(*spec);
    if (!placed.ok()) {
      std::printf("place %s failed: %s\n", suite.names[m].c_str(),
                  placed.status().ToString().c_str());
      return false;
    }
    stack->loaded.push_back(std::move(*spec));
  }
  for (size_t m = 0; m < suite.names.size(); ++m) {
    auto r = stack->router->Predict(suite.names[m], probe[m % probe.size()]);
    if (!r.ok()) {
      std::printf("first request to %s failed: %s\n", suite.names[m].c_str(),
                  r.status().ToString().c_str());
      return false;
    }
  }
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return true;
}

// Builds the stack kSetups times (each torn down before the next, each
// started by the calm gate) and keeps the last one. setup_s is the median.
bool SetUp(const Suite& suite, const std::vector<std::string>& probe,
           int setups, HostMonitor* host, Stack* stack, double* setup_s) {
  std::vector<double> samples;
  for (int i = 0; i < setups; ++i) {
    *stack = Stack{};
    host->WaitCalm();
    double s = 0.0;
    if (!BuildStack(suite, probe, stack, &s)) {
      return false;
    }
    samples.push_back(s);
  }
  *setup_s = Median(samples);
  std::printf("setup: %d builds, %.4f s median (", setups, *setup_s);
  for (double s : samples) {
    std::printf(" %.4f", s);
  }
  std::printf(" )\n");
  return true;
}

// Counters and snapshots of every layer, taken at the start and the end of
// a timed phase.
struct LayerSnapshot {
  ShardedMetrics sharded;
  ObjectStore::Stats store;
  size_t store_objects = 0;
  size_t store_bytes = 0;
};

LayerSnapshot Snapshot(const Stack& stack) {
  LayerSnapshot s;
  s.sharded = stack.router->GetMetrics();
  s.store = stack.router->global_store()->GetStats();
  s.store_objects = stack.router->global_store()->NumObjects();
  s.store_bytes = stack.router->global_store()->TotalBytes();
  return s;
}

// ---------------------------------------------------------------------------
// Open-loop load (sa-zipf, sa-churn): Poisson arrivals through the
// FrontEnd, each request timed from its due time.

struct Arrival {
  int64_t due_ns = 0;  // Offset from the drive's start.
  uint32_t model = 0;
  uint32_t input = 0;
};

std::vector<Arrival> PoissonSchedule(double rps, double seconds,
                                     const std::vector<double>& model_cdf,
                                     size_t pool, Rng& rng) {
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<size_t>(rps * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform01()) / rps;
    if (t >= seconds) {
      break;
    }
    Arrival a;
    a.due_ns = static_cast<int64_t>(t * 1e9);
    a.model = Draw(model_cdf, rng);
    a.input = static_cast<uint32_t>(rng.UniformInt(pool));
    schedule.push_back(a);
  }
  return schedule;
}

enum : uint8_t { kPending = 0, kOk = 1, kRefused = 2, kError = 3 };

// One request's record. `stamps` are written only in a traced drive.
struct Outcome {
  int64_t due_ns = 0;     // Absolute.
  int64_t send_ns = 0;    // RequestAsync entered.
  int64_t admit_ns = 0;   // RequestAsync returned.
  int64_t done_ns = 0;    // Client callback ran.
  int64_t backend_in_ns = 0;   // Timing decorator entered (traced).
  int64_t submit_out_ns = 0;   // ShardedBackend::PredictAsync returned.
  int64_t backend_cb_ns = 0;   // Backend callback ran.
  float score = 0.0f;
  uint8_t code = kPending;
};

// Benchmark-side timing decorator between FrontEnd and ShardedBackend. With
// one IO thread the FrontEnd hands requests to the backend in admission
// order, so the k-th backend entry is the k-th admitted request; the model
// name is checked to catch any reordering.
class TimingBackend : public Backend {
 public:
  TimingBackend(Backend* inner, const std::vector<std::string>* names)
      : inner_(inner), names_(names) {}

  void Arm(Outcome* outcomes, const Arrival* schedule,
           const uint32_t* admit_order) {
    outcomes_ = outcomes;
    schedule_ = schedule;
    admit_order_ = admit_order;
    next_ = 0;
  }
  uint64_t misordered() const { return misordered_; }

  Result<float> Predict(const std::string& name, const std::string& input,
                        int64_t deadline_ns) override {
    return inner_->Predict(name, input, deadline_ns);
  }

  void PredictAsync(const std::string& name, const std::string& input,
                    std::function<void(Result<float>)> callback,
                    int64_t deadline_ns) override {
    const int64_t in = NowNs();
    const uint32_t req = admit_order_[next_++];
    Outcome* o = &outcomes_[req];
    if ((*names_)[schedule_[req].model] != name) {
      ++misordered_;
    }
    o->backend_in_ns = in;
    inner_->PredictAsync(
        name, input,
        [o, cb = std::move(callback)](Result<float> r) {
          o->backend_cb_ns = NowNs();
          cb(std::move(r));
        },
        deadline_ns);
    o->submit_out_ns = NowNs();
  }

 private:
  Backend* inner_;
  const std::vector<std::string>* names_;
  Outcome* outcomes_ = nullptr;
  const Arrival* schedule_ = nullptr;
  const uint32_t* admit_order_ = nullptr;
  uint64_t next_ = 0;  // IO thread only.
  uint64_t misordered_ = 0;
};

struct DriveResult {
  std::vector<Outcome> out;
  std::vector<Arrival> schedule;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // Last completion.
  FrontEndMetrics frontend;  // The drive's FrontEnd, at the end.
};

// Sends `schedule` through `frontend`, sleeping (never spinning) to each
// due time, and waits for every admitted request to complete.
DriveResult Drive(FrontEnd& frontend, TimingBackend* timing,
                  const std::vector<std::string>& names,
                  const std::vector<std::string>& inputs,
                  std::vector<Arrival> schedule, HostMonitor* host) {
  DriveResult d;
  d.schedule = std::move(schedule);
  d.out.resize(d.schedule.size());
  std::vector<uint32_t> admit_order(d.schedule.size());
  if (timing != nullptr) {
    timing->Arm(d.out.data(), d.schedule.data(), admit_order.data());
  }
  std::atomic<size_t> completed{0};
  size_t admitted = 0;
  d.start_ns = NowNs() + 200'000;
  host->Sample(NowNs());
  for (size_t i = 0; i < d.schedule.size(); ++i) {
    const Arrival& a = d.schedule[i];
    Outcome& o = d.out[i];
    o.due_ns = d.start_ns + a.due_ns;
    int64_t now = NowNs();
    if (now < o.due_ns) {
      SleepNs(o.due_ns - now);
      now = NowNs();
    }
    o.send_ns = now;
    admit_order[admitted] = static_cast<uint32_t>(i);
    Outcome* op = &o;
    std::atomic<size_t>* done = &completed;
    Status st = frontend.RequestAsync(
        names[a.model], inputs[a.input],
        [op, done](Result<float> r) {
          op->done_ns = NowNs();
          if (r.ok()) {
            op->score = *r;
            op->code = kOk;
          } else {
            op->code = r.status().IsResourceExhausted() ? kRefused : kError;
          }
          done->fetch_add(1, std::memory_order_release);
        });
    o.admit_ns = NowNs();
    if (st.ok()) {
      ++admitted;
    } else {
      o.code = st.IsResourceExhausted() ? kRefused : kError;
      o.done_ns = o.admit_ns;
    }
    host->Poll(o.admit_ns);
  }
  while (completed.load(std::memory_order_acquire) < admitted) {
    SleepNs(200'000);
    host->Poll(NowNs());
  }
  host->Sample(NowNs());
  d.end_ns = NowNs();
  d.frontend = frontend.GetMetrics();
  return d;
}

// Latency (us from due time) of every request, in arrival order; failed
// requests count as missing any limit.
std::vector<double> LatenciesUs(const DriveResult& d) {
  std::vector<double> lat;
  lat.reserve(d.out.size());
  for (const Outcome& o : d.out) {
    lat.push_back(o.code == kOk
                      ? static_cast<double>(o.done_ns - o.due_ns) / 1e3
                      : std::numeric_limits<double>::infinity());
  }
  return lat;
}

std::vector<Timed> LatencySeries(const DriveResult& d) {
  const std::vector<double> lat = LatenciesUs(d);
  std::vector<Timed> series;
  series.reserve(lat.size());
  for (size_t i = 0; i < lat.size(); ++i) {
    series.push_back({d.out[i].due_ns, lat[i]});
  }
  return series;
}

size_t Failures(const DriveResult& d) {
  size_t n = 0;
  for (const Outcome& o : d.out) {
    n += o.code != kOk;
  }
  return n;
}

// How late the generator sent each request of `drives`, in order.
std::vector<double> LatenessUs(std::span<const DriveResult> drives) {
  std::vector<double> late;
  for (const DriveResult& d : drives) {
    for (const Outcome& o : d.out) {
      late.push_back(static_cast<double>(o.send_ns - o.due_ns) / 1e3);
    }
  }
  return late;
}

// Checks every served score of `d` against either reference table.
// Returns the number of mismatches.
size_t CheckScores(const DriveResult& d, const ScoreTable& a,
                   const ScoreTable* b, size_t* checked) {
  size_t bad = 0;
  for (size_t i = 0; i < d.out.size(); ++i) {
    const Outcome& o = d.out[i];
    if (o.code != kOk) {
      continue;
    }
    const Arrival& s = d.schedule[i];
    ++*checked;
    if (!Matches(o.score, a.Score(s.model, s.input)) &&
        (b == nullptr || !Matches(o.score, b->Score(s.model, s.input)))) {
      ++bad;
    }
  }
  return bad;
}

void NeedScores(const DriveResult& d, ScoreTable* t) {
  for (size_t i = 0; i < d.out.size(); ++i) {
    if (d.out[i].code == kOk) {
      t->Need(d.schedule[i].model, d.schedule[i].input);
    }
  }
}

struct PlanTotals {
  uint64_t enqueued = 0, rejected = 0, coalesced = 0, batched = 0,
           expired = 0, shed = 0;
};

PlanTotals Totals(const RuntimeMetrics& m) {
  PlanTotals t;
  for (const auto& p : m.plans) {
    t.enqueued += p.enqueued_events;
    t.rejected += p.rejected_events;
    t.coalesced += p.coalesced_singles;
    t.batched += p.batched_singles;
    t.expired += p.expired_admission + p.expired_dequeue + p.expired_quantum;
    t.shed += p.shed_deadline;
  }
  return t;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Per-layer counters over one timed phase: deltas of the router's public
// snapshots, and the FrontEnd counters of the phase's drives (each drive
// has a FrontEnd of its own).
void AddLayerCounters(const LayerSnapshot& a, const LayerSnapshot& b,
                      std::span<const DriveResult> drives, Report* r) {
  FrontEndMetrics fe;
  for (const DriveResult& d : drives) {
    fe.dropped_backpressure += d.frontend.dropped_backpressure;
    fe.dropped_error += d.frontend.dropped_error;
    fe.retries += d.frontend.retries;
    fe.expired += d.frontend.expired;
  }
  r->Add("frontend.dropped",
         static_cast<double>(fe.dropped_backpressure + fe.dropped_error),
         "count");
  r->Add("frontend.retries", static_cast<double>(fe.retries), "count");
  r->Add("frontend.expired", static_cast<double>(fe.expired), "count");
  r->Add("serving.imbalance", b.sharded.queue_delay_imbalance, "ratio");
  r->Add("serving.hot_replicas",
         static_cast<double>(b.sharded.replicated_plans), "count");
  r->Add("serving.auto_rollbacks",
         static_cast<double>(b.sharded.auto_rollbacks -
                             a.sharded.auto_rollbacks),
         "count");

  const PlanTotals ta = Totals(a.sharded.merged);
  const PlanTotals tb = Totals(b.sharded.merged);
  std::vector<double> waits;
  double records = 0.0, dispatch_samples = 0.0;
  for (const auto& p : b.sharded.merged.plans) {
    waits.insert(waits.end(), p.queue_wait_us.samples().begin(),
                 p.queue_wait_us.samples().end());
    for (double v : p.batch_records.samples()) {
      records += v;
      dispatch_samples += 1.0;
    }
  }
  const double enq = static_cast<double>(tb.enqueued - ta.enqueued);
  r->Add("runtime.queue_wait_us.p50", Percentile(waits, 50.0), "us");
  r->Add("runtime.queue_wait_us.p99", Percentile(waits, 99.0), "us");
  r->Add("runtime.batch_records_mean", Ratio(records, dispatch_samples),
         "records");
  r->Add("runtime.coalesced_share",
         Ratio(static_cast<double>(tb.coalesced - ta.coalesced), enq), "ratio");
  r->Add("runtime.batched_share",
         Ratio(static_cast<double>(tb.batched - ta.batched), enq), "ratio");
  r->Add("runtime.rejected", static_cast<double>(tb.rejected - ta.rejected),
         "count");
  r->Add("runtime.expired", static_cast<double>(tb.expired - ta.expired),
         "count");
  r->Add("runtime.shed", static_cast<double>(tb.shed - ta.shed), "count");
  const auto& pa = a.sharded.merged.vector_pool;
  const auto& pb = b.sharded.merged.vector_pool;
  r->Add("runtime.pool_hit_ratio",
         Ratio(static_cast<double>(pb.hits - pa.hits),
               static_cast<double>(pb.hits + pb.misses - pa.hits - pa.misses)),
         "ratio");

  const auto& ca = a.sharded.merged.subplan_cache;
  const auto& cb = b.sharded.merged.subplan_cache;
  r->Add("oven.cache_hit_ratio",
         Ratio(static_cast<double>(cb.hits - ca.hits),
               static_cast<double>(cb.lookups - ca.lookups)),
         "ratio");
  r->Add("oven.cache_evictions", static_cast<double>(cb.evictions - ca.evictions),
         "count");

  r->Add("store.dedup_ratio",
         Ratio(static_cast<double>(b.store.hits),
               static_cast<double>(b.store.interns)),
         "ratio");
  r->Add("store.objects", static_cast<double>(b.store_objects), "count");
  r->Add("store.swept", static_cast<double>(b.store.swept - a.store.swept),
         "count");
  r->Add("store.bytes_drift",
         static_cast<double>(b.store_bytes) - static_cast<double>(a.store_bytes),
         "bytes");
}

// ---------------------------------------------------------------------------
// Tracing: spans derived from the stamps the benchmark took around the calls
// into each layer. Kept in memory during the drive, written at exit.

struct Span {
  const char* name;
  int parent;  // Index into the request's span list, -1 for the root.
  int64_t start;
  int64_t end;
};

// The spans of one traced open-loop request, contiguous from due time to
// client callback: gen.late, frontend.admit, frontend.queue,
// serving.backend (serving.submit, runtime.queue_exec), frontend.reply.
// Boundaries are clamped to the order the request itself saw: the IO thread
// may pick a request up, or even complete it, before RequestAsync returns
// to the generator, and the executor may call back before the submit call
// returns.
std::vector<Span> RequestSpans(const Outcome& o) {
  const int64_t t2 = std::min(o.admit_ns, o.backend_in_ns);
  const int64_t t3b = std::min(o.submit_out_ns, o.backend_cb_ns);
  return {
      {"request", -1, o.due_ns, o.done_ns},
      {"gen.late", 0, o.due_ns, o.send_ns},
      {"frontend.admit", 0, o.send_ns, t2},
      {"frontend.queue", 0, t2, o.backend_in_ns},
      {"serving.backend", 0, o.backend_in_ns, o.backend_cb_ns},
      {"serving.submit", 4, o.backend_in_ns, t3b},
      {"runtime.queue_exec", 4, t3b, o.backend_cb_ns},
      {"frontend.reply", 0, o.backend_cb_ns, o.done_ns},
  };
}

// Self time of span i: its duration minus the part its children cover.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>> kids;
    for (const Span& s : spans) {
      if (s.parent == static_cast<int>(i)) {
        kids.emplace_back(std::max(s.start, spans[i].start),
                          std::min(s.end, spans[i].end));
      }
    }
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, cursor = spans[i].start;
    for (const auto& [a, b] : kids) {
      const int64_t lo = std::max(a, cursor);
      if (b > lo) {
        covered += b - lo;
        cursor = b;
      }
    }
    self[i] = static_cast<double>(spans[i].end - spans[i].start - covered) / 1e3;
  }
  return self;
}

void WriteSpans(const std::string& path, const std::vector<std::vector<Span>>& reqs,
                int64_t origin_ns) {
  if (path.empty()) {
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot write trace file %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "request\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t r = 0; r < reqs.size(); ++r) {
    for (size_t i = 0; i < reqs[r].size(); ++i) {
      const Span& s = reqs[r][i];
      const long long id = static_cast<long long>(r * 16 + i);
      const long long parent =
          s.parent < 0 ? -1 : static_cast<long long>(r * 16 + s.parent);
      std::fprintf(f, "%zu\t%lld\t%lld\t%s\t%lld\t%lld\n", r, id, parent,
                   s.name, static_cast<long long>(s.start - origin_ns),
                   static_cast<long long>(s.end - origin_ns));
    }
  }
  std::fclose(f);
  std::printf("trace: %zu requests' spans written to %s\n", reqs.size(),
              path.c_str());
}

// p50/p99 of each traced layer call. Layers a workload bypasses report 0.
struct LayerDurations {
  std::vector<double> admit, queue, reply, submit, backend;
};

void AddDurations(const LayerDurations& d, Report* r) {
  const std::pair<const char*, const std::vector<double>*> layers[] = {
      {"frontend.admit_us", &d.admit},   {"frontend.queue_us", &d.queue},
      {"frontend.reply_us", &d.reply},   {"serving.submit_us", &d.submit},
      {"serving.backend_us", &d.backend}};
  for (const auto& [name, v] : layers) {
    r->Add(std::string(name) + ".p50", Percentile(*v, 50.0), "us");
    r->Add(std::string(name) + ".p99", Percentile(*v, 99.0), "us");
  }
}

// The median request's self time per span, and how much of its latency the
// contiguous spans account for.
void ReportSpans(const std::vector<std::vector<Span>>& reqs, Report* r) {
  if (reqs.empty()) {
    r->Add("trace.coverage", 0.0, "ratio");
    return;
  }
  std::vector<std::pair<int64_t, size_t>> by_total;
  for (size_t i = 0; i < reqs.size(); ++i) {
    by_total.emplace_back(reqs[i][0].end - reqs[i][0].start, i);
  }
  std::nth_element(by_total.begin(), by_total.begin() + by_total.size() / 2,
                   by_total.end());
  const std::vector<Span>& median = reqs[by_total[by_total.size() / 2].second];
  const std::vector<double> self = SelfTimesUs(median);
  const double total = static_cast<double>(median[0].end - median[0].start) / 1e3;
  std::printf("median request: %.2f us from due time to callback; self times:\n",
              total);
  for (size_t i = 0; i < median.size(); ++i) {
    std::printf("  %-20s %10.2f us\n", median[i].name, self[i]);
  }
  r->Add("trace.coverage", total > 0 ? 1.0 - self[0] / total : 0.0, "ratio");
}

// ---------------------------------------------------------------------------
// Control plane (sa-churn): Deploy, one tick of live canary, then Promote
// (Rollback on every fourth cycle).

struct ControlStats {
  std::vector<double> cycle_us;   // Deploy + Promote/Rollback, successful.
  std::vector<double> deploy_us;  // Successful Deploy calls.
  std::vector<double> finish_us;  // Promote/Rollback calls.
  size_t attempted = 0;
  size_t failed = 0;
  size_t first_failed_cycle = 0;  // 1-based; 0 = none failed.
  std::string first_error;
};

class ControlPlane {
 public:
  ControlPlane(ShardRouter* router, const std::vector<PipelineSpec>* a,
               const std::vector<PipelineSpec>* b,
               const std::vector<double>* cdf, uint64_t seed)
      : router_(router), a_(a), b_(b), cdf_(cdf), rng_(seed),
        active_b_(a->size(), 0) {}

  // One tick: finish the canary deployed on the previous tick, then deploy
  // the next model.
  void Tick() {
    Finish();
    const uint32_t m = Draw(*cdf_, rng_);
    const PipelineSpec& spec = active_b_[m] ? (*a_)[m] : (*b_)[m];
    ++stats_.attempted;
    const int64_t t0 = NowNs();
    auto v = router_->Deploy(spec);
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    if (!v.ok()) {
      Fail(v.status());
      return;
    }
    stats_.deploy_us.push_back(us);
    pending_ = Pending{m, us, stats_.attempted};
  }

  // Promote (or roll back) the canary in flight, if any.
  void Finish() {
    if (!pending_) {
      return;
    }
    const Pending p = *pending_;
    pending_.reset();
    const bool rollback = p.cycle % 4 == 0;
    const int64_t t0 = NowNs();
    Status st = rollback ? router_->Rollback((*a_)[p.model].name)
                         : router_->Promote((*a_)[p.model].name);
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    stats_.finish_us.push_back(us);
    if (!st.ok()) {
      Fail(st);
      return;
    }
    if (!rollback) {
      active_b_[p.model] ^= 1;
    }
    stats_.cycle_us.push_back(p.deploy_us + us);
  }

  const ControlStats& stats() const { return stats_; }

 private:
  struct Pending {
    uint32_t model;
    double deploy_us;
    size_t cycle;
  };
  void Fail(const Status& st) {
    ++stats_.failed;
    if (stats_.first_failed_cycle == 0) {
      stats_.first_failed_cycle = stats_.attempted;
      stats_.first_error = st.ToString();
    }
  }

  ShardRouter* router_;
  const std::vector<PipelineSpec>* a_;
  const std::vector<PipelineSpec>* b_;
  const std::vector<double>* cdf_;
  Rng rng_;
  std::vector<uint8_t> active_b_;
  std::optional<Pending> pending_;
  ControlStats stats_;
};

void PrintControl(const char* label, const ControlStats& s) {
  std::printf(
      "%s: %zu cycles attempted, %zu failed (first failure at cycle %zu%s%s)\n",
      label, s.attempted, s.failed, s.first_failed_cycle,
      s.first_error.empty() ? "" : ": ", s.first_error.c_str());
}

// deploy_* metrics (end to end) or serving.deploy/promote (traced).
// deploy_p50_us is the lower quartile, over consecutive windows of
// kDeployWindow successful cycles, of each window's median: the same
// undisturbed-side summary the latency windows use.
void AddControl(const ControlStats& s, bool traced, Report* r) {
  if (traced) {
    r->Add("serving.deploy_us", Median(s.deploy_us), "us");
    r->Add("serving.promote_us", Median(s.finish_us), "us");
    return;
  }
  std::vector<double> medians;
  for (size_t w = 0; w + kDeployWindow <= s.cycle_us.size(); w += kDeployWindow) {
    medians.push_back(Median(std::vector<double>(
        s.cycle_us.begin() + static_cast<ptrdiff_t>(w),
        s.cycle_us.begin() + static_cast<ptrdiff_t>(w + kDeployWindow))));
  }
  r->Add("deploy_p50_us",
         medians.empty() ? Median(s.cycle_us) : Percentile(medians, 25.0), "us");
  r->Add("deploy_p99_us", Percentile(s.cycle_us, 99.0), "us");
  r->Add("deploy_fail_share",
         Ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted)),
         "ratio");
}

// ---------------------------------------------------------------------------
// Shared pieces of a run.

struct RunContext {
  Args args;
  Report report;
  size_t attempted = 0;
  size_t failed = 0;
  size_t checked = 0;
  size_t mismatched = 0;
  bool valid = true;
};

void AddOps(const Reference& ref, const std::vector<std::string>& inputs,
            const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
            Report* r) {
  VectorPool pool;
  ExecContext ctx(&pool);
  std::vector<double> us;
  for (int pass = 0; pass < 2; ++pass) {  // First pass warms.
    for (const auto& [m, i] : pairs) {
      const int64_t t0 = NowNs();
      auto s = ExecutePlan(*ref.plans[m], inputs[i], ctx);
      const int64_t t1 = NowNs();
      if (pass == 1 && s.ok()) {
        us.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
    }
  }
  r->Add("ops.exec_us.p50", Percentile(us, 50.0), "us");
  r->Add("ops.exec_us.p99", Percentile(us, 99.0), "us");
  // Batch execution in 64-record chunks: each chunk's inputs go through the
  // model of its first pair.
  std::vector<double> per_record;
  std::vector<std::string_view> views(kAcChunk);
  std::vector<float> scores(kAcChunk);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t c = 0; c + kAcChunk <= pairs.size(); c += kAcChunk) {
      for (size_t j = 0; j < kAcChunk; ++j) {
        views[j] = inputs[pairs[c + j].second];
      }
      Status first;
      const int64_t t0 = NowNs();
      ExecutePlanBatch(*ref.plans[pairs[c].first], views.data(), kAcChunk,
                       scores.data(), ctx, &first);
      const int64_t t1 = NowNs();
      if (pass == 1) {
        per_record.push_back(static_cast<double>(t1 - t0) / 1e3 /
                             static_cast<double>(kAcChunk));
      }
    }
  }
  r->Add("ops.batch_us_per_record", Median(per_record), "us");
}

void AddCompileLayers(const Reference& ref, const Suite& suite, Report* r) {
  r->Add("flour.lower_us.p50", Median(ref.lower_us), "us");
  r->Add("oven.compile_us.p50", Median(ref.compile_us), "us");
  ObjectStore store;
  std::vector<double> load_us;
  for (const auto& image : suite.images) {
    const int64_t t0 = NowNs();
    auto spec = LoadModelImageWithStore(image, &store);
    load_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  r->Add("store.load_us.p50", Median(load_us), "us");
}

void AddGenerator(const std::vector<double>& late_us, const CpuTicks& a,
                  const CpuTicks& b, Report* r) {
  r->Add("gen.late_us.p99", Percentile(late_us, 99.0), "us");
  r->Add("gen.late_us.max",
         late_us.empty() ? 0.0 : *std::max_element(late_us.begin(), late_us.end()),
         "us");
  r->Add("host.steal_share", StealShare(a, b), "ratio");
}

std::vector<std::pair<uint32_t, uint32_t>> SamplePairs(
    const std::vector<Arrival>& schedule, size_t count) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  const size_t stride = std::max<size_t>(1, schedule.size() / count);
  for (size_t i = 0; i < schedule.size() && pairs.size() < count; i += stride) {
    pairs.emplace_back(schedule[i].model, schedule[i].input);
  }
  return pairs;
}

// CPU cost of one operation (request, or record on ac-batch) over a timed
// phase: every thread of the process, load generation included.
void AddCpuPerOp(double cpu_us, size_t ops, Report* r) {
  r->Add("cpu_us_per_op", ops > 0 ? cpu_us / static_cast<double>(ops) : 0.0,
         "us");
}

void AddFootprint(const LayerSnapshot& end, double rss_mb, Report* r) {
  r->Add("param_mb",
         static_cast<double>(end.sharded.store_bytes) / (1024.0 * 1024.0),
         "MB");
  r->Add("rss_mb", rss_mb, "MB");
}

void PrintHost(const std::vector<double>& late, const CpuTicks& a,
               const CpuTicks& b, const HostMonitor& host) {
  std::printf(
      "generator lateness p99 %.2f us, max %.2f us; host steal share %.4f; "
      "%.2f s spent waiting for a steal-free host\n",
      Percentile(late, 99.0),
      late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
      StealShare(a, b), host.waited_s());
}

// ---------------------------------------------------------------------------
// SA suite and its sentence pool.

struct SaSetup {
  Suite suite;
  std::vector<std::string> sentences;
};

SaSetup MakeSa(const Args& args) {
  SaWorkloadOptions o;  // The paper-scale suite: 250 pipelines.
  if (args.tiny) {
    o.num_pipelines = 12;
    o.char_dict_entries = 600;
    o.word_dict_entries = 200;
    o.vocabulary_size = 400;
  }
  const SaWorkload sa = SaWorkload::Generate(o);
  SaSetup s;
  s.suite.specs = sa.pipelines();
  FillSuite(&s.suite);
  s.suite.popularity_cdf = ZipfCdf(s.suite.specs.size());
  Rng rng(args.seed ^ 0x5E47E7CEull);
  const size_t pool = args.tiny ? 400 : kSentencePool;
  for (size_t i = 0; i < pool; ++i) {
    s.sentences.push_back(sa.SampleInput(rng));
  }
  return s;
}

// Warm-up: reference-rate traffic, with the replication scan called between
// two halves so replica placement is settled (and then frozen) before
// timing.
void WarmUp(FrontEnd& frontend, Stack& stack, const SaSetup& sa, double seconds,
            Rng& rng, HostMonitor* host) {
  for (int half = 0; half < 2; ++half) {
    Drive(frontend, nullptr, sa.suite.names, sa.sentences,
          PoissonSchedule(kReferenceRps, seconds / 2, sa.suite.popularity_cdf,
                          sa.sentences.size(), rng),
          host);
    const MaintenanceReport m = stack.router->MaintainReplication();
    std::printf("warm-up scan %d: %zu replications, %zu de-replications\n",
                half, m.replications, m.dereplications);
  }
}

FrontEndOptions FrontOptions() {
  FrontEndOptions o;
  o.network_delay_us = 0;
  o.num_io_threads = 1;
  return o;
}

// Runs one reference-rate drive. With `traced`, the timing decorator sits
// between FrontEnd and ShardedBackend.
DriveResult ReferencePhase(Stack& stack, const SaSetup& sa, double seconds,
                           bool traced, Rng& rng, HostMonitor* host,
                           uint64_t* misordered) {
  ShardedBackend backend(stack.router.get());
  TimingBackend timing(&backend, &sa.suite.names);
  FrontEnd frontend(traced ? static_cast<Backend*>(&timing) : &backend,
                    FrontOptions());
  DriveResult d = Drive(frontend, traced ? &timing : nullptr, sa.suite.names,
                        sa.sentences,
                        PoissonSchedule(kReferenceRps, seconds,
                                        sa.suite.popularity_cdf,
                                        sa.sentences.size(), rng),
                        host);
  *misordered = timing.misordered();
  return d;
}

WindowStats DriveStats(std::span<const DriveResult> drives,
                       const HostMonitor& host) {
  std::vector<Window> windows;
  for (const DriveResult& d : drives) {
    AddWindows(LatencySeries(d), host, d.end_ns, &windows);
  }
  return Summarize(windows);
}

void PrintLatency(const char* label, std::span<const DriveResult> drives,
                  const HostMonitor& host) {
  std::vector<double> lat, from_send;
  const std::vector<double> late = LatenessUs(drives);
  size_t requests = 0, failed = 0;
  for (const DriveResult& d : drives) {
    const std::vector<double> l = LatenciesUs(d);
    lat.insert(lat.end(), l.begin(), l.end());
    for (const Outcome& o : d.out) {
      from_send.push_back(static_cast<double>(o.done_ns - o.send_ns) / 1e3);
    }
    requests += d.out.size();
    failed += Failures(d);
  }
  const WindowStats ws = DriveStats(drives, host);
  std::printf(
      "%s: %zu requests, p50 %.2f us, p99 %.2f us over %zu of %zu "
      "steal-free windows%s; whole-run p50 %.2f us, p99 %.2f us "
      "(diagnostic); from send p50 %.2f us, p99 %.2f us; failed %zu; "
      "generator late p50 %.2f us, p99 %.2f us\n",
      label, requests, ws.p50, ws.p99, ws.clean, ws.windows,
      ws.used_clean ? "" : " (too few: all windows used)", Median(lat),
      Percentile(lat, 99.0), Median(from_send), Percentile(from_send, 99.0),
      failed, Median(late), Percentile(late, 99.0));
}

// The reference-rate measurement: kReferenceChunks drives of equal length,
// each started by the calm gate. Appends them to *drives and reports
// p50_us, p99_us and cpu_us_per_op.
void ReferenceRate(Stack& stack, const SaSetup& sa, double seconds, Rng& rng,
                   HostMonitor* host, std::vector<DriveResult>* drives,
                   RunContext& ctx, const char* label) {
  const size_t first = drives->size();
  double cpu_us = 0.0;
  size_t ops = 0;
  for (int c = 0; c < kReferenceChunks; ++c) {
    uint64_t misordered = 0;
    host->WaitCalm();
    const double cpu0 = ProcessCpuUs();
    drives->push_back(ReferencePhase(stack, sa, seconds / kReferenceChunks,
                                     false, rng, host, &misordered));
    cpu_us += ProcessCpuUs() - cpu0;
    ops += drives->back().out.size();
  }
  const std::span<const DriveResult> ref(drives->data() + first,
                                         kReferenceChunks);
  PrintLatency(label, ref, *host);
  const WindowStats ws = DriveStats(ref, *host);
  ctx.report.Add("p50_us", ws.p50, "us");
  ctx.report.Add("p99_us", ws.p99, "us");
  AddCpuPerOp(cpu_us, ops, &ctx.report);
}

// Traced run of an open-loop workload: untraced and traced reference-rate
// phases alternate (U T U T, a quarter of the run each) so warm-up drift
// does not land on one side; per-layer numbers come from the traced phases
// and the p50 difference is the tracing overhead.
void TracedOpenLoop(RunContext& ctx, Stack& stack, const SaSetup& sa,
                    double seconds, Rng& rng, HostMonitor* host,
                    std::vector<DriveResult>* drives) {
  std::vector<double> untraced, traced;
  std::vector<std::vector<Span>> reqs;
  LayerDurations layers;
  int64_t origin = 0;
  for (int phase = 0; phase < 4; ++phase) {
    const bool on = phase % 2 == 1;
    uint64_t misordered = 0;
    host->WaitCalm();
    drives->push_back(
        ReferencePhase(stack, sa, seconds / 4, on, rng, host, &misordered));
    const DriveResult& d = drives->back();
    PrintLatency(on ? "traced" : "untraced", {&d, 1}, *host);
    const std::vector<double> lat = LatenciesUs(d);
    (on ? traced : untraced).insert((on ? traced : untraced).end(),
                                    lat.begin(), lat.end());
    if (!on) {
      continue;
    }
    if (misordered != 0) {
      std::printf("trace: %llu backend entries out of admission order\n",
                  static_cast<unsigned long long>(misordered));
      ctx.valid = false;
    }
    origin = origin == 0 ? d.start_ns : origin;
    for (const Outcome& o : d.out) {
      if (o.code != kOk) {
        continue;
      }
      reqs.push_back(RequestSpans(o));
      auto us = [](int64_t a, int64_t b) {
        return static_cast<double>(std::max<int64_t>(0, b - a)) / 1e3;
      };
      layers.admit.push_back(us(o.send_ns, o.admit_ns));
      layers.queue.push_back(us(o.admit_ns, o.backend_in_ns));
      layers.submit.push_back(us(o.backend_in_ns, o.submit_out_ns));
      layers.backend.push_back(us(o.backend_in_ns, o.backend_cb_ns));
      layers.reply.push_back(us(o.backend_cb_ns, o.done_ns));
    }
  }
  AddDurations(layers, &ctx.report);
  ReportSpans(reqs, &ctx.report);
  const double overhead = Median(traced) - Median(untraced);
  std::printf("tracing overhead: %.2f us on p50 (traced %.2f - untraced %.2f)\n",
              overhead, Median(traced), Median(untraced));
  ctx.report.Add("trace.overhead_us", overhead, "us");
  WriteSpans(ctx.args.trace_out, reqs, origin);
}

// sustained_rps: walks the kLadderRps ladder up to the first step that
// fails (a failed request, a p99 over kP99LimitUs across the step's
// steal-free windows, or a backlog: the median of the step's last
// kLatencyWindow requests over kP99LimitUs) and
// interpolates on p99 between the last passing and the failing step. Every
// attempt starts at the calm gate. A step passes on any passing attempt and
// fails on two failing attempts measured mostly steal-free (or when
// kMaxStepAttempts run out): one host stall must not set the knee.
double SustainedRps(Stack& stack, const SaSetup& sa, double step_s,
                    size_t steps, Rng& rng, HostMonitor* host,
                    std::vector<DriveResult>* drives) {
  double pass_rps = 0.0, pass_p99 = 0.0;
  for (size_t k = 0; k < steps; ++k) {
    double p99 = std::numeric_limits<double>::infinity();
    bool ok = false;
    int confirmed_failures = 0;
    for (int attempt = 0; attempt < kMaxStepAttempts; ++attempt) {
      ShardedBackend backend(stack.router.get());
      FrontEnd frontend(&backend, FrontOptions());
      host->WaitCalm();
      drives->push_back(Drive(
          frontend, nullptr, sa.suite.names, sa.sentences,
          PoissonSchedule(kLadderRps[k], step_s, sa.suite.popularity_cdf,
                          sa.sentences.size(), rng),
          host));
      const DriveResult& d = drives->back();
      const std::vector<double> lat = LatenciesUs(d);
      const WindowStats ws = DriveStats({&d, 1}, *host);
      p99 = std::min(p99, ws.pooled_p99);
      const double tail_p50 = Median(std::vector<double>(
          lat.end() - static_cast<ptrdiff_t>(std::min(lat.size(), kLatencyWindow)),
          lat.end()));
      ok = Failures(d) == 0 && ws.pooled_p99 <= kP99LimitUs &&
           tail_p50 <= kP99LimitUs;
      const bool stolen = 2 * ws.clean < ws.windows;
      std::printf("ladder %6.0f rps: p99 %9.2f us over %zu of %zu steal-free "
                  "windows, tail p50 %9.2f us, failed %zu -> %s\n",
                  kLadderRps[k], ws.pooled_p99, ws.clean, ws.windows, tail_p50,
                  Failures(d), ok ? "pass" : stolen ? "fail (stolen)" : "fail");
      if (ok || (!stolen && ++confirmed_failures == 2)) {
        break;
      }
    }
    if (!ok) {
      // A step that failed on its failures or its backlog alone earns no
      // interpolation credit.
      const double frac =
          p99 > kP99LimitUs ? (kP99LimitUs - pass_p99) / (p99 - pass_p99) : 0.0;
      const double sustained =
          pass_rps + std::clamp(frac, 0.0, 1.0) * (kLadderRps[k] - pass_rps);
      std::printf("sustained_rps: %.1f\n", sustained);
      return sustained;
    }
    pass_rps = kLadderRps[k];
    pass_p99 = p99;
  }
  std::printf("sustained_rps: %.1f (never crossed the knee)\n", pass_rps);
  return pass_rps;
}

// ---------------------------------------------------------------------------
// Workload sa-zipf.
//
// What: the 250 SA text pipelines, Zipf(2) model popularity, open-loop
// Poisson arrivals through the FrontEnd. Sentences come from one shared
// pool of kSentencePool, sized so about half of the SubPlanCache lookups
// hit and the rest run real char-ngram scans.
// Why: per-request compute is tens of us, so FrontEnd, serving and Runtime
// overheads and the cache dominate.
// Loads: frontend (admit/queue/reply), serving (route + p2c + version gate
// per request), runtime (admission, queue, coalescing), oven SubPlanCache,
// text kernels (a minority share).
// Bypasses: batch-major dense kernels, the control plane.
// Metrics: p50_us / p99_us / cpu_us_per_op over the first 0.4 of the run,
// at the fixed kReferenceRps; then sustained_rps from the fixed kLadderRps
// ladder (kLadderStepShare of the run per step).
// Predicted direction: a frontend, serving-submit or runtime-admission
// gain lowers p50_us and raises sustained_rps; a SubPlanCache gain lowers
// p50_us; runtime coalescing moves sustained_rps near the knee, not p50_us;
// a text-kernel gain lowers p50_us by its minority share; a compile gain
// lowers setup_s; a dense-kernel gain: no change.

int RunSaZipf(RunContext& ctx) {
  const Args& args = ctx.args;
  SaSetup sa = MakeSa(args);
  Rng rng(args.seed);
  HostMonitor host;
  const double rss0 = ResidentMb();
  Stack stack;
  double setup_s = 0.0;
  if (!SetUp(sa.suite, sa.sentences, args.tiny ? 1 : kSetups, &host, &stack, &setup_s)) {
    return 1;
  }
  {
    ShardedBackend backend(stack.router.get());
    FrontEnd frontend(&backend, FrontOptions());
    WarmUp(frontend, stack, sa, args.tiny ? 0.2 : kWarmUpSeconds, rng, &host);
  }
  std::vector<DriveResult> drives;
  const CpuTicks cpu0 = ReadCpuTicks();
  LayerSnapshot before = Snapshot(stack);
  double sustained = 0.0;
  double rss_reference = 0.0;  // Peak RSS up to the end of the reference phase.
  if (args.trace) {
    TracedOpenLoop(ctx, stack, sa, args.seconds, rng, &host, &drives);
  } else {
    ReferenceRate(stack, sa, 0.4 * args.seconds, rng, &host, &drives, ctx,
                  "reference rate");
    rss_reference = host.rss_peak();
    sustained = SustainedRps(stack, sa, kLadderStepShare * args.seconds,
                             args.tiny ? 3 : std::size(kLadderRps), rng, &host,
                             &drives);
  }
  host.Sample(NowNs());
  const CpuTicks cpu1 = ReadCpuTicks();
  LayerSnapshot after = Snapshot(stack);

  Reference ref;
  if (!CompileReference(sa.suite.specs, &ref)) {
    return 1;
  }
  ScoreTable table(&ref, &sa.sentences);
  for (const auto& d : drives) {
    NeedScores(d, &table);
    ctx.attempted += d.out.size();
    ctx.failed += Failures(d);
  }
  table.Fill(std::thread::hardware_concurrency());
  for (const auto& d : drives) {
    ctx.mismatched += CheckScores(d, table, nullptr, &ctx.checked);
  }

  const std::vector<double> late = LatenessUs(drives);
  if (args.trace) {
    AddLayerCounters(before, after, drives, &ctx.report);
    AddControl(ControlStats{}, true, &ctx.report);  // No control plane here.
    AddGenerator(late, cpu0, cpu1, &ctx.report);
    AddCompileLayers(ref, sa.suite, &ctx.report);
    AddOps(ref, sa.sentences, SamplePairs(drives.back().schedule, 2048),
           &ctx.report);
  } else {
    ctx.report.Add("setup_s", setup_s, "s");
    ctx.report.Add("sustained_rps", sustained, "1/s");
    AddFootprint(after, rss_reference - rss0, &ctx.report);
    PrintHost(late, cpu0, cpu1, host);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Workload ac-batch.
//
// What: the 250 AC dense pipelines, binary wire records, a closed loop of
// kAcClients client threads. Each client sends kAcBatch-record batches to a
// uniformly chosen plan through ShardRouter::PredictBatch (chunk quantum
// kAcChunk), and sends the next batch when the previous one returns.
// Why: per-record kernel work (PCA / KMeans / trees, batch-major) dominates;
// the route and admission cost is paid once per kAcBatch records. Uniform
// popularity keeps every plan's forests in the working set, in contrast to
// sa-zipf's hot head.
// Loads: ops dense kernels (batch-major), runtime batch quanta.
// Bypasses: the FrontEnd, the SubPlanCache (zero lookups), per-request
// routing cost, the control plane.
// Metrics: p50_us / p99_us are per batch; cpu_us_per_op is per record.
// Predicted direction: a dense-kernel gain raises records_per_s and lowers
// the batch p50_us and p99_us here and nowhere else; a frontend, serving or
// cache gain: no change; runtime queue wait moves the batch p99_us through
// the chunk quanta.

struct AcSetup {
  Suite suite;
  std::vector<std::string> records;               // Binary wire records.
  std::vector<std::vector<std::string>> batches;  // kAcBatch records each.
  std::vector<std::vector<uint32_t>> batch_index;  // Record ids per batch.
};

AcSetup MakeAc(const Args& args) {
  AcWorkloadOptions o;  // The paper-scale suite: 250 pipelines.
  if (args.tiny) {
    o.num_pipelines = 12;
  }
  const AcWorkload ac = AcWorkload::Generate(o);
  AcSetup s;
  s.suite.specs = ac.pipelines();
  FillSuite(&s.suite);
  s.suite.popularity_cdf = UniformCdf(s.suite.specs.size());
  Rng rng(args.seed ^ 0xACB47C4ull);
  for (size_t i = 0; i < kAcRecordPool; ++i) {
    s.records.push_back(ac.SampleInput(rng, WireFormat::kBinary));
  }
  for (size_t b = 0; b < kAcBatchPool; ++b) {
    std::vector<std::string> batch;
    std::vector<uint32_t> index;
    for (size_t j = 0; j < kAcBatch; ++j) {
      const auto id = static_cast<uint32_t>(rng.UniformInt(kAcRecordPool));
      batch.push_back(s.records[id]);
      index.push_back(id);
    }
    s.batches.push_back(std::move(batch));
    s.batch_index.push_back(std::move(index));
  }
  return s;
}

// One batch's record. Its scores are checked as they arrive, against a
// reference table filled before the stack was built, so the outcome log
// does not grow with throughput (rss_mb would otherwise measure it).
struct BatchOutcome {
  uint32_t model = 0;
  uint32_t batch = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
  uint32_t mismatched = 0;  // Scores off the reference by more than 1e-5.
};

// Closed loop for `seconds`: kAcClients threads, each waiting for its batch
// before sending the next. Outcomes come back ordered by start time.
std::vector<BatchOutcome> ClosedLoop(Stack& stack, const AcSetup& ac,
                                     const ScoreTable& reference,
                                     double seconds, Rng& rng,
                                     HostMonitor* host) {
  std::vector<std::vector<BatchOutcome>> per_client(kAcClients);
  std::vector<uint64_t> seeds;
  for (size_t c = 0; c < kAcClients; ++c) {
    seeds.push_back(rng.NextU64());
  }
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kAcClients; ++c) {
    clients.emplace_back([&, c] {
      Rng r(seeds[c]);
      while (NowNs() < end) {
        BatchOutcome o;
        o.model = Draw(ac.suite.popularity_cdf, r);
        o.batch = static_cast<uint32_t>(r.UniformInt(ac.batches.size()));
        o.start_ns = NowNs();
        auto scores = stack.router->PredictBatch(
            ac.suite.names[o.model], ac.batches[o.batch], kAcChunk);
        o.end_ns = NowNs();
        o.ok = scores.ok() && scores->size() == kAcBatch;
        for (size_t j = 0; o.ok && j < kAcBatch; ++j) {
          o.mismatched += !Matches(
              (*scores)[j],
              reference.Score(o.model, ac.batch_index[o.batch][j]));
        }
        per_client[c].push_back(o);
      }
    });
  }
  host->Sample(NowNs());
  while (NowNs() < end) {
    SleepNs(std::min<int64_t>(kHostPollNs, end - NowNs()));
    host->Sample(NowNs());
  }
  for (auto& t : clients) {
    t.join();
  }
  host->Sample(NowNs());
  std::vector<BatchOutcome> all;
  for (const auto& v : per_client) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

std::vector<double> BatchLatenciesUs(const std::vector<BatchOutcome>& v) {
  std::vector<double> lat;
  for (const auto& o : v) {
    lat.push_back(o.ok ? static_cast<double>(o.end_ns - o.start_ns) / 1e3
                       : std::numeric_limits<double>::infinity());
  }
  return lat;
}

// Batch latency statistics over the windows of every phase given; `rate`
// is batches per second.
WindowStats BatchStats(std::span<const std::vector<BatchOutcome>> phases,
                       const HostMonitor& host) {
  std::vector<Window> windows;
  for (const auto& v : phases) {
    const std::vector<double> lat = BatchLatenciesUs(v);
    std::vector<Timed> series;
    int64_t end = 0;
    for (size_t i = 0; i < v.size(); ++i) {
      series.push_back({v[i].start_ns, lat[i]});
      end = std::max(end, v[i].end_ns);
    }
    AddWindows(series, host, end, &windows);
  }
  return Summarize(windows);
}

void PrintBatches(const char* label,
                  std::span<const std::vector<BatchOutcome>> phases,
                  const HostMonitor& host) {
  std::vector<double> lat;
  for (const auto& v : phases) {
    const std::vector<double> l = BatchLatenciesUs(v);
    lat.insert(lat.end(), l.begin(), l.end());
  }
  const WindowStats ws = BatchStats(phases, host);
  std::printf(
      "%s: %zu batches, %.1f records/s, batch p50 %.2f us, p99 %.2f us over "
      "%zu of %zu steal-free windows%s; whole-run p50 %.2f us, p99 %.2f us "
      "(diagnostic)\n",
      label, lat.size(), ws.rate * static_cast<double>(kAcBatch), ws.p50,
      ws.p99, ws.clean, ws.windows, ws.used_clean ? "" : " (too few: all used)",
      Median(lat), Percentile(lat, 99.0));
}

int RunAcBatch(RunContext& ctx) {
  const Args& args = ctx.args;
  AcSetup ac = MakeAc(args);
  Rng rng(args.seed);
  HostMonitor host;
  // Every (model, record) pair is scored up front, before the stack exists,
  // so neither the table nor the reference plans count in rss_mb.
  Reference ref;
  if (!CompileReference(ac.suite.specs, &ref)) {
    return 1;
  }
  ScoreTable table(&ref, &ac.records);
  for (uint32_t m = 0; m < ac.suite.specs.size(); ++m) {
    for (const auto& index : ac.batch_index) {
      for (uint32_t id : index) {
        table.Need(m, id);
      }
    }
  }
  table.Fill(std::thread::hardware_concurrency());
  const double rss0 = ResidentMb();
  Stack stack;
  double setup_s = 0.0;
  if (!SetUp(ac.suite, ac.records, args.tiny ? 1 : kSetups, &host, &stack, &setup_s)) {
    return 1;
  }
  ClosedLoop(stack, ac, table, args.tiny ? 0.2 : kWarmUpSeconds, rng,
             &host);  // Warm-up.
  const MaintenanceReport scan = stack.router->MaintainReplication();
  std::printf("warm-up scan: %zu replications\n", scan.replications);

  const CpuTicks cpu0 = ReadCpuTicks();
  const LayerSnapshot before = Snapshot(stack);
  std::vector<std::vector<BatchOutcome>> phases;
  if (args.trace) {
    // Untraced and traced phases alternate, as in TracedOpenLoop.
    for (int phase = 0; phase < 4; ++phase) {
      host.WaitCalm();
      phases.push_back(
          ClosedLoop(stack, ac, table, args.seconds / 4, rng, &host));
      PrintBatches(phase % 2 ? "traced" : "untraced", {&phases.back(), 1},
                   host);
    }
  } else {
    double cpu_us = 0.0;
    size_t records = 0;
    for (int c = 0; c < kReferenceChunks; ++c) {
      host.WaitCalm();
      const double cpu0 = ProcessCpuUs();
      phases.push_back(ClosedLoop(stack, ac, table,
                                  args.seconds / kReferenceChunks, rng, &host));
      cpu_us += ProcessCpuUs() - cpu0;
      records += phases.back().size() * kAcBatch;
    }
    AddCpuPerOp(cpu_us, records, &ctx.report);
    PrintBatches("closed loop", phases, host);
    const WindowStats ws = BatchStats(phases, host);
    ctx.report.Add("p50_us", ws.p50, "us");
    ctx.report.Add("p99_us", ws.p99, "us");
    ctx.report.Add("records_per_s", ws.rate * static_cast<double>(kAcBatch),
                   "1/s");
  }
  const CpuTicks cpu1 = ReadCpuTicks();
  const LayerSnapshot after = Snapshot(stack);

  for (const auto& phase : phases) {
    for (const auto& o : phase) {
      ctx.attempted += kAcBatch;
      if (!o.ok) {
        ctx.failed += kAcBatch;
        continue;
      }
      ctx.checked += kAcBatch;
      if (o.mismatched > 0 && ctx.mismatched < 5 * kAcBatch) {
        std::printf("mismatch: %s, batch %u: %u scores off the reference\n",
                    ac.suite.names[o.model].c_str(), o.batch, o.mismatched);
      }
      ctx.mismatched += o.mismatched;
    }
  }

  if (args.trace) {
    // Spans: the batch, and the PredictBatch call inside it (route,
    // admission, queue and execution are not separable from outside).
    std::vector<std::vector<Span>> reqs;
    LayerDurations layers;
    std::vector<double> untraced, traced;
    for (size_t p = 0; p < phases.size(); ++p) {
      const std::vector<double> lat = BatchLatenciesUs(phases[p]);
      (p % 2 ? traced : untraced).insert((p % 2 ? traced : untraced).end(),
                                         lat.begin(), lat.end());
      if (p % 2 == 0) {
        continue;
      }
      for (const auto& o : phases[p]) {
        if (o.ok) {
          reqs.push_back({{"request", -1, o.start_ns, o.end_ns},
                          {"serving.backend", 0, o.start_ns, o.end_ns}});
          layers.backend.push_back(
              static_cast<double>(o.end_ns - o.start_ns) / 1e3);
        }
      }
    }
    AddDurations(layers, &ctx.report);
    ReportSpans(reqs, &ctx.report);
    const double overhead = Median(traced) - Median(untraced);
    std::printf("tracing overhead: %.2f us on the batch p50\n", overhead);
    ctx.report.Add("trace.overhead_us", overhead, "us");
    WriteSpans(args.trace_out, reqs,
               phases[1].empty() ? 0 : phases[1].front().start_ns);
    AddLayerCounters(before, after, {}, &ctx.report);
    AddControl(ControlStats{}, true, &ctx.report);  // No control plane here.
    AddGenerator({}, cpu0, cpu1, &ctx.report);
    AddCompileLayers(ref, ac.suite, &ctx.report);
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    for (size_t k = 0; k < 32; ++k) {
      const uint32_t m = Draw(ac.suite.popularity_cdf, rng);
      const size_t b = rng.UniformInt(ac.batches.size());
      for (size_t j = 0; j < kAcChunk; ++j) {
        pairs.emplace_back(m, ac.batch_index[b][j]);
      }
    }
    AddOps(ref, ac.records, pairs, &ctx.report);
  } else {
    ctx.report.Add("setup_s", setup_s, "s");
    AddFootprint(after, host.rss_peak() - rss0, &ctx.report);
    PrintHost({}, cpu0, cpu1, host);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Workload sa-churn.
//
// What: sa-zipf's read traffic at the same kReferenceRps for the whole run,
// plus one control-plane thread on a fixed cadence of one tick per
// kChurnTickUs. Each tick Deploys a Zipf-chosen model; the canary stays live
// for one tick, and the next tick Promotes it (Rolls it back on every fourth
// cycle) before deploying the next. A model alternates between two
// variants that differ only in the linear weights (VariantB), as
// bench_churn does. A served score must match variant A or variant B.
// Why: writes beside reads. Store intern/release/sweep, Flour/Oven compile,
// Runtime register/retire and the RCU routing-table publish all run under
// live reads. A read-path gain that slows publishes, or a deploy speed-up
// that stalls readers, shows only here.
// Loads: everything sa-zipf loads, plus the control plane.
// Metrics: p50_us / p99_us / cpu_us_per_op of the reads (cpu_us_per_op
// includes the control plane's CPU); deploy_p50_us per successful cycle
// (Deploy plus its Promote/Rollback).
// Known defect, not sized around: Runtime::Register counts retired plans
// against its shared-group plan limit (kRunnableRingCapacity = 8192 per
// shard) forever, so once the hot model's shard has registered ~8192 plans
// every Deploy fails with ResourceExhausted. The run's cadence and length
// are not chosen to stay under that cap: failed cycles count in
// deploy_fail_share, and the first failing cycle is printed.
// Predicted direction: a compile or publish/reclaim gain lowers
// deploy_p50_us; a read-path gain lowers p50_us here as on sa-zipf unless it
// slows publishes; fixing the Register cap lowers deploy_fail_share.

int RunSaChurn(RunContext& ctx) {
  const Args& args = ctx.args;
  SaSetup sa = MakeSa(args);
  Rng rng(args.seed);
  HostMonitor host;
  const double rss0 = ResidentMb();
  Stack stack;
  double setup_s = 0.0;
  if (!SetUp(sa.suite, sa.sentences, args.tiny ? 1 : kSetups, &host, &stack, &setup_s)) {
    return 1;
  }
  {
    ShardedBackend backend(stack.router.get());
    FrontEnd frontend(&backend, FrontOptions());
    WarmUp(frontend, stack, sa, args.tiny ? 0.2 : kWarmUpSeconds, rng, &host);
  }
  const std::vector<PipelineSpec> variant_b = VariantB(stack.loaded);
  ControlPlane control(stack.router.get(), &stack.loaded, &variant_b,
                       &sa.suite.popularity_cdf, args.seed ^ 0xC4);
  std::atomic<bool> stop{false};

  host.WaitCalm();
  const CpuTicks cpu0 = ReadCpuTicks();
  const LayerSnapshot before = Snapshot(stack);
  std::thread churner([&] {
    int64_t next = NowNs();
    while (!stop.load(std::memory_order_acquire)) {
      const int64_t now = NowNs();
      if (now < next) {
        SleepNs(next - now);
      }
      control.Tick();
      next += kChurnTickUs * 1000;
      next = std::max(next, NowNs());  // A late tick never bursts.
    }
    control.Finish();
  });
  std::vector<DriveResult> drives;
  if (args.trace) {
    TracedOpenLoop(ctx, stack, sa, args.seconds, rng, &host, &drives);
  } else {
    ReferenceRate(stack, sa, args.seconds, rng, &host, &drives, ctx,
                  "reads under churn");
  }
  stop.store(true, std::memory_order_release);
  churner.join();
  host.Sample(NowNs());
  const CpuTicks cpu1 = ReadCpuTicks();
  const LayerSnapshot after = Snapshot(stack);
  PrintControl("control plane", control.stats());

  Reference ref_a, ref_b;
  if (!CompileReference(sa.suite.specs, &ref_a) ||
      !CompileReference(VariantB(sa.suite.specs), &ref_b)) {
    return 1;
  }
  ScoreTable table_a(&ref_a, &sa.sentences), table_b(&ref_b, &sa.sentences);
  for (const auto& d : drives) {
    NeedScores(d, &table_a);
    NeedScores(d, &table_b);
    ctx.attempted += d.out.size();
    ctx.failed += Failures(d);
  }
  table_a.Fill(std::thread::hardware_concurrency());
  table_b.Fill(std::thread::hardware_concurrency());
  for (const auto& d : drives) {
    ctx.mismatched += CheckScores(d, table_a, &table_b, &ctx.checked);
  }

  const std::vector<double> late = LatenessUs(drives);
  AddControl(control.stats(), args.trace, &ctx.report);
  if (args.trace) {
    AddLayerCounters(before, after, drives, &ctx.report);
    AddGenerator(late, cpu0, cpu1, &ctx.report);
    AddCompileLayers(ref_a, sa.suite, &ctx.report);
    AddOps(ref_a, sa.sentences, SamplePairs(drives.back().schedule, 2048),
           &ctx.report);
  } else {
    ctx.report.Add("setup_s", setup_s, "s");
    AddFootprint(after, host.rss_peak() - rss0, &ctx.report);
    std::printf("store bytes drift over the run: %lld\n",
                static_cast<long long>(after.store_bytes) -
                    static_cast<long long>(before.store_bytes));
    PrintHost(late, cpu0, cpu1, host);
  }
  return 0;
}

int main_impl(int argc, char** argv) {
  RunContext ctx;
  if (!ParseArgs(argc, argv, &ctx.args)) {
    std::fprintf(stderr,
                 "usage: served_bench --workload sa-zipf|ac-batch|sa-churn "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--tiny 1]\n");
    return 2;
  }
  // Sleeps of the open-loop generator and the control plane end on time
  // instead of up to the default 50 us timer slack late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const std::string host = HostFactsJson();
  std::printf("host: %s\n", host.c_str());
  std::printf("workload %s, seed %llu, %.1f s, trace %d%s\n",
              ctx.args.workload.c_str(),
              static_cast<unsigned long long>(ctx.args.seed), ctx.args.seconds,
              ctx.args.trace ? 1 : 0, ctx.args.tiny ? " (tiny)" : "");
  std::fflush(stdout);
  int rc = 0;
  if (ctx.args.workload == "sa-zipf") {
    rc = RunSaZipf(ctx);
  } else if (ctx.args.workload == "ac-batch") {
    rc = RunAcBatch(ctx);
  } else {
    rc = RunSaChurn(ctx);
  }
  if (rc != 0) {
    return rc;
  }
  const size_t failed = ctx.failed + ctx.mismatched;
  if (!ctx.args.trace) {
    ctx.report.Add("fail_share",
                   Ratio(static_cast<double>(failed),
                         static_cast<double>(ctx.attempted)),
                   "ratio");
  }
  const bool correct = ctx.valid && ctx.mismatched == 0 && ctx.checked > 0;
  std::printf("checked %zu served scores against the reference: %zu "
              "mismatched; %zu of %zu attempted failed\n",
              ctx.checked, ctx.mismatched, failed, ctx.attempted);
  ctx.report.Print();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"checked\": %zu, \"metrics\": %s, \"host\": %s}\n",
      correct ? "true" : "false", ctx.attempted, failed, ctx.checked,
      ctx.report.Json().c_str(), host.c_str());
  return 0;
}

}  // namespace
}  // namespace pretzel

int main(int argc, char** argv) { return pretzel::main_impl(argc, argv); }
