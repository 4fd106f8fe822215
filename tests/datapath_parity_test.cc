// Golden-parity suite for the operator data path: every execution variant —
// scalar-forced, dispatched (SIMD when built+supported), sparse-fused,
// unfused dense, and batched — must score within 1e-5 of the scalar
// black-box reference for every SA/AC workload plan. This is the contract
// that lets the Oven and Runtime pick representations and kernels freely.
// On top of that, a batch must score bit-identically to ExecutePlan on the
// same backend: a tree split sitting on a float tie turns any difference
// in reduction order into a different leaf, far outside 1e-5.
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/blackbox/blackbox_model.h"
#include "src/common/serialize.h"
#include "src/flour/flour.h"
#include "src/ops/kernels.h"
#include "src/oven/model_plan.h"
#include "src/runtime/exec_context.h"
#include "src/workload/ac_workload.h"
#include "src/workload/sa_workload.h"
#include "tests/test_util.h"

using namespace pretzel;

namespace {

// Pre-featurizes `text` into the BinaryRecord wire encoding for pipeline
// `index`, or returns "" if the workload has no binary encoding for it.
using MakeBinary = std::function<std::string(size_t, const std::string&)>;

// The optimizer configurations that exercise each data-path variant.
std::vector<std::pair<const char*, OptimizerOptions>> Configs() {
  OptimizerOptions full;  // Push (SA) / fused featurize (AC).
  OptimizerOptions sparse_fused;
  sparse_fused.enable_linear_push = false;  // Forces kSparseLinear on SA.
  OptimizerOptions sparse_unmerged = sparse_fused;
  sparse_unmerged.enable_stage_merge = false;
  OptimizerOptions unfused;  // Materialized Concat + Linear, no rewrites.
  unfused.enable_linear_push = false;
  unfused.enable_stage_merge = false;
  unfused.enable_inline = false;
  unfused.enable_sparse_fuse = false;
  return {{"full", full},
          {"sparse-fused", sparse_fused},
          {"sparse-unmerged", sparse_unmerged},
          {"unfused", unfused}};
}

template <typename Workload>
void CheckFamily(const Workload& workload, uint64_t seed, bool is_dense,
                 const MakeBinary& make_binary) {
  ObjectStore store;
  FlourContext flour(&store);
  VectorPool pool;
  ExecContext ctx(&pool);
  Rng rng(seed);
  const auto configs = Configs();

  for (size_t spec_idx = 0; spec_idx < workload.pipelines().size();
       ++spec_idx) {
    const auto& spec = workload.pipelines()[spec_idx];
    // Golden reference: the black-box operator-at-a-time execution on the
    // forced-scalar backend.
    auto model = BlackBoxModel::Load(SaveModelImage(spec), BlackBoxOptions());
    CHECK(model.ok());
    auto program = flour.FromPipeline(spec);
    std::vector<std::shared_ptr<ModelPlan>> plans;
    for (const auto& [name, opts] : configs) {
      CompileOptions copts;
      copts.optimizer = opts;
      auto plan = CompilePlan(*program, spec.name, copts);
      CHECK_MSG(plan.ok(), "compile %s/%s", spec.name.c_str(), name);
      plans.push_back(*plan);
    }

    std::vector<std::string> inputs;
    for (int i = 0; i < 6; ++i) {
      inputs.push_back(workload.SampleInput(rng));
    }
    std::vector<float> golden;
    SetForceScalarKernels(true);
    for (const auto& input : inputs) {
      auto expected = (*model)->Predict(input);
      CHECK(expected.ok());
      golden.push_back(*expected);
    }

    for (const bool force_scalar : {true, false}) {
      SetForceScalarKernels(force_scalar);
      // Per-record execution, every plan variant.
      for (size_t p = 0; p < plans.size(); ++p) {
        for (size_t i = 0; i < inputs.size(); ++i) {
          auto got = ExecutePlan(*plans[p], inputs[i], ctx);
          CHECK_MSG(got.ok(), "%s/%s", spec.name.c_str(), configs[p].first);
          CHECK_NEAR(*got, golden[i], 1e-5);
        }
      }
      // Batched execution: every record runs ExecutePlan's kernels, so
      // the batch hits the same goldens.
      std::vector<float> scores(inputs.size(), 0.0f);
      Status first_error;
      const size_t failed = ExecutePlanBatch(
          *plans[0], inputs.data(), inputs.size(), scores.data(), ctx,
          &first_error);
      CHECK_MSG(failed == 0, "batch failed: %s",
                first_error.ToString().c_str());
      for (size_t i = 0; i < inputs.size(); ++i) {
        CHECK_NEAR(scores[i], golden[i], 1e-5);
      }
    }
    SetForceScalarKernels(false);

    // BinaryRecord twins of the same inputs: the zero-parse wire format
    // must hit the same goldens through every plan variant, per-record and
    // batched, on both kernel backends.
    std::vector<std::string> binaries;
    for (const auto& input : inputs) {
      binaries.push_back(make_binary(spec_idx, input));
    }
    for (const bool force_scalar : {true, false}) {
      SetForceScalarKernels(force_scalar);
      for (size_t p = 0; p < plans.size(); ++p) {
        for (size_t i = 0; i < binaries.size(); ++i) {
          auto got = ExecutePlan(*plans[p], binaries[i], ctx);
          CHECK_MSG(got.ok(), "binary %s/%s", spec.name.c_str(),
                    configs[p].first);
          CHECK_NEAR(*got, golden[i], 1e-5);
        }
      }
      std::vector<float> scores(binaries.size(), 0.0f);
      Status first_error;
      const size_t failed = ExecutePlanBatch(
          *plans[0], binaries.data(), binaries.size(), scores.data(), ctx,
          &first_error);
      CHECK_MSG(failed == 0, "binary batch failed: %s",
                first_error.ToString().c_str());
      for (size_t i = 0; i < binaries.size(); ++i) {
        CHECK_NEAR(scores[i], golden[i], 1e-5);
      }
    }
    SetForceScalarKernels(false);

    if (is_dense) {
      // A batch containing an invalid record attributes the failure to that
      // record alone: valid records still score, invalid ones fail.
      SetForceScalarKernels(false);
      std::vector<std::string> mixed = {inputs[0], "1.0,2.0", inputs[1]};
      std::vector<float> scores(mixed.size(), -1.0f);
      Status first_error;
      const size_t failed = ExecutePlanBatch(*plans[0], mixed.data(),
                                             mixed.size(), scores.data(), ctx,
                                             &first_error);
      CHECK_EQ(failed, size_t{1});
      CHECK(!first_error.ok());
      CHECK_NEAR(scores[0], golden[0], 1e-5);
      CHECK_NEAR(scores[1], 0.0f, 1e-9);
      CHECK_NEAR(scores[2], golden[1], 1e-5);

      // Same attribution for a binary record whose validity bit is clear:
      // it fails alone, neighbors score untouched, and the per-record
      // failure flags name exactly that record.
      std::vector<float> values;
      CHECK(ParseDenseInput(inputs[1], &values) == values.size() &&
            !values.empty());
      const std::string invalid =
          EncodeDenseRecord(values.data(), values.size(), /*valid=*/false);
      std::vector<std::string> bmixed = {binaries[0], invalid, binaries[1]};
      std::vector<float> bscores(bmixed.size(), -1.0f);
      std::vector<uint8_t> flags(bmixed.size(), 0xEE);
      Status berror;
      const size_t bfailed =
          ExecutePlanBatch(*plans[0], bmixed.data(), bmixed.size(),
                           bscores.data(), ctx, &berror, flags.data());
      CHECK_EQ(bfailed, size_t{1});
      CHECK(!berror.ok());
      CHECK_EQ(flags[0], uint8_t{0});
      CHECK_EQ(flags[1], uint8_t{1});
      CHECK_EQ(flags[2], uint8_t{0});
      CHECK_NEAR(bscores[0], golden[0], 1e-5);
      CHECK_NEAR(bscores[1], 0.0f, 1e-9);
      CHECK_NEAR(bscores[2], golden[1], 1e-5);
    }
  }
}

// SparseDot unit parity: the dispatched kernel (AVX2 masked gather where
// built+supported) must match the scalar backend exactly — double
// accumulation in both — and ids at or beyond w_dim, including hostile
// near-UINT32_MAX values, must contribute nothing and touch no memory
// (the ASan job is the witness for the latter).
void CheckSparseDotUnit() {
  Rng rng(777);
  std::vector<float> weights(1000);
  for (float& w : weights) {
    w = static_cast<float>(rng.Normal());
  }
  for (const size_t nnz : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                           size_t{500}}) {
    std::vector<uint32_t> ids;
    std::vector<float> vals;
    uint32_t next = 0;
    for (size_t i = 0; i < nnz; ++i) {
      next += 1 + static_cast<uint32_t>(rng.UniformInt(5));
      ids.push_back(next);
      vals.push_back(static_cast<float>(rng.Normal()));
    }
    for (const size_t w_dim : {weights.size(), size_t{256}, size_t{3}}) {
      const double ref = internal::SparseDotScalar(ids.data(), vals.data(),
                                                   nnz, weights.data(), w_dim);
      const double got =
          SparseDot(ids.data(), vals.data(), nnz, weights.data(), w_dim);
      CHECK_NEAR(got, ref, 1e-12);
    }
  }
  // Hostile ids against a tiny weight array: everything out of range, the
  // top ones chosen to break a signed or wrapping index computation.
  const std::vector<uint32_t> hostile = {3,          4,          1000,
                                         0x7FFFFFFF, 0x80000000, 0xFFFFFFFF};
  const std::vector<float> hvals(hostile.size(), 2.0f);
  std::vector<float> tiny = {1.0f, 1.0f, 1.0f};
  const double got = SparseDot(hostile.data(), hvals.data(), hostile.size(),
                               tiny.data(), tiny.size());
  CHECK_NEAR(got, 0.0, 1e-12);
  const double ref = internal::SparseDotScalar(
      hostile.data(), hvals.data(), hostile.size(), tiny.data(), tiny.size());
  CHECK_NEAR(ref, 0.0, 1e-12);
  std::printf("sparse-dot unit parity: PASS\n");
}

// A linear model narrower than the concat space is legal (missing weights
// read as zero); binding and every execution path must handle it without
// walking past the weight array.
void CheckShortWeights() {
  SaWorkloadOptions opts;
  opts.num_pipelines = 1;
  opts.char_dict_entries = 300;
  opts.word_dict_entries = 100;
  opts.vocabulary_size = 200;
  const auto sa = SaWorkload::Generate(opts);
  PipelineSpec spec = sa.pipelines()[0];
  for (auto& node : spec.nodes) {
    if (node.params->kind() == OpKind::kLinearBinary) {
      auto short_lin = std::make_shared<LinearBinaryParams>();
      const auto& full =
          static_cast<const LinearBinaryParams&>(*node.params);
      short_lin->weights.assign(full.weights.begin(),
                                full.weights.begin() + 5);
      short_lin->bias = full.bias;
      short_lin->Finalize();
      node.params = short_lin;
    }
  }
  auto model = BlackBoxModel::Load(SaveModelImage(spec), BlackBoxOptions());
  CHECK(model.ok());
  ObjectStore store;
  FlourContext flour(&store);
  VectorPool pool;
  ExecContext ctx(&pool);
  auto program = flour.FromPipeline(spec);
  Rng rng(99);
  for (const auto& [name, opts2] : Configs()) {
    CompileOptions copts;
    copts.optimizer = opts2;
    auto plan = CompilePlan(*program, "short", copts);
    CHECK(plan.ok());
    for (int i = 0; i < 3; ++i) {
      const std::string input = sa.SampleInput(rng);
      auto expected = (*model)->Predict(input);
      auto got = ExecutePlan(**plan, input, ctx);
      CHECK(expected.ok());
      CHECK_MSG(got.ok(), "short-weights %s", name);
      CHECK_NEAR(*got, *expected, 1e-5);
    }
  }
  std::printf("short-weights parity: PASS\n");
}

// Batch scores must equal ExecutePlan's bit for bit. The pinned pair is the
// served-path benchmark's ac-batch seed-3 pool (AcWorkload defaults, rng
// seeded 3 ^ 0xACB47C4, 574 binary samples): model ac_158 on record 573 sits
// on a tree-split tie, so a batch kernel that sums in another order than
// the per-record kernels scores it 1.72721088 instead of 2.27202797. The
// pair is checked in batches of 2, 8 and 64 on both backends, then every
// AC model is checked on one 64-record chunk ending at that record.
bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void CheckBatchBitwiseParity() {
  const AcWorkload ac = AcWorkload::Generate(AcWorkloadOptions());
  Rng rng(3 ^ 0xACB47C4ull);
  std::vector<std::string> pool;
  for (size_t i = 0; i < 574; ++i) {
    pool.push_back(ac.SampleInput(rng, WireFormat::kBinary));
  }
  ObjectStore store;
  FlourContext flour(&store);
  VectorPool vpool;
  ExecContext ctx(&vpool);
  std::vector<std::shared_ptr<ModelPlan>> plans;
  for (const auto& spec : ac.pipelines()) {
    auto program = flour.FromPipeline(spec);
    auto plan = CompilePlan(*program, spec.name, CompileOptions{});
    CHECK_MSG(plan.ok(), "compile %s", spec.name.c_str());
    plans.push_back(*plan);
  }
  CHECK(ac.pipelines()[158].name == "ac_158");

  // Scores `n` records ending at pool record 573 through one batch and
  // through ExecutePlan; returns the number of bitwise mismatches.
  const auto mismatches = [&](size_t model, size_t n) {
    const size_t first = pool.size() - n;
    std::vector<float> scores(n, 0.0f);
    Status error;
    const size_t failed = ExecutePlanBatch(*plans[model], pool.data() + first,
                                           n, scores.data(), ctx, &error);
    CHECK_MSG(failed == 0, "batch failed: %s", error.ToString().c_str());
    size_t bad = 0;
    for (size_t i = 0; i < n; ++i) {
      auto one = ExecutePlan(*plans[model], pool[first + i], ctx);
      CHECK(one.ok());
      if (!SameBits(scores[i], *one)) {
        std::fprintf(stderr,
                     "  %s record %zu: batch(%zu) %.8f vs ExecutePlan %.8f\n",
                     ac.pipelines()[model].name.c_str(), first + i, n,
                     scores[i], *one);
        ++bad;
      }
    }
    return bad;
  };
  for (const bool force_scalar : {true, false}) {
    SetForceScalarKernels(force_scalar);
    for (const size_t n : {size_t{2}, size_t{8}, size_t{64}}) {
      CHECK_MSG(mismatches(158, n) == 0,
                "ac_158 x record 573, batch %zu, %s backend", n,
                force_scalar ? "scalar" : "dispatched");
    }
    size_t bad = 0;
    for (size_t m = 0; m < plans.size(); ++m) {
      bad += mismatches(m, 64);
    }
    CHECK_MSG(bad == 0, "%zu bitwise mismatches over %zu models x 64 records",
              bad, plans.size());
  }
  SetForceScalarKernels(false);
  std::printf("batch bitwise parity: PASS\n");
}

}  // namespace

int main() {
  SaWorkloadOptions sa_opts;
  sa_opts.num_pipelines = 6;
  sa_opts.char_dict_entries = 600;
  sa_opts.word_dict_entries = 200;
  sa_opts.vocabulary_size = 400;
  const auto sa = SaWorkload::Generate(sa_opts);
  CheckFamily(sa, 4321, /*is_dense=*/false,
              [&](size_t index, const std::string& text) {
                return sa.BinaryFromText(text, index);
              });

  AcWorkloadOptions ac_opts;
  ac_opts.num_pipelines = 5;
  ac_opts.featurizer_trees = 12;
  ac_opts.featurizer_depth = 5;
  ac_opts.final_trees = 8;
  ac_opts.final_depth = 4;
  CheckFamily(AcWorkload::Generate(ac_opts), 8765, /*is_dense=*/true,
              [](size_t, const std::string& text) {
                return AcWorkload::BinaryFromText(text);
              });
  CheckShortWeights();
  CheckSparseDotUnit();
  CheckBatchBitwiseParity();

  std::printf("datapath_parity_test: PASS (backend %s)\n",
              KernelBackendName(ActiveKernelBackend()));
  return 0;
}
