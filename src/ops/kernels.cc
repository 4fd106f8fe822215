#include "src/ops/kernels.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace pretzel {

void HashDict::Reserve(size_t expected_entries) {
  size_t cap = 16;
  // Keep load factor under ~0.7.
  while (cap * 7 / 10 < expected_entries + 1) {
    cap <<= 1;
  }
  slots_.assign(cap, Slot{});
  mask_ = cap - 1;
  size_ = 0;
}

bool HashDict::InsertNoGrow(uint64_t key, uint32_t id) {
  size_t i = Mix(key) & mask_;
  while (true) {
    Slot& s = slots_[i];
    if (s.key == key) {
      return false;
    }
    if (s.key == kEmpty) {
      s.key = key;
      s.id = id;
      ++size_;
      return true;
    }
    i = (i + 1) & mask_;
  }
}

void HashDict::Grow() {
  // Rebuild once at double the live size: Reserve sizes the new table from
  // size_ directly, and the rehash loop inserts without re-entering this
  // growth check per element (the old path re-evaluated it on every moved
  // key, and deserialization rebuilds dictionaries entry by entry).
  std::vector<Slot> old = std::move(slots_);
  Reserve(std::max<size_t>(size_ * 2, 16));
  for (const Slot& s : old) {
    if (s.key != kEmpty) {
      InsertNoGrow(s.key, s.id);
    }
  }
}

bool HashDict::Insert(uint64_t key, uint32_t id) {
  if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7) {
    Grow();
  }
  return InsertNoGrow(key, id);
}

void TokenizeText(std::string_view input, std::string* text,
                  std::vector<std::pair<uint32_t, uint32_t>>* spans) {
  text->clear();
  spans->clear();
  text->reserve(input.size());
  uint32_t token_begin = 0;
  bool in_token = false;
  for (const char raw : input) {
    const unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      if (!in_token) {
        token_begin = static_cast<uint32_t>(text->size());
        in_token = true;
      }
      text->push_back(static_cast<char>(std::tolower(c)));
    } else {
      if (in_token) {
        spans->emplace_back(token_begin, static_cast<uint32_t>(text->size()));
        in_token = false;
      }
      // Normalize separators to a single space so char n-grams can cross
      // word boundaries the way ML.Net's char n-grams do.
      if (!text->empty() && text->back() != ' ') {
        text->push_back(' ');
      }
    }
  }
  if (in_token) {
    spans->emplace_back(token_begin, static_cast<uint32_t>(text->size()));
  }
}

// ---------------------------------------------------------------------------
// Dense kernels: portable scalar backend + per-process dispatch.

namespace internal {

float DotF32Scalar(const float* a, const float* b, size_t n) {
  // Four independent accumulators: breaks the serial FP dependence chain
  // (FMA-friendly) and is reassociation the vectorizer may lift to SIMD
  // lanes without -ffast-math.
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) {
    acc0 += a[i] * b[i];
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

void MatVecScalar(const float* matrix, size_t out_dim, size_t in_dim,
                  const float* in, float* out) {
  for (size_t r = 0; r < out_dim; ++r) {
    out[r] = DotF32Scalar(matrix + r * in_dim, in, in_dim);
  }
}

void KMeansTransformScalar(const float* centroids, size_t k, size_t dim,
                           const float* in, float* out) {
  for (size_t i = 0; i < k; ++i) {
    const float* c = centroids + i * dim;
    float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
    size_t j = 0;
    for (; j + 4 <= dim; j += 4) {
      const float d0 = in[j] - c[j];
      const float d1 = in[j + 1] - c[j + 1];
      const float d2 = in[j + 2] - c[j + 2];
      const float d3 = in[j + 3] - c[j + 3];
      acc0 += d0 * d0;
      acc1 += d1 * d1;
      acc2 += d2 * d2;
      acc3 += d3 * d3;
    }
    for (; j < dim; ++j) {
      const float d = in[j] - c[j];
      acc0 += d * d;
    }
    out[i] = -((acc0 + acc1) + (acc2 + acc3));
  }
}

}  // namespace internal

namespace {

// Force-scalar override for parity baselines and before/after sweeps.
// Plain bool: flipped only from single-threaded test/bench setup.
bool g_force_scalar = false;

bool UseAvx2() {
#ifdef PRETZEL_HAVE_AVX2
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported && !g_force_scalar;
#else
  return false;
#endif
}

}  // namespace

bool SetForceScalarKernels(bool force) {
  const bool prev = g_force_scalar;
  g_force_scalar = force;
  return prev;
}

KernelBackend ActiveKernelBackend() {
  return UseAvx2() ? KernelBackend::kAvx2 : KernelBackend::kScalar;
}

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

float DotF32(const float* a, const float* b, size_t n) {
#ifdef PRETZEL_HAVE_AVX2
  if (UseAvx2()) {
    return internal::DotF32Avx2(a, b, n);
  }
#endif
  return internal::DotF32Scalar(a, b, n);
}

void MatVec(const float* matrix, size_t out_dim, size_t in_dim, const float* in,
            float* out) {
#ifdef PRETZEL_HAVE_AVX2
  if (UseAvx2()) {
    internal::MatVecAvx2(matrix, out_dim, in_dim, in, out);
    return;
  }
#endif
  internal::MatVecScalar(matrix, out_dim, in_dim, in, out);
}

void KMeansTransform(const float* centroids, size_t k, size_t dim,
                     const float* in, float* out) {
#ifdef PRETZEL_HAVE_AVX2
  if (UseAvx2()) {
    internal::KMeansTransformAvx2(centroids, k, dim, in, out);
    return;
  }
#endif
  internal::KMeansTransformScalar(centroids, k, dim, in, out);
}

double SparseDot(const uint32_t* ids, const float* vals, size_t nnz,
                 const float* weights, size_t w_dim) {
#ifdef PRETZEL_HAVE_AVX2
  if (UseAvx2()) {
    return internal::SparseDotAvx2(ids, vals, nnz, weights, w_dim);
  }
#endif
  return internal::SparseDotScalar(ids, vals, nnz, weights, w_dim);
}

namespace internal {
double SparseDotScalar(const uint32_t* ids, const float* vals, size_t nnz,
                       const float* weights, size_t w_dim) {
  double acc0 = 0.0, acc1 = 0.0;
  size_t i = 0;
  for (; i + 2 <= nnz; i += 2) {
    const uint32_t id0 = ids[i];
    const uint32_t id1 = ids[i + 1];
    if (id0 < w_dim) {
      acc0 += static_cast<double>(weights[id0]) * vals[i];
    }
    if (id1 < w_dim) {
      acc1 += static_cast<double>(weights[id1]) * vals[i + 1];
    }
  }
  if (i < nnz && ids[i] < w_dim) {
    acc0 += static_cast<double>(weights[ids[i]]) * vals[i];
  }
  return acc0 + acc1;
}
}  // namespace internal

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// from_chars: bounded by [p, end) with no NUL-termination requirement, so
// borrowed string_view slices (wire batch buffers) parse in place.
size_t ParseDenseInput(std::string_view input, std::vector<float>* out) {
  out->clear();
  const char* p = input.data();
  const char* end = p + input.size();
  while (p < end) {
    float v;
    const auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc() || next == p) {
      ++p;
      continue;
    }
    out->push_back(v);
    p = next;
    while (p < end && (*p == ',' || *p == ' ')) {
      ++p;
    }
  }
  return out->size();
}

namespace {

int32_t BuildTree(Forest* forest, size_t features, size_t depth, Rng& rng) {
  TreeNode node;
  if (depth == 0) {
    node.feature = -1;
    node.value = static_cast<float>(rng.Normal()) * 0.25f;
    forest->nodes.push_back(node);
    return static_cast<int32_t>(forest->nodes.size() - 1);
  }
  node.feature = static_cast<int16_t>(rng.UniformInt(features));
  node.threshold = static_cast<float>(rng.Normal());
  forest->nodes.push_back(node);
  const int32_t idx = static_cast<int32_t>(forest->nodes.size() - 1);
  const int32_t left = BuildTree(forest, features, depth - 1, rng);
  const int32_t right = BuildTree(forest, features, depth - 1, rng);
  forest->nodes[idx].left = left;
  forest->nodes[idx].right = right;
  return idx;
}

}  // namespace

Forest BuildRandomForest(size_t trees, size_t features, size_t depth, Rng& rng) {
  Forest forest;
  forest.num_features = features;
  forest.roots.reserve(trees);
  forest.nodes.reserve(trees * ((size_t{1} << (depth + 1)) - 1));
  for (size_t t = 0; t < trees; ++t) {
    forest.roots.push_back(BuildTree(&forest, features, depth, rng));
  }
  return forest;
}

}  // namespace pretzel
