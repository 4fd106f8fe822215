// AVX2+FMA dense-kernel backend. This TU is compiled with -mavx2 -mfma and
// only added to the build under the PRETZEL_AVX2 CMake option; the generic
// entry points in kernels.cc call in here strictly after runtime CPU
// detection, so the binary stays runnable on non-AVX2 hosts.
#ifdef PRETZEL_HAVE_AVX2

#include <immintrin.h>

#include "src/ops/kernels.h"

namespace pretzel {
namespace internal {

namespace {

// Horizontal sum of one 8-lane register.
inline float HSum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 0x55));
  return _mm_cvtss_f32(sum);
}

}  // namespace

float DotF32Avx2(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8),
                           acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float sum = HSum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

void MatVecAvx2(const float* matrix, size_t out_dim, size_t in_dim,
                const float* in, float* out) {
  for (size_t r = 0; r < out_dim; ++r) {
    out[r] = DotF32Avx2(matrix + r * in_dim, in, in_dim);
  }
}

void KMeansTransformAvx2(const float* centroids, size_t k, size_t dim,
                         const float* in, float* out) {
  for (size_t i = 0; i < k; ++i) {
    const float* c = centroids + i * dim;
    __m256 acc = _mm256_setzero_ps();
    size_t j = 0;
    for (; j + 8 <= dim; j += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(in + j),
                                     _mm256_loadu_ps(c + j));
      acc = _mm256_fmadd_ps(d, d, acc);
    }
    float d2 = HSum256(acc);
    for (; j < dim; ++j) {
      const float d = in[j] - c[j];
      d2 += d * d;
    }
    out[i] = -d2;
  }
}

// Masked-gather sparse dot. Per 8-id group: an unsigned id < w_dim compare
// builds the gather mask (out-of-range ids contribute nothing AND touch no
// memory — masked-off gather lanes are architecturally suppressed, so a
// hostile id can never read out of bounds), then weights and values are
// widened to double before the FMA so every term matches the scalar
// backend's double(w) * double(v) product exactly (float*float is exact in
// double); only the association order differs.
double SparseDotAvx2(const uint32_t* ids, const float* vals, size_t nnz,
                     const float* weights, size_t w_dim) {
  if (w_dim > static_cast<size_t>(INT32_MAX)) {
    return SparseDotScalar(ids, vals, nnz, weights, w_dim);
  }
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  const __m256i dim_biased =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int32_t>(w_dim)), sign);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= nnz; i += 8) {
    // alias-ok: _mm256_loadu_si256 is alignment-blind and its intrinsic
    // signature forces the __m256i* cast; the load reads exactly 8 uint32s.
    const __m256i idv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    // Unsigned compare via sign-bias: mask lane = (id < w_dim).
    const __m256i mask =
        _mm256_cmpgt_epi32(dim_biased, _mm256_xor_si256(idv, sign));
    const __m256 w = _mm256_mask_i32gather_ps(
        _mm256_setzero_ps(), weights, idv, _mm256_castsi256_ps(mask), 4);
    const __m256 v = _mm256_loadu_ps(vals + i);
    acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(w)),
                           _mm256_cvtps_pd(_mm256_castps256_ps128(v)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(w, 1)),
                           _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), acc1);
  }
  const __m256d both = _mm256_add_pd(acc0, acc1);
  const __m128d half = _mm_add_pd(_mm256_castpd256_pd128(both),
                                  _mm256_extractf128_pd(both, 1));
  double acc = _mm_cvtsd_f64(_mm_add_sd(half, _mm_unpackhi_pd(half, half)));
  for (; i < nnz; ++i) {
    if (ids[i] < w_dim) {
      acc += static_cast<double>(weights[ids[i]]) * vals[i];
    }
  }
  return acc;
}

}  // namespace internal
}  // namespace pretzel

#endif  // PRETZEL_HAVE_AVX2
