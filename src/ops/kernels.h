// Numeric/text kernels shared by PRETZEL plans and the black-box baseline.
// Both execution models call the same functions, so figure comparisons
// isolate the execution-model overheads (boxing, per-op buffers, container
// hops) rather than kernel quality differences.
#ifndef PRETZEL_OPS_KERNELS_H_
#define PRETZEL_OPS_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace pretzel {

// ---------------------------------------------------------------------------
// HashDict: open-addressed (linear probe) hash table from a 64-bit content
// hash to a dense feature id. This is the shape of the paper's n-gram
// dictionaries: immutable after the off-line phase, lookup-only on the data
// path. Deserialization rebuilds the probe table entry by entry, which is
// exactly the cold-start cost the Object Store lets PRETZEL skip.
class HashDict {
 public:
  HashDict() = default;

  void Reserve(size_t expected_entries);
  // Returns false if the key was already present.
  bool Insert(uint64_t key, uint32_t id);
  // Returns -1 on miss, else the id.
  int64_t Find(uint64_t key) const {
    if (slots_.empty()) {
      return -1;
    }
    size_t i = Mix(key) & mask_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.key == key) {
        return s.id;
      }
      if (s.key == kEmpty) {
        return -1;
      }
      i = (i + 1) & mask_;
    }
  }

  // Lookup prefetch hint: pulls the key's home cache line toward L1 so a
  // scan can overlap the table-miss latency of lookup k+1 with the probe of
  // lookup k (the dictionaries are far larger than L2 at paper scale).
  void Prefetch(uint64_t key) const {
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[Mix(key) & mask_], /*rw=*/0, /*locality=*/1);
    }
  }

  size_t size() const { return size_; }
  size_t HeapBytes() const { return slots_.capacity() * sizeof(Slot); }

  // Content enumeration (serialization + checksums). Order is table order,
  // deterministic for identical insert sequences.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) {
        fn(s.key, s.id);
      }
    }
  }

 private:
  struct Slot {
    uint64_t key = kEmpty;
    uint32_t id = 0;
  };
  static constexpr uint64_t kEmpty = 0;

  static uint64_t Mix(uint64_t k) { return SplitMix64(k); }

  // Probe-and-write without the growth check; the rehash loop uses this so
  // rebuilding a table never re-enters the grow path per element.
  bool InsertNoGrow(uint64_t key, uint32_t id);
  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

// Keys are raw content hashes; 0 is reserved as the empty slot marker.
inline uint64_t ContentHash64(const char* data, size_t len, uint64_t seed = 0) {
  uint64_t h = SplitMix64(seed ^ (0x9ddfea08eb382d69ull + len));
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t chunk;
    __builtin_memcpy(&chunk, data + i, 8);
    h = SplitMix64(h ^ chunk);
  }
  uint64_t tail = 0;
  for (size_t j = 0; i + j < len; ++j) {
    tail |= static_cast<uint64_t>(static_cast<unsigned char>(data[i + j])) << (8 * j);
  }
  h = SplitMix64(h ^ tail);
  return h == 0 ? 1 : h;
}

// ---------------------------------------------------------------------------
// Tokenization. Lowercases into `text` and emits [begin, end) spans of the
// alphanumeric runs. Outputs are caller-provided so hot paths can reuse
// buffers.

struct TokenizerParams;  // Defined in params.h; the kernel only needs the tag.

void TokenizeText(std::string_view input, std::string* text,
                  std::vector<std::pair<uint32_t, uint32_t>>* spans);

// ---------------------------------------------------------------------------
// N-gram scans. Both walk the tokenized text and invoke `fn(id)` for every
// dictionary hit; weight accumulation or sparse materialization is the
// caller's choice (fused vs. operator-at-a-time execution).

struct NgramScanConfig {
  uint32_t min_n = 3;  // Char n-gram orders scanned, inclusive.
  uint32_t max_n = 4;
  uint32_t word_orders = 2;  // Word n-gram orders: unigrams + bigrams.
};

// Hash of text[begin, begin+n) — char n-gram key.
inline uint64_t CharNgramKey(const std::string& text, size_t begin, size_t n) {
  return ContentHash64(text.data() + begin, n, /*seed=*/n);
}

// Hash of one token span — word key; bigram keys combine two word keys.
inline uint64_t WordKey(const std::string& text, uint32_t begin, uint32_t end) {
  return ContentHash64(text.data() + begin, end - begin, /*seed=*/0x77);
}
inline uint64_t WordBigramKey(uint64_t a, uint64_t b) {
  const uint64_t h = SplitMix64(a ^ SplitMix64(b));
  return h == 0 ? 1 : h;
}

// Both scans hash every candidate key for one position up front, prefetch
// each key's probe line (HashDict::Prefetch), then resolve the lookups —
// the table misses of a position's candidates overlap instead of
// serializing. Keys are hashed exactly once either way.
template <typename Fn>
void ScanCharNgrams(const std::string& text, const HashDict& dict,
                    const NgramScanConfig& cfg, Fn&& fn) {
  const size_t len = text.size();
  uint64_t keys[16];  // Prefetch window; wider order ranges run in blocks.
  for (size_t begin = 0; begin < len; ++begin) {
    const size_t max_n = std::min<size_t>(cfg.max_n, len - begin);
    if (cfg.min_n > max_n) {
      continue;
    }
    for (size_t n0 = cfg.min_n; n0 <= max_n; n0 += 16) {
      const size_t orders = std::min<size_t>(max_n - n0 + 1, 16);
      for (size_t o = 0; o < orders; ++o) {
        keys[o] = CharNgramKey(text, begin, n0 + o);
        dict.Prefetch(keys[o]);
      }
      for (size_t o = 0; o < orders; ++o) {
        const int64_t id = dict.Find(keys[o]);
        if (id >= 0) {
          fn(static_cast<uint32_t>(id));
        }
      }
    }
  }
}

template <typename Fn>
void ScanWordNgrams(const std::string& text,
                    const std::vector<std::pair<uint32_t, uint32_t>>& spans,
                    const HashDict& dict, const NgramScanConfig& cfg, Fn&& fn) {
  uint64_t prev_key = 0;
  for (size_t t = 0; t < spans.size(); ++t) {
    const uint64_t key = WordKey(text, spans[t].first, spans[t].second);
    dict.Prefetch(key);
    const uint64_t bigram_key =
        cfg.word_orders >= 2 && t > 0 ? WordBigramKey(prev_key, key) : 0;
    if (bigram_key != 0) {
      dict.Prefetch(bigram_key);
    }
    int64_t id = dict.Find(key);
    if (id >= 0) {
      fn(static_cast<uint32_t>(id));
    }
    if (bigram_key != 0) {
      id = dict.Find(bigram_key);
      if (id >= 0) {
        fn(static_cast<uint32_t>(id));
      }
    }
    prev_key = key;
  }
}

// ---------------------------------------------------------------------------
// Dense kernels. Two backends share every signature: a portable scalar
// implementation (4x-unrolled independent accumulators, FMA-friendly and
// auto-vectorizable) and, when the binary is built with PRETZEL_AVX2, an
// AVX2+FMA implementation selected per process by runtime CPU detection.
// All backends agree with the scalar reference within 1e-5 (the golden-
// parity suite pins this).

enum class KernelBackend { kScalar, kAvx2 };

// The backend dense kernels dispatch to right now (CPU support AND the
// force-scalar override).
KernelBackend ActiveKernelBackend();
const char* KernelBackendName(KernelBackend backend);

// Testing/bench hook: pin dispatch to the portable scalar path (parity
// baselines, before/after sweeps). Returns the previous setting.
bool SetForceScalarKernels(bool force);

// Dot product over n floats.
float DotF32(const float* a, const float* b, size_t n);

// out[r] = sum_c matrix[r * in_dim + c] * in[c]; matrix is row-major.
void MatVec(const float* matrix, size_t out_dim, size_t in_dim, const float* in,
            float* out);

// out[k] = -||in - centroid_k||^2 (negated squared distance, so larger is
// closer — usable directly as a feature).
void KMeansTransform(const float* centroids, size_t k, size_t dim,
                     const float* in, float* out);

// Sparse dot product against a dense weight array; ids at or beyond w_dim
// contribute nothing. Double accumulation (matches the Linear stages).
// Dispatched: AVX2 builds use a masked-gather kernel on supporting CPUs.
double SparseDot(const uint32_t* ids, const float* vals, size_t nnz,
                 const float* weights, size_t w_dim);

namespace internal {
// Portable scalar backend, callable directly (parity references and the
// before/after bench sweep measure it against the dispatched entry points).
float DotF32Scalar(const float* a, const float* b, size_t n);
void MatVecScalar(const float* matrix, size_t out_dim, size_t in_dim,
                  const float* in, float* out);
void KMeansTransformScalar(const float* centroids, size_t k, size_t dim,
                           const float* in, float* out);
double SparseDotScalar(const uint32_t* ids, const float* vals, size_t nnz,
                       const float* weights, size_t w_dim);
#ifdef PRETZEL_HAVE_AVX2
// AVX2+FMA backend (separate TU compiled with -mavx2 -mfma; only ever
// called after runtime CPU detection).
float DotF32Avx2(const float* a, const float* b, size_t n);
void MatVecAvx2(const float* matrix, size_t out_dim, size_t in_dim,
                const float* in, float* out);
void KMeansTransformAvx2(const float* centroids, size_t k, size_t dim,
                         const float* in, float* out);
double SparseDotAvx2(const uint32_t* ids, const float* vals, size_t nnz,
                     const float* weights, size_t w_dim);
#endif  // PRETZEL_HAVE_AVX2
}  // namespace internal

float Sigmoid(float x);

// Parses "f0,f1,...,fn" into out; returns the number of parsed values.
size_t ParseDenseInput(std::string_view input, std::vector<float>* out);

// ---------------------------------------------------------------------------
// Decision forests. Flat node array; leaves have feature < 0.

struct TreeNode {
  int16_t feature = -1;  // < 0: leaf.
  float threshold = 0.0f;
  int32_t left = -1;   // Node index if feature >= 0.
  int32_t right = -1;
  float value = 0.0f;  // Leaf output.
};

struct Forest {
  std::vector<int32_t> roots;
  std::vector<TreeNode> nodes;
  size_t num_features = 0;

  float EvalTree(size_t tree, const float* features) const {
    int32_t n = roots[tree];
    while (nodes[n].feature >= 0) {
      n = features[nodes[n].feature] <= nodes[n].threshold ? nodes[n].left
                                                           : nodes[n].right;
    }
    return nodes[n].value;
  }

  float Eval(const float* features) const {
    float sum = 0.0f;
    for (size_t t = 0; t < roots.size(); ++t) {
      sum += EvalTree(t, features);
    }
    return sum;
  }
  float Eval(const std::vector<float>& features) const {
    return Eval(features.data());
  }

  size_t HeapBytes() const {
    return roots.capacity() * sizeof(int32_t) +
           nodes.capacity() * sizeof(TreeNode);
  }
};

// Full binary trees of the given depth with random split features/thresholds
// and N(0, 1) scaled leaf values.
Forest BuildRandomForest(size_t trees, size_t features, size_t depth, Rng& rng);

}  // namespace pretzel

#endif  // PRETZEL_OPS_KERNELS_H_
