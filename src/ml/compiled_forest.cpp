#include "ml/compiled_forest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define VPSCOPE_X86 1
#else
#define VPSCOPE_X86 0
#endif

namespace vpscope::ml {

namespace {

CompiledForest::Simd resolve_simd(CompiledForest::Simd level) {
  if (level != CompiledForest::Simd::Auto) return level;
  static const CompiledForest::Simd best = [] {
    if (CompiledForest::simd_supported(CompiledForest::Simd::Avx2))
      return CompiledForest::Simd::Avx2;
    if (CompiledForest::simd_supported(CompiledForest::Simd::Sse2))
      return CompiledForest::Simd::Sse2;
    return CompiledForest::Simd::Scalar;
  }();
  return best;
}

/// (first argmax, max) of one probability row: the tie-breaking of
/// std::max_element, shared by the per-flow and batch predictors.
std::pair<int, double> first_max(const double* proba, std::size_t n_classes) {
  std::size_t best = 0;
  for (std::size_t c = 1; c < n_classes; ++c)
    if (proba[c] > proba[best]) best = c;
  return {static_cast<int>(best), proba[best]};
}

}  // namespace

bool CompiledForest::simd_supported(Simd level) {
  switch (level) {
    case Simd::Auto:
    case Simd::Scalar:
      return true;
    case Simd::Sse2:
#if VPSCOPE_X86
      return __builtin_cpu_supports("sse2") != 0;
#else
      return false;
#endif
    case Simd::Avx2:
#if VPSCOPE_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

CompiledForest CompiledForest::compile(const RandomForest& forest) {
  CompiledForest out;
  out.num_classes_ = forest.num_classes();
  const auto n_classes = static_cast<std::size_t>(out.num_classes_);

  std::size_t total_nodes = 0;
  for (const auto& tree : forest.trees()) total_nodes += tree.nodes().size();
  if (total_nodes > static_cast<std::size_t>(
                        std::numeric_limits<std::int32_t>::max()))
    throw std::invalid_argument("forest too large to compile");
  out.nodes_.reserve(total_nodes);
  out.roots_.reserve(forest.trees().size());
  out.sparse_begin_.push_back(0);

  // Each tree is emitted in PREORDER (left subtree immediately after its
  // parent), so an internal node's left child is always `cur + 1` and no
  // node stores a left index. The traversal order of any input row is
  // unchanged, so results are bit-identical to the source-order layout.
  std::vector<std::int32_t> order;   // preorder sequence of source indices
  std::vector<std::int32_t> remap;   // source index -> compiled offset
  std::vector<std::int32_t> stack;
  for (const auto& tree : forest.trees()) {
    const auto& src = tree.nodes();
    const auto base = static_cast<std::int32_t>(out.nodes_.size());
    out.roots_.push_back(base);

    order.clear();
    remap.assign(src.size(), -1);
    stack.assign(1, 0);  // root is node 0 in DecisionTree's layout
    while (!stack.empty()) {
      const std::int32_t at = stack.back();
      stack.pop_back();
      // A node revisited during the flatten means the source has a cycle
      // (DecisionTree::deserialize rejects those; a hand-built forest could
      // still carry one) — fail loudly instead of growing `order` forever.
      if (remap[static_cast<std::size_t>(at)] != -1)
        throw std::invalid_argument("cycle in decision tree");
      remap[static_cast<std::size_t>(at)] =
          base + static_cast<std::int32_t>(order.size());
      order.push_back(at);
      const auto& node = src[static_cast<std::size_t>(at)];
      if (node.feature >= 0) {
        stack.push_back(static_cast<std::int32_t>(node.right));
        stack.push_back(static_cast<std::int32_t>(node.left));  // next out
      }
    }

    for (const std::int32_t at : order) {
      const auto& node = src[static_cast<std::size_t>(at)];
      Node compiled;
      if (node.feature >= 0) {
        compiled.feature = static_cast<std::int32_t>(node.feature);
        compiled.threshold = node.threshold;
        compiled.right = remap[static_cast<std::size_t>(node.right)];
      } else {
        // RandomForest::predict_proba adds exactly num_classes entries per
        // leaf; any other width has no equivalent here (the model loader
        // rejects such files).
        if (node.proba.size() != n_classes)
          throw std::invalid_argument("leaf width differs from num_classes");
        compiled.right =
            static_cast<std::int32_t>(out.sparse_begin_.size() - 1);
        for (std::size_t c = 0; c < n_classes; ++c) {
          if (node.proba[c] == 0.0) continue;
          out.sparse_cls_.push_back(static_cast<std::int32_t>(c));
          out.sparse_val_.push_back(node.proba[c]);
        }
        out.sparse_begin_.push_back(
            static_cast<std::int32_t>(out.sparse_cls_.size()));
      }
      out.nodes_.push_back(compiled);
    }
  }
  out.build_bitmask_scorer();
  return out;
}

// Builds the QuickScorer planes (see the header). Walks each compiled tree
// recursively: leaves are numbered left-to-right (preorder with left-first
// emission makes encounter order = left-to-right), and every internal node
// records the 64-bit complement of its left subtree's leaf range together
// with its (feature, threshold, tree). The lists are then bucketed by
// feature and sorted by threshold so scoring walks a plain prefix.
void CompiledForest::build_bitmask_scorer() {
  qs_ok_ = !roots_.empty();
  if (!qs_ok_) return;

  struct Entry {
    std::int32_t feature;
    double threshold;
    std::int32_t tree;
    std::uint64_t mask;
  };
  std::vector<Entry> entries;
  entries.reserve(nodes_.size());
  qs_tree_full_.reserve(roots_.size());
  qs_leaf_base_.reserve(roots_.size());

  // (first leaf position, leaf count) of the subtree rooted at `at`.
  int n_leaves = 0;
  const auto walk = [&](auto&& self, std::int32_t at,
                        std::int32_t tree) -> std::pair<int, int> {
    const Node& node = nodes_[static_cast<std::size_t>(at)];
    if (node.feature < 0) {
      const int pos = n_leaves++;
      qs_leaf_id_.push_back(node.right);
      return {pos, 1};
    }
    const auto left = self(self, at + 1, tree);  // preorder: left is next
    const auto right = self(self, node.right, tree);
    // Past leaf 64 the forest falls back to the traversal (below) and the
    // shift would overflow, so no mask is built.
    if (left.first + left.second <= 64) {
      const std::uint64_t left_mask =
          left.second >= 64 ? ~0ull
                            : ((1ull << left.second) - 1)
                                  << static_cast<unsigned>(left.first);
      entries.push_back({node.feature, node.threshold, tree, ~left_mask});
    }
    return {left.first, left.second + right.second};
  };
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    qs_leaf_base_.push_back(static_cast<std::int32_t>(qs_leaf_id_.size()));
    n_leaves = 0;
    walk(walk, roots_[t], static_cast<std::int32_t>(t));
    if (n_leaves > 64) {
      // A tree this deep cannot be represented in one 64-bit leaf mask;
      // scoring falls back to the scalar traversal.
      qs_ok_ = false;
      qs_tree_full_.clear();
      qs_leaf_base_.clear();
      qs_leaf_id_.clear();
      return;
    }
    qs_tree_full_.push_back(n_leaves >= 64 ? ~0ull : (1ull << n_leaves) - 1);
  }

  std::int32_t max_feature = -1;
  for (const Entry& e : entries) max_feature = std::max(max_feature, e.feature);
  qs_f_begin_.assign(static_cast<std::size_t>(max_feature + 2), 0);
  for (const Entry& e : entries)
    ++qs_f_begin_[static_cast<std::size_t>(e.feature) + 1];
  for (std::size_t f = 1; f < qs_f_begin_.size(); ++f)
    qs_f_begin_[f] += qs_f_begin_[f - 1];
  std::vector<Entry> sorted(entries.size());
  {
    auto at = qs_f_begin_;
    for (const Entry& e : entries)
      sorted[static_cast<std::size_t>(at[static_cast<std::size_t>(e.feature)]++)] =
          e;
  }
  for (std::size_t f = 0; f + 1 < qs_f_begin_.size(); ++f)
    std::sort(sorted.begin() + qs_f_begin_[f],
              sorted.begin() + qs_f_begin_[f + 1],
              [](const Entry& a, const Entry& b) {
                return a.threshold < b.threshold;
              });
  qs_thresh_.reserve(sorted.size());
  qs_tree_.reserve(sorted.size());
  qs_mask_.reserve(sorted.size());
  for (const Entry& e : sorted) {
    qs_thresh_.push_back(e.threshold);
    qs_tree_.push_back(e.tree);
    qs_mask_.push_back(e.mask);
  }
}

void CompiledForest::add_leaf(std::int32_t leaf_id, double* row) const {
  const auto id = static_cast<std::size_t>(leaf_id);
  const std::int32_t end = sparse_begin_[id + 1];
  for (std::int32_t q = sparse_begin_[id]; q < end; ++q)
    row[static_cast<std::size_t>(sparse_cls_[static_cast<std::size_t>(q)])] +=
        sparse_val_[static_cast<std::size_t>(q)];
}

void CompiledForest::score(const double* matrix, std::size_t dim,
                           std::size_t rows, double* out, Simd level) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  std::fill_n(out, rows * n_classes, 0.0);
  if (rows == 0 || roots_.empty()) return;
  const Simd resolved = resolve_simd(level);
  if (!simd_supported(resolved))
    throw std::invalid_argument(
        "CompiledForest: forced SIMD level unsupported on this CPU");
  if (qs_ok_) {
    // One mask word per tree and vector lane, reused per thread so the
    // steady state allocates nothing.
    static thread_local std::vector<std::uint64_t> masks;
    masks.resize(roots_.size() * 4);
    switch (resolved) {
      case Simd::Avx2:
        qs_score_avx2(matrix, dim, rows, out, masks.data());
        break;
      case Simd::Sse2:
        qs_score_sse2(matrix, dim, rows, out, masks.data());
        break;
      default:
        qs_score_scalar(matrix, dim, rows, out, masks.data());
        break;
    }
  } else {
    traverse_scalar(matrix, dim, rows, out);
  }
  // Division (not multiply-by-reciprocal) keeps the rounding identical to
  // RandomForest::predict_proba — the equivalence guarantee is bit-exact.
  const auto n_trees = static_cast<double>(roots_.size());
  for (std::size_t i = 0; i < rows * n_classes; ++i) out[i] /= n_trees;
}

void CompiledForest::traverse_scalar(const double* matrix, std::size_t dim,
                                     std::size_t rows, double* out) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const Node* nodes = nodes_.data();
  for (const std::int32_t root : roots_) {
    for (std::size_t r = 0; r < rows; ++r) {
      const double* x = matrix + r * dim;
      const Node* node = nodes + root;
      // Exact `<=`, so a NaN feature goes right as in DecisionTree.
      while (node->feature >= 0)
        node = x[static_cast<std::size_t>(node->feature)] <= node->threshold
                   ? node + 1
                   : nodes + node->right;
      add_leaf(node->right, out + r * n_classes);
    }
  }
}

// ---------------------------------------------------------------------------
// Bitmask scorer kernels (see the header). Per row the work is: copy the
// per-tree all-ones masks, AND away left subtrees along each feature's
// threshold-sorted prefix, then take the lowest surviving bit per tree and
// accumulate that leaf's sparse distribution — in tree order, so the result
// is bit-identical to RandomForest::predict_proba. A NaN feature compares
// false against every threshold in a traversal (always goes right), which
// makes EVERY node on that feature a false node — substituting +inf
// reproduces exactly that (the whole prefix matches).
// ---------------------------------------------------------------------------

void CompiledForest::qs_score_scalar(const double* matrix, std::size_t dim,
                                     std::size_t rows, double* out,
                                     std::uint64_t* masks) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const std::size_t n_trees = roots_.size();
  const std::size_t n_features = std::min(dim, qs_f_begin_.size() - 1);
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(masks, qs_tree_full_.data(), n_trees * sizeof(std::uint64_t));
    const double* x = matrix + r * dim;
    for (std::size_t f = 0; f < n_features; ++f) {
      const std::int32_t b = qs_f_begin_[f];
      const std::int32_t e = qs_f_begin_[f + 1];
      if (b == e) continue;
      double v = x[f];
      if (std::isnan(v)) v = std::numeric_limits<double>::infinity();
      for (std::int32_t p = b;
           p < e && qs_thresh_[static_cast<std::size_t>(p)] < v; ++p)
        masks[static_cast<std::size_t>(qs_tree_[static_cast<std::size_t>(p)])] &=
            qs_mask_[static_cast<std::size_t>(p)];
    }
    double* row = out + r * n_classes;
    for (std::size_t t = 0; t < n_trees; ++t)
      add_leaf(qs_leaf_id_[static_cast<std::size_t>(
                   qs_leaf_base_[t] + std::countr_zero(masks[t]))],
               row);
  }
}

#if VPSCOPE_X86

// Vector variants score 2 (SSE2) / 4 (AVX2) rows per 64-bit lane. Rows walk
// the same sorted prefix together: a row whose prefix already ended blends
// an all-ones (no-op) mask, and the walk stops when no row still matches —
// valid because thresholds are sorted, so `x > threshold` is monotone
// non-increasing along the list. Leftover rows (and rows = 1, the per-flow
// call) go through the scalar kernel.

__attribute__((target("sse2"))) void CompiledForest::qs_score_sse2(
    const double* matrix, std::size_t dim, std::size_t rows, double* out,
    std::uint64_t* masks) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const std::size_t n_trees = roots_.size();
  const std::size_t n_features = std::min(dim, qs_f_begin_.size() - 1);
  const __m128i all1 = _mm_set1_epi64x(-1);
  std::size_t r0 = 0;
  for (; r0 + 2 <= rows; r0 += 2) {
    for (std::size_t t = 0; t < n_trees; ++t)
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(masks + 2 * t),
          _mm_set1_epi64x(static_cast<long long>(qs_tree_full_[t])));
    const double* x0 = matrix + r0 * dim;
    const double* x1 = x0 + dim;
    for (std::size_t f = 0; f < n_features; ++f) {
      const std::int32_t b = qs_f_begin_[f];
      const std::int32_t e = qs_f_begin_[f + 1];
      if (b == e) continue;
      double v0 = x0[f], v1 = x1[f];
      if (std::isnan(v0)) v0 = std::numeric_limits<double>::infinity();
      if (std::isnan(v1)) v1 = std::numeric_limits<double>::infinity();
      const __m128d v = _mm_set_pd(v1, v0);
      for (std::int32_t p = b; p < e; ++p) {
        const __m128d th =
            _mm_set1_pd(qs_thresh_[static_cast<std::size_t>(p)]);
        const __m128i gt = _mm_castpd_si128(_mm_cmpgt_pd(v, th));
        if (_mm_movemask_epi8(gt) == 0) break;
        const std::size_t t = static_cast<std::size_t>(
            qs_tree_[static_cast<std::size_t>(p)]);
        const __m128i m = _mm_set1_epi64x(
            static_cast<long long>(qs_mask_[static_cast<std::size_t>(p)]));
        // No SSE2 blendv: eff = (gt & mask) | (~gt & all-ones).
        const __m128i eff =
            _mm_or_si128(_mm_and_si128(gt, m), _mm_andnot_si128(gt, all1));
        __m128i* slot = reinterpret_cast<__m128i*>(masks + 2 * t);
        _mm_storeu_si128(slot, _mm_and_si128(_mm_loadu_si128(slot), eff));
      }
    }
    for (std::size_t i = 0; i < 2; ++i) {
      double* row = out + (r0 + i) * n_classes;
      for (std::size_t t = 0; t < n_trees; ++t)
        add_leaf(qs_leaf_id_[static_cast<std::size_t>(
                     qs_leaf_base_[t] + std::countr_zero(masks[2 * t + i]))],
                 row);
    }
  }
  if (r0 < rows)
    qs_score_scalar(matrix + r0 * dim, dim, rows - r0, out + r0 * n_classes,
                    masks);
}

__attribute__((target("avx2"))) void CompiledForest::qs_score_avx2(
    const double* matrix, std::size_t dim, std::size_t rows, double* out,
    std::uint64_t* masks) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const std::size_t n_trees = roots_.size();
  const std::size_t n_features = std::min(dim, qs_f_begin_.size() - 1);
  const __m256i all1 = _mm256_set1_epi64x(-1);
  std::size_t r0 = 0;
  for (; r0 + 4 <= rows; r0 += 4) {
    for (std::size_t t = 0; t < n_trees; ++t)
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(masks + 4 * t),
          _mm256_set1_epi64x(static_cast<long long>(qs_tree_full_[t])));
    const double* x0 = matrix + r0 * dim;
    for (std::size_t f = 0; f < n_features; ++f) {
      const std::int32_t b = qs_f_begin_[f];
      const std::int32_t e = qs_f_begin_[f + 1];
      if (b == e) continue;
      double v0 = x0[f], v1 = x0[dim + f], v2 = x0[2 * dim + f],
             v3 = x0[3 * dim + f];
      if (std::isnan(v0)) v0 = std::numeric_limits<double>::infinity();
      if (std::isnan(v1)) v1 = std::numeric_limits<double>::infinity();
      if (std::isnan(v2)) v2 = std::numeric_limits<double>::infinity();
      if (std::isnan(v3)) v3 = std::numeric_limits<double>::infinity();
      const __m256d v = _mm256_set_pd(v3, v2, v1, v0);
      for (std::int32_t p = b; p < e; ++p) {
        const __m256d th =
            _mm256_broadcast_sd(&qs_thresh_[static_cast<std::size_t>(p)]);
        const __m256i gt =
            _mm256_castpd_si256(_mm256_cmp_pd(v, th, _CMP_GT_OQ));
        if (_mm256_testz_si256(gt, gt)) break;
        const std::size_t t = static_cast<std::size_t>(
            qs_tree_[static_cast<std::size_t>(p)]);
        const __m256i m = _mm256_set1_epi64x(
            static_cast<long long>(qs_mask_[static_cast<std::size_t>(p)]));
        const __m256i eff = _mm256_blendv_epi8(all1, m, gt);
        __m256i* slot = reinterpret_cast<__m256i*>(masks + 4 * t);
        _mm256_storeu_si256(slot,
                            _mm256_and_si256(_mm256_loadu_si256(slot), eff));
      }
    }
    for (std::size_t i = 0; i < 4; ++i) {
      double* row = out + (r0 + i) * n_classes;
      for (std::size_t t = 0; t < n_trees; ++t)
        add_leaf(qs_leaf_id_[static_cast<std::size_t>(
                     qs_leaf_base_[t] + std::countr_zero(masks[4 * t + i]))],
                 row);
    }
  }
  if (r0 < rows)
    qs_score_scalar(matrix + r0 * dim, dim, rows - r0, out + r0 * n_classes,
                    masks);
}

#else  // !VPSCOPE_X86

void CompiledForest::qs_score_sse2(const double* matrix, std::size_t dim,
                                   std::size_t rows, double* out,
                                   std::uint64_t* masks) const {
  qs_score_scalar(matrix, dim, rows, out, masks);
}

void CompiledForest::qs_score_avx2(const double* matrix, std::size_t dim,
                                   std::size_t rows, double* out,
                                   std::uint64_t* masks) const {
  qs_score_scalar(matrix, dim, rows, out, masks);
}

#endif  // VPSCOPE_X86

void CompiledForest::predict_proba_into(std::span<const double> x,
                                        std::span<double> out) const {
  score(x.data(), x.size(), 1, out.data(), Simd::Auto);
}

int CompiledForest::predict(std::span<const double> x,
                            Scratch& scratch) const {
  return predict_with_confidence(x, scratch).first;
}

std::pair<int, double> CompiledForest::predict_with_confidence(
    std::span<const double> x, Scratch& scratch) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  scratch.proba.resize(n_classes);
  score(x.data(), x.size(), 1, scratch.proba.data(), Simd::Auto);
  return first_max(scratch.proba.data(), n_classes);
}

void CompiledForest::predict_proba_batch(std::span<const double> matrix,
                                         std::size_t dim,
                                         std::span<double> out,
                                         Simd level) const {
  if (dim == 0) throw std::invalid_argument("predict_proba_batch: dim == 0");
  const std::size_t rows = matrix.size() / dim;
  if (out.size() < rows * static_cast<std::size_t>(num_classes_))
    throw std::invalid_argument("predict_proba_batch: out too small");
  score(matrix.data(), dim, rows, out.data(), level);
}

void CompiledForest::predict_with_confidence_batch(
    std::span<const double> matrix, std::size_t dim, std::span<int> labels,
    std::span<double> confidences, Scratch& scratch, Simd level) const {
  if (dim == 0)
    throw std::invalid_argument("predict_with_confidence_batch: dim == 0");
  const std::size_t rows = matrix.size() / dim;
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  scratch.proba.resize(rows * n_classes);
  score(matrix.data(), dim, rows, scratch.proba.data(), level);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto [label, conf] =
        first_max(scratch.proba.data() + r * n_classes, n_classes);
    if (r < labels.size()) labels[r] = label;
    if (r < confidences.size()) confidences[r] = conf;
  }
}

void CompiledForest::predict_batch(std::span<const double> matrix,
                                   std::size_t dim, std::span<int> out,
                                   Scratch& scratch, Simd level) const {
  if (dim == 0) throw std::invalid_argument("predict_batch: dim == 0");
  const std::size_t rows = std::min(matrix.size() / dim, out.size());
  predict_with_confidence_batch(matrix.first(rows * dim), dim, out, {},
                                scratch, level);
}

std::vector<int> CompiledForest::predict_batch(const Dataset& data) const {
  std::vector<int> out(data.size(), 0);
  if (data.x.empty()) return out;
  // Flatten into the contiguous row-major layout the kernel wants; the copy
  // is trivially amortized by the scoring work.
  const std::size_t dim = data.x.front().size();
  std::vector<double> matrix;
  matrix.reserve(data.size() * dim);
  for (const auto& row : data.x)
    matrix.insert(matrix.end(), row.begin(), row.end());
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  std::vector<double> proba(data.size() * n_classes);
  score(matrix.data(), dim, data.size(), proba.data(), Simd::Auto);
  for (std::size_t r = 0; r < data.size(); ++r)
    out[r] = first_max(proba.data() + r * n_classes, n_classes).first;
  return out;
}

}  // namespace vpscope::ml
