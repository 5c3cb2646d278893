// Post-training compilation of a RandomForest into a flat, cache-friendly
// layout for the pipeline's hot path. Every forest is scored by ONE kernel
// family, per flow and per batch alike: the leaf-bitmask scorer below. A
// forest with a tree of more than 64 leaves (possible through an admitted
// model file, not through the shipped hyperparameters) falls back to one
// scalar traversal over a contiguous preorder node array.
//
// The compiled form is inference-only and probability-equivalent to the
// source forest: both paths accumulate the same leaf distributions in the
// same tree order and divide by the same tree count, so the output is
// bit-identical to RandomForest::predict_proba, which stays the reference.
// Scoring performs zero heap allocations per call in steady state, which is
// what lets ClassifierBank::classify run on many shard workers without
// contending on the allocator.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/forest.hpp"

namespace vpscope::ml {

class CompiledForest {
 public:
  /// Reusable per-caller probability staging (rows x num_classes), so the
  /// predict calls stay allocation-free in steady state; one per thread,
  /// never shared.
  struct Scratch {
    std::vector<double> proba;
  };

  /// Instruction-set level for the bitmask scorer. `Auto` probes the CPU at
  /// call time (one cached check); the explicit levels exist so equivalence
  /// tests can force every code path on one machine. All levels are
  /// bit-identical — the scorer only compares doubles (exact in any width)
  /// and the accumulation order never changes.
  enum class Simd : std::uint8_t { Auto, Scalar, Sse2, Avx2 };
  /// Whether `level` can run on this CPU (Scalar/Auto: always).
  static bool simd_supported(Simd level);

  CompiledForest() = default;

  /// Lowers a trained forest. Throws std::invalid_argument if a leaf's
  /// distribution is not exactly num_classes wide. The source forest is not
  /// referenced after compile returns.
  static CompiledForest compile(const RandomForest& forest);

  /// Mean leaf distribution across trees, written into `out`
  /// (`out.size() == num_classes()`): the batch kernel at rows = 1.
  /// Bit-identical to RandomForest::predict_proba and allocation-free.
  void predict_proba_into(std::span<const double> x,
                          std::span<double> out) const;

  int predict(std::span<const double> x, Scratch& scratch) const;
  /// (argmax, max probability) — the pipeline's confidence pair.
  std::pair<int, double> predict_with_confidence(std::span<const double> x,
                                                 Scratch& scratch) const;

  /// Cross-flow batch inference over a contiguous row-major feature matrix
  /// of `rows = matrix.size() / dim` flows. `out` receives rows x
  /// num_classes probabilities, bit-identical per row to
  /// RandomForest::predict_proba on that row, at every Simd level.
  void predict_proba_batch(std::span<const double> matrix, std::size_t dim,
                           std::span<double> out,
                           Simd level = Simd::Auto) const;

  /// (argmax, max probability) per row — the batched confidence pair; same
  /// tie-breaking (first maximum) as predict_with_confidence.
  void predict_with_confidence_batch(std::span<const double> matrix,
                                     std::size_t dim, std::span<int> labels,
                                     std::span<double> confidences,
                                     Scratch& scratch,
                                     Simd level = Simd::Auto) const;

  /// Batch prediction over a contiguous row-major feature matrix of
  /// `matrix.size() / dim` rows; `out` receives one label per row.
  void predict_batch(std::span<const double> matrix, std::size_t dim,
                     std::span<int> out, Scratch& scratch,
                     Simd level = Simd::Auto) const;
  /// Convenience over the (non-contiguous) Dataset container.
  std::vector<int> predict_batch(const Dataset& data) const;

  bool trained() const { return !roots_.empty(); }
  /// Whether the forest scores via leaf bitmasks (every tree has <= 64
  /// leaves) or falls back to the scalar traversal. Exposed so tests can
  /// pin coverage of both paths.
  bool uses_bitmask_scorer() const { return qs_ok_; }
  int num_classes() const { return num_classes_; }
  int tree_count() const { return static_cast<int>(roots_.size()); }
  std::size_t node_count() const { return nodes_.size(); }

 private:
  /// One lowered tree node. Internal nodes (`feature >= 0`) hold the
  /// absolute offset of their right child; the left child is always the
  /// next node (preorder emission). Leaves (`feature < 0`) hold their leaf
  /// id in `right`.
  struct Node {
    double threshold = 0.0;        // go left if x[feature] <= threshold
    std::int32_t feature = -1;     // -1 => leaf
    std::int32_t right = -1;       // right child offset, or leaf id
  };

  /// The one scoring entry: rows x num_classes mean leaf distributions into
  /// `out`, for per-flow (rows = 1) and batch callers alike. `dim` may be 0
  /// (a leaf-only forest reads no feature).
  void score(const double* matrix, std::size_t dim, std::size_t rows,
             double* out, Simd level) const;

  /// Fallback for forests with a tree too deep for one 64-bit leaf mask:
  /// tree-outer, so each tree's nodes stay cache-hot across the rows; per
  /// row the accumulation order is exactly tree order. Writes UN-divided
  /// sums.
  void traverse_scalar(const double* matrix, std::size_t dim,
                       std::size_t rows, double* out) const;

  /// Bitmask scorer (the QuickScorer scheme of Lucchese et al., SIGIR'15),
  /// used whenever every tree has <= 64 leaves: per tree a 64-bit mask of
  /// surviving leaves starts all-ones, every FALSE node (x[feature] >
  /// threshold) ANDs away its left subtree, and the reached leaf is the
  /// lowest surviving bit. Because a feature's false nodes are exactly a
  /// prefix of its threshold-sorted node list, scoring is a
  /// branch-predictable streaming walk with no dependent-load chain at all.
  /// The SSE2/AVX2 variants score 2/4 rows per vector lane; all three
  /// accumulate the same leaf distributions in tree order, so results stay
  /// bit-identical across levels. Kernels write UN-divided sums; `masks`
  /// holds n_trees x 4 words.
  void build_bitmask_scorer();
  void qs_score_scalar(const double* matrix, std::size_t dim,
                       std::size_t rows, double* out,
                       std::uint64_t* masks) const;
  void qs_score_sse2(const double* matrix, std::size_t dim, std::size_t rows,
                     double* out, std::uint64_t* masks) const;
  void qs_score_avx2(const double* matrix, std::size_t dim, std::size_t rows,
                     double* out, std::uint64_t* masks) const;
  /// Adds leaf `leaf_id`'s distribution into `row`.
  void add_leaf(std::int32_t leaf_id, double* row) const;

  // Nodes are emitted in PREORDER per tree: an internal node's left child
  // is always at `cur + 1`, so the traversal never loads a left index.
  std::vector<Node> nodes_;          // all trees, concatenated
  std::vector<std::int32_t> roots_;  // per-tree root offset into nodes_

  // Bitmask-scorer planes (valid when qs_ok_). Internal nodes are bucketed
  // by feature and sorted by threshold, so a row's false nodes per feature
  // are the prefix with threshold < x.
  bool qs_ok_ = false;
  std::vector<std::int32_t> qs_f_begin_;  // per feature, +1 sentinel
  std::vector<double> qs_thresh_;         // sorted within each feature
  std::vector<std::int32_t> qs_tree_;
  std::vector<std::uint64_t> qs_mask_;    // ~(left-subtree leaves)
  std::vector<std::uint64_t> qs_tree_full_;  // per tree: low n_leaves bits
  std::vector<std::int32_t> qs_leaf_base_;   // per tree, into qs_leaf_id_
  std::vector<std::int32_t> qs_leaf_id_;     // leaf position -> leaf id

  // Leaf distributions, sparse: leaves are near-pure (about 1.1 nonzero
  // classes each), and skipping a zero addend is bit-exact because the
  // accumulators are never -0.0 (they start at +0.0, and adding +-0.0 to
  // +0.0 gives +0.0).
  std::vector<std::int32_t> sparse_begin_;  // per leaf id, +1 sentinel
  std::vector<std::int32_t> sparse_cls_;
  std::vector<double> sparse_val_;
  int num_classes_ = 0;
};

}  // namespace vpscope::ml
