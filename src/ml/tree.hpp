// CART decision tree (Gini impurity, axis-aligned threshold splits) — the
// base learner of the random forest the paper selects for deployment.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace vpscope::ml {

struct TreeParams {
  int max_depth = 20;
  int min_samples_split = 2;
  /// Features evaluated per split: <= 0 means "all features";
  /// the forest passes ~sqrt(dim).
  int max_features = 0;
};

/// A training set's feature columns, each sorted once: its ascending
/// distinct values, and per row the index ("code") of the row's value among
/// them. Split search counts a node's codes per class instead of sorting its
/// values; a forest builds one FeatureCodes per fit and shares it read-only
/// across its trees.
class FeatureCodes {
 public:
  /// Validates `data` and encodes every column. Throws std::invalid_argument
  /// on an empty set, ragged rows, a label count that differs from the row
  /// count, a negative label or a NaN feature.
  explicit FeatureCodes(const Dataset& data);

  std::size_t rows() const { return rows_; }
  int features() const { return static_cast<int>(values_.size()); }
  /// Code of every row for `feature`, indexed by row.
  std::span<const std::uint32_t> column(int feature) const {
    return {codes_.data() + static_cast<std::size_t>(feature) * rows_, rows_};
  }
  /// Ascending distinct values of `feature`, indexed by code.
  const std::vector<double>& values(int feature) const {
    return values_[static_cast<std::size_t>(feature)];
  }

 private:
  std::size_t rows_ = 0;
  std::vector<std::uint32_t> codes_;         // column-major [feature][row]
  std::vector<std::vector<double>> values_;  // [feature][code]
};

class DecisionTree {
 public:
  /// Trains on `data` restricted to `rows` (empty rows = all). Class count
  /// is taken from `num_classes` so probability vectors are consistent
  /// across trees trained on bootstrap samples. Throws
  /// std::invalid_argument on an invalid set (see FeatureCodes), a row
  /// index outside it or a label >= num_classes.
  void fit(const Dataset& data, const std::vector<int>& rows,
           const TreeParams& params, int num_classes, Rng rng);
  /// The same fit on codes built once for `labels`' training set.
  void fit(const FeatureCodes& codes, const std::vector<int>& labels,
           const std::vector<int>& rows, const TreeParams& params,
           int num_classes, Rng rng);

  int predict(const std::vector<double>& x) const;
  /// Leaf class distribution (training-sample fractions). Returns a
  /// reference to the leaf's stored distribution — no per-call copy; the
  /// reference is valid while the tree lives and is not refit.
  const std::vector<double>& predict_proba(const std::vector<double>& x) const;

  /// Gini importance per feature (impurity decrease weighted by samples),
  /// normalized to sum to 1 (or all-zero for a stump).
  std::vector<double> feature_importances() const;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  int depth() const;

  /// Appends this tree's structure to `w` (used by ml::serialize_forest).
  void serialize(Writer& w) const;
  /// Reads a tree previously written by serialize(); fails the reader on
  /// malformed input.
  static std::optional<DecisionTree> deserialize(Reader& r);

  struct Node {
    int feature = -1;       // -1 => leaf
    double threshold = 0;   // go left if x[feature] <= threshold
    int left = -1, right = -1;
    int depth = 0;
    std::vector<double> proba;  // filled for leaves
  };

  /// Read-only view of the trained structure (CompiledForest compilation).
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  const Node& descend(const std::vector<double>& x) const;

  std::vector<Node> nodes_;
  int num_features_ = 0;
  std::vector<double> importances_;
};

}  // namespace vpscope::ml
