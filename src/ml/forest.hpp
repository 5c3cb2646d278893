// Random forest (bagging + per-split feature subsampling over CART trees) —
// the classifier the paper deploys, with predict_proba providing the
// confidence scores its 80%-threshold pipeline logic needs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ml/tree.hpp"
#include "util/bytes.hpp"

namespace vpscope::ml {

class RandomForest;

/// Serialization internals (ml/serialize.cpp): the shared v1 forest body
/// encoding that both the forest-only and bundle formats embed.
namespace detail {
void write_forest_body(Writer& w, const RandomForest& forest);
std::optional<RandomForest> read_forest_body(Reader& r);
}  // namespace detail

struct ForestParams {
  int n_trees = 60;
  int max_depth = 20;
  int min_samples_split = 2;
  /// Features per split; <= 0 selects round(sqrt(dim)).
  int max_features = 0;
  bool bootstrap = true;
  std::uint64_t seed = 1;
};

class RandomForest {
 public:
  /// Throws std::invalid_argument, before any training, on n_trees <= 0 or
  /// an invalid training set (see FeatureCodes).
  void fit(const Dataset& data, const ForestParams& params);

  int predict(const std::vector<double>& x) const;
  /// Mean leaf distribution across trees; its max is the classifier
  /// confidence used by the pipeline.
  std::vector<double> predict_proba(const std::vector<double>& x) const;
  /// Convenience: (argmax, max probability).
  std::pair<int, double> predict_with_confidence(
      const std::vector<double>& x) const;

  std::vector<int> predict_batch(const Dataset& data) const;

  /// Mean normalized Gini importance across trees.
  std::vector<double> feature_importances() const;

  int num_classes() const { return num_classes_; }
  bool trained() const { return !trees_.empty(); }
  int tree_count() const { return static_cast<int>(trees_.size()); }

  /// Read-only tree access (CompiledForest compilation, diagnostics).
  const std::vector<DecisionTree>& trees() const { return trees_; }

 private:
  friend Bytes serialize_forest(const RandomForest&);
  friend std::optional<RandomForest> deserialize_forest(ByteView);
  friend void detail::write_forest_body(Writer&, const RandomForest&);
  friend std::optional<RandomForest> detail::read_forest_body(Reader&);

  std::vector<DecisionTree> trees_;
  int num_classes_ = 0;
};

/// See ml/serialize.hpp.
Bytes serialize_forest(const RandomForest& forest);
std::optional<RandomForest> deserialize_forest(ByteView data);

}  // namespace vpscope::ml
