#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vpscope::ml {

void RandomForest::fit(const Dataset& data, const ForestParams& params) {
  if (params.n_trees <= 0)
    throw std::invalid_argument("a forest needs at least one tree");
  // Every column sorted once, shared read-only by all trees and freed on
  // return: a fitted forest keeps nothing of its training set.
  const FeatureCodes codes(data);
  trees_.clear();
  num_classes_ = data.num_classes();

  TreeParams tree_params;
  tree_params.max_depth = params.max_depth;
  tree_params.min_samples_split = params.min_samples_split;
  tree_params.max_features =
      params.max_features > 0
          ? params.max_features
          : std::max(1, static_cast<int>(
                            std::lround(std::sqrt(static_cast<double>(
                                data.dim())))));

  Rng rng(params.seed);
  trees_.resize(static_cast<std::size_t>(params.n_trees));
  for (auto& tree : trees_) {
    std::vector<int> rows;
    if (params.bootstrap) {
      rows.resize(data.size());
      for (auto& r : rows)
        r = static_cast<int>(rng.uniform(0, data.size() - 1));
    }
    tree.fit(codes, data.y, rows, tree_params, num_classes_, rng.fork());
  }
}

std::vector<double> RandomForest::predict_proba(
    const std::vector<double>& x) const {
  std::vector<double> proba(static_cast<std::size_t>(num_classes_), 0.0);
  for (const auto& tree : trees_) {
    const auto& p = tree.predict_proba(x);
    for (std::size_t c = 0; c < proba.size(); ++c) proba[c] += p[c];
  }
  if (!trees_.empty())
    for (double& v : proba) v /= static_cast<double>(trees_.size());
  return proba;
}

int RandomForest::predict(const std::vector<double>& x) const {
  const auto proba = predict_proba(x);
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

std::pair<int, double> RandomForest::predict_with_confidence(
    const std::vector<double>& x) const {
  const auto proba = predict_proba(x);
  const auto it = std::max_element(proba.begin(), proba.end());
  return {static_cast<int>(it - proba.begin()), *it};
}

std::vector<int> RandomForest::predict_batch(const Dataset& data) const {
  std::vector<int> out;
  out.reserve(data.size());
  for (const auto& row : data.x) out.push_back(predict(row));
  return out;
}

std::vector<double> RandomForest::feature_importances() const {
  if (trees_.empty()) return {};
  std::vector<double> sum = trees_.front().feature_importances();
  for (std::size_t t = 1; t < trees_.size(); ++t) {
    const auto imp = trees_[t].feature_importances();
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += imp[i];
  }
  for (double& v : sum) v /= static_cast<double>(trees_.size());
  return sum;
}

}  // namespace vpscope::ml
