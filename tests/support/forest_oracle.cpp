#include "support/forest_oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "ml/serialize.hpp"

namespace vpscope::ml::oracle {

namespace {

struct Node {
  int feature = -1;
  double threshold = 0;
  int left = -1, right = -1;
  int depth = 0;
  std::vector<double> proba;
};

double gini_from_counts(const std::vector<int>& counts, int total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (int c : counts) {
    const double p = static_cast<double>(c) / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

struct SortTree {
  const Dataset& data;
  const TreeParams& params;
  int num_classes;
  Rng& rng;
  int num_features;
  std::vector<Node> nodes;
  std::vector<double> importances;

  int build(std::vector<int>& rows, int depth) {
    const int node_index = static_cast<int>(nodes.size());
    nodes.emplace_back();
    nodes.back().depth = depth;

    std::vector<int> counts(static_cast<std::size_t>(num_classes), 0);
    for (int r : rows) counts[static_cast<std::size_t>(data.y[static_cast<std::size_t>(r)])]++;
    const int n = static_cast<int>(rows.size());
    const double node_gini = gini_from_counts(counts, n);

    auto make_leaf = [&] {
      Node& node = nodes[static_cast<std::size_t>(node_index)];
      node.proba.resize(static_cast<std::size_t>(num_classes));
      for (int c = 0; c < num_classes; ++c)
        node.proba[static_cast<std::size_t>(c)] =
            n ? static_cast<double>(counts[static_cast<std::size_t>(c)]) / n
              : 0.0;
      return node_index;
    };

    if (depth >= params.max_depth || n < params.min_samples_split ||
        node_gini == 0.0)
      return make_leaf();

    std::vector<int> features(static_cast<std::size_t>(num_features));
    std::iota(features.begin(), features.end(), 0);
    int n_candidates = num_features;
    if (params.max_features > 0 && params.max_features < num_features) {
      rng.shuffle(features);
      n_candidates = params.max_features;
    }

    int best_feature = -1;
    double best_threshold = 0.0;
    double best_impurity = node_gini;
    std::vector<std::pair<double, int>> sorted;  // (value, label)
    sorted.reserve(rows.size());

    for (int fi = 0; fi < n_candidates; ++fi) {
      const int feature = features[static_cast<std::size_t>(fi)];
      sorted.clear();
      for (int r : rows)
        sorted.emplace_back(
            data.x[static_cast<std::size_t>(r)][static_cast<std::size_t>(feature)],
            data.y[static_cast<std::size_t>(r)]);
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front().first == sorted.back().first) continue;

      std::vector<int> left_counts(static_cast<std::size_t>(num_classes), 0);
      std::vector<int> right_counts = counts;
      int n_left = 0;
      for (int i = 0; i + 1 < n; ++i) {
        const int label = sorted[static_cast<std::size_t>(i)].second;
        left_counts[static_cast<std::size_t>(label)]++;
        right_counts[static_cast<std::size_t>(label)]--;
        ++n_left;
        if (sorted[static_cast<std::size_t>(i)].first ==
            sorted[static_cast<std::size_t>(i + 1)].first)
          continue;
        const int n_right = n - n_left;
        const double impurity =
            (n_left * gini_from_counts(left_counts, n_left) +
             n_right * gini_from_counts(right_counts, n_right)) /
            n;
        if (impurity + 1e-12 < best_impurity) {
          best_impurity = impurity;
          best_feature = feature;
          best_threshold = (sorted[static_cast<std::size_t>(i)].first +
                            sorted[static_cast<std::size_t>(i + 1)].first) /
                           2.0;
        }
      }
    }

    if (best_feature < 0) return make_leaf();

    std::vector<int> left_rows, right_rows;
    for (int r : rows) {
      const double v = data.x[static_cast<std::size_t>(r)]
                             [static_cast<std::size_t>(best_feature)];
      (v <= best_threshold ? left_rows : right_rows).push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) return make_leaf();

    importances[static_cast<std::size_t>(best_feature)] +=
        n * (node_gini - best_impurity);

    const int left = build(left_rows, depth + 1);
    const int right = build(right_rows, depth + 1);
    Node& node = nodes[static_cast<std::size_t>(node_index)];
    node.feature = best_feature;
    node.threshold = best_threshold;
    node.left = left;
    node.right = right;
    return node_index;
  }
};

}  // namespace

void write_tree(Writer& w, const Dataset& data, const std::vector<int>& rows,
                const TreeParams& params, int num_classes, Rng rng) {
  if (data.size() == 0) throw std::invalid_argument("empty dataset");
  SortTree tree{data, params, num_classes, rng,
                static_cast<int>(data.dim()), {}, {}};
  tree.importances.assign(data.dim(), 0.0);
  std::vector<int> all_rows = rows;
  if (all_rows.empty()) {
    all_rows.resize(data.size());
    std::iota(all_rows.begin(), all_rows.end(), 0);
  }
  tree.build(all_rows, 0);
  double total = 0.0;
  for (double v : tree.importances) total += v;
  if (total > 0)
    for (double& v : tree.importances) v /= total;

  w.u32(static_cast<std::uint32_t>(tree.num_features));
  w.u32(static_cast<std::uint32_t>(tree.nodes.size()));
  for (const Node& node : tree.nodes) {
    w.u32(static_cast<std::uint32_t>(node.feature + 1));
    w.u64(std::bit_cast<std::uint64_t>(node.threshold));
    w.u32(static_cast<std::uint32_t>(node.left + 1));
    w.u32(static_cast<std::uint32_t>(node.right + 1));
    w.u16(static_cast<std::uint16_t>(node.depth));
    w.u16(static_cast<std::uint16_t>(node.proba.size()));
    for (double p : node.proba) w.u64(std::bit_cast<std::uint64_t>(p));
  }
  w.u16(static_cast<std::uint16_t>(tree.importances.size()));
  for (double v : tree.importances) w.u64(std::bit_cast<std::uint64_t>(v));
}

Bytes fit_forest_bytes(const Dataset& data, const ForestParams& params) {
  if (data.size() == 0) throw std::invalid_argument("empty dataset");
  const int num_classes = data.num_classes();
  TreeParams tree_params;
  tree_params.max_depth = params.max_depth;
  tree_params.min_samples_split = params.min_samples_split;
  tree_params.max_features =
      params.max_features > 0
          ? params.max_features
          : std::max(1, static_cast<int>(
                            std::lround(std::sqrt(static_cast<double>(
                                data.dim())))));

  Writer w;
  w.u32(0x56505346);  // "VPSF"
  w.u16(1);           // forest-only format
  w.u32(static_cast<std::uint32_t>(num_classes));
  w.u32(static_cast<std::uint32_t>(params.n_trees));
  Rng rng(params.seed);
  for (int t = 0; t < params.n_trees; ++t) {
    std::vector<int> rows;
    if (params.bootstrap) {
      rows.resize(data.size());
      for (auto& r : rows)
        r = static_cast<int>(rng.uniform(0, data.size() - 1));
    }
    write_tree(w, data, rows, tree_params, num_classes, rng.fork());
  }
  return std::move(w).take();
}

RandomForest fit_forest(const Dataset& data, const ForestParams& params) {
  auto forest = deserialize_forest(fit_forest_bytes(data, params));
  if (!forest) throw std::logic_error("oracle forest failed to load");
  return std::move(*forest);
}

}  // namespace vpscope::ml::oracle
