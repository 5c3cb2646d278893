#include "ml/tree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace vpscope::ml {

namespace {

double gini_from_counts(const std::vector<int>& counts, int total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (int c : counts) {
    const double p = static_cast<double>(c) / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

/// One distinct row of a tree's sample: its label and how many times the
/// sample holds it (a bootstrap draws ~37% of rows more than once).
struct Sample {
  std::uint32_t row;
  std::uint32_t label;
  int weight;
};

/// Grows one CART tree over shared FeatureCodes by exact-bin split search.
/// A split's impurity depends only on the class counts on either side, and
/// those are the same whether the node's rows are sorted by value or
/// counted per distinct value, so scanning the present values in ascending
/// order with the sort-based rules (same Gini expression, same
/// `impurity + 1e-12 < best` tie rule, same candidate order, threshold
/// midway between adjacent present values) grows the same tree bit for bit.
/// Each node owns a range of one sample buffer, partitioned in place when
/// it splits; every other buffer is scratch reused across the tree's nodes.
class Grower {
 public:
  Grower(const FeatureCodes& codes, std::vector<Sample> samples,
         const TreeParams& params, int num_classes, Rng& rng,
         std::vector<DecisionTree::Node>& nodes,
         std::vector<double>& importances)
      : codes_(codes),
        params_(params),
        rng_(rng),
        nodes_(nodes),
        importances_(importances),
        features_(static_cast<std::size_t>(codes.features())),
        counts_(static_cast<std::size_t>(num_classes)),
        left_(counts_.size()),
        right_(counts_.size()),
        samples_(std::move(samples)) {}

  int grow_root() { return grow(0, samples_.size(), 0); }

 private:
  struct Split {
    int feature = -1;
    double threshold = 0.0;
    double impurity = 0.0;
  };

  int grow(std::size_t begin, std::size_t end, int depth) {
    const int node_index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_.back().depth = depth;

    std::fill(counts_.begin(), counts_.end(), 0);
    int n = 0;
    for (std::size_t i = begin; i < end; ++i) {
      counts_[samples_[i].label] += samples_[i].weight;
      n += samples_[i].weight;
    }
    const double node_gini = gini_from_counts(counts_, n);

    auto make_leaf = [&] {
      auto& proba = nodes_[static_cast<std::size_t>(node_index)].proba;
      proba.resize(counts_.size());
      for (std::size_t c = 0; c < counts_.size(); ++c)
        proba[c] = n ? static_cast<double>(counts_[c]) / n : 0.0;
      return node_index;
    };

    if (depth >= params_.max_depth || n < params_.min_samples_split ||
        node_gini == 0.0)
      return make_leaf();

    // Candidate feature sample (same draws as the sort-based trainer).
    std::iota(features_.begin(), features_.end(), 0);
    int n_candidates = codes_.features();
    if (params_.max_features > 0 && params_.max_features < n_candidates) {
      rng_.shuffle(features_);
      n_candidates = params_.max_features;
    }

    Split best{.impurity = node_gini};
    for (int fi = 0; fi < n_candidates; ++fi)
      search(features_[static_cast<std::size_t>(fi)], begin, end, n, best);
    if (best.feature < 0) return make_leaf();

    const auto column = codes_.column(best.feature);
    const auto& values = codes_.values(best.feature);
    const auto first = samples_.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = samples_.begin() + static_cast<std::ptrdiff_t>(end);
    const auto split = std::partition(first, last, [&](const Sample& s) {
      return values[column[s.row]] <= best.threshold;
    });
    const auto mid = static_cast<std::size_t>(split - samples_.begin());
    if (mid == begin || mid == end) return make_leaf();

    importances_[static_cast<std::size_t>(best.feature)] +=
        n * (node_gini - best.impurity);

    const int left = grow(begin, mid, depth + 1);
    const int right = grow(mid, end, depth + 1);
    auto& node = nodes_[static_cast<std::size_t>(node_index)];
    node.feature = best.feature;
    node.threshold = best.threshold;
    node.left = left;
    node.right = right;
    return node_index;
  }

  /// Scores every split of `feature` over the n-row node [begin, end) into
  /// `best`. Counts a [bin x class] table when the feature has no more
  /// distinct values than the node has distinct rows, else sorts the node's
  /// (code, label) keys, so a small node never pays for a wide column.
  void search(int feature, std::size_t begin, std::size_t end, int n,
              Split& best) {
    const auto column = codes_.column(feature);
    const auto& values = codes_.values(feature);
    const std::size_t bins = values.size();
    if (bins < 2) return;
    std::fill(left_.begin(), left_.end(), 0);
    right_ = counts_;
    int n_left = 0;

    // Split between adjacent present codes lo < hi: left_ holds every row
    // with code <= lo.
    auto consider = [&](std::size_t lo, std::size_t hi) {
      const int n_right = n - n_left;
      const double impurity =
          (n_left * gini_from_counts(left_, n_left) +
           n_right * gini_from_counts(right_, n_right)) /
          n;
      if (impurity + 1e-12 < best.impurity)
        best = {feature, (values[lo] + values[hi]) / 2.0, impurity};
    };
    auto take = [&](std::size_t label, int weight) {
      left_[label] += weight;
      right_[label] -= weight;
      n_left += weight;
    };

    const std::size_t classes = counts_.size();
    if (bins <= end - begin) {
      if (table_.size() < bins * classes) table_.resize(bins * classes);
      for (std::size_t i = begin; i < end; ++i) {
        const Sample sample = samples_[i];
        table_[column[sample.row] * classes + sample.label] += sample.weight;
      }
      // Walk the bins in ascending order, zeroing the table as it goes; no
      // bin past the last present one holds a row.
      std::size_t prev = bins;
      for (std::size_t b = 0; n_left < n; ++b) {
        int* bin = &table_[b * classes];
        int rows_in_bin = 0;
        for (std::size_t c = 0; c < classes; ++c) rows_in_bin += bin[c];
        if (rows_in_bin == 0) continue;
        if (prev != bins) consider(prev, b);
        for (std::size_t c = 0; c < classes; ++c) {
          take(c, bin[c]);
          bin[c] = 0;
        }
        prev = b;
      }
      return;
    }

    keys_.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const Sample sample = samples_[i];
      keys_.emplace_back(
          (std::uint64_t{column[sample.row]} << 32) | sample.label,
          sample.weight);
    }
    std::sort(keys_.begin(), keys_.end());
    for (std::size_t i = 0; i < keys_.size();) {
      const std::uint64_t code = keys_[i].first >> 32;
      if (i > 0) consider(keys_[i - 1].first >> 32, code);
      for (; i < keys_.size() && keys_[i].first >> 32 == code; ++i)
        take(static_cast<std::uint32_t>(keys_[i].first), keys_[i].second);
    }
  }

  const FeatureCodes& codes_;
  const TreeParams& params_;
  Rng& rng_;
  std::vector<DecisionTree::Node>& nodes_;
  std::vector<double>& importances_;

  std::vector<int> features_;
  std::vector<int> counts_, left_, right_;  // per class
  std::vector<int> table_;                  // [bin x class] counts
  // ((code << 32) | label, weight) for the sort path.
  std::vector<std::pair<std::uint64_t, int>> keys_;
  std::vector<Sample> samples_;  // the tree's sample; each node owns a range
};

}  // namespace

FeatureCodes::FeatureCodes(const Dataset& data) : rows_(data.size()) {
  if (rows_ == 0) throw std::invalid_argument("empty dataset");
  if (rows_ > static_cast<std::size_t>(std::numeric_limits<int>::max()))
    throw std::invalid_argument("dataset has more rows than an int indexes");
  if (data.y.size() != rows_)
    throw std::invalid_argument("dataset label count differs from row count");
  const std::size_t dim = data.dim();
  for (const auto& row : data.x) {
    if (row.size() != dim)
      throw std::invalid_argument("dataset rows differ in length");
    for (double v : row)
      if (std::isnan(v)) throw std::invalid_argument("NaN feature value");
  }
  for (int label : data.y)
    if (label < 0) throw std::invalid_argument("negative class label");

  codes_.resize(dim * rows_);
  values_.resize(dim);
  std::vector<double> sorted(rows_);
  for (std::size_t f = 0; f < dim; ++f) {
    for (std::size_t r = 0; r < rows_; ++r) sorted[r] = data.x[r][f];
    std::sort(sorted.begin(), sorted.end());
    auto& values = values_[f];
    values.assign(sorted.begin(), std::unique(sorted.begin(), sorted.end()));
    std::uint32_t* codes = codes_.data() + f * rows_;
    for (std::size_t r = 0; r < rows_; ++r)
      codes[r] = static_cast<std::uint32_t>(
          std::lower_bound(values.begin(), values.end(), data.x[r][f]) -
          values.begin());
  }
}

void DecisionTree::fit(const Dataset& data, const std::vector<int>& rows,
                       const TreeParams& params, int num_classes, Rng rng) {
  const FeatureCodes codes(data);
  fit(codes, data.y, rows, params, num_classes, rng);
}

void DecisionTree::fit(const FeatureCodes& codes,
                       const std::vector<int>& labels,
                       const std::vector<int>& rows, const TreeParams& params,
                       int num_classes, Rng rng) {
  if (labels.size() != codes.rows())
    throw std::invalid_argument("label count differs from row count");
  // Times each row is drawn; empty rows means every row once.
  std::vector<int> drawn(codes.rows(), rows.empty() ? 1 : 0);
  for (int r : rows) {
    if (r < 0 || static_cast<std::size_t>(r) >= codes.rows())
      throw std::invalid_argument("row index outside the dataset");
    ++drawn[static_cast<std::size_t>(r)];
  }
  std::vector<Sample> samples;
  for (std::size_t r = 0; r < drawn.size(); ++r) {
    if (drawn[r] == 0) continue;
    const int label = labels[r];
    if (label < 0 || label >= num_classes)
      throw std::invalid_argument("class label outside [0, num_classes)");
    samples.push_back({static_cast<std::uint32_t>(r),
                       static_cast<std::uint32_t>(label), drawn[r]});
  }

  nodes_.clear();
  num_features_ = codes.features();
  importances_.assign(static_cast<std::size_t>(num_features_), 0.0);
  Grower(codes, std::move(samples), params, num_classes, rng, nodes_,
         importances_)
      .grow_root();

  // Normalize importances.
  double total = 0.0;
  for (double v : importances_) total += v;
  if (total > 0)
    for (double& v : importances_) v /= total;
}

const DecisionTree::Node& DecisionTree::descend(
    const std::vector<double>& x) const {
  const Node* node = &nodes_.front();
  while (node->feature >= 0) {
    const double v = x[static_cast<std::size_t>(node->feature)];
    node = &nodes_[static_cast<std::size_t>(v <= node->threshold
                                                ? node->left
                                                : node->right)];
  }
  return *node;
}

int DecisionTree::predict(const std::vector<double>& x) const {
  const auto& proba = descend(x).proba;
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

const std::vector<double>& DecisionTree::predict_proba(
    const std::vector<double>& x) const {
  return descend(x).proba;
}

std::vector<double> DecisionTree::feature_importances() const {
  return importances_;
}

void DecisionTree::serialize(Writer& w) const {
  w.u32(static_cast<std::uint32_t>(num_features_));
  w.u32(static_cast<std::uint32_t>(nodes_.size()));
  for (const Node& node : nodes_) {
    w.u32(static_cast<std::uint32_t>(node.feature + 1));  // -1 -> 0
    w.u64(std::bit_cast<std::uint64_t>(node.threshold));
    w.u32(static_cast<std::uint32_t>(node.left + 1));
    w.u32(static_cast<std::uint32_t>(node.right + 1));
    w.u16(static_cast<std::uint16_t>(node.depth));
    w.u16(static_cast<std::uint16_t>(node.proba.size()));
    for (double p : node.proba) w.u64(std::bit_cast<std::uint64_t>(p));
  }
  w.u16(static_cast<std::uint16_t>(importances_.size()));
  for (double v : importances_) w.u64(std::bit_cast<std::uint64_t>(v));
}

std::optional<DecisionTree> DecisionTree::deserialize(Reader& r) {
  DecisionTree tree;
  tree.num_features_ = static_cast<int>(r.u32());
  const std::uint32_t node_count = r.u32();
  if (!r.ok() || node_count == 0 || node_count > 10'000'000)
    return std::nullopt;
  // Each serialized node occupies at least 24 bytes (feature + threshold +
  // children + depth + proba count); a declared count the input cannot
  // possibly back must not allocate node storage (fuzz: allocation bomb).
  if (node_count > r.remaining() / 24) return std::nullopt;
  tree.nodes_.resize(node_count);
  for (Node& node : tree.nodes_) {
    // Fields are stored +1 (0 = none). Subtract before narrowing: on the
    // int, 0x80000000 - 1 would overflow.
    node.feature = static_cast<int>(r.u32() - 1u);
    node.threshold = std::bit_cast<double>(r.u64());
    node.left = static_cast<int>(r.u32() - 1u);
    node.right = static_cast<int>(r.u32() - 1u);
    node.depth = r.u16();
    const std::uint16_t proba_size = r.u16();
    if (!r.ok() || proba_size > 4096 || proba_size > r.remaining() / 8)
      return std::nullopt;
    node.proba.resize(proba_size);
    for (double& p : node.proba) p = std::bit_cast<double>(r.u64());
    // Structural validation: child indices in range, features sane.
    if (node.feature >= tree.num_features_) return std::nullopt;
    if (node.feature >= 0 &&
        (node.left < 0 || node.right < 0 ||
         node.left >= static_cast<int>(node_count) ||
         node.right >= static_cast<int>(node_count)))
      return std::nullopt;
  }
  // Shape validation: in-degree <= 1 for every node and 0 for the root.
  // Range checks alone admit a child index pointing back at an ancestor;
  // anything walking such a "tree" (descend, CompiledForest's preorder
  // flatten) would loop forever (fuzz: allocation bomb from a single
  // flipped child-index byte).
  std::vector<std::uint8_t> in_degree(node_count, 0);
  for (const Node& node : tree.nodes_) {
    if (node.feature < 0) continue;
    if (++in_degree[static_cast<std::size_t>(node.left)] > 1 ||
        ++in_degree[static_cast<std::size_t>(node.right)] > 1)
      return std::nullopt;
  }
  if (in_degree[0] != 0) return std::nullopt;
  const std::uint16_t importance_size = r.u16();
  if (!r.ok() || importance_size > r.remaining() / 8) return std::nullopt;
  tree.importances_.resize(importance_size);
  for (double& v : tree.importances_) v = std::bit_cast<double>(r.u64());
  if (!r.ok()) return std::nullopt;
  return tree;
}

int DecisionTree::depth() const {
  int max_depth = 0;
  for (const auto& node : nodes_) max_depth = std::max(max_depth, node.depth);
  return max_depth;
}

}  // namespace vpscope::ml
