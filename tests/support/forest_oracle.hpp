// Reference random-forest trainer for differential tests: the sort-based
// CART split search (every node gathers and std::sorts (value, label) pairs
// per candidate feature), with the same bagging, feature sampling, tie rule
// and serialization layout as ml::RandomForest. Slow and obviously correct;
// the shipped exact-bin trainer in src/ml is checked against it byte for
// byte. Not linked into any library.
#pragma once

#include <vector>

#include "ml/dataset.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace vpscope::ml::oracle {

/// One tree grown as DecisionTree::fit grows it, written in the layout of
/// DecisionTree::serialize.
void write_tree(Writer& w, const Dataset& data, const std::vector<int>& rows,
                const TreeParams& params, int num_classes, Rng rng);

/// The forest RandomForest::fit grows from `data`, serialized as
/// serialize_forest writes it (format v1).
Bytes fit_forest_bytes(const Dataset& data, const ForestParams& params);

/// fit_forest_bytes, loaded back as a forest.
RandomForest fit_forest(const Dataset& data, const ForestParams& params);

}  // namespace vpscope::ml::oracle
