// The environment stamp every result carries: core counts, compiler and
// build type, CPU model and the forest SIMD path the scorer selects.
#pragma once

#include <string>

namespace perfbench {

struct Environment {
  int nproc = 0;           // online CPUs
  int affinity = 0;        // CPUs this process may run on
  std::string compiler;
  std::string build_type;
  std::string cpu_model;
  std::string forest_simd; // highest CompiledForest::Simd level supported
};

Environment probe_environment();
/// One-line JSON object.
std::string to_json(const Environment& env);

}  // namespace perfbench
