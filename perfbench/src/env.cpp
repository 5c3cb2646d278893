#include "env.hpp"

#include <sched.h>
#include <unistd.h>

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "ml/compiled_forest.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

Environment probe_environment() {
  using vpscope::ml::CompiledForest;
  Environment env;
  env.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  env.affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
#if defined(__clang__)
  env.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  env.compiler = "gcc " __VERSION__;
#else
  env.compiler = "unknown";
#endif
  env.build_type = PERFBENCH_BUILD_TYPE;
  env.cpu_model = cpu_brand();
  env.forest_simd =
      CompiledForest::simd_supported(CompiledForest::Simd::Avx2)   ? "avx2"
      : CompiledForest::simd_supported(CompiledForest::Simd::Sse2) ? "sse2"
                                                                   : "scalar";
  return env;
}

std::string to_json(const Environment& env) {
  JsonObject o;
  o.add("nproc", env.nproc);
  o.add("affinity", env.affinity);
  o.add("compiler", env.compiler);
  o.add("build_type", env.build_type);
  o.add("cpu_model", env.cpu_model);
  o.add("forest_simd", env.forest_simd);
  return o.str();
}

}  // namespace perfbench
