#include "minmach/util/simd.hpp"

namespace minmach::util::simd {

namespace {

bool detect_cpu_avx2() {
#if MINMACH_SIMD_COMPILE_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace

bool supported() {
  static const bool cached = detect_cpu_avx2();
  return cached;
}

}  // namespace minmach::util::simd
