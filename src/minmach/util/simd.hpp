// SIMD dispatch (DESIGN.md §12): one gate, the build plus the CPU.
//
// Two build flavours, selected at CMake configure time via MINMACH_SIMD:
//
//  * auto / avx2: the AVX2 kernels are compiled into a dedicated
//    translation unit (core/load_sweep_avx2.cpp) built with -mavx2;
//    everything else is built with the portable baseline flags, so a binary
//    containing the kernels still RUNS on a non-AVX2 CPU -- the vector code
//    is only entered after __builtin_cpu_supports("avx2") says yes.
//  * scalar: the AVX2 translation unit is excluded outright
//    (MINMACH_SIMD_COMPILE_AVX2=0) and every dispatch collapses to the
//    portable fallback. This is the CI leg for runners without AVX2.
//
// Callers pass supported() as an explicit `use_avx2` argument to the
// kernel they dispatch. Kernels are EXACT: a vector path produces results
// bit-identical to its portable fallback or refuses the input (spills),
// in which case the caller runs the fallback. Spills are tallied as
// "simd.scalar_spills", vector work as "simd.lanes_used" -- both
// execution-class metrics (obs::is_exec_metric), so run reports stay
// byte-identical between a build or CPU with AVX2 and one without.
#pragma once

// CMake defines this PUBLIC on the minmach target; the fallback covers
// ad-hoc compiles of the headers outside the build system.
#ifndef MINMACH_SIMD_COMPILE_AVX2
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MINMACH_SIMD_COMPILE_AVX2 1
#else
#define MINMACH_SIMD_COMPILE_AVX2 0
#endif
#endif

namespace minmach::util::simd {

// Cached __builtin_cpu_supports("avx2"); always false when the AVX2
// translation unit was compiled out.
[[nodiscard]] bool supported();

}  // namespace minmach::util::simd
