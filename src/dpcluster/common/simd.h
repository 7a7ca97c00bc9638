// Function-multiversioning helper for the blocked numeric kernels.
//
// DPC_TARGET_CLONES_AVX2 marks a function for runtime dispatch between a
// baseline and an AVX2 build on toolchains that support it (GCC/Clang ifunc
// on x86-64 glibc); everywhere else it expands to nothing and the plain
// function is used. The AVX2 clone deliberately does NOT enable FMA: without
// contraction every lane performs the same mul-then-add roundings as the
// scalar build, so kernel outputs are bit-identical across instruction sets.
//
// ThreadSanitizer builds (__SANITIZE_THREAD__) get no clones either: the TSan
// runtime is not yet set up when glibc runs ifunc resolvers during
// relocation, so any -fsanitize=thread binary linking a cloned function
// crashes before main. The plain function computes the same bits.

#ifndef DPCLUSTER_COMMON_SIMD_H_
#define DPCLUSTER_COMMON_SIMD_H_

#if defined(__x86_64__) && defined(__gnu_linux__) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(__SANITIZE_THREAD__)
#define DPC_TARGET_CLONES_AVX2 __attribute__((target_clones("default", "avx2")))
#else
#define DPC_TARGET_CLONES_AVX2
#endif

#endif  // DPCLUSTER_COMMON_SIMD_H_
