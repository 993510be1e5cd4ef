#include "common/simd_dispatch.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DOTPROV_X86 1
#else
#define DOTPROV_X86 0
#endif

namespace dot {
namespace {

// ---------------------------------------------------------------------------
// Scalar kernels: the reference implementation of the pinned schedule.
// ---------------------------------------------------------------------------

double ScalarSum(const double* x, int n) {
  if (n < kBlockedSumThreshold) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += x[i];
    return total;
  }
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    acc0 += x[i];
    acc1 += x[i + 1];
    acc2 += x[i + 2];
    acc3 += x[i + 3];
  }
  double lanes[4] = {acc0, acc1, acc2, acc3};
  for (int i = n4; i < n; ++i) lanes[i - n4] += x[i];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

double ScalarGatherSum(const double* values, const int* idx, int n) {
  if (n < kBlockedSumThreshold) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += values[idx[i]];
    return total;
  }
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    acc0 += values[idx[i]];
    acc1 += values[idx[i + 1]];
    acc2 += values[idx[i + 2]];
    acc3 += values[idx[i + 3]];
  }
  double lanes[4] = {acc0, acc1, acc2, acc3};
  for (int i = n4; i < n; ++i) lanes[i - n4] += values[idx[i]];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

double ScalarPlaneGatherSum(const double* plane, const int* objects,
                            const int* placement, int n) {
  if (n < kBlockedSumThreshold) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += plane[placement[objects[i]] * n + i];
    return total;
  }
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    acc0 += plane[placement[objects[i]] * n + i];
    acc1 += plane[placement[objects[i + 1]] * n + i + 1];
    acc2 += plane[placement[objects[i + 2]] * n + i + 2];
    acc3 += plane[placement[objects[i + 3]] * n + i + 3];
  }
  double lanes[4] = {acc0, acc1, acc2, acc3};
  for (int i = n4; i < n; ++i)
    lanes[i - n4] += plane[placement[objects[i]] * n + i];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

const KernelOps kScalarOps = {ScalarSum, ScalarGatherSum,
                              ScalarPlaneGatherSum};

// ---------------------------------------------------------------------------
// AVX2 kernels. Same TU, per-function target attribute, so the build needs
// no global -mavx2 and the binary stays runnable on pre-AVX2 machines. Each
// kernel performs exactly the scalar schedule's additions: lane j of the
// vector accumulator is lanes[j], the tail is folded scalar, and the final
// reduce is the same (l0 + l2) + (l1 + l3). Gathers move bits, they do not
// round, so the only IEEE operations are the lane additions — bit-identity
// with the scalar kernels holds by construction.
// ---------------------------------------------------------------------------

#if DOTPROV_X86

__attribute__((target("avx2"))) double Avx2Sum(const double* x, int n) {
  if (n < kBlockedSumThreshold) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += x[i];
    return total;
  }
  __m256d acc = _mm256_setzero_pd();
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  for (int i = n4; i < n; ++i) lanes[i - n4] += x[i];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

/// _mm256_i32gather_pd spelled as its masked form with an all-ones mask:
/// the same vgatherdpd instruction and the same bits, but with a defined
/// pass-through source, so gcc's -Wmaybe-uninitialized has nothing to flag.
__attribute__((target("avx2"))) inline __m256d GatherPd(const double* base,
                                                        __m128i vindex) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, vindex, all, 8);
}

__attribute__((target("avx2"))) double Avx2GatherSum(const double* values,
                                                     const int* idx, int n) {
  if (n < kBlockedSumThreshold) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += values[idx[i]];
    return total;
  }
  __m256d acc = _mm256_setzero_pd();
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    acc = _mm256_add_pd(acc, GatherPd(values, vi));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  for (int i = n4; i < n; ++i) lanes[i - n4] += values[idx[i]];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

__attribute__((target("avx2"))) double Avx2PlaneGatherSum(
    const double* plane, const int* objects, const int* placement, int n) {
  if (n < kBlockedSumThreshold) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += plane[placement[objects[i]] * n + i];
    return total;
  }
  __m256d acc = _mm256_setzero_pd();
  const int n4 = n & ~3;
  const __m128i vn = _mm_set1_epi32(n);
  const __m128i viota = _mm_setr_epi32(0, 1, 2, 3);
  for (int i = 0; i < n4; i += 4) {
    const __m128i vobj =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(objects + i));
    const __m128i vcls = _mm_i32gather_epi32(placement, vobj, 4);
    const __m128i vaddr = _mm_add_epi32(
        _mm_mullo_epi32(vcls, vn), _mm_add_epi32(_mm_set1_epi32(i), viota));
    acc = _mm256_add_pd(acc, GatherPd(plane, vaddr));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  for (int i = n4; i < n; ++i)
    lanes[i - n4] += plane[placement[objects[i]] * n + i];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

const KernelOps kAvx2Ops = {Avx2Sum, Avx2GatherSum, Avx2PlaneGatherSum};

#endif  // DOTPROV_X86

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

bool Avx2Supported() {
#if DOTPROV_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const KernelOps* OpsFor(KernelLevel level) {
#if DOTPROV_X86
  if (level == KernelLevel::kAvx2) return &kAvx2Ops;
#endif
  (void)level;
  return &kScalarOps;
}

KernelLevel ResolveLevel() {
  const char* env = std::getenv("DOT_KERNEL");
  if (env != nullptr && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) return KernelLevel::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      if (Avx2Supported()) return KernelLevel::kAvx2;
      std::fprintf(stderr,
                   "dot: DOT_KERNEL=avx2 requested but this CPU lacks AVX2; "
                   "falling back to scalar kernels\n");
      return KernelLevel::kScalar;
    }
    DOT_CHECK(false) << "unknown DOT_KERNEL value '" << env
                     << "' (expected 'scalar' or 'avx2')";
  }
  return Avx2Supported() ? KernelLevel::kAvx2 : KernelLevel::kScalar;
}

struct DispatchState {
  KernelLevel level;
  const KernelOps* ops;
};

DispatchState& GlobalDispatch() {
  static DispatchState state = [] {
    const KernelLevel level = ResolveLevel();
    return DispatchState{level, OpsFor(level)};
  }();
  return state;
}

}  // namespace

const char* KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return "scalar";
    case KernelLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool KernelLevelSupported(KernelLevel level) {
  return level == KernelLevel::kScalar ||
         (level == KernelLevel::kAvx2 && Avx2Supported());
}

KernelLevel ActiveKernelLevel() { return GlobalDispatch().level; }

KernelLevel ForceKernelLevelForTest(KernelLevel level) {
  DOT_CHECK(KernelLevelSupported(level))
      << "cannot force unsupported kernel level "
      << KernelLevelName(level);
  DispatchState& state = GlobalDispatch();
  const KernelLevel previous = state.level;
  state.level = level;
  state.ops = OpsFor(level);
  return previous;
}

const KernelOps& Kernels() { return *GlobalDispatch().ops; }

}  // namespace dot
