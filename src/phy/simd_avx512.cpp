// AVX-512 tier: one kernel, the Viterbi add-compare-select. Thirty-two
// int16 metrics per register hold all 64 path metrics in two zmm
// registers for the whole trellis, so a step reads and writes no memory
// except its two LLRs and its decision word. Every other kernel runs its
// AVX2 version at this tier (simd.cpp; DESIGN.md section 14.4 says why).
//
// This TU is compiled with -mavx512f -mavx512bw (the int16 lanes and
// their mask compares are AVX-512BW). When the compiler cannot target
// AVX-512 the file degrades to stubs and dispatch never selects this
// tier (see avx512_compiled()).

#include "phy/simd.hpp"

#include <cstddef>
#include <cstdint>

#include "phy/trellis.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)
#include <immintrin.h>
#endif

namespace witag::phy::simd::kernels {

bool avx512_supported() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
#else
  return false;
#endif
}

#if defined(__AVX512F__) && defined(__AVX512BW__)

bool avx512_compiled() { return true; }

namespace {

/// Bit ns (< 32) set iff the even predecessor of next state ns expects
/// coded bit 1 on the first (kNegA) or second (kNegB) output.
constexpr std::uint64_t kNegAB = [] {
  std::uint64_t masks = 0;
  for (std::uint32_t ns = 0; ns < kNumStates / 2; ++ns) {
    masks |= std::uint64_t{detail::kButterflies[ns].a0} << ns |
             std::uint64_t{detail::kButterflies[ns].b0} << (ns + 32);
  }
  return masks;
}();
constexpr auto kNegA = static_cast<__mmask32>(kNegAB);
constexpr auto kNegB = static_cast<__mmask32>(kNegAB >> 32);

}  // namespace

void acs_block_avx512(const std::int8_t* llrs, std::size_t n_steps,
                      std::uint64_t* decisions, std::int16_t* metrics) {
  // lo holds cur[0 .. 31], hi cur[32 .. 63]. Callers' metric arrays
  // carry no alignment contract, and these loads and stores run once per
  // call.
  __m512i lo =
      _mm512_loadu_si512(metrics);  // witag-lint: allow(simd-unaligned)
  __m512i hi =
      _mm512_loadu_si512(metrics + 32);  // witag-lint: allow(simd-unaligned)
  // Word indices of the even (s0 = 2ns) and odd (s1 = 2ns + 1)
  // predecessors of next states 0 .. 31 across the lo:hi pair.
  const __m512i even_idx = _mm512_set_epi16(
      62, 60, 58, 56, 54, 52, 50, 48, 46, 44, 42, 40, 38, 36, 34, 32, 30, 28,
      26, 24, 22, 20, 18, 16, 14, 12, 10, 8, 6, 4, 2, 0);
  const __m512i odd_idx = _mm512_add_epi16(even_idx, _mm512_set1_epi16(1));
  const __m512i zero = _mm512_setzero_si512();
  for (std::size_t step = 0; step < n_steps; ++step) {
    // Masked forms throughout, with defined pass-through operands: the
    // unmasked ones expand to GCC's self-initialized undefined vectors,
    // which -Wmaybe-uninitialized reports.
    const __m512i la = _mm512_mask_set1_epi16(zero, ~__mmask32{0},
                                              llrs[2 * step]);
    const __m512i lb = _mm512_mask_set1_epi16(zero, ~__mmask32{0},
                                              llrs[2 * step + 1]);
    const __m512i ev = _mm512_permutex2var_epi16(lo, even_idx, hi);
    const __m512i od = _mm512_permutex2var_epi16(lo, odd_idx, hi);
    // bm = (a0 ? -la : la) + (b0 ? -lb : lb) per next state ns < 32.
    const __m512i bm =
        _mm512_add_epi16(_mm512_mask_sub_epi16(la, kNegA, zero, la),
                         _mm512_mask_sub_epi16(lb, kNegB, zero, lb));
    const __m512i lo0 = _mm512_adds_epi16(ev, bm);
    const __m512i lo1 = _mm512_subs_epi16(od, bm);
    const __m512i hi0 = _mm512_subs_epi16(ev, bm);
    const __m512i hi1 = _mm512_adds_epi16(od, bm);
    decisions[step] =
        static_cast<std::uint64_t>(_mm512_cmpgt_epi16_mask(lo1, lo0)) |
        static_cast<std::uint64_t>(_mm512_cmpgt_epi16_mask(hi1, hi0))
            << (kNumStates / 2);
    lo = _mm512_max_epi16(lo0, lo1);
    hi = _mm512_max_epi16(hi0, hi1);
    if (step % kAcsRenormPeriod == kAcsRenormPeriod - 1) {
      // Next-state 0's metric in every lane (word permute, indices 0).
      const __m512i base = _mm512_permutexvar_epi16(zero, lo);
      lo = _mm512_subs_epi16(lo, base);
      hi = _mm512_subs_epi16(hi, base);
    }
  }
  _mm512_storeu_si512(metrics, lo);
  _mm512_storeu_si512(metrics + 32, hi);
}

#else  // !(defined(__AVX512F__) && defined(__AVX512BW__))

bool avx512_compiled() { return false; }

void acs_block_avx512(const std::int8_t* llrs, std::size_t n_steps,
                      std::uint64_t* decisions, std::int16_t* metrics) {
  acs_block_for(Tier::kAvx2)(llrs, n_steps, decisions, metrics);
}

#endif  // defined(__AVX512F__) && defined(__AVX512BW__)

}  // namespace witag::phy::simd::kernels
