// AVX-512 tier: one kernel, the Viterbi add-compare-select. Eight
// doubles per register hold all 64 path metrics in eight zmm registers
// for the whole trellis, so a step reads and writes no memory except its
// two LLRs and its decision word. Every other kernel runs its AVX2
// version at this tier (simd.cpp; DESIGN.md section 14.4 says why).
//
// This TU is compiled with -mavx512f -mavx512dq and deliberately WITHOUT
// -mfma (-mavx512f does not imply it): like the AVX2 kernels, the ACS
// must round exactly like the uncontracted scalar code. When the
// compiler cannot target AVX-512 the file degrades to stubs and dispatch
// never selects this tier (see avx512_compiled()).

#include "phy/simd.hpp"

#include <cstddef>
#include <cstdint>

#include "phy/trellis.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>
#endif

namespace witag::phy::simd::kernels {

bool avx512_supported() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

#if defined(__AVX512F__) && defined(__AVX512DQ__)

bool avx512_compiled() { return true; }

namespace {

/// One block's survivors: next states 8K .. 8K + 7 (lo), their partners
/// 8K + 32 .. 8K + 39 (hi), and the block's decision bits in place.
struct AcsBlock8 {
  __m512d lo;
  __m512d hi;
  std::uint64_t bits;
};

/// ACS for block K from the register pair (c0, c1) holding
/// cur[16K .. 16K + 15], which are the even predecessors
/// cur[s0] = cur[2ns] and odd predecessors cur[s1] = cur[2ns + 1] of
/// next states ns = 8K .. 8K + 7 and ns + 32.
inline AcsBlock8 acs_block8(__m512d c0, __m512d c1, __m512d la, __m512d lb,
                            unsigned k) {
  const detail::AcsSigns& sg = detail::kAcsSigns;
  const __m512d neg = _mm512_set1_pd(-0.0);
  const __m512d evens = _mm512_permutex2var_pd(
      c0, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), c1);
  const __m512d odds = _mm512_permutex2var_pd(
      c0, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), c1);
  // The same sign-bit XORs and (cur + pa) + pb association as the AVX2
  // and scalar kernels (trellis.hpp's butterfly symmetry).
  const __m512d pa = _mm512_xor_pd(la, _mm512_load_pd(&sg.a[8 * k]));
  const __m512d pb = _mm512_xor_pd(lb, _mm512_load_pd(&sg.b[8 * k]));
  const __m512d na = _mm512_xor_pd(pa, neg);
  const __m512d nb = _mm512_xor_pd(pb, neg);
  const __m512d m0_lo = _mm512_add_pd(_mm512_add_pd(evens, pa), pb);
  const __m512d m1_lo = _mm512_add_pd(_mm512_add_pd(odds, na), nb);
  const __m512d m0_hi = _mm512_add_pd(_mm512_add_pd(evens, na), nb);
  const __m512d m1_hi = _mm512_add_pd(_mm512_add_pd(odds, pa), pb);
  // Strict ordered m1 > m0: ties keep the s0 branch. vmaxpd returns its
  // second operand on ties and NaNs, so max(m1, m0) is exactly
  // `m1 > m0 ? m1 : m0`. The all-ones masked form does the same
  // operation; its defined pass-through keeps GCC's self-initialized
  // _mm512_undefined_pd (what the unmasked form expands to) out of
  // -Wmaybe-uninitialized.
  const __mmask8 take_lo = _mm512_cmp_pd_mask(m1_lo, m0_lo, _CMP_GT_OQ);
  const __mmask8 take_hi = _mm512_cmp_pd_mask(m1_hi, m0_hi, _CMP_GT_OQ);
  return {_mm512_mask_max_pd(m0_lo, 0xFF, m1_lo, m0_lo),
          _mm512_mask_max_pd(m0_hi, 0xFF, m1_hi, m0_hi),
          static_cast<std::uint64_t>(take_lo) << (8 * k) |
              static_cast<std::uint64_t>(take_hi) << (kNumStates / 2 + 8 * k)};
}

}  // namespace

void acs_block_avx512(const double* llrs, std::size_t n_steps,
                      std::uint64_t* decisions, double* metrics) {
  // The 64 metrics, eight per register: mK holds cur[8K .. 8K + 7]. The
  // four blocks are spelled out rather than looped over so they stay in
  // registers at any optimization level. Callers' metric arrays carry no
  // alignment contract, and these loads and stores run once per call.
  __m512d m0 = _mm512_loadu_pd(metrics);  // witag-lint: allow(simd-unaligned)
  __m512d m1 =
      _mm512_loadu_pd(metrics + 8);  // witag-lint: allow(simd-unaligned)
  __m512d m2 =
      _mm512_loadu_pd(metrics + 16);  // witag-lint: allow(simd-unaligned)
  __m512d m3 =
      _mm512_loadu_pd(metrics + 24);  // witag-lint: allow(simd-unaligned)
  __m512d m4 =
      _mm512_loadu_pd(metrics + 32);  // witag-lint: allow(simd-unaligned)
  __m512d m5 =
      _mm512_loadu_pd(metrics + 40);  // witag-lint: allow(simd-unaligned)
  __m512d m6 =
      _mm512_loadu_pd(metrics + 48);  // witag-lint: allow(simd-unaligned)
  __m512d m7 =
      _mm512_loadu_pd(metrics + 56);  // witag-lint: allow(simd-unaligned)
  for (std::size_t step = 0; step < n_steps; ++step) {
    const __m512d la = _mm512_set1_pd(llrs[2 * step]);
    const __m512d lb = _mm512_set1_pd(llrs[2 * step + 1]);
    const AcsBlock8 b0 = acs_block8(m0, m1, la, lb, 0);
    const AcsBlock8 b1 = acs_block8(m2, m3, la, lb, 1);
    const AcsBlock8 b2 = acs_block8(m4, m5, la, lb, 2);
    const AcsBlock8 b3 = acs_block8(m6, m7, la, lb, 3);
    decisions[step] = b0.bits | b1.bits | b2.bits | b3.bits;
    m0 = b0.lo;
    m1 = b1.lo;
    m2 = b2.lo;
    m3 = b3.lo;
    m4 = b0.hi;
    m5 = b1.hi;
    m6 = b2.hi;
    m7 = b3.hi;
  }
  _mm512_storeu_pd(metrics, m0);
  _mm512_storeu_pd(metrics + 8, m1);
  _mm512_storeu_pd(metrics + 16, m2);
  _mm512_storeu_pd(metrics + 24, m3);
  _mm512_storeu_pd(metrics + 32, m4);
  _mm512_storeu_pd(metrics + 40, m5);
  _mm512_storeu_pd(metrics + 48, m6);
  _mm512_storeu_pd(metrics + 56, m7);
}

#else  // !(defined(__AVX512F__) && defined(__AVX512DQ__))

bool avx512_compiled() { return false; }

void acs_block_avx512(const double* llrs, std::size_t n_steps,
                      std::uint64_t* decisions, double* metrics) {
  acs_block_for(Tier::kAvx2)(llrs, n_steps, decisions, metrics);
}

#endif  // defined(__AVX512F__) && defined(__AVX512DQ__)

}  // namespace witag::phy::simd::kernels
