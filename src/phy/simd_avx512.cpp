// AVX-512 tier: two kernels, the Viterbi add-compare-select and the
// soft-bit placement, both moving bytes with vpermt2b (one instruction
// over the 128 bytes of a register pair). Thirty-two int16 metrics per register
// hold all 64 path metrics in two zmm registers for the whole trellis,
// so an ACS step reads and writes no memory except its two LLRs and its
// decision word. Every other kernel runs its AVX2 version at this tier
// (simd.cpp; DESIGN.md section 14.4 says why).
//
// This TU is compiled with -mavx512f -mavx512bw -mavx512vbmi (the int16
// lanes and their mask compares are AVX-512BW, the byte permutes
// AVX-512VBMI). When the compiler cannot target AVX-512 the file
// degrades to stubs and dispatch never selects this tier (see
// avx512_compiled()).

#include "phy/simd.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "phy/trellis.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VBMI__)
#include <immintrin.h>
#endif

namespace witag::phy::simd::kernels {

bool avx512_supported() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vbmi") != 0;
#else
  return false;
#endif
}

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VBMI__)

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

/// Byte indices, across the lo:hi register pair, of the int16 metrics
/// of the even (s0 = 2 ns: bytes 4 ns and 4 ns + 1) or, with `odd`, the
/// odd (s1 = 2 ns + 1: bytes 4 ns + 2 and 4 ns + 3) predecessors of next
/// states 0 .. 31.
constexpr std::array<std::uint8_t, 64> predecessor_bytes(bool odd) {
  std::array<std::uint8_t, 64> idx{};
  for (std::uint32_t b = 0; b < 64; ++b) {
    idx[b] = static_cast<std::uint8_t>(4 * (b / 2) + b % 2 + (odd ? 2 : 0));
  }
  return idx;
}
alignas(64) constexpr std::array<std::uint8_t, 64> kEvenBytes =
    predecessor_bytes(false);
alignas(64) constexpr std::array<std::uint8_t, 64> kOddBytes =
    predecessor_bytes(true);

/// One trellis step: reads the step's two LLRs at `ll`, writes its
/// decision word and advances the metrics in lo (states 0 .. 31) and hi
/// (32 .. 63).
[[gnu::always_inline]] inline void acs_step(const std::int8_t* ll,
                                            std::uint64_t* decision,
                                            __m512i& lo, __m512i& hi,
                                            __m512i even_idx,
                                            __m512i odd_idx) {
  // Masked forms throughout, with defined pass-through operands: the
  // unmasked ones expand to GCC's self-initialized undefined vectors,
  // which -Wmaybe-uninitialized reports.
  const __m512i zero = _mm512_setzero_si512();
  const __m512i la = _mm512_mask_set1_epi16(zero, ~__mmask32{0}, ll[0]);
  const __m512i lb = _mm512_mask_set1_epi16(zero, ~__mmask32{0}, ll[1]);
  const __m512i ev = _mm512_permutex2var_epi8(lo, even_idx, hi);
  const __m512i od = _mm512_permutex2var_epi8(lo, odd_idx, hi);
  // bm = (a0 ? -la : la) + (b0 ? -lb : lb) per next state ns < 32.
  const __m512i bm =
      _mm512_add_epi16(_mm512_mask_sub_epi16(la, kNegA, zero, la),
                       _mm512_mask_sub_epi16(lb, kNegB, zero, lb));
  const __m512i lo0 = _mm512_adds_epi16(ev, bm);
  const __m512i lo1 = _mm512_subs_epi16(od, bm);
  const __m512i hi0 = _mm512_subs_epi16(ev, bm);
  const __m512i hi1 = _mm512_adds_epi16(od, bm);
  // The two 32-bit halves of the decision word, stored straight from
  // their mask registers.
  const __mmask32 take_lo = _mm512_cmpgt_epi16_mask(lo1, lo0);
  const __mmask32 take_hi = _mm512_cmpgt_epi16_mask(hi1, hi0);
  auto* word = reinterpret_cast<unsigned char*>(decision);
  std::memcpy(word, &take_lo, sizeof take_lo);
  std::memcpy(word + sizeof take_lo, &take_hi, sizeof take_hi);
  lo = _mm512_max_epi16(lo0, lo1);
  hi = _mm512_max_epi16(hi0, hi1);
}

/// Lanes [0, n) of a 64-lane mask (all of them for n >= 64).
__mmask64 lanes_below(std::size_t n) {
  return n >= 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1;
}

/// place_avx512 for plans of kWindows 128-byte windows.
template <std::size_t kWindows>
void place_windows(const std::int8_t* llrs, std::size_t n_symbols,
                   const PlacePlan& plan, std::int8_t* out) {
  constexpr std::size_t kRegs = 2 * kWindows;
  const std::size_t n_cbps = plan.table.size();
  const std::size_t chunks = plan.lanes.size() / kWindows;
  const __mmask64 last_chunk = lanes_below(plan.span - 64 * (chunks - 1));
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const std::int8_t* in = llrs + s * n_cbps;
    std::int8_t* at = out + s * plan.span;
    // The symbol's air bytes, masked so nothing past them is read; a
    // register wholly past them is zero.
    __m512i air[kRegs];
#pragma GCC unroll 6
    for (std::size_t r = 0; r < kRegs; ++r) {
      air[r] = 64 * r < n_cbps
                   ? _mm512_maskz_loadu_epi8(lanes_below(n_cbps - 64 * r),
                                             in + 64 * r)
                   : _mm512_setzero_si512();
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      const PlaceIndex* index = plan.index.data() + c * kWindows;
      const std::uint64_t* lanes = plan.lanes.data() + c * kWindows;
      // One permute per window, each zeroing the lanes it does not
      // own; erasure lanes belong to no window and stay 0.
      __m512i part[kWindows];
#pragma GCC unroll 3
      for (std::size_t w = 0; w < kWindows; ++w) {
        part[w] = _mm512_maskz_permutex2var_epi8(
            lanes[w], air[2 * w], _mm512_load_si512(index[w].bytes.data()),
            air[2 * w + 1]);
      }
      __m512i chunk = part[0];
      if constexpr (kWindows == 2) chunk = _mm512_or_si512(part[0], part[1]);
      if constexpr (kWindows == 3) {
        chunk = _mm512_ternarylogic_epi32(part[0], part[1], part[2], 0xFE);
      }
      if (c + 1 < chunks) {
        _mm512_storeu_si512(at + 64 * c, chunk);
      } else {
        _mm512_mask_storeu_epi8(at + 64 * c, last_chunk, chunk);
      }
    }
  }
}

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
  const __m512i even_idx = _mm512_load_si512(kEvenBytes.data());
  const __m512i odd_idx = _mm512_load_si512(kOddBytes.data());
  const __m512i zero = _mm512_setzero_si512();
  // Whole renormalization periods, unrolled, so no step tests its
  // index: the 16th step of each is followed by the renormalization.
  std::size_t step = 0;
  for (; n_steps - step >= kAcsRenormPeriod; step += kAcsRenormPeriod) {
#pragma GCC unroll 16
    for (std::size_t k = 0; k < kAcsRenormPeriod; ++k) {
      acs_step(llrs + 2 * (step + k), decisions + step + k, lo, hi, even_idx,
               odd_idx);
    }
    // Next-state 0's metric in every lane (word permute, indices 0).
    const __m512i base = _mm512_permutexvar_epi16(zero, lo);
    lo = _mm512_subs_epi16(lo, base);
    hi = _mm512_subs_epi16(hi, base);
  }
  // The last n_steps % 16 steps never reach a renormalization.
  for (; step < n_steps; ++step) {
    acs_step(llrs + 2 * step, decisions + step, lo, hi, even_idx, odd_idx);
  }
  _mm512_storeu_si512(metrics, lo);
  _mm512_storeu_si512(metrics + 32, hi);
}

void place_avx512(const std::int8_t* llrs, std::size_t n_symbols,
                  const PlacePlan& plan, std::int8_t* out) {
  switch (plan.windows) {
    case 1: return place_windows<1>(llrs, n_symbols, plan, out);
    case 2: return place_windows<2>(llrs, n_symbols, plan, out);
    case 3: return place_windows<3>(llrs, n_symbols, plan, out);
    default:  // wider than any 802.11n symbol
      return place_for(Tier::kAvx2)(llrs, n_symbols, plan, out);
  }
}

#else  // !(AVX-512 F, BW and VBMI)

bool avx512_compiled() { return false; }

void acs_block_avx512(const std::int8_t* llrs, std::size_t n_steps,
                      std::uint64_t* decisions, std::int16_t* metrics) {
  acs_block_for(Tier::kAvx2)(llrs, n_steps, decisions, metrics);
}

void place_avx512(const std::int8_t* llrs, std::size_t n_symbols,
                  const PlacePlan& plan, std::int8_t* out) {
  place_for(Tier::kAvx2)(llrs, n_symbols, plan, out);
}

#endif  // AVX-512 F, BW and VBMI

}  // namespace witag::phy::simd::kernels
