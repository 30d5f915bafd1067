// AVX2 + AES-NI tier: the int16 Viterbi add-compare-select (sixteen
// metrics per vector), the AES-NI block cipher and, four doubles / two
// complex doubles per vector, the separable soft demap (with a double or
// a quantized int8 store), the equalizer and the fused radix-4 FFT
// passes. This TU is compiled with -mavx2 -maes -ffp-contract=off (and
// deliberately WITHOUT -mfma: the scalar code the double kernels must
// match bit for bit is built with no contraction, so the kernels stick
// to packed mul/add/sub — an FMA here would round differently). When
// the compiler cannot target both the file degrades to stubs and
// dispatch never selects this tier (see avx2_compiled()).

#include "phy/simd.hpp"

#include <cstdint>
#include <cstdlib>

#include "phy/trellis.hpp"

#if defined(__AVX2__) && defined(__AES__)
#include <immintrin.h>
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <type_traits>
#endif

namespace witag::phy::simd::kernels {

bool avx2_supported() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("aes") != 0;
#else
  return false;
#endif
}

#if defined(__AVX2__) && defined(__AES__)

bool avx2_compiled() { return true; }

namespace {

/// ±1 per next state ns < 32: entry ns is -1 where the even predecessor
/// expects coded bit 1 on the first output, entry 32 + ns likewise on the
/// second, so _mm256_sign_epi16 turns broadcast LLRs into simd.hpp's bm.
alignas(32) constexpr std::array<std::int16_t, kNumStates> kBranchSigns = [] {
  std::array<std::int16_t, kNumStates> s{};
  for (std::uint32_t ns = 0; ns < kNumStates / 2; ++ns) {
    s[ns] = detail::kButterflies[ns].a0 ? -1 : 1;
    s[ns + kNumStates / 2] = detail::kButterflies[ns].b0 ? -1 : 1;
  }
  return s;
}();

/// 32 decision masks (0 / -1 per int16 lane, states in order across the
/// two registers) to 32 bits in state order: the pack interleaves the
/// registers' 128-bit lanes, the qword permute restores the order.
inline std::uint64_t decision_bits(__m256i d0, __m256i d1) {
  const __m256i bytes = _mm256_permute4x64_epi64(_mm256_packs_epi16(d0, d1),
                                                 _MM_SHUFFLE(3, 1, 2, 0));
  return static_cast<std::uint32_t>(_mm256_movemask_epi8(bytes));
}

}  // namespace

void acs_block_avx2(const std::int8_t* llrs, std::size_t n_steps,
                    std::uint64_t* decisions, std::int16_t* metrics) {
  // The 64 metrics stay in four registers for the whole trellis: m[k]
  // holds cur[16k .. 16k + 15]. Callers' metric arrays carry no
  // alignment contract, and these loads and stores run once per call.
  __m256i m[4];
  __m256i signs[4];
#pragma GCC unroll 4
  for (std::size_t k = 0; k < 4; ++k) {
    m[k] = _mm256_loadu_si256(  // witag-lint: allow(simd-unaligned)
        reinterpret_cast<const __m256i*>(metrics + 16 * k));
    signs[k] = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kBranchSigns.data() + 16 * k));
  }
  for (std::size_t step = 0; step < n_steps; ++step) {
    const __m256i la = _mm256_set1_epi16(llrs[2 * step]);
    const __m256i lb = _mm256_set1_epi16(llrs[2 * step + 1]);
    __m256i next[4];
    __m256i take[4];
#pragma GCC unroll 2
    for (std::size_t k = 0; k < 2; ++k) {
      // Predecessors of next states 16k .. 16k + 15 from m[2k], m[2k+1]:
      // each int32 lane holds one (even, odd) pair; shifts split it, the
      // in-lane pack joins the halves (exact on sign-extended int16) and
      // a qword permute undoes the pack's lane interleave.
      const __m256i x = m[2 * k];
      const __m256i y = m[2 * k + 1];
      const __m256i ev = _mm256_permute4x64_epi64(
          _mm256_packs_epi32(_mm256_srai_epi32(_mm256_slli_epi32(x, 16), 16),
                             _mm256_srai_epi32(_mm256_slli_epi32(y, 16), 16)),
          _MM_SHUFFLE(3, 1, 2, 0));
      const __m256i od = _mm256_permute4x64_epi64(
          _mm256_packs_epi32(_mm256_srai_epi32(x, 16),
                             _mm256_srai_epi32(y, 16)),
          _MM_SHUFFLE(3, 1, 2, 0));
      const __m256i bm = _mm256_add_epi16(_mm256_sign_epi16(la, signs[k]),
                                          _mm256_sign_epi16(lb, signs[k + 2]));
      // Next states 16k .. (lo) and their partners + 32 (hi).
      const __m256i lo0 = _mm256_adds_epi16(ev, bm);
      const __m256i lo1 = _mm256_subs_epi16(od, bm);
      const __m256i hi0 = _mm256_subs_epi16(ev, bm);
      const __m256i hi1 = _mm256_adds_epi16(od, bm);
      next[k] = _mm256_max_epi16(lo0, lo1);
      next[k + 2] = _mm256_max_epi16(hi0, hi1);
      take[k] = _mm256_cmpgt_epi16(lo1, lo0);
      take[k + 2] = _mm256_cmpgt_epi16(hi1, hi0);
    }
    decisions[step] = decision_bits(take[0], take[1]) |
                      decision_bits(take[2], take[3]) << (kNumStates / 2);
    const bool renorm = step % kAcsRenormPeriod == kAcsRenormPeriod - 1;
    const __m256i base = renorm
                             ? _mm256_broadcastw_epi16(
                                   _mm256_castsi256_si128(next[0]))
                             : _mm256_setzero_si256();
#pragma GCC unroll 4
    for (std::size_t k = 0; k < 4; ++k) {
      m[k] = _mm256_subs_epi16(next[k], base);
    }
  }
#pragma GCC unroll 4
  for (std::size_t k = 0; k < 4; ++k) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(metrics + 16 * k), m[k]);
  }
}

namespace {

// The demap loops below all have compile-time trip counts, but -O2 (the
// default RelWithDebInfo build) does not unroll them completely on its
// own; `#pragma GCC unroll` does, and always_inline keeps each helper
// inside its kernel's loop, which is what lets the per-bit minima and
// the LLRs live in registers instead of on the stack.

/// One axis of the separable demap, four points at a time: the minimum
/// of the axis's 2^Bits squared distances and, per index bit, the minima
/// over the levels with that bit clear (zero) and set (one).
template <unsigned Bits>
struct AxisMinima {
  __m256d all;
  __m256d zero[Bits > 0 ? Bits : 1];  // no zero-size arrays (BPSK's Q)
  __m256d one[Bits > 0 ? Bits : 1];
};

/// Minimum of v[0 .. N) as a balanced tree of N - 1 mins.
template <unsigned N>
[[gnu::always_inline]]
inline __m256d min_reduce(const __m256d* v) {
  if constexpr (N == 1) {
    return v[0];
  } else {
    return _mm256_min_pd(min_reduce<N / 2>(v), min_reduce<N / 2>(v + N / 2));
  }
}

/// The per-bit minima of sq[0 .. 2^Bits) as one shared min tree: levels
/// 2k and 2k + 1 differ only in bit 0, so their pairwise minima are the
/// same problem one bit smaller for bits 1 and up, and bit 0 reduces the
/// even and the odd levels. 15 mins for 64-QAM's eight levels, where a
/// running minimum per set takes 32. Exact in any order (simd.hpp,
/// DemapQuantizeFn).
template <unsigned Bits>
[[gnu::always_inline]]
inline AxisMinima<Bits> minima_tree(const __m256d* sq) {
  AxisMinima<Bits> m;
  if constexpr (Bits == 0) {
    m.all = sq[0];
  } else {
    constexpr unsigned kHalf = 1u << (Bits - 1);
    __m256d pair[kHalf];
    __m256d even[kHalf];
    __m256d odd[kHalf];
#pragma GCC unroll 4
    for (unsigned k = 0; k < kHalf; ++k) {
      even[k] = sq[2 * k];
      odd[k] = sq[2 * k + 1];
      pair[k] = _mm256_min_pd(even[k], odd[k]);
    }
    const AxisMinima<Bits - 1> up = minima_tree<Bits - 1>(pair);
    m.all = up.all;
#pragma GCC unroll 2
    for (unsigned b = 1; b < Bits; ++b) {
      m.zero[b] = up.zero[b - 1];
      m.one[b] = up.one[b - 1];
    }
    m.zero[0] = min_reduce<kHalf>(even);
    m.one[0] = min_reduce<kHalf>(odd);
  }
  return m;
}

/// The squared distances from y to an axis's 2^Bits levels, the same
/// subtract and multiply as the scalar kernel, then their minima.
template <unsigned Bits>
[[gnu::always_inline]]
inline AxisMinima<Bits> axis_minima(__m256d y,
                                    const std::array<double, 8>& levels) {
  __m256d sq[1u << Bits];
#pragma GCC unroll 8
  for (unsigned j = 0; j < (1u << Bits); ++j) {
    const __m256d d = _mm256_sub_pd(y, _mm256_set1_pd(levels[j]));
    sq[j] = _mm256_mul_pd(d, d);
  }
  return minima_tree<Bits>(sq);
}

/// The demap math of this tier: four points' LLRs, bit-major (llr[b]
/// holds bit b of points p .. p + 3), with the scalar kernel's I-part +
/// Q-part addition and final division.
template <unsigned IBits, unsigned QBits>
[[gnu::always_inline]]
inline void demap4(const double* re, const double* im, const double* nv,
                   const DemapAxes& ax, __m256d* llr) {
  // SoA spans land at arbitrary lane offsets inside vector-owned
  // storage, so these loads cannot assume 32-byte alignment.
  const __m256d yr = _mm256_loadu_pd(re);  // witag-lint: allow(simd-unaligned)
  const __m256d yi = _mm256_loadu_pd(im);  // witag-lint: allow(simd-unaligned)
  const __m256d noise =
      _mm256_loadu_pd(nv);  // witag-lint: allow(simd-unaligned)
  const AxisMinima<IBits> mi = axis_minima<IBits>(yr, ax.i_levels);
  const AxisMinima<QBits> mq = axis_minima<QBits>(yi, ax.q_levels);
#pragma GCC unroll 8
  for (unsigned b = 0; b < IBits; ++b) {
    const __m256d m1 = _mm256_add_pd(mi.one[b], mq.all);
    const __m256d m0 = _mm256_add_pd(mi.zero[b], mq.all);
    llr[b] = _mm256_div_pd(_mm256_sub_pd(m1, m0), noise);
  }
#pragma GCC unroll 8
  for (unsigned b = 0; b < QBits; ++b) {
    const __m256d m1 = _mm256_add_pd(mi.all, mq.one[b]);
    const __m256d m0 = _mm256_add_pd(mi.all, mq.zero[b]);
    llr[IBits + b] = _mm256_div_pd(_mm256_sub_pd(m1, m0), noise);
  }
}

/// Four LLRs quantized as quantize_llr does: the same multiply, the
/// same min/max operand order (a NaN becomes 127), and cvtpd2dq's
/// rounding, nearest with ties to even like the scalar tier.
[[gnu::always_inline]]
inline __m128i quantize4(__m256d llr, __m256d scale) {
  return _mm256_cvtpd_epi32(_mm256_max_pd(
      _mm256_min_pd(_mm256_mul_pd(llr, scale), _mm256_set1_pd(127.0)),
      _mm256_set1_pd(-127.0)));
}

/// pshufb indices that move the bit-major bytes of four points (byte
/// 4 * (b % 4) + p of register b / 4) to air order (byte p * Bits + b),
/// for output bytes 16 * half .. 16 * half + 15; -1 (zero) where the
/// byte comes from the other register or lies past 4 * Bits.
template <unsigned Bits>
constexpr std::array<std::int8_t, 16> air_order_shuffle(unsigned reg,
                                                        unsigned half) {
  std::array<std::int8_t, 16> idx{};
  for (unsigned o = 0; o < 16; ++o) {
    const unsigned at = 16 * half + o;
    const unsigned p = at / Bits;
    const unsigned b = at % Bits;
    idx[o] = (at < 4 * Bits && b / 4 == reg)
                 ? static_cast<std::int8_t>(4 * (b % 4) + p)
                 : std::int8_t{-1};
  }
  return idx;
}

/// Bytes of register Reg (0: bits 0-3, 1: bits 4-7) that belong in
/// output bytes 16 * Half .. 16 * Half + 15, in place; zero elsewhere.
template <unsigned Bits, unsigned Reg, unsigned Half>
[[gnu::always_inline]]
inline __m128i shuffle_from(__m128i bytes) {
  alignas(16) static constexpr std::array<std::int8_t, 16> kIdx =
      air_order_shuffle<Bits>(Reg, Half);
  return _mm_shuffle_epi8(
      bytes, _mm_load_si128(reinterpret_cast<const __m128i*>(kIdx.data())));
}

/// The double store: LLRs transposed into the point-major output.
template <unsigned Bits>
[[gnu::always_inline]]
inline void store_llrs(const __m256d* llr, double* out) {
  alignas(32) double lanes[Bits][4];
#pragma GCC unroll 8
  for (unsigned b = 0; b < Bits; ++b) _mm256_store_pd(lanes[b], llr[b]);
#pragma GCC unroll 4
  for (unsigned lane = 0; lane < 4; ++lane) {
#pragma GCC unroll 8
    for (unsigned b = 0; b < Bits; ++b) out[lane * Bits + b] = lanes[b][lane];
  }
}

/// The int8 store: each LLR vector quantized to four int32, packed
/// (saturating, exact on ±127) to bytes bit-major, then shuffled into
/// air order, 4 * Bits bytes.
template <unsigned Bits>
[[gnu::always_inline]]
inline void store_quantized(const __m256d* llr, __m256d scale,
                            std::int8_t* out) {
  __m128i q[8];
#pragma GCC unroll 8
  for (unsigned b = 0; b < Bits; ++b) q[b] = quantize4(llr[b], scale);
#pragma GCC unroll 8
  for (unsigned b = Bits; b < 8; ++b) q[b] = _mm_setzero_si128();
  const __m128i lo = _mm_packs_epi16(_mm_packs_epi32(q[0], q[1]),
                                     _mm_packs_epi32(q[2], q[3]));
  if constexpr (Bits == 1) {
    const int word = _mm_cvtsi128_si32(lo);
    std::memcpy(out, &word, 4);
  } else if constexpr (Bits == 2) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                     shuffle_from<Bits, 0, 0>(lo));
  } else if constexpr (Bits == 4) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     shuffle_from<Bits, 0, 0>(lo));
  } else {
    static_assert(Bits == 6);
    const __m128i hi = _mm_packs_epi16(_mm_packs_epi32(q[4], q[5]),
                                       _mm_setzero_si128());
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm_or_si128(shuffle_from<Bits, 0, 0>(lo),
                                  shuffle_from<Bits, 1, 0>(hi)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + 16),
                     _mm_or_si128(shuffle_from<Bits, 0, 1>(lo),
                                  shuffle_from<Bits, 1, 1>(hi)));
  }
}

/// Both demap kernels for one modulation, four points at a time through
/// demap4 and then `store`; the last count % 4 points go through the
/// scalar tier's kernel (`tail`), whose per-point math is identical.
template <unsigned IBits, unsigned QBits, typename Store, typename Tail>
[[gnu::always_inline]]
inline void demap_blocks(const double* re, const double* im,
                         const double* nv, std::size_t count,
                         const DemapAxes& ax, Store store, Tail tail) {
  std::size_t p = 0;
  for (; p + 4 <= count; p += 4) {
    __m256d llr[IBits + QBits];
    demap4<IBits, QBits>(re + p, im + p, nv + p, ax, llr);
    store(llr, p);
  }
  if (p < count) tail(p);
}

/// Calls f with the axis bit counts of `ax` as compile-time constants
/// (BPSK, QPSK, 16-QAM, 64-QAM; constellation.cpp builds no other
/// axes); false for any other shape.
template <typename F>
bool with_axes(const DemapAxes& ax, F f) {
  using std::integral_constant;
  switch (ax.i_bits * 4 + ax.q_bits) {
    case 1 * 4 + 0:
      f(integral_constant<unsigned, 1>{}, integral_constant<unsigned, 0>{});
      return true;
    case 1 * 4 + 1:
      f(integral_constant<unsigned, 1>{}, integral_constant<unsigned, 1>{});
      return true;
    case 2 * 4 + 2:
      f(integral_constant<unsigned, 2>{}, integral_constant<unsigned, 2>{});
      return true;
    case 3 * 4 + 3:
      f(integral_constant<unsigned, 3>{}, integral_constant<unsigned, 3>{});
      return true;
    default:
      return false;
  }
}

}  // namespace

void demap_block_avx2(const double* re, const double* im, const double* nv,
                      std::size_t count, const DemapAxes& ax, double* out) {
  const DemapBlockFn scalar = demap_block_for(Tier::kScalar);
  const bool done = with_axes(ax, [&](auto i_bits, auto q_bits) {
    constexpr unsigned kBits =
        decltype(i_bits)::value + decltype(q_bits)::value;
    demap_blocks<decltype(i_bits)::value, decltype(q_bits)::value>(
        re, im, nv, count, ax,
        [&](const __m256d* llr, std::size_t p) {
          store_llrs<kBits>(llr, out + p * kBits);
        },
        [&](std::size_t p) {
          scalar(re + p, im + p, nv + p, count - p, ax, out + p * kBits);
        });
  });
  if (!done) scalar(re, im, nv, count, ax, out);
}

void demap_quantize_avx2(const double* re, const double* im, const double* nv,
                         std::size_t count, const DemapAxes& ax, double scale,
                         std::int8_t* out) {
  const DemapQuantizeFn scalar = demap_quantize_for(Tier::kScalar);
  const __m256d s = _mm256_set1_pd(scale);
  const bool done = with_axes(ax, [&](auto i_bits, auto q_bits) {
    constexpr unsigned kBits =
        decltype(i_bits)::value + decltype(q_bits)::value;
    demap_blocks<decltype(i_bits)::value, decltype(q_bits)::value>(
        re, im, nv, count, ax,
        [&](const __m256d* llr, std::size_t p) {
          store_quantized<kBits>(llr, s, out + p * kBits);
        },
        [&](std::size_t p) {
          scalar(re + p, im + p, nv + p, count - p, ax, scale,
                 out + p * kBits);
        });
  });
  if (!done) scalar(re, im, nv, count, ax, scale, out);
}

namespace {

using util::Cx;

/// Two complex multiplies a * w matching the scalar naive formula
/// (re = ar*wr - ai*wi, im = ai*wr + ar*wi) operation for operation —
/// addsub provides the subtract in the even lanes and the add in the
/// odd lanes with ordinary IEEE rounding, no FMA.
inline __m256d cmul(__m256d a, __m256d w) {
  const __m256d wr = _mm256_movedup_pd(w);       // [wr0, wr0, wr1, wr1]
  const __m256d wi = _mm256_permute_pd(w, 0xF);  // [wi0, wi0, wi1, wi1]
  const __m256d t1 = _mm256_mul_pd(a, wr);       // [ar*wr, ai*wr, ...]
  const __m256d as = _mm256_permute_pd(a, 0x5);  // [ai, ar, ...]
  const __m256d t2 = _mm256_mul_pd(as, wi);      // [ai*wi, ar*wi, ...]
  return _mm256_addsub_pd(t1, t2);
}

inline __m256d load2(const Cx* p) {
  // Heap CxVec data is only 16-byte aligned, so a 32-byte load of two
  // adjacent complexes must be unaligned.
  return _mm256_loadu_pd(  // witag-lint: allow(simd-unaligned)
      reinterpret_cast<const double*>(p));
}

inline void store2(Cx* p, __m256d v) {
  _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
}

}  // namespace

void fft_radix4_pass_avx2(Cx* data, std::size_t n, std::size_t h,
                          const Cx* w1, const Cx* w2) {
  if (h == 1) {
    // Fused len-2 + len-4 stages over blocks of four: w1[0] is exactly
    // (1, 0) but is still multiplied, matching the scalar pass.
    const __m256d w1b =
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(w1));
    const __m256d w2v = load2(w2);
    for (std::size_t i = 0; i < n; i += 4) {
      const __m256d r0 = load2(data + i);      // [d0, d1]
      const __m256d r1 = load2(data + i + 2);  // [d2, d3]
      const __m256d us = _mm256_permute2f128_pd(r0, r1, 0x20);  // [d0, d2]
      const __m256d vs = _mm256_permute2f128_pd(r0, r1, 0x31);  // [d1, d3]
      const __m256d t = cmul(vs, w1b);
      const __m256d s = _mm256_add_pd(us, t);   // [s0, s2]
      const __m256d dd = _mm256_sub_pd(us, t);  // [s1, s3]
      const __m256d lo = _mm256_permute2f128_pd(s, dd, 0x20);  // [s0, s1]
      const __m256d hi = _mm256_permute2f128_pd(s, dd, 0x31);  // [s2, s3]
      const __m256d v = cmul(hi, w2v);  // [s2*w2[0], s3*w2[1]]
      store2(data + i, _mm256_add_pd(lo, v));
      store2(data + i + 2, _mm256_sub_pd(lo, v));
    }
    return;
  }
  // Generic fused pass, two butterflies (two k values) per iteration.
  // h >= 2 and a power of two, so k never straddles the block edge.
  for (std::size_t i = 0; i < n; i += 4 * h) {
    for (std::size_t k = 0; k < h; k += 2) {
      const __m256d w1k = load2(w1 + k);
      const __m256d w2k = load2(w2 + k);
      const __m256d w2kh = load2(w2 + k + h);
      const __m256d a = load2(data + i + k);
      const __m256d b = load2(data + i + k + h);
      const __m256d c = load2(data + i + k + 2 * h);
      const __m256d e = load2(data + i + k + 3 * h);
      const __m256d t = cmul(b, w1k);
      const __m256d s0 = _mm256_add_pd(a, t);
      const __m256d s1 = _mm256_sub_pd(a, t);
      const __m256d u = cmul(e, w1k);
      const __m256d s2 = _mm256_add_pd(c, u);
      const __m256d s3 = _mm256_sub_pd(c, u);
      const __m256d v0 = cmul(s2, w2k);
      const __m256d v1 = cmul(s3, w2kh);
      store2(data + i + k, _mm256_add_pd(s0, v0));
      store2(data + i + k + 2 * h, _mm256_sub_pd(s0, v0));
      store2(data + i + k + h, _mm256_add_pd(s1, v1));
      store2(data + i + k + 3 * h, _mm256_sub_pd(s1, v1));
    }
  }
}

void fft_len2_pass_avx2(Cx* data, std::size_t n) {
  const __m256d w = _mm256_setr_pd(1.0, 0.0, 1.0, 0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r0 = load2(data + i);
    const __m256d r1 = load2(data + i + 2);
    const __m256d us = _mm256_permute2f128_pd(r0, r1, 0x20);  // [d0, d2]
    const __m256d vs = _mm256_permute2f128_pd(r0, r1, 0x31);  // [d1, d3]
    const __m256d t = cmul(vs, w);
    const __m256d s = _mm256_add_pd(us, t);   // [o0, o2]
    const __m256d dd = _mm256_sub_pd(us, t);  // [o1, o3]
    store2(data + i, _mm256_permute2f128_pd(s, dd, 0x20));
    store2(data + i + 2, _mm256_permute2f128_pd(s, dd, 0x31));
  }
  for (; i < n; i += 2) {
    const Cx wc{1.0, 0.0};
    const Cx a = data[i];
    const Cx v = data[i + 1] * wc;
    data[i] = a + v;
    data[i + 1] = a - v;
  }
}

void fft_scale_avx2(Cx* data, std::size_t n, double scale) {
  const __m256d s = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    store2(data + i, _mm256_mul_pd(load2(data + i), s));
  }
  for (; i < n; ++i) data[i] *= scale;
}

void equalize_block_avx2(const double* hr, const double* hi, const double* g,
                         const double* rr, const double* ri, double cr,
                         double ci, std::size_t count, double* zr,
                         double* zi) {
  const __m256d cr_v = _mm256_set1_pd(cr);
  const __m256d ci_v = _mm256_set1_pd(ci);
  const __m256d min_gain = _mm256_set1_pd(kEqualizeMinGain);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    // Callers may hand arbitrarily-offset slices, so loads/stores stay
    // unaligned (the gather staging arrays happen to be aligned).
    const __m256d h_r =
        _mm256_loadu_pd(hr + i);  // witag-lint: allow(simd-unaligned)
    const __m256d h_i =
        _mm256_loadu_pd(hi + i);  // witag-lint: allow(simd-unaligned)
    const __m256d gain =
        _mm256_loadu_pd(g + i);  // witag-lint: allow(simd-unaligned)
    const __m256d r_r =
        _mm256_loadu_pd(rr + i);  // witag-lint: allow(simd-unaligned)
    const __m256d r_i =
        _mm256_loadu_pd(ri + i);  // witag-lint: allow(simd-unaligned)
    // Same association as the scalar kernel; packed mul/add/sub/div
    // only, no FMA (this TU is compiled without -mfma on purpose).
    const __m256d yr =
        _mm256_add_pd(_mm256_mul_pd(r_r, cr_v), _mm256_mul_pd(r_i, ci_v));
    const __m256d yi =
        _mm256_sub_pd(_mm256_mul_pd(r_i, cr_v), _mm256_mul_pd(r_r, ci_v));
    const __m256d qr = _mm256_div_pd(
        _mm256_add_pd(_mm256_mul_pd(yr, h_r), _mm256_mul_pd(yi, h_i)), gain);
    const __m256d qi = _mm256_div_pd(
        _mm256_sub_pd(_mm256_mul_pd(yi, h_r), _mm256_mul_pd(yr, h_i)), gain);
    const __m256d dead = _mm256_cmp_pd(gain, min_gain, _CMP_LT_OQ);
    _mm256_storeu_pd(zr + i, _mm256_andnot_pd(dead, qr));
    _mm256_storeu_pd(zi + i, _mm256_andnot_pd(dead, qi));
  }
  if (i < count) {
    equalize_for(Tier::kScalar)(hr + i, hi + i, g + i, rr + i, ri + i, cr, ci,
                                count - i, zr + i, zi + i);
  }
}

void aes_encrypt_aesni(const std::uint8_t* round_keys, const std::uint8_t* in,
                       std::uint8_t* out) {
  const auto* rk = reinterpret_cast<const __m128i*>(round_keys);
  // Blocks are std::arrays with no alignment contract; one load, one store.
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(  // witag-lint: allow(simd-unaligned)
          reinterpret_cast<const __m128i*>(in)),
      _mm_load_si128(rk));
#pragma GCC unroll 9
  for (int r = 1; r < 10; ++r) s = _mm_aesenc_si128(s, _mm_load_si128(rk + r));
  _mm_storeu_si128(  // witag-lint: allow(simd-unaligned)
      reinterpret_cast<__m128i*>(out),
      _mm_aesenclast_si128(s, _mm_load_si128(rk + 10)));
}

#else  // !(defined(__AVX2__) && defined(__AES__))

bool avx2_compiled() { return false; }

void acs_block_avx2(const std::int8_t* llrs, std::size_t n_steps,
                    std::uint64_t* decisions, std::int16_t* metrics) {
  acs_block_for(Tier::kScalar)(llrs, n_steps, decisions, metrics);
}

void demap_block_avx2(const double* re, const double* im, const double* nv,
                      std::size_t count, const DemapAxes& ax, double* out) {
  demap_block_for(Tier::kScalar)(re, im, nv, count, ax, out);
}

void demap_quantize_avx2(const double* re, const double* im, const double* nv,
                         std::size_t count, const DemapAxes& ax, double scale,
                         std::int8_t* out) {
  demap_quantize_for(Tier::kScalar)(re, im, nv, count, ax, scale, out);
}

void equalize_block_avx2(const double* hr, const double* hi, const double* g,
                         const double* rr, const double* ri, double cr,
                         double ci, std::size_t count, double* zr,
                         double* zi) {
  equalize_for(Tier::kScalar)(hr, hi, g, rr, ri, cr, ci, count, zr, zi);
}

void fft_radix4_pass_avx2(util::Cx* data, std::size_t n, std::size_t h,
                          const util::Cx* w1, const util::Cx* w2) {
  fft_kernels_for(Tier::kScalar).radix4_pass(data, n, h, w1, w2);
}

void fft_len2_pass_avx2(util::Cx* data, std::size_t n) {
  fft_kernels_for(Tier::kScalar).len2_pass(data, n);
}

void fft_scale_avx2(util::Cx* data, std::size_t n, double scale) {
  fft_kernels_for(Tier::kScalar).scale(data, n, scale);
}

// Never selected: aes_encrypt_for returns nullptr when this tier is off.
void aes_encrypt_aesni(const std::uint8_t*, const std::uint8_t*,
                       std::uint8_t*) { std::abort(); }

#endif  // defined(__AVX2__) && defined(__AES__)

}  // namespace witag::phy::simd::kernels
