// AVX2 kernels: the int16 Viterbi add-compare-select (sixteen metrics
// per vector), the int8 deinterleave gather and, four doubles / two
// complex doubles per vector, the separable soft demap, the equalizer,
// the LLR quantizer and the fused radix-4 FFT passes. This TU is
// compiled with -mavx2 (and deliberately WITHOUT -mfma: the scalar code
// the double kernels must match bit for bit is built with no
// contraction, so the kernels stick to packed mul/add/sub — an FMA here
// would round differently). When the compiler cannot target AVX2 the
// file degrades to stubs and dispatch never selects this tier (see
// avx2_compiled()).

#include "phy/simd.hpp"

#include <cstdint>
#include <limits>

#include "phy/trellis.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#endif

namespace witag::phy::simd::kernels {

bool avx2_supported() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

#if defined(__AVX2__)

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
// own; `#pragma GCC unroll` does, which is what lets the per-bit minima
// and the LLR transpose live in registers instead of on the stack.

/// One axis of the separable demap, four points at a time: the squared
/// distances from y to the axis's 2^Bits levels reduced to their overall
/// minimum and, per index bit, the minima over the levels with that bit
/// clear (zero) and set (one). The scalar kernel's per-axis loop, in its
/// order.
template <unsigned Bits>
struct AxisMinima {
  __m256d all;
  __m256d zero[Bits > 0 ? Bits : 1];  // no zero-size arrays (BPSK's Q)
  __m256d one[Bits > 0 ? Bits : 1];
};

template <unsigned Bits>
inline AxisMinima<Bits> axis_minima(__m256d y,
                                    const std::array<double, 8>& levels,
                                    __m256d inf) {
  AxisMinima<Bits> m;
  m.all = inf;
#pragma GCC unroll 8
  for (unsigned b = 0; b < Bits; ++b) m.zero[b] = m.one[b] = inf;
#pragma GCC unroll 8
  for (unsigned j = 0; j < (1u << Bits); ++j) {
    const __m256d d = _mm256_sub_pd(y, _mm256_set1_pd(levels[j]));
    const __m256d sq = _mm256_mul_pd(d, d);
    m.all = _mm256_min_pd(m.all, sq);
#pragma GCC unroll 8
    for (unsigned b = 0; b < Bits; ++b) {
      if ((j >> b) & 1u) {
        m.one[b] = _mm256_min_pd(m.one[b], sq);
      } else {
        m.zero[b] = _mm256_min_pd(m.zero[b], sq);
      }
    }
  }
  return m;
}

/// The soft demap for one modulation: the axis bit counts, level counts
/// and LLR layout are compile-time constants. The operations and their
/// order are the scalar kernel's, four points at a time; the last
/// count % 4 points go through the scalar kernel itself.
template <unsigned IBits, unsigned QBits>
void demap_block_avx2_for(const double* re, const double* im,
                          const double* nv, std::size_t count,
                          const DemapAxes& ax, double* out) {
  constexpr unsigned kBits = IBits + QBits;
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t p = 0;
  for (; p + 4 <= count; p += 4) {
    // SoA spans land at arbitrary lane offsets inside vector-owned
    // storage, so these loads cannot assume 32-byte alignment.
    const __m256d yr =
        _mm256_loadu_pd(re + p);  // witag-lint: allow(simd-unaligned)
    const __m256d yi =
        _mm256_loadu_pd(im + p);  // witag-lint: allow(simd-unaligned)
    const __m256d noise =
        _mm256_loadu_pd(nv + p);  // witag-lint: allow(simd-unaligned)
    const AxisMinima<IBits> mi = axis_minima<IBits>(yr, ax.i_levels, inf);
    const AxisMinima<QBits> mq = axis_minima<QBits>(yi, ax.q_levels, inf);
    // LLRs bit-major, then transposed into the point-major output.
    alignas(32) double lanes[kBits][4];
#pragma GCC unroll 8
    for (unsigned b = 0; b < IBits; ++b) {
      const __m256d m1 = _mm256_add_pd(mi.one[b], mq.all);
      const __m256d m0 = _mm256_add_pd(mi.zero[b], mq.all);
      _mm256_store_pd(lanes[b], _mm256_div_pd(_mm256_sub_pd(m1, m0), noise));
    }
#pragma GCC unroll 8
    for (unsigned b = 0; b < QBits; ++b) {
      const __m256d m1 = _mm256_add_pd(mi.all, mq.one[b]);
      const __m256d m0 = _mm256_add_pd(mi.all, mq.zero[b]);
      _mm256_store_pd(lanes[IBits + b],
                      _mm256_div_pd(_mm256_sub_pd(m1, m0), noise));
    }
#pragma GCC unroll 4
    for (unsigned lane = 0; lane < 4; ++lane) {
#pragma GCC unroll 8
      for (unsigned b = 0; b < kBits; ++b) {
        out[(p + lane) * kBits + b] = lanes[b][lane];
      }
    }
  }
  if (p < count) {
    // Tail through the scalar kernel: per-point math is identical, so
    // chunk boundaries never change results.
    demap_block_for(Tier::kScalar)(re + p, im + p, nv + p, count - p, ax,
                                   out + p * kBits);
  }
}

}  // namespace

void demap_block_avx2(const double* re, const double* im, const double* nv,
                      std::size_t count, const DemapAxes& ax, double* out) {
  // One body per modulation, selected once per call (BPSK, QPSK,
  // 16-QAM, 64-QAM); constellation.cpp builds no other axes.
  switch (ax.i_bits * 4 + ax.q_bits) {
    case 1 * 4 + 0:
      return demap_block_avx2_for<1, 0>(re, im, nv, count, ax, out);
    case 1 * 4 + 1:
      return demap_block_avx2_for<1, 1>(re, im, nv, count, ax, out);
    case 2 * 4 + 2:
      return demap_block_avx2_for<2, 2>(re, im, nv, count, ax, out);
    case 3 * 4 + 3:
      return demap_block_avx2_for<3, 3>(re, im, nv, count, ax, out);
    default:
      return demap_block_for(Tier::kScalar)(re, im, nv, count, ax, out);
  }
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

void equalize_block_avx2(const double* hr, const double* hi, const double* rr,
                         const double* ri, double cr, double ci,
                         double noise_floor, std::size_t count, double* zr,
                         double* zi, double* nv) {
  const __m256d cr_v = _mm256_set1_pd(cr);
  const __m256d ci_v = _mm256_set1_pd(ci);
  const __m256d nf_v = _mm256_set1_pd(noise_floor);
  const __m256d min_gain = _mm256_set1_pd(kEqualizeMinGain);
  const __m256d dead_nv = _mm256_set1_pd(kEqualizeDeadNoise);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    // Callers may hand arbitrarily-offset slices, so loads/stores stay
    // unaligned (the gather staging arrays happen to be aligned).
    const __m256d h_r =
        _mm256_loadu_pd(hr + i);  // witag-lint: allow(simd-unaligned)
    const __m256d h_i =
        _mm256_loadu_pd(hi + i);  // witag-lint: allow(simd-unaligned)
    const __m256d r_r =
        _mm256_loadu_pd(rr + i);  // witag-lint: allow(simd-unaligned)
    const __m256d r_i =
        _mm256_loadu_pd(ri + i);  // witag-lint: allow(simd-unaligned)
    // Same association as the scalar kernel; packed mul/add/sub/div
    // only, no FMA (this TU is compiled without -mfma on purpose).
    const __m256d g =
        _mm256_add_pd(_mm256_mul_pd(h_r, h_r), _mm256_mul_pd(h_i, h_i));
    const __m256d yr =
        _mm256_add_pd(_mm256_mul_pd(r_r, cr_v), _mm256_mul_pd(r_i, ci_v));
    const __m256d yi =
        _mm256_sub_pd(_mm256_mul_pd(r_i, cr_v), _mm256_mul_pd(r_r, ci_v));
    const __m256d qr = _mm256_div_pd(
        _mm256_add_pd(_mm256_mul_pd(yr, h_r), _mm256_mul_pd(yi, h_i)), g);
    const __m256d qi = _mm256_div_pd(
        _mm256_sub_pd(_mm256_mul_pd(yi, h_r), _mm256_mul_pd(yr, h_i)), g);
    const __m256d qn = _mm256_div_pd(nf_v, g);
    const __m256d dead = _mm256_cmp_pd(g, min_gain, _CMP_LT_OQ);
    _mm256_storeu_pd(zr + i,  // witag-lint: allow(simd-unaligned)
                     _mm256_andnot_pd(dead, qr));
    _mm256_storeu_pd(zi + i,  // witag-lint: allow(simd-unaligned)
                     _mm256_andnot_pd(dead, qi));
    _mm256_storeu_pd(nv + i,  // witag-lint: allow(simd-unaligned)
                     _mm256_blendv_pd(qn, dead_nv, dead));
  }
  if (i < count) {
    equalize_for(Tier::kScalar)(hr + i, hi + i, rr + i, ri + i, cr, ci,
                                noise_floor, count - i, zr + i, zi + i,
                                nv + i);
  }
}

namespace {

/// Four LLRs quantized as quantize_llr does: the same multiply, the
/// same min/max operand order (a NaN becomes 127), and cvtpd2dq's
/// rounding, nearest with ties to even like the scalar tier.
inline __m128i quantize4(const double* in, __m256d scale) {
  const __m256d v = _mm256_loadu_pd(in);  // witag-lint: allow(simd-unaligned)
  return _mm256_cvtpd_epi32(_mm256_max_pd(
      _mm256_min_pd(_mm256_mul_pd(v, scale), _mm256_set1_pd(127.0)),
      _mm256_set1_pd(-127.0)));
}

}  // namespace

void quantize_avx2(const double* in, std::size_t n, double scale,
                   std::int8_t* out) {
  const __m256d s = _mm256_set1_pd(scale);
  std::size_t k = 0;
  // Sixteen per store; ±127 packs through int16 to int8 exactly.
  for (; k + 16 <= n; k += 16) {
    const __m128i w0 =
        _mm_packs_epi32(quantize4(in + k, s), quantize4(in + k + 4, s));
    const __m128i w1 =
        _mm_packs_epi32(quantize4(in + k + 8, s), quantize4(in + k + 12, s));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k),
                     _mm_packs_epi16(w0, w1));
  }
  for (; k < n; ++k) out[k] = quantize_llr(in[k], scale);
}

void deinterleave_avx2(const std::int8_t* in, const std::int32_t* map,
                       std::size_t n, std::int8_t* out) {
  // A dword gather at byte offset map[k] reads in[map[k]] and the three
  // bytes after it, so the input goes through a copy with four bytes of
  // slack (a symbol is at most 312 bytes).
  alignas(32) std::array<std::int8_t, 320> padded;
  if (n + 4 > padded.size()) {
    return deinterleave_for(Tier::kScalar)(in, map, n, out);
  }
  std::memcpy(padded.data(), in, n);
  std::memset(padded.data() + n, 0, 4);
  const int* base = reinterpret_cast<const int*>(padded.data());
  // Byte 0 of each dword to the low four bytes of its lane, then the
  // two lanes' dwords side by side.
  const __m256i low_bytes = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i join = _mm256_setr_epi32(0, 4, 1, 1, 1, 1, 1, 1);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256i idx =
        _mm256_loadu_si256(  // witag-lint: allow(simd-unaligned)
            reinterpret_cast<const __m256i*>(map + k));
    // The all-ones masked form does the same eight loads; its defined
    // zero pass-through keeps GCC's self-initialized undefined vector
    // out of -Wmaybe-uninitialized.
    const __m256i v = _mm256_mask_i32gather_epi32(
        _mm256_setzero_si256(), base, idx, _mm256_set1_epi32(-1), 1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + k),
                     _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                         _mm256_shuffle_epi8(v, low_bytes), join)));
  }
  for (; k < n; ++k) out[k] = in[map[k]];
}

#else  // !defined(__AVX2__)

bool avx2_compiled() { return false; }

void acs_block_avx2(const std::int8_t* llrs, std::size_t n_steps,
                    std::uint64_t* decisions, std::int16_t* metrics) {
  acs_block_for(Tier::kScalar)(llrs, n_steps, decisions, metrics);
}

void demap_block_avx2(const double* re, const double* im, const double* nv,
                      std::size_t count, const DemapAxes& ax, double* out) {
  demap_block_for(Tier::kScalar)(re, im, nv, count, ax, out);
}

void equalize_block_avx2(const double* hr, const double* hi, const double* rr,
                         const double* ri, double cr, double ci,
                         double noise_floor, std::size_t count, double* zr,
                         double* zi, double* nv) {
  equalize_for(Tier::kScalar)(hr, hi, rr, ri, cr, ci, noise_floor, count, zr,
                              zi, nv);
}

void quantize_avx2(const double* in, std::size_t n, double scale,
                   std::int8_t* out) {
  quantize_for(Tier::kScalar)(in, n, scale, out);
}

void deinterleave_avx2(const std::int8_t* in, const std::int32_t* map,
                       std::size_t n, std::int8_t* out) {
  deinterleave_for(Tier::kScalar)(in, map, n, out);
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

#endif  // defined(__AVX2__)

}  // namespace witag::phy::simd::kernels
