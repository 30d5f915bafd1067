// SSE2 kernels (two doubles per vector): the separable soft demap and
// the equalizer; Viterbi add-compare-select runs the scalar kernel at
// this tier. SSE2 is part of the x86-64 baseline, so these compile with
// no extra flags; on non-x86 targets the file compiles to the
// `sse2_available() == false` stubs and dispatch stays scalar.
// Bit-exactness: only packed add/sub/mul/min/xor/compare and bitwise
// selection are used — the same IEEE-754 operations as the scalar
// kernels, two lanes at a time (see simd.hpp).

#include "phy/simd.hpp"

#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#include <cstddef>
#endif

namespace witag::phy::simd::kernels {

#if defined(__SSE2__)

bool sse2_available() { return true; }

void demap_block_sse2(const double* re, const double* im, const double* nv,
                      std::size_t count, const DemapAxes& ax, double* out) {
  const unsigned ni = 1u << ax.i_bits;
  const unsigned nq = 1u << ax.q_bits;
  const __m128d inf = _mm_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t p = 0;
  for (; p + 2 <= count; p += 2) {
    // SoA spans land at arbitrary lane offsets inside vector-owned
    // storage, so these loads cannot assume 16-byte alignment.
    const __m128d yr =
        _mm_loadu_pd(re + p);  // witag-lint: allow(simd-unaligned)
    const __m128d yi =
        _mm_loadu_pd(im + p);  // witag-lint: allow(simd-unaligned)
    const __m128d noise =
        _mm_loadu_pd(nv + p);  // witag-lint: allow(simd-unaligned)
    __m128d min_i = inf, min_q = inf;
    __m128d min0_i[4], min1_i[4], min0_q[4], min1_q[4];
    for (unsigned b = 0; b < ax.i_bits; ++b) min0_i[b] = min1_i[b] = inf;
    for (unsigned b = 0; b < ax.q_bits; ++b) min0_q[b] = min1_q[b] = inf;
    for (unsigned j = 0; j < ni; ++j) {
      const __m128d d = _mm_sub_pd(yr, _mm_set1_pd(ax.i_levels[j]));
      const __m128d sq = _mm_mul_pd(d, d);
      min_i = _mm_min_pd(min_i, sq);
      for (unsigned b = 0; b < ax.i_bits; ++b) {
        if ((j >> b) & 1u) {
          min1_i[b] = _mm_min_pd(min1_i[b], sq);
        } else {
          min0_i[b] = _mm_min_pd(min0_i[b], sq);
        }
      }
    }
    for (unsigned q = 0; q < nq; ++q) {
      const __m128d d = _mm_sub_pd(yi, _mm_set1_pd(ax.q_levels[q]));
      const __m128d sq = _mm_mul_pd(d, d);
      min_q = _mm_min_pd(min_q, sq);
      for (unsigned b = 0; b < ax.q_bits; ++b) {
        if ((q >> b) & 1u) {
          min1_q[b] = _mm_min_pd(min1_q[b], sq);
        } else {
          min0_q[b] = _mm_min_pd(min0_q[b], sq);
        }
      }
    }
    alignas(16) double lanes[2];
    for (unsigned b = 0; b < ax.i_bits; ++b) {
      const __m128d m1 = _mm_add_pd(min1_i[b], min_q);
      const __m128d m0 = _mm_add_pd(min0_i[b], min_q);
      const __m128d llr = _mm_div_pd(_mm_sub_pd(m1, m0), noise);
      _mm_store_pd(lanes, llr);
      out[p * ax.n_bits + b] = lanes[0];
      out[(p + 1) * ax.n_bits + b] = lanes[1];
    }
    for (unsigned b = 0; b < ax.q_bits; ++b) {
      const __m128d m1 = _mm_add_pd(min_i, min1_q[b]);
      const __m128d m0 = _mm_add_pd(min_i, min0_q[b]);
      const __m128d llr = _mm_div_pd(_mm_sub_pd(m1, m0), noise);
      _mm_store_pd(lanes, llr);
      out[p * ax.n_bits + ax.i_bits + b] = lanes[0];
      out[(p + 1) * ax.n_bits + ax.i_bits + b] = lanes[1];
    }
  }
  if (p < count) {
    // Odd tail: one point through the scalar kernel (same per-point
    // math, so chunk boundaries never change results).
    demap_block_for(Tier::kScalar)(re + p, im + p, nv + p, count - p, ax,
                                   out + p * ax.n_bits);
  }
}

void equalize_block_sse2(const double* hr, const double* hi, const double* rr,
                         const double* ri, double cr, double ci,
                         double noise_floor, std::size_t count, double* zr,
                         double* zi, double* nv) {
  const __m128d cr_v = _mm_set1_pd(cr);
  const __m128d ci_v = _mm_set1_pd(ci);
  const __m128d nf_v = _mm_set1_pd(noise_floor);
  const __m128d min_gain = _mm_set1_pd(kEqualizeMinGain);
  const __m128d dead_nv = _mm_set1_pd(kEqualizeDeadNoise);
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    // The gather staging buffers are 32-byte aligned arrays, but this
    // kernel is also the AVX2 path's documented fallback for arbitrary
    // caller storage, so the loads stay unaligned.
    const __m128d h_r =
        _mm_loadu_pd(hr + i);  // witag-lint: allow(simd-unaligned)
    const __m128d h_i =
        _mm_loadu_pd(hi + i);  // witag-lint: allow(simd-unaligned)
    const __m128d r_r =
        _mm_loadu_pd(rr + i);  // witag-lint: allow(simd-unaligned)
    const __m128d r_i =
        _mm_loadu_pd(ri + i);  // witag-lint: allow(simd-unaligned)
    // Same association as the scalar kernel: a*b + c*d, left to right.
    const __m128d g =
        _mm_add_pd(_mm_mul_pd(h_r, h_r), _mm_mul_pd(h_i, h_i));
    const __m128d yr =
        _mm_add_pd(_mm_mul_pd(r_r, cr_v), _mm_mul_pd(r_i, ci_v));
    const __m128d yi =
        _mm_sub_pd(_mm_mul_pd(r_i, cr_v), _mm_mul_pd(r_r, ci_v));
    const __m128d qr = _mm_div_pd(
        _mm_add_pd(_mm_mul_pd(yr, h_r), _mm_mul_pd(yi, h_i)), g);
    const __m128d qi = _mm_div_pd(
        _mm_sub_pd(_mm_mul_pd(yi, h_r), _mm_mul_pd(yr, h_i)), g);
    const __m128d qn = _mm_div_pd(nf_v, g);
    // Dead-bin select: bitwise blend, exact like the scalar ternary.
    const __m128d dead = _mm_cmplt_pd(g, min_gain);
    _mm_storeu_pd(zr + i,  // witag-lint: allow(simd-unaligned)
                  _mm_andnot_pd(dead, qr));
    _mm_storeu_pd(zi + i,  // witag-lint: allow(simd-unaligned)
                  _mm_andnot_pd(dead, qi));
    _mm_storeu_pd(nv + i,  // witag-lint: allow(simd-unaligned)
                  _mm_or_pd(_mm_and_pd(dead, dead_nv),
                            _mm_andnot_pd(dead, qn)));
  }
  if (i < count) {
    equalize_for(Tier::kScalar)(hr + i, hi + i, rr + i, ri + i, cr, ci,
                                noise_floor, count - i, zr + i, zi + i,
                                nv + i);
  }
}

#else  // !defined(__SSE2__)

bool sse2_available() { return false; }

void demap_block_sse2(const double* re, const double* im, const double* nv,
                      std::size_t count, const DemapAxes& ax, double* out) {
  demap_block_for(Tier::kScalar)(re, im, nv, count, ax, out);
}

void equalize_block_sse2(const double* hr, const double* hi, const double* rr,
                         const double* ri, double cr, double ci,
                         double noise_floor, std::size_t count, double* zr,
                         double* zi, double* nv) {
  equalize_for(Tier::kScalar)(hr, hi, rr, ri, cr, ci, noise_floor, count, zr,
                              zi, nv);
}

#endif  // defined(__SSE2__)

}  // namespace witag::phy::simd::kernels
