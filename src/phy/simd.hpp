// Runtime SIMD capability tiers and the dispatch surface for the PHY hot
// kernels (Viterbi add-compare-select, soft demap, equalize,
// deinterleave, radix-4 FFT passes). There are three tiers: the portable
// scalar kernels; AVX2 kernels for every hot kernel; and AVX-512, which
// carries one kernel of its own, a register-resident Viterbi ACS, and
// runs the AVX2 kernels for everything else. Both vector tiers are
// selected at run time on x86 hosts that have them.
//
// Every kernel here is bit-identical to its scalar counterpart by
// construction: the build carries no -march/-ffast-math, so scalar code
// never contracts into FMA, and the vector kernels use only packed
// mul/add/sub/xor/min/max/compare — the same IEEE-754 operations on the
// same operands in the same association, just several lanes at a time.
// Negation is a sign-bit XOR (exact), selection is a bitwise blend or a
// max whose tie rule matches the scalar compare (exact), and reductions
// only reorder operations across independent outputs, never within one.
// tests/test_simd.cpp fuzzes every tier against the detail::*_reference
// implementations and the ACS kernels against each other.
//
// Dispatch is resolved once per call site from `active_tier()`: the
// best tier cpuid reports and the build compiled, capped by the
// WITAG_SIMD environment variable ("off"/"scalar"/"0", "avx2", "auto";
// see parse_tier_override) — CI's simd-dispatch job forces the scalar
// and AVX2 tiers and byte-compares bench stdout against native.
//
// Raw intrinsics live only in src/phy/simd_avx2.cpp and
// src/phy/simd_avx512.cpp; tools/witag_lint enforces this (rule
// `simd-intrinsic`).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "util/complexvec.hpp"

namespace witag::phy::simd {

/// Capability tiers, ordered: a higher tier implies the lower one, and
/// a kernel without an implementation at some tier dispatches to the
/// highest lower tier that has one.
enum class Tier : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Best tier the hardware and build support (ignores WITAG_SIMD).
/// AVX-512 needs both AVX-512F and AVX-512DQ.
Tier detect_best_tier();

/// Parses a WITAG_SIMD value into the tier it caps dispatch at:
/// "off", "scalar" and "0" give kScalar, "avx2" gives kAvx2, and "auto"
/// gives the highest tier (kAvx512). Anything else, including other
/// spellings and case, is nullopt. Pure: reads no environment and
/// detects no hardware.
std::optional<Tier> parse_tier_override(std::string_view value);

/// The tier kernels dispatch on: detect_best_tier() clamped by the
/// WITAG_SIMD environment variable (read once per process; unset or
/// empty means "auto") and by any ScopedTier override. Never exceeds
/// detect_best_tier(). An unrecognized WITAG_SIMD value prints one line
/// naming the accepted values to stderr and exits with status 2.
Tier active_tier();

/// Lower-case tier name ("scalar", "avx2", "avx512") for logs and
/// benches.
const char* tier_name(Tier t);

/// RAII tier override for tests and benches: clamps to the detected
/// best tier, restores the previous override on destruction. Not
/// thread-safe — use from single-threaded test/bench setup only.
class ScopedTier {
 public:
  explicit ScopedTier(Tier t);
  ~ScopedTier();
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  int previous_;
};

// ---------------------------------------------------------------------
// Viterbi add-compare-select.
// ---------------------------------------------------------------------

/// Add-compare-select over a whole trellis in one call: `n_steps`
/// steps, step k reading its two LLRs from llrs[2k] and llrs[2k + 1].
/// `metrics` holds the 64 path metrics at the start of the trellis on
/// entry and at its end on return. decisions[k] gets one bit per next
/// state: bit ns is set iff ns took its odd predecessor
/// ((2 * ns) & 63) + 1 at step k (strict m1 > m0, so ties keep the even
/// one). Any n_steps >= 0 is valid.
using AcsBlockFn = void (*)(const double* llrs, std::size_t n_steps,
                            std::uint64_t* decisions, double* metrics);

/// The ACS kernel for a tier (always non-null). The only kernel with an
/// AVX-512 implementation.
AcsBlockFn acs_block_for(Tier t);

// ---------------------------------------------------------------------
// Soft demap (separable Gray-QAM, SoA inputs).
// ---------------------------------------------------------------------

/// Per-axis view of a Gray-mapped constellation: the low `i_bits` of a
/// point index select the I (real) level, the remaining `q_bits` select
/// Q. BPSK has q_bits == 0 with the single Q "level" 0.0. Squared
/// distances are separable (d = dI² + dQ²), which is what lets the
/// kernels do per-axis minima instead of the reference's full table
/// scan per bit — see constellation.cpp for the bit-exactness argument.
struct DemapAxes {
  unsigned n_bits = 0;  ///< bits per point (i_bits + q_bits)
  unsigned i_bits = 0;
  unsigned q_bits = 0;
  std::array<double, 8> i_levels{};
  std::array<double, 8> q_levels{};
};

/// Demaps `count` equalized points given as parallel arrays (re/im and
/// per-point noise variance) into max-log LLRs: out[p * n_bits + b].
/// All noise variances must be > 0 (checked by the callers).
using DemapBlockFn = void (*)(const double* re, const double* im,
                              const double* nv, std::size_t count,
                              const DemapAxes& ax, double* out);

/// The demap kernel for a tier (always non-null).
DemapBlockFn demap_block_for(Tier t);

// ---------------------------------------------------------------------
// Equalize (separable complex divide over gathered data subcarriers).
// ---------------------------------------------------------------------

/// |h|^2 below this is a dead bin: the equalizer emits a neutral point
/// with kEqualizeDeadNoise variance instead of dividing by ~zero.
inline constexpr double kEqualizeMinGain = 1e-18;
inline constexpr double kEqualizeDeadNoise = 1e18;

/// Equalizes `count` data points given as parallel arrays: channel
/// estimate (hr/hi), received points (rr/ri), the common-phase-error
/// rotation (cr, ci) and the noise floor max(noise_var, 1e-12). Writes
/// equalized points (zr/zi) and post-equalization noise variances (nv).
/// Per point, in this exact association (every tier performs the same
/// IEEE-754 operations, so all tiers are bit-identical):
///   g  = hr*hr + hi*hi
///   yr = rr*cr + ri*ci          (rx * conj(cpe))
///   yi = ri*cr - rr*ci
///   zr = (yr*hr + yi*hi) / g    (y * conj(h) / |h|^2)
///   zi = (yi*hr - yr*hi) / g
///   nv = noise_floor / g
/// with g < kEqualizeMinGain selecting {0, 0, kEqualizeDeadNoise}.
using EqualizeFn = void (*)(const double* hr, const double* hi,
                            const double* rr, const double* ri, double cr,
                            double ci, double noise_floor, std::size_t count,
                            double* zr, double* zi, double* nv);

/// The equalize kernel for a tier (always non-null).
EqualizeFn equalize_for(Tier t);

// ---------------------------------------------------------------------
// Deinterleave (pure permutation gather: out[k] = in[map[k]]).
// ---------------------------------------------------------------------

/// Applies a precomputed permutation: out[k] = in[map[k]] for k in
/// [0, n). A pure data movement, so every tier is trivially
/// bit-identical; AVX2 uses vgatherdpd over the int32 index table.
using DeinterleaveFn = void (*)(const double* in, const std::int32_t* map,
                                std::size_t n, double* out);

/// The deinterleave kernel for a tier (always non-null).
DeinterleaveFn deinterleave_for(Tier t);

// ---------------------------------------------------------------------
// FFT passes (decimation-in-time, fused radix-4). See fft.cpp for the
// engine that sequences these over a plan's twiddle tables.
// ---------------------------------------------------------------------

/// One fused radix-4 pass: performs the two consecutive radix-2 stages
/// with half-lengths `h` and `2*h` over blocks of `4*h` elements. `w1`
/// points at the h-half stage's twiddles (h entries), `w2` at the
/// 2h-half stage's (2*h entries). Requires 4*h <= n.
using FftRadix4PassFn = void (*)(util::Cx* data, std::size_t n,
                                 std::size_t h, const util::Cx* w1,
                                 const util::Cx* w2);

/// The standalone length-2 stage used when log2(n) is odd. Requires
/// n >= 4 and even.
using FftLen2PassFn = void (*)(util::Cx* data, std::size_t n);

/// Final 1/sqrt(n) scaling over the whole buffer.
using FftScaleFn = void (*)(util::Cx* data, std::size_t n, double scale);

struct FftKernels {
  FftRadix4PassFn radix4_pass;
  FftLen2PassFn len2_pass;
  FftScaleFn scale;
};

/// The FFT pass kernels for a tier.
const FftKernels& fft_kernels_for(Tier t);

}  // namespace witag::phy::simd
