// Runtime SIMD capability tiers and the dispatch surface for the PHY hot
// kernels (Viterbi add-compare-select, soft-bit placement, soft demap
// with or without the LLR quantizer, equalize, LLR quantize,
// deinterleave, radix-4 FFT passes) and one non-PHY kernel,
// CCMP's AES block cipher. There are three tiers: the portable scalar
// kernels; AVX2 + AES-NI, with a kernel for each of those but the
// placement; and AVX-512 (F + BW + VBMI), which carries two kernels of
// its own, a register-resident Viterbi ACS and the soft-bit placement,
// both moving bytes with vpermt2b, and runs the AVX2 kernels for
// everything else. Both vector tiers are selected at run time on x86
// hosts that have them (AVX2 without AES-NI runs the scalar tier;
// AVX-512 F + BW without VBMI, as on Skylake-SP and Cascade Lake, runs
// the AVX2 tier).
//
// Every kernel here is bit-identical to its scalar counterpart. The
// Viterbi back end (int8 LLRs, int16 path metrics, saturating adds) is
// integer arithmetic, so its tiers agree exactly by construction. The
// double front end (equalize, demap, FFT, the quantizer's multiply) is
// IEEE-exact: the build carries no -march/-ffast-math, so scalar code
// never contracts into FMA, and the vector kernels use only packed
// mul/add/sub/div/min/max/compare — the same IEEE-754 operations on the
// same operands in the same association, several lanes at a time, with
// min/max operand order matching the scalar compare. tests/test_simd.cpp
// fuzzes every tier against the detail::*_reference implementations and
// the ACS kernels against each other.
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
#include <span>
#include <string_view>
#include <vector>

#include "util/complexvec.hpp"

namespace witag::phy::simd {

/// Capability tiers, ordered: a higher tier implies the lower one, and
/// a kernel without an implementation at some tier dispatches to the
/// highest lower tier that has one.
enum class Tier : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Best tier the hardware and build support (ignores WITAG_SIMD).
/// kAvx2 needs AVX2 and AES-NI; AVX-512 needs both of those plus
/// AVX-512F, AVX-512BW and AVX-512VBMI.
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
// Viterbi add-compare-select (int8 LLRs, int16 path metrics).
// ---------------------------------------------------------------------

/// The ACS renormalizes after every kAcsRenormPeriod-th step of a call.
inline constexpr std::size_t kAcsRenormPeriod = 16;

/// Start metrics within ±kAcsStartBound never saturate an add: before the
/// first renormalization a metric moves at most 16 × 256 (|LLR| <= 128);
/// from step 6 on, metrics span at most 2 × 6 × 256 = 3,072 (any state
/// reaches any other in six steps), so they stay within 3,072 + 4,096.
inline constexpr std::int16_t kAcsStartBound = 16384;

/// Add-compare-select over a whole trellis in one call: `n_steps`
/// steps, step k reading its two LLRs la = llrs[2k], lb = llrs[2k + 1].
/// `metrics` holds the 64 path metrics at the start of the trellis on
/// entry and at its end on return. For next state ns < 32, whose even
/// predecessor s0 = 2 * ns expects the coded bits (a0, b0) and whose odd
/// predecessor s1 = s0 + 1 expects their complements, let
/// bm = (a0 ? -la : la) + (b0 ? -lb : lb) (exact in int16). Then
///   ns:      m0 = sat(cur[s0] + bm), m1 = sat(cur[s1] - bm)
///   ns + 32: m0 = sat(cur[s0] - bm), m1 = sat(cur[s1] + bm)
/// with sat() saturating to int16, next metric max(m0, m1), and bit ns
/// of decisions[k] set iff m1 > m0 (strict, so ties keep the even
/// predecessor). After every kAcsRenormPeriod-th step (k % 16 == 15)
/// each metric has next-state 0's metric subtracted (saturating), so
/// state 0 reads 0. Any n_steps >= 0 is valid.
using AcsBlockFn = void (*)(const std::int8_t* llrs, std::size_t n_steps,
                            std::uint64_t* decisions, std::int16_t* metrics);

/// The ACS kernel for a tier (always non-null). One of the two kernels
/// with an AVX-512 implementation (the other is place_for's).
AcsBlockFn acs_block_for(Tier t);

// ---------------------------------------------------------------------
// Soft-bit placement (air-order int8 LLRs to mother-rate positions).
// ---------------------------------------------------------------------

/// 64 byte indices of a vpermt2b, on their own cache line.
struct alignas(64) PlaceIndex {
  std::array<std::uint8_t, 64> bytes{};
};

/// Where one MCS puts each of a symbol's `table.size()` (n_cbps) soft
/// bits among its `span` (2 × n_dbps) mother-rate positions: air bit j
/// goes to position table[j], and a position no entry names is an
/// erasure (the puncturer cut it) and reads 0. phy::detail::place_plan
/// builds one per MCS, once per process, from the transmitter's gather
/// table.
///
/// The AVX-512 kernel reads the rest. It cuts the span into 64-byte
/// chunks and the symbol's air bytes into 128-byte windows (the two
/// registers one vpermt2b reads); step c × windows + w holds, for
/// chunk c and window w, the window-relative source byte of every chunk
/// lane in `index` and, in `lanes`, the lanes whose source lies in that
/// window.
struct PlacePlan {
  std::span<const std::uint16_t> table;
  std::size_t span = 0;
  std::size_t windows = 0;
  std::vector<PlaceIndex> index;
  std::vector<std::uint64_t> lanes;
};

/// The plan of `table` over `span` positions (each entry < span, none
/// repeated).
PlacePlan make_place_plan(std::span<const std::uint16_t> table,
                          std::size_t span);

/// Places `n_symbols` consecutive symbols of air-order LLRs (n_cbps
/// each, at `llrs`) into `n_symbols` × span bytes at `out`:
/// out[s × span + table[j]] = llrs[s × n_cbps + j], and every other byte
/// of those spans is 0. Reads and writes nothing outside the two ranges,
/// so a reused `out` may hold anything on entry.
using PlaceFn = void (*)(const std::int8_t* llrs, std::size_t n_symbols,
                         const PlacePlan& plan, std::int8_t* out);

/// The placement kernel for a tier (always non-null): AVX-512 permutes
/// bytes through the plan; the scalar and AVX2 tiers run the table
/// loop.
PlaceFn place_for(Tier t);

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

/// The receiver's demap: the same LLRs, each quantized as
/// quantize_llr(llr, scale), so out[p * n_bits + b] holds point p's bit b
/// in air order (before deinterleaving). Per tier it shares the demap
/// math with demap_block_for's kernel and differs only in the store. A
/// vector tier may take the per-axis minima in any order: a point's
/// squared distances on one axis are either all >= +0, where min is
/// exact in any order, or all NaN, and a NaN LLR quantizes to 127
/// whichever NaN it is.
using DemapQuantizeFn = void (*)(const double* re, const double* im,
                                 const double* nv, std::size_t count,
                                 const DemapAxes& ax, double scale,
                                 std::int8_t* out);

/// The demap-and-quantize kernel for a tier (always non-null).
DemapQuantizeFn demap_quantize_for(Tier t);

// ---------------------------------------------------------------------
// Equalize (separable complex divide over gathered data subcarriers).
// ---------------------------------------------------------------------

/// |h|^2 below this is a dead bin: the equalizer emits a neutral point
/// with kEqualizeDeadNoise variance instead of dividing by ~zero.
inline constexpr double kEqualizeMinGain = 1e-18;
inline constexpr double kEqualizeDeadNoise = 1e18;

/// Equalizes `count` data points given as parallel arrays: the channel
/// estimate (hr/hi) and its gain g = hr*hr + hi*hi, both fixed for the
/// field, the received points (rr/ri) and the common-phase-error
/// rotation (cr, ci). Writes the equalized points (zr/zi). Per point,
/// in this exact association (every tier performs the same IEEE-754
/// operations, so all tiers are bit-identical):
///   yr = rr*cr + ri*ci          (rx * conj(cpe))
///   yi = ri*cr - rr*ci
///   zr = (yr*hr + yi*hi) / g    (y * conj(h) / |h|^2)
///   zi = (yi*hr - yr*hi) / g
/// with g < kEqualizeMinGain selecting {0, 0}. The post-equalization
/// noise variance, noise_floor / g (kEqualizeDeadNoise for a dead bin),
/// does not change within a field, so the field's plan holds it
/// (phy::EqualizerPlan).
using EqualizeFn = void (*)(const double* hr, const double* hi,
                            const double* g, const double* rr,
                            const double* ri, double cr, double ci,
                            std::size_t count, double* zr, double* zi);

/// The equalize kernel for a tier (always non-null).
EqualizeFn equalize_for(Tier t);

// ---------------------------------------------------------------------
// Quantize (double LLRs to int8 soft bits) and deinterleave (a pure
// byte permutation of them). The receiver quantizes inside
// demap_quantize_for's kernel and places its soft bits through the
// transmitter's table, so only tests and micro benches run these two.
// ---------------------------------------------------------------------

/// Quantizes one LLR: v = llr * scale, clamped to [-127, 127] as
/// v = v < 127 ? v : 127 then v = v > -127 ? v : -127 (so a NaN reads
/// 127), then rounded to nearest, ties to even. Every tier performs this
/// same multiply, clamp and rounding, with no libm call.
std::int8_t quantize_llr(double llr, double scale);

/// out[k] = quantize_llr(in[k], scale) for k in [0, n).
using QuantizeFn = void (*)(const double* in, std::size_t n, double scale,
                            std::int8_t* out);
QuantizeFn quantize_for(Tier t);

/// out[k] = in[map[k]] for k in [0, n): pure data movement, so every
/// tier is trivially identical; AVX2 gathers eight at a time over the
/// int32 index table.
using DeinterleaveFn = void (*)(const std::int8_t* in,
                                const std::int32_t* map, std::size_t n,
                                std::int8_t* out);
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

// ---------------------------------------------------------------------
// AES-128 block encryption (mac::Aes128's hardware path).
// ---------------------------------------------------------------------

/// Encrypts the 16-byte block at `in` into `out` (which may alias it)
/// under `round_keys`, the 11 FIPS-197 round keys as 176 contiguous
/// bytes, 16-byte aligned.
using AesEncryptFn = void (*)(const std::uint8_t* round_keys,
                              const std::uint8_t* in, std::uint8_t* out);

/// The AES-NI kernel at the vector tiers. Unlike every other *_for, it
/// returns nullptr at kScalar: the portable cipher, and the tests'
/// reference for this kernel, is mac::Aes128's own byte-wise rounds.
AesEncryptFn aes_encrypt_for(Tier t);

}  // namespace witag::phy::simd
