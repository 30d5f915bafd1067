// Runtime SIMD capability tiers and the dispatch surface for the PHY hot
// kernels (Viterbi add-compare-select and traceback, soft-bit placement,
// transmit mapping, soft demap with or without the LLR quantizer,
// equalize, radix-4 FFT passes) and two non-PHY kernels, CCMP's AES
// block cipher and the channel's noise lanes and per-bin mix. Each runs
// on a hot path, except the double-precision
// demap (demap_block_for), which the parity tests compare with the
// reference. There are three tiers: the portable scalar kernels; AVX2 +
// AES-NI, with a kernel for each of those but the placement and the
// transmit mapping (the traceback's, which the AVX-512 tier shares, is
// two base x86-64 instructions per step in inline asm); and AVX-512
// (F + BW + DQ + VBMI), which carries four kernels of its own, a
// register-resident Viterbi ACS (one chain, or the two chains of a
// split trellis in one loop), the soft-bit placement and the transmit
// mapping, all moving bytes with vpermt2b, and the channel's eight
// noise lanes with their mix, and runs the AVX2 tier's kernels for
// everything else. Both vector tiers are selected at run time on x86
// hosts that have them (AVX2 without AES-NI runs the scalar tier;
// AVX-512 without VBMI, as on Skylake-SP and Cascade Lake, or without
// DQ runs the AVX2 tier).
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
// fuzzes every tier against the reference implementations in
// tests/oracle and the ACS kernels against each other.
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
#include "util/rng.hpp"

namespace witag::phy::simd {

/// Capability tiers, ordered: a higher tier implies the lower one, and
/// a kernel without an implementation at some tier dispatches to the
/// highest lower tier that has one.
enum class Tier : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Best tier the hardware and build support (ignores WITAG_SIMD).
/// kAvx2 needs AVX2 and AES-NI; AVX-512 needs both of those plus
/// AVX-512F, AVX-512BW, AVX-512DQ and AVX-512VBMI.
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

/// The ACS kernel for a tier (always non-null). The ACS (this kernel
/// and acs_pair_for's), the placement and the transmit mapping are the
/// kernels with an AVX-512 implementation.
AcsBlockFn acs_block_for(Tier t);

/// The two chains of a trellis split at step `split` (DESIGN.md §12.1):
/// chain A runs steps [0, split) from `metrics_a`, chain B runs steps
/// [split - warmup, n_steps) from `metrics_b`, and `snapshot` receives
/// B's metrics after its first `warmup` steps. Requires warmup <= split
/// <= n_steps and warmup % kAcsRenormPeriod == 0, so the snapshot
/// directly follows one of B's renormalizations.
struct AcsPair {
  std::size_t split = 0;
  std::size_t warmup = 0;
  std::uint64_t* warmup_decisions = nullptr;  ///< warmup words
  std::int16_t* metrics_a = nullptr;          ///< 64, in and out
  std::int16_t* metrics_b = nullptr;          ///< 64, in and out
  std::int16_t* snapshot = nullptr;           ///< 64, out
};

/// Runs both chains of `pair` over `n_steps` steps of `llrs`, with the
/// result of these acs_block_for calls, in this order:
///   acs(llrs, split, decisions, metrics_a);
///   acs(llrs + 2 (split - warmup), warmup, warmup_decisions, metrics_b);
///   copy metrics_b to snapshot;
///   acs(llrs + 2 split, n_steps - split, decisions + split, metrics_b);
/// so decisions[0 .. n_steps) holds A's words, then B's after its
/// warm-up. Those n_steps words may hold anything on entry: the AVX-512
/// kernel first stores each step's branch sums there and reads them
/// back.
using AcsPairFn = void (*)(const std::int8_t* llrs, std::size_t n_steps,
                           std::uint64_t* decisions, const AcsPair& pair);

/// The pair kernel for a tier (always non-null): AVX-512 interleaves the
/// two chains in one loop; the scalar and AVX2 tiers run the calls above
/// through their acs_block_for kernel.
AcsPairFn acs_pair_for(Tier t);

/// Walks `n_steps` decision words (acs_block_for's layout) back from
/// state 0 and writes each step's decoded bit: for step = n_steps - 1
/// down to 0, out[step] = state >> 5, then state = ((state << 1) & 63)
/// | bit `state` of decisions[step].
using TracebackFn = void (*)(const std::uint64_t* decisions,
                             std::size_t n_steps, std::uint8_t* out);

/// The traceback for a tier (always non-null). On x86 built with GCC or
/// Clang the vector tiers run the walk as two instructions per step
/// (bt + adc on one register that holds the state and the bits decided
/// so far); the scalar tier, and every tier elsewhere, runs the
/// portable loop.
TracebackFn traceback_for(Tier t);

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

/// Quantizes one LLR (double to int8 soft bit): v = llr * scale, clamped
/// to [-127, 127] as v = v < 127 ? v : 127 then v = v > -127 ? v : -127
/// (so a NaN reads 127), then rounded to nearest, ties to even. Every
/// tier performs this same multiply, clamp and rounding, with no libm
/// call.
std::int8_t quantize_llr(double llr, double scale);

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
// Transmit mapping (a field's input bits to the 64 frequency bins of
// each of its symbols).
// ---------------------------------------------------------------------

/// One OFDM symbol's 64 frequency bins (phy::FreqSymbol).
using SymbolBins = std::array<util::Cx, 64>;

/// How one MCS turns a symbol's coded bits into its 64 bins. Point k
/// goes to bin bins[k] as points[index], index = Σ_b c(table[k × n_bpsc
/// + b]) << b, where c(2i + stream) is the symbol's coded bit i of
/// stream A (0) or B (1) among its n_dbps. phy::detail::tx_map_plan
/// builds one per MCS, once per process, from the transmitter's gather
/// table.
///
/// The AVX-512 kernel reads the rest. It computes a symbol's A bytes and
/// then its B bytes, each stream padded to `windows` 64-byte registers,
/// and pairs the 2 × windows registers into 128-byte windows (the two
/// registers one vpermt2b reads). Bit b of every point is plane b: step
/// b × windows + w holds, in `index`, the window-relative source byte
/// of each point whose plane-b bit lies in window w, and in `lanes`
/// those points. The levels are the constellation's two axes: entry i
/// of points is (i_levels[i & (2^i_bits - 1)], q_levels[i >> i_bits])
/// with i_bits = (n_bpsc + 1) / 2, which constellation.cpp checks once
/// per table, bit for bit. Output register r holds bins 4r .. 4r + 3 as
/// (re, im) doubles: `spread[r]` has, for a data bin of point k, byte k
/// (its I level) at the low byte of its re qword and byte 64 + k (its Q
/// level) at that of its im qword, and `bin_lanes[r]` marks those
/// qwords.
struct TxMapPlan {
  std::span<const std::uint16_t> table;
  std::size_t n_dbps = 0;
  unsigned n_bpsc = 0;
  std::span<const util::Cx> points;
  std::span<const unsigned> bins;
  std::size_t windows = 0;
  std::vector<PlaceIndex> index;
  std::vector<std::uint64_t> lanes;
  alignas(64) std::array<double, 8> i_levels{};
  alignas(64) std::array<double, 8> q_levels{};
  std::array<PlaceIndex, 16> spread{};
  std::array<std::uint8_t, 16> bin_lanes{};
};

/// The plan of `table` (n_cbps = bins.size() × axes.n_bits entries, each
/// < 2 × n_dbps) for a constellation given as its `points` and their
/// `axes`, with data point k at bin bins[k] (< 64, none repeated).
TxMapPlan make_tx_map_plan(std::span<const std::uint16_t> table,
                           std::size_t n_dbps,
                           std::span<const util::Cx> points,
                           const DemapAxes& axes,
                           std::span<const unsigned> bins);

/// Bytes before a field's first input bit that a TxMapFn may read and
/// that must be 0: the encoder's start state, which the AVX-512
/// kernel's delayed taps load.
inline constexpr std::size_t kTxMapLead = 8;

/// Encodes and maps `n_symbols` consecutive symbols into `out[0 ..
/// n_symbols)`. `bits` holds the field's n_symbols × n_dbps input bits,
/// one byte (0 or 1) each, and the kTxMapLead bytes before it must be 0.
/// Symbol s's coded bit i of stream A or B is that of input bit
/// s × n_dbps + i under the rate-1/2 code of convolutional_streams_into
/// (generators 133 and 171 octal), the encoder starting in state 0 at
/// bits[0]. Every bin is written: each data bin gets its point, and
/// every other bin (DC, the guards and the pilots) reads 0, so a reused
/// `out` may hold anything on entry.
using TxMapFn = void (*)(const std::uint8_t* bits, std::size_t n_symbols,
                         const TxMapPlan& plan, SymbolBins* out);

/// The transmit-mapping kernel for a tier (always non-null): AVX-512
/// computes each symbol's streams in registers (shifted loads and
/// vpternlog), permutes their bytes through the plan and looks the
/// levels up with vpermt2pd; the scalar and AVX2 tiers encode the field
/// word-wide and run the table loop.
TxMapFn tx_map_for(Tier t);

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
// Channel noise: eight generator lanes and the channel's per-bin mix
// (channel::ChannelModel::apply_multi_into; DESIGN.md section 18.4).
// ---------------------------------------------------------------------

/// The generators the channel's noise is drawn from, stepped as one
/// group of eight: lane l is an ordinary util::Rng, and every tier draws
/// the same normals from it as lane l's Rng::normal() would.
inline constexpr std::size_t kNoiseLanes = 8;
using NoiseLanes = std::array<util::Rng, kNoiseLanes>;

/// Draws `count` standard normals into out[0 .. count) group by group:
/// group g is lanes[0].normal(), ..., lanes[7].normal(), and out[8g + l]
/// is lane l's draw. A last group that `count` does not fill is still
/// drawn whole, every lane stepping once, and its draws past `count` are
/// dropped; so each lane advances by ceil(count / 8) normal() calls.
using NormalLanesFn = void (*)(NoiseLanes& lanes, std::size_t count,
                               double* out);

/// The lane sampler for a tier (always non-null): AVX-512 runs
/// Rng::normal()'s fast path in all eight lanes at once and hands each
/// miss to that lane's Rng::normal_slow; the scalar and AVX2 tiers make
/// the eight normal() calls.
NormalLanesFn normal_lanes_for(Tier t);

/// One symbol through the channel. A bin is active when h[b] or tx[b]
/// is nonzero (a NaN part counts as nonzero). With n active bins and z
/// the 2n normals normal_lanes_for draws for them, the k-th active bin b
/// (in bin order) receives, in this association and with no FMA,
///   rx[b].re = (hr*tr - hi*ti) + sigma*z[2k]
///   rx[b].im = (hr*ti + hi*tr) + sigma*z[2k + 1]
/// for h[b] = (hr, hi) and tx[b] = (tr, ti), and every other bin reads
/// 0. So the lanes advance by a number of draws that depends only on
/// which bins are active, never on sigma. `rx` must not alias h or tx.
using ChannelMixFn = void (*)(NoiseLanes& lanes, const SymbolBins& h,
                              const SymbolBins& tx, double sigma,
                              SymbolBins& rx);

/// The mix for a tier (always non-null): AVX-512 forms four bins per
/// register and draws through its lane sampler; the scalar and AVX2
/// tiers run the bin loop on the scalar lane sampler.
ChannelMixFn channel_mix_for(Tier t);

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
