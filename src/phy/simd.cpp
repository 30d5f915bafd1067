// Tier detection, the WITAG_SIMD override, and the scalar kernels: the
// only tier on non-x86 hosts and on x86 hosts without AVX2 or AES-NI,
// and the one WITAG_SIMD=off forces. The vector kernels live in
// simd_avx2.cpp (every hot kernel but the placement, and the AES-NI
// block cipher) and simd_avx512.cpp (the Viterbi ACS and the soft-bit
// placement); this TU owns
// the dispatch, so a build without AVX2 or AVX-512 support (or a non-x86
// target) runs the lower tiers without any caller noticing.

#include "phy/simd.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <utility>

#include "phy/trellis.hpp"
#include "util/require.hpp"

namespace witag::phy::simd {
namespace {

Tier clamp_tier(Tier t) { return std::min(t, detect_best_tier()); }

/// True when `t` asks for at least AVX2 and this host and build can run
/// it. `>=`, not `==`: a kernel with no AVX-512 version must keep its
/// AVX2 one at kAvx512, and an `==` would send it back to scalar there
/// with byte-identical (so unnoticed) outputs.
bool use_avx2(Tier t) {
  return t >= Tier::kAvx2 && detect_best_tier() >= Tier::kAvx2;
}

/// WITAG_SIMD, read once per process. Unset or empty means "auto" (best
/// available); "off"/"scalar" force the portable path and "avx2" caps
/// at AVX2, which CI's simd-dispatch job byte-compares against native.
/// Any other value would make that comparison vacuous, so it ends the
/// process. _Exit, not exit: the first dispatch may run on a worker
/// thread while others wait on this static, and exit()'s destructors
/// could join them.
Tier env_tier() {
  static const Tier tier = [] {
    const char* env = std::getenv("WITAG_SIMD");
    if (!env || *env == '\0') return detect_best_tier();
    const std::optional<Tier> parsed = parse_tier_override(env);
    if (!parsed) {
      std::fprintf(stderr,
                   "witag: unrecognized WITAG_SIMD=\"%s\"; accepted values: "
                   "off, scalar, 0, avx2, auto\n",
                   env);
      std::_Exit(2);
    }
    return clamp_tier(*parsed);
  }();
  return tier;
}

/// ScopedTier override: -1 = none, otherwise a Tier value. Relaxed is
/// enough — overrides are set from single-threaded test/bench setup.
std::atomic<int> g_override{-1};

// ---------------------------------------------------------------------
// Scalar kernels (the fallback tier, and the semantics every vector
// kernel must reproduce bit for bit).
// ---------------------------------------------------------------------

std::int16_t saturate16(int v) {
  return static_cast<std::int16_t>(std::clamp(v, -32768, 32767));
}

void acs_block_scalar(const std::int8_t* llrs, std::size_t n_steps,
                      std::uint64_t* decisions, std::int16_t* metrics) {
  std::array<std::int16_t, kNumStates> spare{};
  std::int16_t* cur = metrics;
  std::int16_t* nxt = spare.data();
  for (std::size_t step = 0; step < n_steps; ++step) {
    const std::int8_t la = llrs[2 * step];
    const std::int8_t lb = llrs[2 * step + 1];
    std::uint64_t word = 0;
    for (std::uint32_t ns = 0; ns < kNumStates / 2; ++ns) {
      // One branch metric fixes all four branches of the ns / ns + 32
      // butterfly (trellis.hpp's generator symmetry).
      const detail::Butterfly& bf = detail::kButterflies[ns];
      const int bm = (bf.a0 ? -la : la) + (bf.b0 ? -lb : lb);
      const std::int16_t lo0 = saturate16(cur[bf.s0] + bm);
      const std::int16_t lo1 = saturate16(cur[bf.s1] - bm);
      const std::int16_t hi0 = saturate16(cur[bf.s0] - bm);
      const std::int16_t hi1 = saturate16(cur[bf.s1] + bm);
      nxt[ns] = std::max(lo0, lo1);
      nxt[ns + kNumStates / 2] = std::max(hi0, hi1);
      word |= static_cast<std::uint64_t>(lo1 > lo0) << ns;
      word |= static_cast<std::uint64_t>(hi1 > hi0) << (ns + kNumStates / 2);
    }
    decisions[step] = word;
    std::swap(cur, nxt);
    if (step % kAcsRenormPeriod == kAcsRenormPeriod - 1) {
      const int base = cur[0];
      for (std::uint32_t s = 0; s < kNumStates; ++s) {
        cur[s] = saturate16(cur[s] - base);
      }
    }
  }
  if (cur != metrics) std::copy(cur, cur + kNumStates, metrics);
}

// The table loop: erasures zeroed, then one byte store per soft bit.
void place_scalar(const std::int8_t* llrs, std::size_t n_symbols,
                  const PlacePlan& plan, std::int8_t* out) {
  const std::span<const std::uint16_t> table = plan.table;
  if (plan.span != table.size()) {
    std::fill_n(out, n_symbols * plan.span, std::int8_t{0});
  }
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const std::int8_t* in = llrs + s * table.size();
    std::int8_t* at = out + s * plan.span;
    for (std::size_t j = 0; j < table.size(); ++j) at[table[j]] = in[j];
  }
}

// Max-log LLRs of one point: per-axis squared distances, their minima
// overall and split by each index bit, then the I-part + Q-part
// addition and final division of the reference's (min1 - min0) /
// noise_var over full distances. The demap math of the scalar tier;
// its two kernels below differ only in the store.
void demap_point_scalar(double yr, double yi, double noise_var,
                        const DemapAxes& ax, double* llr) {
  const unsigned ni = 1u << ax.i_bits;
  const unsigned nq = 1u << ax.q_bits;  // q_bits == 0 -> one level (0.0)
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Squared per-axis distances: the same subtract and multiply the
  // reference performs inside std::norm(y - table[i]).
  double di2[8];
  double dq2[8];
  for (unsigned j = 0; j < ni; ++j) {
    const double d = yr - ax.i_levels[j];
    di2[j] = d * d;
  }
  for (unsigned q = 0; q < nq; ++q) {
    const double d = yi - ax.q_levels[q];
    dq2[q] = d * d;
  }
  double min_i = kInf, min_q = kInf;
  double min0_i[4], min1_i[4], min0_q[4], min1_q[4];
  for (unsigned b = 0; b < ax.i_bits; ++b) min0_i[b] = min1_i[b] = kInf;
  for (unsigned b = 0; b < ax.q_bits; ++b) min0_q[b] = min1_q[b] = kInf;
  for (unsigned j = 0; j < ni; ++j) {
    min_i = std::min(min_i, di2[j]);
    for (unsigned b = 0; b < ax.i_bits; ++b) {
      if ((j >> b) & 1u) {
        min1_i[b] = std::min(min1_i[b], di2[j]);
      } else {
        min0_i[b] = std::min(min0_i[b], di2[j]);
      }
    }
  }
  for (unsigned q = 0; q < nq; ++q) {
    min_q = std::min(min_q, dq2[q]);
    for (unsigned b = 0; b < ax.q_bits; ++b) {
      if ((q >> b) & 1u) {
        min1_q[b] = std::min(min1_q[b], dq2[q]);
      } else {
        min0_q[b] = std::min(min0_q[b], dq2[q]);
      }
    }
  }
  for (unsigned b = 0; b < ax.i_bits; ++b) {
    llr[b] = ((min1_i[b] + min_q) - (min0_i[b] + min_q)) / noise_var;
  }
  for (unsigned b = 0; b < ax.q_bits; ++b) {
    llr[ax.i_bits + b] =
        ((min_i + min1_q[b]) - (min_i + min0_q[b])) / noise_var;
  }
}

void demap_block_scalar(const double* re, const double* im, const double* nv,
                        std::size_t count, const DemapAxes& ax, double* out) {
  for (std::size_t p = 0; p < count; ++p) {
    demap_point_scalar(re[p], im[p], nv[p], ax, out + p * ax.n_bits);
  }
}

void demap_quantize_scalar(const double* re, const double* im,
                           const double* nv, std::size_t count,
                           const DemapAxes& ax, double scale,
                           std::int8_t* out) {
  double llr[8];
  for (std::size_t p = 0; p < count; ++p) {
    demap_point_scalar(re[p], im[p], nv[p], ax, llr);
    for (unsigned b = 0; b < ax.n_bits; ++b) {
      out[p * ax.n_bits + b] = quantize_llr(llr[b], scale);
    }
  }
}

void equalize_block_scalar(const double* hr, const double* hi,
                           const double* g, const double* rr,
                           const double* ri, double cr, double ci,
                           std::size_t count, double* zr, double* zi) {
  for (std::size_t i = 0; i < count; ++i) {
    const double yr = rr[i] * cr + ri[i] * ci;
    const double yi = ri[i] * cr - rr[i] * ci;
    // Compute-then-select, exactly like the vector blend: a dead bin's
    // quotient is produced (possibly NaN) and discarded.
    const double qr = (yr * hr[i] + yi * hi[i]) / g[i];
    const double qi = (yi * hr[i] - yr * hi[i]) / g[i];
    const bool dead = g[i] < kEqualizeMinGain;
    zr[i] = dead ? 0.0 : qr;
    zi[i] = dead ? 0.0 : qi;
  }
}

void quantize_scalar(const double* in, std::size_t n, double scale,
                     std::int8_t* out) {
  for (std::size_t k = 0; k < n; ++k) out[k] = quantize_llr(in[k], scale);
}

void deinterleave_scalar(const std::int8_t* in, const std::int32_t* map,
                         std::size_t n, std::int8_t* out) {
  for (std::size_t k = 0; k < n; ++k) out[k] = in[map[k]];
}

using util::Cx;

void fft_radix4_pass_scalar(Cx* data, std::size_t n, std::size_t h,
                            const Cx* w1, const Cx* w2) {
  // k outer so each twiddle triple is loaded once per pass instead of
  // once per block — the "hoist twiddle loads" win for the many-block
  // early stages.
  for (std::size_t k = 0; k < h; ++k) {
    const Cx w1k = w1[k];
    const Cx w2k = w2[k];
    const Cx w2kh = w2[k + h];
    for (std::size_t i = 0; i < n; i += 4 * h) {
      Cx& d0 = data[i + k];
      Cx& d1 = data[i + k + h];
      Cx& d2 = data[i + k + 2 * h];
      Cx& d3 = data[i + k + 3 * h];
      // First (half-h) stage on both sub-blocks, then the half-2h
      // stage across them: identical per-element arithmetic to running
      // the two radix-2 stages back to back.
      const Cx t = d1 * w1k;
      const Cx s0 = d0 + t;
      const Cx s1 = d0 - t;
      const Cx u = d3 * w1k;
      const Cx s2 = d2 + u;
      const Cx s3 = d2 - u;
      const Cx v0 = s2 * w2k;
      const Cx v1 = s3 * w2kh;
      d0 = s0 + v0;
      d2 = s0 - v0;
      d1 = s1 + v1;
      d3 = s1 - v1;
    }
  }
}

void fft_len2_pass_scalar(Cx* data, std::size_t n) {
  // Stage twiddle is exactly (1, 0); the reference still multiplies by
  // it, so do the same multiply to stay bit-identical on signed zeros.
  const Cx w{1.0, 0.0};
  for (std::size_t i = 0; i < n; i += 2) {
    const Cx a = data[i];
    const Cx v = data[i + 1] * w;
    data[i] = a + v;
    data[i + 1] = a - v;
  }
}

void fft_scale_scalar(Cx* data, std::size_t n, double scale) {
  for (std::size_t i = 0; i < n; ++i) data[i] *= scale;
}

constexpr FftKernels kFftScalar{fft_radix4_pass_scalar, fft_len2_pass_scalar,
                                fft_scale_scalar};

}  // namespace

// Vector kernel entry points, defined in simd_avx2.cpp and
// simd_avx512.cpp. Declared here (not in the public header) so only the
// dispatch functions see them.
namespace kernels {
bool avx2_compiled();
bool avx2_supported();
bool avx512_compiled();
bool avx512_supported();
void acs_block_avx512(const std::int8_t* llrs, std::size_t n_steps,
                      std::uint64_t* decisions, std::int16_t* metrics);
void acs_block_avx2(const std::int8_t* llrs, std::size_t n_steps,
                    std::uint64_t* decisions, std::int16_t* metrics);
void place_avx512(const std::int8_t* llrs, std::size_t n_symbols,
                  const PlacePlan& plan, std::int8_t* out);
void demap_block_avx2(const double* re, const double* im, const double* nv,
                      std::size_t count, const DemapAxes& ax, double* out);
void demap_quantize_avx2(const double* re, const double* im, const double* nv,
                         std::size_t count, const DemapAxes& ax, double scale,
                         std::int8_t* out);
void equalize_block_avx2(const double* hr, const double* hi, const double* g,
                         const double* rr, const double* ri, double cr,
                         double ci, std::size_t count, double* zr,
                         double* zi);
void quantize_avx2(const double* in, std::size_t n, double scale,
                   std::int8_t* out);
void deinterleave_avx2(const std::int8_t* in, const std::int32_t* map,
                       std::size_t n, std::int8_t* out);
void fft_radix4_pass_avx2(util::Cx* data, std::size_t n, std::size_t h,
                          const util::Cx* w1, const util::Cx* w2);
void fft_len2_pass_avx2(util::Cx* data, std::size_t n);
void fft_scale_avx2(util::Cx* data, std::size_t n, double scale);
void aes_encrypt_aesni(const std::uint8_t* round_keys, const std::uint8_t* in,
                       std::uint8_t* out);
}  // namespace kernels

std::int8_t quantize_llr(double llr, double scale) {
  double v = llr * scale;
  v = v < 127.0 ? v : 127.0;
  v = v > -127.0 ? v : -127.0;
  // Adding and subtracting 1.5 * 2^52 rounds to nearest, ties to even,
  // like the AVX2 tier's cvtpd2dq.
  constexpr double kRound = 0x1.8p52;
  v = (v + kRound) - kRound;
  return static_cast<std::int8_t>(v);
}

Tier detect_best_tier() {
  // The *_supported() probes are false on non-x86 targets.
  static const Tier best = [] {
    if (!kernels::avx2_compiled() || !kernels::avx2_supported()) {
      return Tier::kScalar;
    }
    if (!kernels::avx512_compiled() || !kernels::avx512_supported()) {
      return Tier::kAvx2;
    }
    return Tier::kAvx512;
  }();
  return best;
}

std::optional<Tier> parse_tier_override(std::string_view value) {
  if (value == "off" || value == "scalar" || value == "0") {
    return Tier::kScalar;
  }
  if (value == "avx2") return Tier::kAvx2;
  if (value == "auto") return Tier::kAvx512;
  return std::nullopt;
}

Tier active_tier() {
  const int override_tier = g_override.load(std::memory_order_relaxed);
  if (override_tier >= 0) return clamp_tier(static_cast<Tier>(override_tier));
  return env_tier();
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  WITAG_ENSURE(false);
  return "scalar";
}

ScopedTier::ScopedTier(Tier t)
    : previous_(g_override.load(std::memory_order_relaxed)) {
  g_override.store(static_cast<int>(clamp_tier(t)),
                   std::memory_order_relaxed);
}

ScopedTier::~ScopedTier() {
  g_override.store(previous_, std::memory_order_relaxed);
}

AcsBlockFn acs_block_for(Tier t) {
  if (t >= Tier::kAvx512 && detect_best_tier() >= Tier::kAvx512) {
    return kernels::acs_block_avx512;
  }
  return use_avx2(t) ? kernels::acs_block_avx2 : acs_block_scalar;
}

PlacePlan make_place_plan(std::span<const std::uint16_t> table,
                          std::size_t span) {
  constexpr std::size_t kChunk = 64;
  constexpr std::size_t kWindow = 128;
  PlacePlan plan;
  plan.table = table;
  plan.span = span;
  plan.windows = (table.size() + kWindow - 1) / kWindow;
  const std::size_t steps = (span + kChunk - 1) / kChunk * plan.windows;
  plan.index.resize(steps);
  plan.lanes.assign(steps, 0);
  for (std::size_t j = 0; j < table.size(); ++j) {
    WITAG_REQUIRE(table[j] < span);
    const std::size_t chunk = table[j] / kChunk;
    const std::size_t lane = table[j] % kChunk;
    for (std::size_t w = 0; w < plan.windows; ++w) {
      WITAG_REQUIRE(((plan.lanes[chunk * plan.windows + w] >> lane) & 1u) ==
                    0);
    }
    const std::size_t step = chunk * plan.windows + j / kWindow;
    plan.index[step].bytes[lane] = static_cast<std::uint8_t>(j % kWindow);
    plan.lanes[step] |= std::uint64_t{1} << lane;
  }
  return plan;
}

PlaceFn place_for(Tier t) {
  if (t >= Tier::kAvx512 && detect_best_tier() >= Tier::kAvx512) {
    return kernels::place_avx512;
  }
  return place_scalar;
}

DemapBlockFn demap_block_for(Tier t) {
  return use_avx2(t) ? kernels::demap_block_avx2 : demap_block_scalar;
}

DemapQuantizeFn demap_quantize_for(Tier t) {
  return use_avx2(t) ? kernels::demap_quantize_avx2 : demap_quantize_scalar;
}

EqualizeFn equalize_for(Tier t) {
  return use_avx2(t) ? kernels::equalize_block_avx2 : equalize_block_scalar;
}

QuantizeFn quantize_for(Tier t) {
  return use_avx2(t) ? kernels::quantize_avx2 : quantize_scalar;
}

DeinterleaveFn deinterleave_for(Tier t) {
  return use_avx2(t) ? kernels::deinterleave_avx2 : deinterleave_scalar;
}

const FftKernels& fft_kernels_for(Tier t) {
  static const FftKernels avx2{kernels::fft_radix4_pass_avx2,
                               kernels::fft_len2_pass_avx2,
                               kernels::fft_scale_avx2};
  return use_avx2(t) ? avx2 : kFftScalar;
}

AesEncryptFn aes_encrypt_for(Tier t) {
  return use_avx2(t) ? kernels::aes_encrypt_aesni : nullptr;
}

}  // namespace witag::phy::simd
