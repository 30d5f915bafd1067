// Test oracles: the plain, slow implementations the simulator's PHY
// kernels and CRC are checked against, bit for bit. Each exists once,
// here, and nothing in src/ calls them: the tests compare src/'s
// optimized paths with them, and bench/micro_phy times each kernel
// against its oracle.
//
// Coding (coding.cpp): the bit-serial convolutional encoder, the
// transition-oriented Viterbi decoder in doubles, the bit-serial
// scrambler and the byte-at-a-time CRC-32.
// FFT (fft.cpp): the radix-2 transform that re-derives its twiddles.
// Receive (receive.cpp): the receive chain as separate stages: the
// pilots' common phase error, equalize (std::complex division, or the
// separable divide the kernels use), full-table max-log demap,
// quantize, deinterleave and depuncture, and receive(), a whole PPDU
// decoded through those stages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "phy/channel_est.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/ppdu.hpp"
#include "util/bits.hpp"
#include "util/complexvec.hpp"

namespace witag::oracle {

// ---------------------------------------------------------------------
// Coding.
// ---------------------------------------------------------------------

/// The popcount-per-bit encoder the word-wide convolutional_encode is
/// parity-tested against.
util::BitVec convolutional_encode_reference(std::span<const std::uint8_t> bits);

/// The transition-oriented decoder (doubles, -inf pruning, per-call
/// allocations): on the same LLRs cast to double, phy::viterbi_decode
/// returns exactly its bits, ties included.
util::BitVec viterbi_reference(std::span<const double> llrs);

/// viterbi_reference() on int8 LLRs cast to double.
util::BitVec viterbi_reference(std::span<const std::int8_t> llrs);

/// The bit-serial scrambler the keystream-block phy::scramble is
/// parity-tested against. Requires seed in [1, 127].
util::BitVec scramble_reference(std::span<const std::uint8_t> bits,
                                std::uint8_t seed);

/// The bit-serial phy::descramble_recover. Requires >= 7 bits.
util::BitVec descramble_recover_reference(std::span<const std::uint8_t> bits);

/// The byte-at-a-time CRC-32 update the slicing-by-8
/// util::crc32_update is parity-tested against.
std::uint32_t crc32_update_bytewise(std::uint32_t state,
                                    std::span<const std::uint8_t> data);

// ---------------------------------------------------------------------
// FFT.
// ---------------------------------------------------------------------

/// The radix-2 transform that re-derives its twiddles per call, unitary
/// like phy::fft_inplace / ifft_inplace, which must equal it bit for
/// bit at every tier. Requires a power-of-two length >= 1.
void fft_reference_inplace(std::span<util::Cx> data, bool inverse);

// ---------------------------------------------------------------------
// Receive.
// ---------------------------------------------------------------------

/// One equalized data symbol: 52 points and each one's noise variance.
struct EqualizedSymbol {
  util::CxVec points;
  std::vector<double> noise_vars;
};

/// The original equalizer: the pilots' common phase error (when
/// `cpe_correction` is set), then std::complex division per subcarrier
/// (the kernels agree with it to ~1 ULP, not bit for bit). A bin with
/// |h|^2 below simd::kEqualizeMinGain reads 0 at
/// simd::kEqualizeDeadNoise.
EqualizedSymbol equalize_reference(const phy::FreqSymbol& rx,
                                   const phy::ChannelEstimate& est,
                                   std::size_t symbol_index,
                                   bool cpe_correction);

/// Max-log LLRs by a full table scan (O(points · bits · table));
/// positive favors bit 0, and noise_vars[p] scales point p's LLRs.
/// Requires one variance per point, each > 0.
std::vector<double> demap_soft_reference(std::span<const util::Cx> points,
                                         phy::Modulation mod,
                                         std::span<const double> noise_vars);

/// simd::quantize_llr written with libm: llr × scale clamped to ±127,
/// rounded half to even; a NaN reads 127.
std::int8_t quantize(double llr, double scale);

/// A field's air-order int8 LLRs: per symbol, the common phase error
/// and the separable divide in the association simd::EqualizeFn
/// documents (which every equalize kernel matches bit for bit), then
/// demap_soft_reference(), then quantize() at detail::llr_scale().
std::vector<std::int8_t> air_llrs(std::span<const phy::FreqSymbol> symbols,
                                  const phy::ChannelEstimate& est,
                                  phy::Modulation mod,
                                  std::size_t first_symbol_index,
                                  bool cpe_correction);

/// The mother-rate stream the decoder reads: deinterleave each symbol
/// of `air`, depuncture the field (erasures 0), truncate to
/// `n_info_bits` information bits (0 = all).
std::vector<std::int8_t> mother_llrs(std::span<const std::int8_t> air,
                                     phy::Modulation mod, phy::CodeRate rate,
                                     std::size_t n_info_bits);

/// A whole PPDU through the staged chain: src/'s estimate_channel,
/// decode_sig and detail::llr_scale, then, per field, air_llrs(),
/// mother_llrs() and viterbi_reference() on the int8 LLRs, and
/// descramble_recover_reference() on the data field, truncated like
/// phy::receive_into at the tail. Requires at least the header slots.
phy::RxResult receive(std::span<const phy::FreqSymbol> symbols,
                      const phy::RxConfig& cfg);

}  // namespace witag::oracle
