// PPDU assembly and reception: the full 802.11n-style BCC chain
// (scramble -> convolutional encode -> puncture -> interleave -> map ->
// OFDM) on the transmit side, and its inverse with least-squares channel
// estimation, per-subcarrier equalization, soft demapping and Viterbi
// decoding on the receive side.
//
// The PPDU is exposed as a timeline of frequency-domain OFDM symbols so
// the channel simulator can apply a (possibly time-varying) channel per
// symbol — which is exactly the granularity at which a WiTAG tag operates.
// The receiver decodes that timeline directly; only the envelope trigger
// renders time-domain samples (ofdm.hpp's to_time_into).
#pragma once

#include <cstdint>
#include <span>
#include <vector>
#include <cstddef>

#include "phy/channel_est.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/plcp.hpp"
#include "phy/viterbi.hpp"
#include "util/bits.hpp"

namespace witag::phy {

namespace simd {
struct PlacePlan;
struct TxMapPlan;
}  // namespace simd

/// Reusable buffers for the receive pipeline. One scratch serves any
/// number of sequential decodes; each buffer grows to the largest PPDU
/// seen and is then reused, so steady-state decode of an A-MPDU stream
/// performs no per-subframe heap allocation; receive_into() bumps the
/// `phy.decode.scratch_reuses` counter on every decode that grew
/// nothing. Not thread-safe: use one scratch per thread. witag::Session
/// decodes through one scratch per thread, shared by every session the
/// thread runs (session.cpp's exchange workspace), so a session holds
/// none; only perfbench's staged replay and the tests still wrap one in
/// phy::BatchDecoder (phy/batch.hpp).
struct DecodeScratch {
  ViterbiWorkspace viterbi;
  /// The last field's modulation: with the back half's code rate it
  /// names the MCS whose table places the LLRs.
  Modulation modulation = Modulation::kBpsk;
  std::vector<std::int8_t> llrs;   ///< Quantized field LLRs, air order.
  std::vector<std::int8_t> mother; ///< Mother-rate LLRs, erasures 0.
  util::BitVec bits;               ///< Viterbi output bits.
  util::BitVec plain;              ///< Descrambled field bits.

  /// Heap bytes currently reserved across all buffers (exported as the
  /// `phy.decode.scratch_bytes` gauge).
  std::size_t capacity_bytes() const;
};

/// Role of each symbol slot in the PPDU timeline. The layout is fixed:
/// slot 0 = STF, slots 1..2 = LTF, slots 3..4 = SIG, remainder = data.
enum class SlotKind : std::uint8_t { kStf, kLtf, kSig, kData };

inline constexpr std::size_t kStfSlots = 1;
inline constexpr std::size_t kLtfSlots = 2;
inline constexpr std::size_t kPreambleSlots = kStfSlots + kLtfSlots;
inline constexpr std::size_t kHeaderSlots = kPreambleSlots + kSigSymbols;

/// Transmit-side PPDU: the symbol timeline plus metadata.
struct TxPpdu {
  HtSig sig;
  std::vector<FreqSymbol> symbols;  ///< STF, LTF x2, SIG x2, data...
  std::size_t n_data_symbols = 0;

  std::size_t size() const { return symbols.size(); }
  /// On-air duration [us] at 4 us per symbol slot.
  double duration_us() const;
  /// Slot kind for a timeline index.
  SlotKind kind(std::size_t slot) const;
};

/// Transmitter options.
struct TxConfig {
  unsigned mcs_index = 0;
  std::uint8_t scrambler_seed = 0x5D;
};

/// Builds the PPDU carrying `psdu` into `out`, reusing the capacity of
/// its timeline; every field of `out` is overwritten. Requires a
/// non-empty PSDU smaller than 65536 bytes and a valid MCS. The timeline
/// is resized, not cleared, and every bin of every slot written. Per
/// field, the bits are encoded word-wide into a per-thread buffer, then
/// the field's OFDM symbols are written in place in the timeline by one
/// kernel call (simd::tx_map_for) through the MCS's tx_map_plan(),
/// which punctures, interleaves and maps, and then the pilots.
void transmit_into(std::span<const std::uint8_t> psdu, const TxConfig& cfg,
                   TxPpdu& out);

/// transmit_into() into a fresh PPDU.
TxPpdu transmit(std::span<const std::uint8_t> psdu, const TxConfig& cfg);

/// Receiver options.
struct RxConfig {
  bool cpe_correction = true;  ///< Pilot-based common-phase tracking.
};

/// Receive outcome. When `sig_ok` is false the PPDU is undecodable (the
/// header failed its CRC) and `psdu` is empty. Otherwise `psdu` holds the
/// decoded bytes, which may still contain bit errors — per-MPDU FCS
/// checking is the MAC layer's job.
struct RxResult {
  bool sig_ok = false;
  HtSig sig;
  util::ByteVec psdu;
  ChannelEstimate estimate;
};

/// Decodes a received symbol timeline (same layout as TxPpdu::symbols)
/// into `out`, reusing the buffers of `scratch` and `out`. This is the
/// one receive pipeline: channel estimate, SIG, then the data field
/// (each field through detail::field_llrs_into and
/// detail::field_bits_from_llrs), then descramble. Every field of `out`
/// is overwritten, so a result reused across PPDUs never keeps a stale
/// header. Requires at least the header slots.
void receive_into(std::span<const FreqSymbol> symbols, const RxConfig& cfg,
                  DecodeScratch& scratch, RxResult& out);

/// receive_into() with a fresh scratch and result.
RxResult receive(std::span<const FreqSymbol> symbols, const RxConfig& cfg);

/// Scratch-threaded variant: reuses `scratch` buffers across calls so
/// steady-state decode allocates only the returned RxResult contents.
RxResult receive(std::span<const FreqSymbol> symbols, const RxConfig& cfg,
                 DecodeScratch& scratch);

namespace detail {

/// The transmitter's gather table for `mcs_index` (the SIG field uses
/// MCS0's), from puncture_pattern() and interleave_map(): entry j of
/// n_cbps is the mother-rate position 2i + stream (A = 0, B = 1) of the
/// coded bit put on data subcarrier j / n_bpsc as bit j % n_bpsc, i the
/// input bit within the symbol. Symbol s uses it at input bit s * n_dbps.
/// The receiver places its soft bits through the same table.
std::span<const std::uint16_t> tx_gather_table(unsigned mcs_index);

/// The transmit-mapping plan of `mcs_index`: its tx_gather_table() over
/// the MCS's constellation and the data bins (simd::make_tx_map_plan),
/// built once per process.
const simd::TxMapPlan& tx_map_plan(unsigned mcs_index);

/// The placement plan of `mcs_index`: its tx_gather_table() over the
/// 2 × n_dbps mother-rate positions of a symbol, built once per process
/// (simd::make_place_plan; the eight plans take under 8 KB).
const simd::PlacePlan& place_plan(unsigned mcs_index);

/// What a clean weakest bit on an average-gain subcarrier quantizes to.
inline constexpr double kLlrFullScale = 32.0;

/// The one LLR quantization scale of a field: kLlrFullScale ×
/// max(noise_var, 1e-12) / (mean_gain × d²), d² the squared distance
/// between adjacent levels (4, 2, 0.4, 4/42 for BPSK to 64-QAM); 0 when
/// mean_gain <= simd::kEqualizeMinGain (nothing to decode).
double llr_scale(const ChannelEstimate& est, Modulation mod);

/// Front half of a field decode, one pass per OFDM symbol: the
/// equalizer's plan is built once for the field, then each symbol is
/// equalized (points only) and demapped and quantized at the field's
/// llr_scale() in one kernel (simd::demap_quantize_for), straight into
/// its slot of `scratch.llrs` in air order (resized to the field).
/// Records `mod` in `scratch.modulation`. receive_into() runs this and
/// the back half below once per field; they are exposed so a profiler
/// can time each half.
void field_llrs_into(std::span<const FreqSymbol> symbols,
                     const ChannelEstimate& est, Modulation mod,
                     std::size_t first_symbol_index, bool cpe_correction,
                     DecodeScratch& scratch);

/// Back half: places each of `scratch.llrs` at its mother-rate position
/// in `scratch.mother` through the place_plan() of the MCS with
/// `scratch.modulation` and `rate` (simd::place_for; the erasures the
/// puncturer made read 0), truncates to `n_info_bits` information bits
/// (0 = decode everything; the data field stops at the tail where the
/// trellis terminates) and Viterbi-decodes into `scratch.bits`. The
/// table's one pass both deinterleaves and depunctures.
void field_bits_from_llrs(CodeRate rate, std::size_t n_info_bits,
                          DecodeScratch& scratch);

}  // namespace detail

}  // namespace witag::phy
