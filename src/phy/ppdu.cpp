#include "phy/ppdu.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

#include "obs/obs.hpp"
#include "phy/constellation.hpp"
#include "phy/convolutional.hpp"
#include "phy/interleaver.hpp"
#include "phy/preamble.hpp"
#include "phy/scrambler.hpp"
#include "phy/viterbi.hpp"
#include "util/require.hpp"
#include "util/complexvec.hpp"

namespace witag::phy {
namespace {

constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;

// Coded bits per OFDM symbol at the densest modulation (64-QAM).
constexpr std::size_t kMaxCodedBitsPerSymbol =
    std::size_t{kDataSubcarriers} * 6;

template <typename T>
std::size_t vec_capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

// Transmit intermediates, one set per thread like viterbi_decode's
// workspace: each buffer grows to the largest field the thread has
// encoded and is then reused, so transmit() allocates only the returned
// timeline and no Session owns a transmit buffer.
struct TxWorkspace {
  util::BitVec data;   ///< Service + PSDU + tail + pad, scrambled in place.
  util::BitVec coded;  ///< Mother-rate code bits, punctured in place.
};

TxWorkspace& tx_workspace() {
  thread_local TxWorkspace ws;
  return ws;
}

// Encodes `bits` (already scrambled where applicable) into OFDM data
// symbols appended to `out`. The whole field is encoded and punctured in
// the thread's coded buffer; each symbol is then interleaved and mapped
// through stack buffers. `bits` must fill a whole number of symbols
// after encoding. `first_symbol_index` sets pilot polarity.
void encode_field(std::span<const std::uint8_t> bits, Modulation mod,
                  CodeRate rate, std::size_t first_symbol_index,
                  std::vector<FreqSymbol>& out) {
  util::BitVec& coded_buf = tx_workspace().coded;
  coded_buf.resize(2 * bits.size());
  const std::span<std::uint8_t> mother(coded_buf);
  convolutional_encode_into(bits, mother);
  const std::span<std::uint8_t> coded =
      mother.first(punctured_length(mother.size(), rate));
  puncture_into(mother, rate, coded);
  const unsigned n_cbps = kDataSubcarriers * bits_per_symbol(mod);
  WITAG_REQUIRE(coded.size() % n_cbps == 0);

  std::array<std::uint8_t, kMaxCodedBitsPerSymbol> interleaved{};
  std::array<util::Cx, kDataSubcarriers> points{};
  const std::span<std::uint8_t> symbol_bits(interleaved.data(), n_cbps);
  for (std::size_t off = 0; off < coded.size(); off += n_cbps) {
    interleave_into(coded.subspan(off, n_cbps), mod, symbol_bits);
    map_bits_into(symbol_bits, mod, points);
    out.push_back(
        assemble_data_symbol(points, first_symbol_index + off / n_cbps));
  }
}

// Inverse of encode_field: equalize, soft-demap and deinterleave each
// symbol, then depuncture and Viterbi-decode the concatenated stream.
void decode_field(std::span<const FreqSymbol> symbols,
                  const ChannelEstimate& est, Modulation mod, CodeRate rate,
                  std::size_t first_symbol_index, bool cpe_correction,
                  std::size_t n_info_bits, DecodeScratch& scratch) {
  detail::field_llrs_into(symbols, est, mod, first_symbol_index,
                          cpe_correction, scratch);
  detail::field_bits_from_llrs(rate, n_info_bits, scratch);
}

// The receive pipeline behind receive_into(). Overwrites every field of
// `out`; returns with sig_ok false when the header is unusable or the
// capture is truncated.
void decode_ppdu(std::span<const FreqSymbol> symbols, const RxConfig& cfg,
                 DecodeScratch& scratch, RxResult& out) {
  WITAG_REQUIRE(symbols.size() >= kHeaderSlots);
  out.sig_ok = false;
  out.sig = HtSig{};
  out.psdu.clear();

  // One channel estimate for the whole PPDU, taken from the LTF slots.
  out.estimate = estimate_channel(symbols.subspan(kStfSlots, kLtfSlots));

  // SIG field (consumed from scratch.bits before the data field reuses
  // the buffer).
  decode_field(symbols.subspan(kPreambleSlots, kSigSymbols), out.estimate,
               Modulation::kBpsk, CodeRate::kHalf, 0, cfg.cpe_correction, 0,
               scratch);
  const auto sig = decode_sig(scratch.bits);
  if (!sig || sig->mcs_index >= kNumMcs || sig->length == 0) {
    return;  // header unusable; receiver drops the PPDU
  }
  out.sig = *sig;

  const McsParams& m = mcs(out.sig.mcs_index);
  const std::size_t n_sym = data_symbols_for(out.sig.length, m);
  if (symbols.size() < kHeaderSlots + n_sym) {
    return;  // truncated capture; treat as undecodable
  }
  out.sig_ok = true;

  // Decode through service + PSDU + tail; the trellis terminates there
  // and the remaining pad bits carry nothing.
  const std::size_t payload_bits = 8 * out.sig.length;
  decode_field(symbols.subspan(kHeaderSlots, n_sym), out.estimate,
               m.modulation, m.rate, kSigSymbols, cfg.cpe_correction,
               kServiceBits + payload_bits + kTailBits, scratch);

  // Descramble: the service field is transmitted as zeros, so the first 7
  // scrambled bits reveal the scrambler state (802.11 receivers recover
  // the seed the same way).
  descramble_recover_into(scratch.bits, scratch.plain);

  WITAG_ENSURE(scratch.plain.size() >= kServiceBits + payload_bits);
  const std::span<const std::uint8_t> payload(
      scratch.plain.data() + kServiceBits, payload_bits);
  util::bits_to_bytes_into(payload, out.psdu);
}

}  // namespace

namespace detail {

void field_llrs_into(std::span<const FreqSymbol> symbols,
                     const ChannelEstimate& est, Modulation mod,
                     std::size_t first_symbol_index, bool cpe_correction,
                     DecodeScratch& scratch) {
  const unsigned n_cbps = kDataSubcarriers * bits_per_symbol(mod);
  // resize, not assign: every slot is written below, one symbol's
  // deinterleaved LLRs at a time.
  scratch.llrs.resize(symbols.size() * n_cbps);
  const std::span<double> field(scratch.llrs);
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    equalize_into(symbols[s], est, first_symbol_index + s, cpe_correction,
                  scratch.eq);
    demap_soft_into(scratch.eq.points, mod, scratch.eq.noise_vars,
                    scratch.sym_llrs);
    deinterleave_llrs_into(scratch.sym_llrs, mod,
                           field.subspan(s * n_cbps, n_cbps));
  }
}

void field_bits_from_llrs(CodeRate rate, std::size_t n_info_bits,
                          DecodeScratch& scratch) {
  const auto frac = rate_fraction(rate);
  // llrs.size() punctured bits carry llrs.size() * num / den info bits at
  // the mother rate.
  const std::size_t n_info = scratch.llrs.size() * frac.num / frac.den;
  depuncture_into(scratch.llrs, rate, 2 * n_info, scratch.mother);
  if (n_info_bits != 0) {
    WITAG_REQUIRE(n_info_bits <= n_info);
    scratch.mother.resize(2 * n_info_bits);
  }
  viterbi_decode(scratch.mother, scratch.viterbi, scratch.bits);
}

}  // namespace detail

std::size_t DecodeScratch::capacity_bytes() const {
  return viterbi.capacity_bytes() + vec_capacity_bytes(eq.points) +
         vec_capacity_bytes(eq.noise_vars) + vec_capacity_bytes(sym_llrs) +
         vec_capacity_bytes(llrs) +
         vec_capacity_bytes(mother) + vec_capacity_bytes(bits) +
         vec_capacity_bytes(plain) + vec_capacity_bytes(symbols) +
         vec_capacity_bytes(fft_work);
}

double TxPpdu::duration_us() const {
  return static_cast<double>(symbols.size()) * kSymbolDurationUs;
}

SlotKind TxPpdu::kind(std::size_t slot) const {
  WITAG_REQUIRE(slot < symbols.size());
  if (slot < kStfSlots) return SlotKind::kStf;
  if (slot < kPreambleSlots) return SlotKind::kLtf;
  if (slot < kHeaderSlots) return SlotKind::kSig;
  return SlotKind::kData;
}

TxPpdu transmit(std::span<const std::uint8_t> psdu, const TxConfig& cfg) {
  WITAG_SPAN_CAT("phy.transmit", "phy");
  WITAG_REQUIRE(!psdu.empty());
  WITAG_REQUIRE(psdu.size() < 65536);
  const McsParams& m = mcs(cfg.mcs_index);
  const std::size_t n_sym = data_symbols_for(psdu.size(), m);

  TxPpdu ppdu;
  ppdu.sig = HtSig{cfg.mcs_index, psdu.size()};
  ppdu.symbols.reserve(kHeaderSlots + n_sym);

  // Preamble.
  ppdu.symbols.push_back(stf_symbol());
  for (std::size_t i = 0; i < kLtfSlots; ++i) ppdu.symbols.push_back(ltf_symbol());

  // SIG field: BPSK rate 1/2, symbol indices 0..1 for pilot polarity.
  encode_field(encode_sig(ppdu.sig), Modulation::kBpsk, CodeRate::kHalf, 0,
               ppdu.symbols);
  WITAG_ENSURE(ppdu.symbols.size() == kHeaderSlots);

  // DATA field: service + PSDU + tail, padded to whole symbols, written
  // in place and scrambled in place (with the tail re-zeroed so the
  // decoder's trellis terminates).
  util::BitVec& data_buf = tx_workspace().data;
  data_buf.resize(n_sym * m.n_dbps);
  const std::span<std::uint8_t> bits(data_buf);
  const std::size_t tail_at = kServiceBits + 8 * psdu.size();
  std::fill_n(bits.begin(), kServiceBits, std::uint8_t{0});
  util::bytes_to_bits_into(psdu, bits.subspan(kServiceBits, 8 * psdu.size()));
  std::fill(bits.begin() + static_cast<std::ptrdiff_t>(tail_at), bits.end(),
            std::uint8_t{0});
  scramble_into(bits, cfg.scrambler_seed, bits);
  std::fill_n(bits.begin() + static_cast<std::ptrdiff_t>(tail_at),
              kTailBits, std::uint8_t{0});

  encode_field(bits, m.modulation, m.rate, kSigSymbols, ppdu.symbols);
  ppdu.n_data_symbols = ppdu.symbols.size() - kHeaderSlots;
  WITAG_ENSURE(ppdu.n_data_symbols == n_sym);
  return ppdu;
}

RxResult receive(std::span<const FreqSymbol> symbols, const RxConfig& cfg) {
  DecodeScratch scratch;
  return receive(symbols, cfg, scratch);
}

RxResult receive(std::span<const FreqSymbol> symbols, const RxConfig& cfg,
                 DecodeScratch& scratch) {
  RxResult out;
  receive_into(symbols, cfg, scratch, out);
  return out;
}

void receive_into(std::span<const FreqSymbol> symbols, const RxConfig& cfg,
                  DecodeScratch& scratch, RxResult& out) {
  WITAG_SPAN_CAT("phy.receive", "phy");
  const std::size_t capacity_before = scratch.capacity_bytes();
  decode_ppdu(symbols, cfg, scratch, out);
  // Counted after every decode, a dropped header or a truncated capture
  // included, so the zero-alloc check covers broken PPDUs too.
  const std::size_t capacity = scratch.capacity_bytes();
  if (capacity == capacity_before) {
    WITAG_COUNT("phy.decode.scratch_reuses", 1);
  }
  static obs::Gauge& scratch_gauge = obs::gauge("phy.decode.scratch_bytes");
  scratch_gauge.set(static_cast<double>(capacity));
}

util::CxVec to_samples(const TxPpdu& ppdu) {
  util::CxVec samples;
  samples.reserve(ppdu.symbols.size() * kSamplesPerSymbol);
  for (const FreqSymbol& sym : ppdu.symbols) {
    const util::CxVec block = to_time(sym);
    samples.insert(samples.end(), block.begin(), block.end());
  }
  return samples;
}

RxResult receive_samples(std::span<const util::Cx> samples,
                         const RxConfig& cfg) {
  DecodeScratch scratch;
  return receive_samples(samples, cfg, scratch);
}

RxResult receive_samples(std::span<const util::Cx> samples,
                         const RxConfig& cfg, DecodeScratch& scratch) {
  WITAG_REQUIRE(samples.size() % kSamplesPerSymbol == 0);
  scratch.symbols.resize(samples.size() / kSamplesPerSymbol);
  for (std::size_t slot = 0; slot < scratch.symbols.size(); ++slot) {
    from_time_into(samples.subspan(slot * kSamplesPerSymbol,
                                   kSamplesPerSymbol),
                   scratch.fft_work, scratch.symbols[slot]);
  }
  return receive(scratch.symbols, cfg, scratch);
}

}  // namespace witag::phy
