#include "phy/ppdu.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "obs/obs.hpp"
#include "phy/constellation.hpp"
#include "phy/convolutional.hpp"
#include "phy/interleaver.hpp"
#include "phy/preamble.hpp"
#include "phy/scrambler.hpp"
#include "phy/simd.hpp"
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
// encoded and is then reused, so transmit_into() allocates only when the
// caller's timeline grows and no Session owns a transmit buffer.
struct TxWorkspace {
  util::BitVec data;   ///< Service + PSDU + tail + pad, scrambled in place.
  util::BitVec coded;  ///< The field's A stream, then its B stream.
};

TxWorkspace& tx_workspace() {
  thread_local TxWorkspace ws;
  return ws;
}

// One MCS's gather table (detail::tx_gather_table).
std::vector<std::uint16_t> gather_table_for(const McsParams& m) {
  const std::vector<std::size_t> map = interleave_map(m.n_cbps, m.n_bpsc);
  const std::span<const std::uint8_t> pattern = puncture_pattern(m.rate);
  std::vector<std::uint16_t> table(m.n_cbps);
  // The k-th bit the puncturer keeps in a symbol's span is the
  // interleaver's input bit k, which it moves to position map[k].
  std::size_t k = 0;
  for (std::size_t pos = 0; k < m.n_cbps; ++pos) {
    if (pattern[pos % pattern.size()]) {
      table[map[k++]] = static_cast<std::uint16_t>(pos);
    }
  }
  return table;
}

// The MCS a field's modulation and code rate name (the SIG field is
// MCS0's BPSK at rate 1/2).
unsigned mcs_index_for(Modulation mod, CodeRate rate) {
  for (unsigned i = 0; i < kNumMcs; ++i) {
    if (mcs(i).modulation == mod && mcs(i).rate == rate) return i;
  }
  WITAG_REQUIRE(false);
  return 0;
}

// Encodes `bits` (scrambled where applicable), whole symbols at MCS
// `m`, into OFDM symbols appended to `out`: the A and B streams into the
// thread's coded buffer, then each symbol in place through the MCS's
// gather table. `first_symbol_index` sets pilot polarity.
void encode_field(std::span<const std::uint8_t> bits, const McsParams& m,
                  std::size_t first_symbol_index,
                  std::vector<FreqSymbol>& out) {
  const std::size_t n = bits.size();
  WITAG_REQUIRE(n % m.n_dbps == 0);
  util::BitVec& coded = tx_workspace().coded;
  coded.resize(2 * n);
  convolutional_streams_into(bits, std::span(coded).first(n),
                             std::span(coded).subspan(n));
  // The table's mother-rate positions 2i + stream, resolved into the
  // coded buffer, whose B stream starts n bytes after its A stream.
  const std::span<const std::uint16_t> table = detail::tx_gather_table(m.index);
  std::array<std::uint32_t, kMaxCodedBitsPerSymbol> at{};
  for (std::size_t j = 0; j < table.size(); ++j) {
    at[j] = static_cast<std::uint32_t>((table[j] >> 1) + (table[j] & 1u) * n);
  }
  const std::span<const util::Cx> points = constellation_points(m.modulation);
  const auto encode_symbols = [&](auto n_bpsc) {
    constexpr unsigned kBits = decltype(n_bpsc)::value;
    for (std::size_t s = 0; s < n / m.n_dbps; ++s) {
      FreqSymbol& symbol = out.emplace_back();
      const std::uint8_t* base = coded.data() + s * m.n_dbps;
      const std::uint32_t* entry = at.data();
      for (const unsigned bin : data_bins()) {
        const unsigned index =
            [&]<unsigned... B>(std::integer_sequence<unsigned, B...>) {
              return ((static_cast<unsigned>(base[entry[B]]) << B) | ...);
            }(std::make_integer_sequence<unsigned, kBits>{});
        symbol[bin] = points[index];
        entry += kBits;
      }
      set_pilots(symbol, first_symbol_index + s);
    }
  };
  switch (m.n_bpsc) {
    case 1: return encode_symbols(std::integral_constant<unsigned, 1>{});
    case 2: return encode_symbols(std::integral_constant<unsigned, 2>{});
    case 4: return encode_symbols(std::integral_constant<unsigned, 4>{});
    case 6: return encode_symbols(std::integral_constant<unsigned, 6>{});
  }
  WITAG_ENSURE(false);
}

// Inverse of encode_field: equalize, demap and quantize each symbol,
// then place the soft bits through the transmitter's table and
// Viterbi-decode the field.
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

std::span<const std::uint16_t> tx_gather_table(unsigned mcs_index) {
  static const std::array<std::vector<std::uint16_t>, kNumMcs> kTables = [] {
    std::array<std::vector<std::uint16_t>, kNumMcs> tables;
    for (unsigned i = 0; i < kNumMcs; ++i) tables[i] = gather_table_for(mcs(i));
    return tables;
  }();
  WITAG_REQUIRE(mcs_index < kNumMcs);
  return kTables[mcs_index];
}

const simd::PlacePlan& place_plan(unsigned mcs_index) {
  static const std::array<simd::PlacePlan, kNumMcs> kPlans = [] {
    std::array<simd::PlacePlan, kNumMcs> plans;
    for (unsigned i = 0; i < kNumMcs; ++i) {
      plans[i] = simd::make_place_plan(tx_gather_table(i),
                                       2 * std::size_t{mcs(i).n_dbps});
    }
    return plans;
  }();
  WITAG_REQUIRE(mcs_index < kNumMcs);
  return kPlans[mcs_index];
}

double llr_scale(const ChannelEstimate& est, Modulation mod) {
  if (!(est.mean_gain > simd::kEqualizeMinGain)) return 0.0;
  // Squared distance between adjacent levels of each normalized
  // constellation (BPSK, QPSK, 16-QAM, 64-QAM).
  constexpr std::array<double, 4> kLevelDistanceSq{4.0, 2.0, 0.4,
                                                   4.0 / 42.0};
  const double d2 = kLevelDistanceSq[static_cast<std::size_t>(mod)];
  return kLlrFullScale * std::max(est.noise_var, 1e-12) / (est.mean_gain * d2);
}

void field_llrs_into(std::span<const FreqSymbol> symbols,
                     const ChannelEstimate& est, Modulation mod,
                     std::size_t first_symbol_index, bool cpe_correction,
                     DecodeScratch& scratch) {
  WITAG_COUNT("phy.equalize.calls", symbols.size());
  const simd::DemapAxes& ax = demap_axes(mod);
  const std::size_t n_cbps = std::size_t{kDataSubcarriers} * ax.n_bits;
  const double scale = llr_scale(est, mod);
  EqualizerPlan plan;
  plan_equalizer(est, plan);
  if (!symbols.empty()) {
    for (const double nv : plan.noise_vars) WITAG_REQUIRE(nv > 0.0);
  }
  const simd::DemapQuantizeFn demap =
      simd::demap_quantize_for(simd::active_tier());
  scratch.modulation = mod;
  // resize, not assign: every slot is written below, one symbol's
  // air-order LLRs at a time.
  scratch.llrs.resize(symbols.size() * n_cbps);
  alignas(32) std::array<double, kDataSubcarriers> re, im;
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    equalize_points(symbols[s], est, plan, first_symbol_index + s,
                    cpe_correction, re.data(), im.data());
    demap(re.data(), im.data(), plan.noise_vars.data(), kDataSubcarriers, ax,
          scale, scratch.llrs.data() + s * n_cbps);
  }
}

void field_bits_from_llrs(CodeRate rate, std::size_t n_info_bits,
                          DecodeScratch& scratch) {
  const McsParams& m = mcs(mcs_index_for(scratch.modulation, rate));
  WITAG_REQUIRE(scratch.llrs.size() % m.n_cbps == 0);
  const std::size_t n_sym = scratch.llrs.size() / m.n_cbps;
  // Each symbol carries n_dbps information bits, 2 * n_dbps mother-rate
  // LLRs: those its table names, and erasures where the puncturer cut.
  const std::size_t span = 2 * std::size_t{m.n_dbps};
  std::size_t n_info = n_sym * m.n_dbps;
  if (n_info_bits != 0) {
    WITAG_REQUIRE(n_info_bits <= n_info);
    n_info = n_info_bits;
  }
  // Only the symbols that hold the first n_info bits are placed.
  const std::size_t placed = (2 * n_info + span - 1) / span;
  scratch.mother.resize(placed * span);
  simd::place_for(simd::active_tier())(scratch.llrs.data(), placed,
                                       place_plan(m.index),
                                       scratch.mother.data());
  scratch.mother.resize(2 * n_info);
  viterbi_decode(scratch.mother, scratch.viterbi, scratch.bits);
}

}  // namespace detail

std::size_t DecodeScratch::capacity_bytes() const {
  return viterbi.capacity_bytes() + vec_capacity_bytes(llrs) +
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
  TxPpdu ppdu;
  transmit_into(psdu, cfg, ppdu);
  return ppdu;
}

void transmit_into(std::span<const std::uint8_t> psdu, const TxConfig& cfg,
                   TxPpdu& ppdu) {
  WITAG_SPAN_CAT("phy.transmit", "phy");
  WITAG_REQUIRE(!psdu.empty());
  WITAG_REQUIRE(psdu.size() < 65536);
  const McsParams& m = mcs(cfg.mcs_index);
  const std::size_t n_sym = data_symbols_for(psdu.size(), m);

  ppdu.sig = HtSig{cfg.mcs_index, psdu.size()};
  ppdu.symbols.clear();
  ppdu.symbols.reserve(kHeaderSlots + n_sym);

  // Preamble.
  ppdu.symbols.push_back(stf_symbol());
  for (std::size_t i = 0; i < kLtfSlots; ++i) ppdu.symbols.push_back(ltf_symbol());

  // SIG field: BPSK rate 1/2, symbol indices 0..1 for pilot polarity.
  encode_field(encode_sig_bits(ppdu.sig), mcs(0), 0, ppdu.symbols);
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

  encode_field(bits, m, kSigSymbols, ppdu.symbols);
  ppdu.n_data_symbols = ppdu.symbols.size() - kHeaderSlots;
  WITAG_ENSURE(ppdu.n_data_symbols == n_sym);
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
  WITAG_SPAN_CAT("phy.rx_front", "phy");
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
  util::CxVec samples(ppdu.symbols.size() * kSamplesPerSymbol);
  util::CxVec work;
  for (std::size_t slot = 0; slot < ppdu.symbols.size(); ++slot) {
    to_time_into(ppdu.symbols[slot], work,
                 std::span(samples).subspan(slot * kSamplesPerSymbol,
                                            kSamplesPerSymbol));
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
