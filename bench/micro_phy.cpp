// Microbenchmarks (google-benchmark) for the PHY/MAC/crypto substrates
// and the end-to-end session round — the costs that bound how fast the
// experiment harness can simulate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "channel/channel_model.hpp"
#include "mac/aes.hpp"
#include "mac/station.hpp"
#include "micro_main.hpp"
#include "obs/report.hpp"
#include "oracle/oracle.hpp"
#include "util/cli.hpp"
#include "phy/channel_est.hpp"
#include "phy/convolutional.hpp"
#include "phy/fft.hpp"
#include "phy/ofdm.hpp"
#include "phy/ppdu.hpp"
#include "phy/scrambler.hpp"
#include "phy/simd.hpp"
#include "phy/viterbi.hpp"
#include "tag/envelope.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"
#include "witag/rateless.hpp"
#include "witag/session.hpp"

namespace {

using namespace witag;

// Planned (cached twiddle/bit-reversal) vs reference FFT across the
// transform sizes the simulator actually uses: 64 (one OFDM symbol) and
// the 128/256 oversampled render paths. The planned/reference pairs
// share identical input so the ratio is the plan cache's win; the obs
// reporter below exports each ns/op into the metrics JSON, which is how
// bench/BENCH_phy.json pins the baseline.
template <std::size_t N>
void BM_Fft(benchmark::State& state) {
  util::Rng rng(1);
  util::CxVec data(N);
  for (auto& x : data) x = rng.complex_normal(1.0);
  for (auto _ : state) {
    phy::fft_inplace(data);
    benchmark::DoNotOptimize(data.data());
  }
}
void BM_Fft64(benchmark::State& state) { BM_Fft<64>(state); }
void BM_Fft128(benchmark::State& state) { BM_Fft<128>(state); }
void BM_Fft256(benchmark::State& state) { BM_Fft<256>(state); }
BENCHMARK(BM_Fft64);
BENCHMARK(BM_Fft128);
BENCHMARK(BM_Fft256);

template <std::size_t N>
void BM_FftReference(benchmark::State& state) {
  util::Rng rng(1);
  util::CxVec data(N);
  for (auto& x : data) x = rng.complex_normal(1.0);
  for (auto _ : state) {
    oracle::fft_reference_inplace(data, /*inverse=*/false);
    benchmark::DoNotOptimize(data.data());
  }
}
void BM_Fft64Reference(benchmark::State& state) { BM_FftReference<64>(state); }
void BM_Fft128Reference(benchmark::State& state) {
  BM_FftReference<128>(state);
}
void BM_Fft256Reference(benchmark::State& state) {
  BM_FftReference<256>(state);
}
BENCHMARK(BM_Fft64Reference);
BENCHMARK(BM_Fft128Reference);
BENCHMARK(BM_Fft256Reference);

// The radix-4 engine on the scalar kernel tier, isolated from both the
// plan cache lookup (plan fetched once here) and the SIMD dispatch, so
// the gauge pins the stage-fusion win itself. BM_Fft64 above is the
// dispatched production path over the same engine.
void BM_Fft64Radix4(benchmark::State& state) {
  util::Rng rng(1);
  util::CxVec data(64);
  for (auto& x : data) x = rng.complex_normal(1.0);
  for (auto _ : state) {
    phy::detail::fft_radix4_inplace(data, /*inverse=*/false);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft64Radix4);

// Clean int8 LLRs at the receiver's full scale (a clean bit reads 32)
// for `n_info` bits ending in the 6-bit tail.
std::vector<std::int8_t> viterbi_bench_llrs(std::size_t n_info) {
  util::Rng rng(2);
  util::BitVec info = rng.bits(n_info - 6);
  info.insert(info.end(), 6, 0);
  const util::BitVec coded = phy::convolutional_encode(info);
  std::vector<std::int8_t> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? -32 : 32;
  }
  return llrs;
}

/// The same LLRs as doubles, for the reference decoder.
std::vector<double> viterbi_bench_llrs_wide(std::size_t n_info) {
  const std::vector<std::int8_t> llrs = viterbi_bench_llrs(n_info);
  return std::vector<double>(llrs.begin(), llrs.end());
}

void BM_ViterbiPerKilobit(benchmark::State& state) {
  const std::vector<std::int8_t> llrs = viterbi_bench_llrs(1006);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::viterbi_decode(llrs));
  }
}
BENCHMARK(BM_ViterbiPerKilobit);

// Optimized (int16 butterfly trellis + reusable workspace, zero
// steady-state allocations) vs reference Viterbi across the decode sizes
// the simulator sees: 48 info bits (one SIG field), 192 (one short
// MPDU), 1536 (a dense A-MPDU data field) and 53,270 (a whole
// 64-subframe MCS5 exchange, see BM_ViterbiExchange). Shared inputs per
// size (the reference gets them as doubles) so the ratio isolates the
// kernel rewrite; the regression gate pins the optimized gauges (see
// tools/bench_compare).
template <std::size_t N>
void BM_ViterbiOptimized(benchmark::State& state) {
  const std::vector<std::int8_t> llrs = viterbi_bench_llrs(N);
  phy::ViterbiWorkspace ws;
  util::BitVec bits;
  for (auto _ : state) {
    phy::viterbi_decode(llrs, ws, bits);
    benchmark::DoNotOptimize(bits.data());
  }
}
void BM_Viterbi48(benchmark::State& state) { BM_ViterbiOptimized<48>(state); }
void BM_Viterbi192(benchmark::State& state) { BM_ViterbiOptimized<192>(state); }
void BM_Viterbi1536(benchmark::State& state) {
  BM_ViterbiOptimized<1536>(state);
}
BENCHMARK(BM_Viterbi48);
BENCHMARK(BM_Viterbi192);
BENCHMARK(BM_Viterbi1536);

// One exchange's trellis, 53,270 steps in one decode: the size a
// 64-subframe MCS5 exchange decodes, so the gate also covers the
// production working set (8 bytes of decisions per step).
void BM_ViterbiExchange(benchmark::State& state) {
  BM_ViterbiOptimized<53270>(state);
}
BENCHMARK(BM_ViterbiExchange);

template <std::size_t N>
void BM_ViterbiRef(benchmark::State& state) {
  const std::vector<double> llrs = viterbi_bench_llrs_wide(N);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::viterbi_reference(llrs));
  }
}
void BM_Viterbi48Reference(benchmark::State& state) {
  BM_ViterbiRef<48>(state);
}
void BM_Viterbi192Reference(benchmark::State& state) {
  BM_ViterbiRef<192>(state);
}
void BM_Viterbi1536Reference(benchmark::State& state) {
  BM_ViterbiRef<1536>(state);
}
void BM_ViterbiExchangeReference(benchmark::State& state) {
  BM_ViterbiRef<53270>(state);
}
BENCHMARK(BM_Viterbi48Reference);
BENCHMARK(BM_Viterbi192Reference);
BENCHMARK(BM_Viterbi1536Reference);
BENCHMARK(BM_ViterbiExchangeReference);

// Viterbi with the ACS kernel pinned to the best tier this CPU offers
// (AVX-512 where the host has AVX-512F/BW, else AVX2; the run's
// `simd_tier` config records which), over the dense A-MPDU size.
// BM_Viterbi1536 above runs whatever tier the environment dispatches
// (same thing by default, but WITAG_SIMD can demote it); this gauge pins
// the vector kernel itself.
void BM_ViterbiAcsSimd(benchmark::State& state) {
  const std::vector<std::int8_t> llrs = viterbi_bench_llrs(1536);
  phy::ViterbiWorkspace ws;
  util::BitVec bits;
  const phy::simd::ScopedTier pin(phy::simd::detect_best_tier());
  for (auto _ : state) {
    phy::viterbi_decode(llrs, ws, bits);
    benchmark::DoNotOptimize(bits.data());
  }
}
BENCHMARK(BM_ViterbiAcsSimd);

// Equalizer over one OFDM data symbol (52 subcarriers + 4 pilots):
// dispatched kernel at the best tier, pinned-scalar kernel, and the
// original std::complex-division loop. The best/scalar pair isolates
// the SIMD win; scalar/reference isolates the separable-formula rewrite
// (gather + real arithmetic vs per-point __divdc3 calls).
void equalize_bench_inputs(phy::FreqSymbol& rx, phy::ChannelEstimate& est) {
  util::Rng rng(9);
  est = phy::ChannelEstimate{};
  for (const int sc : phy::data_subcarriers()) {
    const unsigned bin = phy::bin_index(sc);
    est.h[bin] = rng.complex_normal(1.0);
    rx[bin] = rng.complex_normal(1.0);
  }
  for (const int sc : phy::pilot_subcarriers()) {
    const unsigned bin = phy::bin_index(sc);
    est.h[bin] = rng.complex_normal(1.0);
    rx[bin] = rng.complex_normal(1.0);
  }
  est.noise_var = 0.01;
  est.mean_gain = 1.0;
}

// One symbol through the receiver's equalizer calls at `tier`: the
// plan of the estimate, then the points-only equalize.
void equalize_bench(benchmark::State& state, phy::simd::Tier tier) {
  phy::FreqSymbol rx{};
  phy::ChannelEstimate est;
  equalize_bench_inputs(rx, est);
  phy::EqualizerPlan plan;
  alignas(32) std::array<double, phy::kDataSubcarriers> re, im;
  const phy::simd::ScopedTier pin(tier);
  for (auto _ : state) {
    phy::plan_equalizer(est, plan);
    phy::equalize_points(rx, est, plan, 1, /*cpe_correction=*/true,
                         re.data(), im.data());
    benchmark::DoNotOptimize(re.data());
    benchmark::DoNotOptimize(im.data());
    benchmark::ClobberMemory();
  }
}

void BM_Equalize(benchmark::State& state) {
  equalize_bench(state, phy::simd::detect_best_tier());
}
BENCHMARK(BM_Equalize);

void BM_EqualizeScalar(benchmark::State& state) {
  equalize_bench(state, phy::simd::Tier::kScalar);
}
BENCHMARK(BM_EqualizeScalar);

void BM_EqualizeReference(benchmark::State& state) {
  phy::FreqSymbol rx{};
  phy::ChannelEstimate est;
  equalize_bench_inputs(rx, est);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle::equalize_reference(rx, est, 1, /*cpe_correction=*/true));
  }
}
BENCHMARK(BM_EqualizeReference);

// The receiver's front end on one 64-QAM data symbol at the best tier:
// the equalizer's per-field plan, the points-only equalize, the fused
// demap-and-quantize into 312 air-order soft bits
// (detail::field_llrs_into), then their placement at MCS5's mother-rate
// positions through simd::place_for, the kernel
// detail::field_bits_from_llrs runs before its Viterbi decode.
// Unpinned.
void BM_RxFrontQam64(benchmark::State& state) {
  phy::FreqSymbol rx{};
  phy::ChannelEstimate est;
  equalize_bench_inputs(rx, est);
  const std::vector<phy::FreqSymbol> field{rx};
  const phy::simd::PlacePlan& plan = phy::detail::place_plan(5);
  phy::DecodeScratch scratch;
  std::vector<std::int8_t> mother(plan.span);
  const phy::simd::ScopedTier pin(phy::simd::detect_best_tier());
  const phy::simd::PlaceFn place =
      phy::simd::place_for(phy::simd::detect_best_tier());
  for (auto _ : state) {
    phy::detail::field_llrs_into(field, est, phy::Modulation::kQam64, 1,
                                 /*cpe_correction=*/true, scratch);
    place(scratch.llrs.data(), 1, plan, mother.data());
    benchmark::DoNotOptimize(mother.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RxFrontQam64);

// The placement alone over a link_long-sized field: 257 MCS5 (64-QAM,
// rate 2/3) symbols of air-order soft bits to their mother-rate
// positions, erasures zeroed, at the best tier (AVX-512 VBMI permutes
// bytes through the MCS's plan; the other tiers run the table loop).
// Unpinned.
void BM_PlaceQam64(benchmark::State& state) {
  constexpr std::size_t kSymbols = 257;
  const phy::simd::PlacePlan& plan = phy::detail::place_plan(5);
  util::Rng rng(10);
  std::vector<std::int8_t> llrs(kSymbols * plan.table.size());
  for (auto& v : llrs) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(255)) - 127);
  }
  std::vector<std::int8_t> mother(kSymbols * plan.span);
  const phy::simd::PlaceFn place =
      phy::simd::place_for(phy::simd::detect_best_tier());
  for (auto _ : state) {
    place(llrs.data(), kSymbols, plan, mother.data());
    benchmark::DoNotOptimize(mother.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PlaceQam64);

// The transmitter's encode and mapping alone over a link_long-sized
// field: 257 MCS5 (64-QAM, rate 2/3) symbols of input bits to all 64
// bins of each, at the best tier (AVX-512 computes the coded streams in
// registers, permutes their bytes through the MCS's plan and looks the
// levels up with vpermt2pd; the other tiers encode the field word-wide
// and run the table loop). Unpinned.
void BM_TxMapQam64(benchmark::State& state) {
  constexpr std::size_t kSymbols = 257;
  const phy::simd::TxMapPlan& plan = phy::detail::tx_map_plan(5);
  util::Rng rng(12);
  util::BitVec bits(phy::simd::kTxMapLead, 0);  // the encoder's zero lead
  const util::BitVec field = rng.bits(kSymbols * plan.n_dbps);
  bits.insert(bits.end(), field.begin(), field.end());
  std::vector<phy::FreqSymbol> symbols(kSymbols);
  const phy::simd::TxMapFn map =
      phy::simd::tx_map_for(phy::simd::detect_best_tier());
  for (auto _ : state) {
    map(bits.data() + phy::simd::kTxMapLead, kSymbols, plan, symbols.data());
    benchmark::DoNotOptimize(symbols.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TxMapQam64);

// The Viterbi traceback alone over one link_long exchange's 53,270
// steps, at the best tier (on x86 the vector tiers' bt + adc step), from
// the decisions the ACS made once on BM_ViterbiExchange's LLRs.
// Unpinned.
void BM_TracebackExchange(benchmark::State& state) {
  constexpr std::size_t kSteps = 53270;
  const std::vector<std::int8_t> llrs = viterbi_bench_llrs(kSteps);
  std::vector<std::uint64_t> decisions(kSteps);
  std::array<std::int16_t, phy::kNumStates> metrics{};
  metrics.fill(-8192);  // the decoder's start: only state 0 reachable
  metrics[0] = 0;
  phy::simd::acs_block_for(phy::simd::Tier::kScalar)(
      llrs.data(), kSteps, decisions.data(), metrics.data());
  util::BitVec bits(kSteps);
  const phy::simd::TracebackFn traceback =
      phy::simd::traceback_for(phy::simd::detect_best_tier());
  for (auto _ : state) {
    traceback(decisions.data(), kSteps, bits.data());
    benchmark::DoNotOptimize(bits.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TracebackExchange);

// Table-driven (byte-at-a-time keystream) vs bit-serial scrambler over
// one max-rate data field's worth of bits.
void BM_Scramble(benchmark::State& state) {
  util::Rng rng(6);
  const util::BitVec bits = rng.bits(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::scramble(bits, 0x5D));
  }
}
BENCHMARK(BM_Scramble);

void BM_ScrambleReference(benchmark::State& state) {
  util::Rng rng(6);
  const util::BitVec bits = rng.bits(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::scramble_reference(bits, 0x5D));
  }
}
BENCHMARK(BM_ScrambleReference);

// Slicing-by-8 vs byte-at-a-time CRC-32 over one 3328-byte A-MPDU.
void BM_Crc32(benchmark::State& state) {
  util::Rng rng(7);
  const util::ByteVec data = rng.bytes(3328);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(data));
  }
}
BENCHMARK(BM_Crc32);

void BM_Crc32Reference(benchmark::State& state) {
  util::Rng rng(7);
  const util::ByteVec data = rng.bytes(3328);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32_final(
        oracle::crc32_update_bytewise(util::crc32_init(), data)));
  }
}
BENCHMARK(BM_Crc32Reference);

void BM_PpduTransmit(benchmark::State& state) {
  util::Rng rng(3);
  const util::ByteVec psdu = rng.bytes(3328);  // 64 x 52-byte subframes
  phy::TxConfig cfg;
  cfg.mcs_index = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::transmit(psdu, cfg));
  }
}
BENCHMARK(BM_PpduTransmit);

// One perfbench link_long query: the 6,656-byte MCS5 PSDU (64 x 104-byte
// subframes, 257 data symbols), transmitted into one reused PPDU as
// Session does (phy::transmit_into), so no iteration allocates.
// Unpinned.
void BM_PpduTransmitExchange(benchmark::State& state) {
  util::Rng rng(3);
  const util::ByteVec psdu = rng.bytes(6656);
  phy::TxConfig cfg;
  cfg.mcs_index = 5;
  phy::TxPpdu ppdu;
  for (auto _ : state) {
    phy::transmit_into(psdu, cfg, ppdu);
    benchmark::DoNotOptimize(ppdu.symbols.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PpduTransmitExchange);

// The channel over one link_long exchange: the 262-symbol MCS5 timeline
// of that query, the tag toggling every four symbols, through
// ChannelModel::apply_multi_into into a reused timeline (~29.3k noise
// normals from the eight lanes). BM_ChannelApplyExchange runs the best
// tier (AVX-512 steps the eight generators and mixes four bins per
// register); BM_ChannelApplyExchangeScalar pins the scalar tier's
// eight normal() calls per group and bin loop, so the pair's ratio is
// the kernel's gain on this host. Unpinned.
void channel_apply_loop(benchmark::State& state, phy::simd::Tier tier) {
  const phy::simd::ScopedTier pin(tier);
  util::Rng rng(13);
  phy::TxConfig cfg;
  cfg.mcs_index = 5;
  const phy::TxPpdu ppdu = phy::transmit(rng.bytes(6656), cfg);
  std::vector<std::vector<std::uint8_t>> levels{
      std::vector<std::uint8_t>(ppdu.size())};
  for (std::size_t s = 0; s < ppdu.size(); ++s) {
    levels[0][s] = static_cast<std::uint8_t>((s / 4) % 2);
  }
  channel::LinkGeometry geo;
  geo.tx = {0.0, 0.0};
  geo.rx = {8.0, 0.0};
  geo.reflectors = channel::default_room_reflectors(geo.tx, geo.rx);
  channel::ChannelModel ch(
      channel::RadioConfig{}, geo,
      channel::TagPathConfig{{4.0, 0.0}, 7.0, channel::TagMode::kPhaseFlip},
      channel::FadingConfig{}, 13);
  std::vector<phy::FreqSymbol> rx;
  for (auto _ : state) {
    ch.apply_multi_into(ppdu.symbols, levels, {}, rx);
    benchmark::DoNotOptimize(rx.data());
    benchmark::ClobberMemory();
  }
}

void BM_ChannelApplyExchange(benchmark::State& state) {
  channel_apply_loop(state, phy::simd::detect_best_tier());
}
BENCHMARK(BM_ChannelApplyExchange);

void BM_ChannelApplyExchangeScalar(benchmark::State& state) {
  channel_apply_loop(state, phy::simd::Tier::kScalar);
}
BENCHMARK(BM_ChannelApplyExchangeScalar);

// One Rng::normal() per iteration: the 1024-layer ziggurat's inline
// fast path, and its wedge or tail on 0.43% of draws. Unpinned.
void BM_RngNormal(benchmark::State& state) {
  util::Rng rng(14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
}
BENCHMARK(BM_RngNormal);

void BM_PpduReceive(benchmark::State& state) {
  util::Rng rng(4);
  const util::ByteVec psdu = rng.bytes(3328);
  phy::TxConfig cfg;
  cfg.mcs_index = 5;
  const phy::TxPpdu ppdu = phy::transmit(psdu, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::receive(ppdu.symbols, {}));
  }
}
BENCHMARK(BM_PpduReceive);

// Full PPDU decode through a persistent DecodeScratch — the Session's
// steady state, through the same receive_into() pipeline Session's
// decoder runs. BM_PpduReceive above pays per-call scratch construction
// and is the comparison point.
void BM_PpduDecode(benchmark::State& state) {
  util::Rng rng(4);
  const util::ByteVec psdu = rng.bytes(3328);
  phy::TxConfig cfg;
  cfg.mcs_index = 5;
  const phy::TxPpdu ppdu = phy::transmit(psdu, cfg);
  phy::DecodeScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::receive(ppdu.symbols, {}, scratch));
  }
}
BENCHMARK(BM_PpduDecode);

// One AES-128 block, chained so each encryption waits on the last.
// BM_AesBlock runs the dispatched cipher (AES-NI at the vector tiers);
// BM_AesBlockReference pins the portable byte-wise rounds, so the pair's
// ratio is the kernel's gain on this host. Neither is pinned in
// BENCH_phy.json (absolute ns are host-bound).
void aes_block_loop(benchmark::State& state) {
  const mac::AesKey key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const mac::Aes128 aes(key);
  mac::AesBlock block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block.data());
  }
}

void BM_AesBlock(benchmark::State& state) { aes_block_loop(state); }
BENCHMARK(BM_AesBlock);

void BM_AesBlockReference(benchmark::State& state) {
  const phy::simd::ScopedTier pin(phy::simd::Tier::kScalar);
  aes_block_loop(state);
}
BENCHMARK(BM_AesBlockReference);

// The MAC side of one encrypted query: a 64-subframe CCMP A-MPDU (CBC-MAC
// and CTR over every subframe) through Client::build_ampdu, with the
// testbed session's own payload size, at the dispatched tier.
void BM_CcmpBuildAmpdu(benchmark::State& state) {
  auto cfg = core::los_testbed_config(util::Meters{2.0}, 1);
  cfg.security.mode = mac::Security::kCcmp;
  const core::QueryLayout layout = core::Session(cfg).layout();
  const std::vector<util::ByteVec> payloads(
      layout.n_subframes, util::ByteVec(layout.payload_bytes, 0xA5));
  mac::Client client(mac::make_address(1), mac::make_address(2), cfg.security);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.build_ampdu(payloads));
  }
}
BENCHMARK(BM_CcmpBuildAmpdu);

void BM_EnvelopeDetector(benchmark::State& state) {
  util::Rng rng(5);
  util::CxVec samples(16000);  // ~0.8 ms at 20 Msps
  for (auto& x : samples) x = rng.complex_normal(1.0);
  tag::EnvelopeConfig cfg;
  tag::EnvelopeDetector det(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.process(samples));
  }
}
BENCHMARK(BM_EnvelopeDetector);

// LT fountain layer (witag/rateless): droplet stream generation and the
// peeling decode, the per-delivery costs the rateless data plane adds
// on top of the session round. The peel bench feeds coded droplets only
// (systematic prefix withheld) so the ripple cascade actually runs.
void BM_LtEncode(benchmark::State& state) {
  util::Rng rng(7);
  const util::ByteVec payload = rng.bytes(32);  // K = 17 symbols
  const core::LtDropletSource source(payload, 0xBE7Cull);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.stream(64));
  }
}
BENCHMARK(BM_LtEncode);

void BM_LtPeel(benchmark::State& state) {
  util::Rng rng(8);
  const util::ByteVec payload = rng.bytes(32);
  const std::uint64_t seed = 0xBE7Cull;
  const core::LtDropletSource source(payload, seed);
  const core::RatelessConfig rcfg;
  const std::uint8_t salt = core::rateless_salt(seed);
  std::vector<core::DecodedDroplet> droplets;
  core::ErasedBits stream;
  stream.append(source.stream(256));
  std::size_t offset = source.k() * core::droplet_frame_bits(rcfg);
  while (auto d = core::decode_droplet_frame(stream, offset, salt, rcfg)) {
    offset = d->next_offset;
    droplets.push_back(std::move(*d));
  }
  for (auto _ : state) {
    core::LtDecoder decoder(payload.size(), seed);
    for (const auto& d : droplets) {
      if (decoder.complete()) break;
      decoder.add(d.seq, d.data);
    }
    benchmark::DoNotOptimize(decoder.complete());
  }
}
BENCHMARK(BM_LtPeel);

void BM_SessionRound(benchmark::State& state) {
  auto cfg = core::los_testbed_config(util::Meters{4.0}, 6);
  core::Session session(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_round());
  }
}
BENCHMARK(BM_SessionRound);

// Runs the benchmarks under a RunScope read from the obs flags; a
// malformed one reaches util::run_main as std::invalid_argument.
int bench_main(const util::Args& args) {
  obs::RunScope obs_run("micro_phy", args);
  // Which kernels produced the gauges: the dispatched tier differs
  // between AVX2-only and AVX-512 hosts.
  obs_run.config("simd_tier", phy::simd::tier_name(phy::simd::active_tier()));
  bench::ObsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return witag::bench::micro_main("micro_phy", argc, argv, bench_main);
}
