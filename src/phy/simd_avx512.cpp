// AVX-512 tier: four kernels. Three move bytes with vpermt2b (one
// instruction over the 128 bytes of a register pair): the Viterbi
// add-compare-select (one chain, or the two chains of a split trellis),
// the soft-bit placement and the transmit mapping. Thirty-two int16
// metrics per register hold all 64 path metrics of a chain in two zmm
// registers for the whole trellis, so an ACS step reads and writes no
// memory except its two LLRs (or its branch-metric word) and its
// decision word. The fourth is the channel's noise: eight xoshiro256++
// generators in the qwords of four registers, the ziggurat's fast path
// in all eight at once, and the channel's h * tx + sigma * z four bins
// per register. Every other kernel runs its AVX2 tier's version at this
// tier (simd.cpp; DESIGN.md section 14.4 says why).
//
// This TU is compiled with -mavx512f -mavx512bw -mavx512dq -mavx512vbmi
// (the int16 lanes and their mask compares are AVX-512BW, the byte
// permutes AVX-512VBMI, the uint64-to-double conversion AVX-512DQ) and
// -ffp-contract=off, since AVX-512F brings FMA and a contracted double
// kernel would round unlike the scalar tier. When the compiler cannot
// target AVX-512 the file degrades to stubs and dispatch never selects
// this tier (see avx512_compiled()).

#include "phy/simd.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "phy/trellis.hpp"
#include "util/rng.hpp"
#include "util/ziggurat.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__) && defined(__AVX512VBMI__)
#include <immintrin.h>
#endif

namespace witag::phy::simd::kernels {

bool avx512_supported() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512vbmi") != 0;
#else
  return false;
#endif
}

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__) && defined(__AVX512VBMI__)

bool avx512_compiled() { return true; }

namespace {

/// Bit ns (< 32) set iff the even predecessor of next state ns expects
/// coded bit 1 on the first (kNegA) or second (kNegB) output.
constexpr std::uint64_t kNegAB = [] {
  std::uint64_t masks = 0;
  for (std::uint32_t ns = 0; ns < kNumStates / 2; ++ns) {
    masks |= std::uint64_t{detail::kButterflies[ns].a0} << ns |
             std::uint64_t{detail::kButterflies[ns].b0} << (ns + 32);
  }
  return masks;
}();
constexpr auto kNegA = static_cast<__mmask32>(kNegAB);
constexpr auto kNegB = static_cast<__mmask32>(kNegAB >> 32);

/// Byte indices, across the lo:hi register pair, of the int16 metrics
/// of the even (s0 = 2 ns: bytes 4 ns and 4 ns + 1) or, with `odd`, the
/// odd (s1 = 2 ns + 1: bytes 4 ns + 2 and 4 ns + 3) predecessors of next
/// states 0 .. 31.
constexpr std::array<std::uint8_t, 64> predecessor_bytes(bool odd) {
  std::array<std::uint8_t, 64> idx{};
  for (std::uint32_t b = 0; b < 64; ++b) {
    idx[b] = static_cast<std::uint8_t>(4 * (b / 2) + b % 2 + (odd ? 2 : 0));
  }
  return idx;
}
alignas(64) constexpr std::array<std::uint8_t, 64> kEvenBytes =
    predecessor_bytes(false);
alignas(64) constexpr std::array<std::uint8_t, 64> kOddBytes =
    predecessor_bytes(true);

/// One trellis step: reads the step's two LLRs at `ll`, writes its
/// decision word and advances the metrics in lo (states 0 .. 31) and hi
/// (32 .. 63).
[[gnu::always_inline]] inline void acs_step(const std::int8_t* ll,
                                            std::uint64_t* decision,
                                            __m512i& lo, __m512i& hi,
                                            __m512i even_idx,
                                            __m512i odd_idx) {
  // Masked forms throughout, with defined pass-through operands: the
  // unmasked ones expand to GCC's self-initialized undefined vectors,
  // which -Wmaybe-uninitialized reports.
  const __m512i zero = _mm512_setzero_si512();
  const __m512i la = _mm512_mask_set1_epi16(zero, ~__mmask32{0}, ll[0]);
  const __m512i lb = _mm512_mask_set1_epi16(zero, ~__mmask32{0}, ll[1]);
  const __m512i ev = _mm512_permutex2var_epi8(lo, even_idx, hi);
  const __m512i od = _mm512_permutex2var_epi8(lo, odd_idx, hi);
  // bm = (a0 ? -la : la) + (b0 ? -lb : lb) per next state ns < 32.
  const __m512i bm =
      _mm512_add_epi16(_mm512_mask_sub_epi16(la, kNegA, zero, la),
                       _mm512_mask_sub_epi16(lb, kNegB, zero, lb));
  const __m512i lo0 = _mm512_adds_epi16(ev, bm);
  const __m512i lo1 = _mm512_subs_epi16(od, bm);
  const __m512i hi0 = _mm512_subs_epi16(ev, bm);
  const __m512i hi1 = _mm512_adds_epi16(od, bm);
  // The two 32-bit halves of the decision word, stored straight from
  // their mask registers.
  const __mmask32 take_lo = _mm512_cmpgt_epi16_mask(lo1, lo0);
  const __mmask32 take_hi = _mm512_cmpgt_epi16_mask(hi1, hi0);
  auto* word = reinterpret_cast<unsigned char*>(decision);
  std::memcpy(word, &take_lo, sizeof take_lo);
  std::memcpy(word + sizeof take_lo, &take_hi, sizeof take_hi);
  lo = _mm512_max_epi16(lo0, lo1);
  hi = _mm512_max_epi16(hi0, hi1);
}

/// Lanes [0, n) of a 64-lane mask (all of them for n >= 64).
__mmask64 lanes_below(std::size_t n) {
  return n >= 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1;
}

// ---------------------------------------------------------------------
// The split trellis's two chains (acs_pair_avx512). Their steps read
// branch-metric words instead of LLRs: step k's word holds the four
// int16 sums {la + lb, la - lb, -la + lb, -la - lb} of its LLRs, and
// entry 2 a0 + b0 is the sum bm of a next state whose even predecessor
// expects (a0, b0). A step broadcasts its word from memory (a load, no
// shuffle port) and one vpshufb places each next state's sum, where
// acs_step broadcasts la and lb from general registers and applies the
// signs with two masked subtracts and an add.
// ---------------------------------------------------------------------

constexpr __mmask8 kAllQwords = 0xFF;

/// vpshufb indices placing word entry 2 a0 + b0 in the int16 lane of
/// next state ns < 32 (the word sits in bytes 0 .. 7 of every 128-bit
/// lane).
alignas(64) constexpr std::array<std::uint8_t, 64> kPickBytes = [] {
  std::array<std::uint8_t, 64> idx{};
  for (std::uint32_t ns = 0; ns < kNumStates / 2; ++ns) {
    const auto entry = static_cast<std::uint8_t>(
        2 * detail::kButterflies[ns].a0 + detail::kButterflies[ns].b0);
    idx[2 * ns] = static_cast<std::uint8_t>(2 * entry);
    idx[2 * ns + 1] = static_cast<std::uint8_t>(2 * entry + 1);
  }
  return idx;
}();

/// Byte j of the qword of step k (of 8 per register) reads LLR byte
/// 2 k + j % 2: each step's (la, lb) four times.
alignas(64) constexpr std::array<std::uint8_t, 64> kWordSourceBytes = [] {
  std::array<std::uint8_t, 64> idx{};
  for (std::uint32_t b = 0; b < 64; ++b) {
    idx[b] = static_cast<std::uint8_t>(2 * (b / 8) + b % 2);
  }
  return idx;
}();

/// vpmaddubsw weights per qword: (+, +), (+, -), (-, +), (-, -).
alignas(64) constexpr std::array<std::int8_t, 64> kWordSigns = [] {
  std::array<std::int8_t, 64> w{};
  for (std::uint32_t b = 0; b < 64; ++b) {
    const std::uint32_t entry = (b % 8) / 2;
    const bool negative = b % 2 == 0 ? entry >= 2 : entry % 2 == 1;
    w[b] = static_cast<std::int8_t>(negative ? -1 : 1);
  }
  return w;
}();

/// Writes step k's branch-metric word to words[k] for k < n_steps, eight
/// steps per register. vpmaddubsw multiplies unsigned by signed bytes,
/// so the LLRs go in offset by 128 (flipped sign bit): entries 0 and 3
/// come out 256 too high and too low, and the other two exact, all
/// within int16 (|sum| <= 510 before the correction).
void branch_words(const std::int8_t* llrs, std::size_t n_steps,
                  std::uint64_t* words) {
  const __m512i source = _mm512_load_si512(kWordSourceBytes.data());
  const __m512i signs = _mm512_load_si512(kWordSigns.data());
  const __m512i offset =
      _mm512_mask_set1_epi8(_mm512_setzero_si512(), ~__mmask64{0},
                            static_cast<char>(0x80));
  const __m512i correct = _mm512_mask_set1_epi64(
      _mm512_setzero_si512(), kAllQwords,
      static_cast<long long>(0x0100'0000'0000'FF00ull));
  for (std::size_t k = 0; k < n_steps; k += 8) {
    const std::size_t steps = n_steps - k < 8 ? n_steps - k : 8;
    const __m512i pairs = _mm512_xor_si512(
        _mm512_maskz_loadu_epi8(lanes_below(2 * steps), llrs + 2 * k),
        offset);
    const __m512i sums = _mm512_maddubs_epi16(
        _mm512_maskz_permutexvar_epi8(~__mmask64{0}, source, pairs), signs);
    _mm512_mask_storeu_epi64(words + k,
                             static_cast<__mmask8>(lanes_below(steps)),
                             _mm512_add_epi16(sums, correct));
  }
}

/// The path metrics of one chain: states 0 .. 31 in lo, 32 .. 63 in hi.
struct ChainMetrics {
  __m512i lo;
  __m512i hi;
};

/// The registers every word step reads.
struct WordStepConsts {
  __m512i even_idx = _mm512_load_si512(kEvenBytes.data());
  __m512i odd_idx = _mm512_load_si512(kOddBytes.data());
  __m512i pick = _mm512_load_si512(kPickBytes.data());
};

/// One trellis step that reads its branch-metric word at `word` and
/// writes its decision word to `decision` (which may be `word`).
[[gnu::always_inline]] inline void acs_word_step(const std::uint64_t* word,
                                                 std::uint64_t* decision,
                                                 ChainMetrics& m,
                                                 const WordStepConsts& c) {
  const __m512i bm = _mm512_shuffle_epi8(
      _mm512_maskz_set1_epi64(kAllQwords, static_cast<long long>(*word)),
      c.pick);
  const __m512i ev = _mm512_permutex2var_epi8(m.lo, c.even_idx, m.hi);
  const __m512i od = _mm512_permutex2var_epi8(m.lo, c.odd_idx, m.hi);
  const __m512i lo0 = _mm512_adds_epi16(ev, bm);
  const __m512i lo1 = _mm512_subs_epi16(od, bm);
  const __m512i hi0 = _mm512_subs_epi16(ev, bm);
  const __m512i hi1 = _mm512_adds_epi16(od, bm);
  const __mmask32 take_lo = _mm512_cmpgt_epi16_mask(lo1, lo0);
  const __mmask32 take_hi = _mm512_cmpgt_epi16_mask(hi1, hi0);
  auto* out = reinterpret_cast<unsigned char*>(decision);
  std::memcpy(out, &take_lo, sizeof take_lo);
  std::memcpy(out + sizeof take_lo, &take_hi, sizeof take_hi);
  m.lo = _mm512_max_epi16(lo0, lo1);
  m.hi = _mm512_max_epi16(hi0, hi1);
}

/// Subtracts next-state 0's metric from every metric (word permute,
/// indices 0).
[[gnu::always_inline]] inline void renormalize(ChainMetrics& m) {
  const __m512i base =
      _mm512_permutexvar_epi16(_mm512_setzero_si512(), m.lo);
  m.lo = _mm512_subs_epi16(m.lo, base);
  m.hi = _mm512_subs_epi16(m.hi, base);
}

/// `blocks` renormalization periods of both chains in lockstep. Chain B
/// steps first: when split == warmup its first word is chain A's, which
/// A's step overwrites.
void acs_word_blocks2(std::size_t blocks, std::uint64_t* a_words,
                      const std::uint64_t* b_words, std::uint64_t* b_out,
                      ChainMetrics& a_metrics, ChainMetrics& b_metrics) {
  const WordStepConsts c;
  ChainMetrics a = a_metrics;
  ChainMetrics b = b_metrics;
  for (std::size_t i = 0; i < blocks * kAcsRenormPeriod;
       i += kAcsRenormPeriod) {
#pragma GCC unroll 16
    for (std::size_t k = 0; k < kAcsRenormPeriod; ++k) {
      acs_word_step(b_words + i + k, b_out + i + k, b, c);
      acs_word_step(a_words + i + k, a_words + i + k, a, c);
    }
    renormalize(a);
    renormalize(b);
  }
  a_metrics = a;
  b_metrics = b;
}

/// `n_steps` steps of one chain, reading and overwriting words[0 ..
/// n_steps): whole renormalization periods, then the rest.
void acs_word_chain(std::size_t n_steps, std::uint64_t* words,
                    ChainMetrics& metrics) {
  const WordStepConsts c;
  ChainMetrics m = metrics;
  std::size_t step = 0;
  for (; n_steps - step >= kAcsRenormPeriod; step += kAcsRenormPeriod) {
#pragma GCC unroll 16
    for (std::size_t k = 0; k < kAcsRenormPeriod; ++k) {
      acs_word_step(words + step + k, words + step + k, m, c);
    }
    renormalize(m);
  }
  for (; step < n_steps; ++step) {
    acs_word_step(words + step, words + step, m, c);
  }
  metrics = m;
}

ChainMetrics load_metrics(const std::int16_t* metrics) {
  // Callers' metric arrays carry no alignment contract, and these loads
  // run once per call.
  return {_mm512_loadu_si512(metrics),  // witag-lint: allow(simd-unaligned)
          _mm512_loadu_si512(metrics +  // witag-lint: allow(simd-unaligned)
                             32)};
}

void store_metrics(const ChainMetrics& m, std::int16_t* metrics) {
  _mm512_storeu_si512(metrics, m.lo);
  _mm512_storeu_si512(metrics + 32, m.hi);
}

/// place_avx512 for plans of kWindows 128-byte windows.
template <std::size_t kWindows>
void place_windows(const std::int8_t* llrs, std::size_t n_symbols,
                   const PlacePlan& plan, std::int8_t* out) {
  constexpr std::size_t kRegs = 2 * kWindows;
  const std::size_t n_cbps = plan.table.size();
  const std::size_t chunks = plan.lanes.size() / kWindows;
  const __mmask64 last_chunk = lanes_below(plan.span - 64 * (chunks - 1));
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const std::int8_t* in = llrs + s * n_cbps;
    std::int8_t* at = out + s * plan.span;
    // The symbol's air bytes, masked so nothing past them is read; a
    // register wholly past them is zero.
    __m512i air[kRegs];
#pragma GCC unroll 6
    for (std::size_t r = 0; r < kRegs; ++r) {
      air[r] = 64 * r < n_cbps
                   ? _mm512_maskz_loadu_epi8(lanes_below(n_cbps - 64 * r),
                                             in + 64 * r)
                   : _mm512_setzero_si512();
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      const PlaceIndex* index = plan.index.data() + c * kWindows;
      const std::uint64_t* lanes = plan.lanes.data() + c * kWindows;
      // One permute per window, each zeroing the lanes it does not
      // own; erasure lanes belong to no window and stay 0.
      __m512i part[kWindows];
#pragma GCC unroll 3
      for (std::size_t w = 0; w < kWindows; ++w) {
        part[w] = _mm512_maskz_permutex2var_epi8(
            lanes[w], air[2 * w], _mm512_load_si512(index[w].bytes.data()),
            air[2 * w + 1]);
      }
      __m512i chunk = part[0];
      if constexpr (kWindows == 2) chunk = _mm512_or_si512(part[0], part[1]);
      if constexpr (kWindows == 3) {
        chunk = _mm512_ternarylogic_epi32(part[0], part[1], part[2], 0xFE);
      }
      if (c + 1 < chunks) {
        _mm512_storeu_si512(at + 64 * c, chunk);
      } else {
        _mm512_mask_storeu_epi8(at + 64 * c, last_chunk, chunk);
      }
    }
  }
}

/// tx_map_avx512 for plans of kWindows windows and kBits bits per point.
template <std::size_t kWindows, unsigned kBits>
void tx_map_windows(const std::uint8_t* bits, std::size_t n_symbols,
                    const TxMapPlan& plan, SymbolBins* out) {
  constexpr unsigned kIBits = (kBits + 1) / 2;  // I bits (TxMapPlan)
  const std::size_t n_dbps = plan.n_dbps;
  const __m512d i_levels = _mm512_load_pd(plan.i_levels.data());
  const __m512d q_levels = _mm512_load_pd(plan.q_levels.data());
  // Bit 3 of a vpermt2pd index picks its second table, the Q levels.
  const __m512i q_table =
      _mm512_mask_set1_epi8(_mm512_setzero_si512(), ~__mmask64{0}, 8);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    // The symbol's A registers, then its B registers, from the encoder's
    // taps: register r's lane j reads input bit x = s * n_dbps + 64r + j
    // and, tap k, bit x - k (the zero lead before bits[0] is the start
    // state). a = x ^ x-2 ^ x-3 ^ x-5 ^ x-6 (133 octal), b = x ^ x-1 ^
    // x-2 ^ x-3 ^ x-6 (171 octal); 0x96 is the three-way XOR. Lanes past
    // the stream's n_dbps are masked off every tap, so nothing past the
    // field is read.
    __m512i src[2 * kWindows];
#pragma GCC unroll 5
    for (std::size_t r = 0; r < kWindows; ++r) {
      const __mmask64 live = lanes_below(n_dbps - 64 * r);
      const std::uint8_t* x = bits + s * n_dbps + 64 * r;
      const auto tap = [&](std::size_t k) {
        return _mm512_maskz_loadu_epi8(live, x - k);
      };
      const __m512i shared =
          _mm512_ternarylogic_epi32(tap(0), tap(2), tap(3), 0x96);
      src[r] = _mm512_ternarylogic_epi32(shared, tap(5), tap(6), 0x96);
      src[kWindows + r] =
          _mm512_ternarylogic_epi32(shared, tap(1), tap(6), 0x96);
    }
    // Plane b's bits, window by window, added to `acc` after doubling
    // it. A plane's windows own disjoint lanes and zero the rest, so
    // their sum is the plane.
    const auto add_plane = [&](__m512i& acc, unsigned b) {
      acc = _mm512_add_epi8(acc, acc);
      const PlaceIndex* index = plan.index.data() + b * kWindows;
      const std::uint64_t* lanes = plan.lanes.data() + b * kWindows;
#pragma GCC unroll 5
      for (std::size_t w = 0; w < kWindows; ++w) {
        acc = _mm512_add_epi8(
            acc, _mm512_maskz_permutex2var_epi8(
                     lanes[w], src[2 * w],
                     _mm512_load_si512(index[w].bytes.data()),
                     src[2 * w + 1]));
      }
    };
    // Each axis from its top plane down: I = sum of plane b << b for b
    // below kIBits, Q = sum of plane b << (b - kIBits) from kIBits on.
    __m512i i_index = _mm512_setzero_si512();
    __m512i q_index = _mm512_setzero_si512();
    [&]<unsigned... B>(std::integer_sequence<unsigned, B...>) {
      (add_plane(B < kBits - kIBits ? q_index : i_index, kBits - 1 - B), ...);
    }(std::make_integer_sequence<unsigned, kBits>{});
    q_index = _mm512_or_si512(q_index, q_table);
    // Four bins per register: each data bin's I and Q index bytes moved
    // to the low bytes of its re and im qwords, then the levels looked
    // up; DC, the guards and the pilots read 0.
    auto* bins = reinterpret_cast<double*>(out[s].data());
#pragma GCC unroll 16
    for (std::size_t r = 0; r < plan.spread.size(); ++r) {
      const __m512i lookup = _mm512_permutex2var_epi8(
          i_index, _mm512_load_si512(plan.spread[r].bytes.data()), q_index);
      _mm512_storeu_pd(bins + 8 * r,
                       _mm512_maskz_permutex2var_pd(plan.bin_lanes[r],
                                                    i_levels, lookup,
                                                    q_levels));
    }
  }
}


// ---------------------------------------------------------------------
// The channel's noise lanes (normal_lanes_avx512) and mix
// (channel_mix_avx512). Qword l of each state register is lane l's
// xoshiro256++ word, so one step of all eight generators is the scalar
// step's adds, shifts, rotates and xors on whole registers, and one
// group of normals is Rng::normal()'s fast path in every lane: the
// layer's two edges come from two gathers, the 53-bit uniform from one
// vcvtuqq2pd (AVX-512DQ), and the same multiplies and compare decide.
// A lane that misses goes to its own Rng::normal_slow.
// ---------------------------------------------------------------------

static_assert(sizeof(util::Rng) == 4 * sizeof(std::uint64_t) &&
                  std::is_standard_layout_v<util::Rng>,
              "the lanes are read as eight runs of four state words");

/// Qword indices that interleave two registers' lanes: with lanes l and
/// l + 1 in one register (words 0-3 then 0-3) and l + 2, l + 3 in the
/// other, kInterleaveLo picks words 0 and 1 of the four lanes and
/// kInterleaveHi words 2 and 3. The same indices undo it.
alignas(64) constexpr std::array<std::uint64_t, 8> kInterleaveLo = {
    0, 4, 8, 12, 1, 5, 9, 13};
alignas(64) constexpr std::array<std::uint64_t, 8> kInterleaveHi = {
    2, 6, 10, 14, 3, 7, 11, 15};
/// The low (kHalvesLo) or high four qwords of each of two registers.
alignas(64) constexpr std::array<std::uint64_t, 8> kHalvesLo = {
    0, 1, 2, 3, 8, 9, 10, 11};
alignas(64) constexpr std::array<std::uint64_t, 8> kHalvesHi = {
    4, 5, 6, 7, 12, 13, 14, 15};

/// The eight lanes' state: word k of lane l in qword l of sk.
struct LaneState {
  __m512i s0;
  __m512i s1;
  __m512i s2;
  __m512i s3;
};

__m512i index_register(const std::array<std::uint64_t, 8>& idx) {
  return _mm512_load_si512(idx.data());
}

/// Transposes the lanes' 8 x 4 state words into LaneState (and back in
/// store_lanes): four loads and eight two-register permutes.
[[gnu::always_inline]] inline LaneState load_lanes(const NoiseLanes& lanes) {
  // The lanes live inside their owner (channel::ChannelModel), which
  // carries no 64-byte alignment; this runs once per call.
  // Register p holds lanes 2p and 2p + 1.
  const auto* bytes = reinterpret_cast<const unsigned char*>(lanes.data());
  const __m512i p0 =
      _mm512_loadu_si512(bytes);  // witag-lint: allow(simd-unaligned)
  const __m512i p1 =
      _mm512_loadu_si512(bytes + 64);  // witag-lint: allow(simd-unaligned)
  const __m512i p2 =
      _mm512_loadu_si512(bytes + 128);  // witag-lint: allow(simd-unaligned)
  const __m512i p3 =
      _mm512_loadu_si512(bytes + 192);  // witag-lint: allow(simd-unaligned)
  const __m512i lo = index_register(kInterleaveLo);
  const __m512i hi = index_register(kInterleaveHi);
  const __m512i a01 = _mm512_permutex2var_epi64(p0, lo, p1);
  const __m512i a23 = _mm512_permutex2var_epi64(p0, hi, p1);
  const __m512i b01 = _mm512_permutex2var_epi64(p2, lo, p3);
  const __m512i b23 = _mm512_permutex2var_epi64(p2, hi, p3);
  const __m512i half_lo = index_register(kHalvesLo);
  const __m512i half_hi = index_register(kHalvesHi);
  return {_mm512_permutex2var_epi64(a01, half_lo, b01),
          _mm512_permutex2var_epi64(a01, half_hi, b01),
          _mm512_permutex2var_epi64(a23, half_lo, b23),
          _mm512_permutex2var_epi64(a23, half_hi, b23)};
}

[[gnu::always_inline]] inline void store_lanes(const LaneState& st,
                                               NoiseLanes& lanes) {
  const __m512i half_lo = index_register(kHalvesLo);
  const __m512i half_hi = index_register(kHalvesHi);
  const __m512i a01 = _mm512_permutex2var_epi64(st.s0, half_lo, st.s1);
  const __m512i b01 = _mm512_permutex2var_epi64(st.s0, half_hi, st.s1);
  const __m512i a23 = _mm512_permutex2var_epi64(st.s2, half_lo, st.s3);
  const __m512i b23 = _mm512_permutex2var_epi64(st.s2, half_hi, st.s3);
  const __m512i lo = index_register(kInterleaveLo);
  const __m512i hi = index_register(kInterleaveHi);
  auto* bytes = reinterpret_cast<unsigned char*>(lanes.data());
  _mm512_storeu_si512(bytes, _mm512_permutex2var_epi64(a01, lo, a23));
  _mm512_storeu_si512(bytes + 64, _mm512_permutex2var_epi64(a01, hi, a23));
  _mm512_storeu_si512(bytes + 128, _mm512_permutex2var_epi64(b01, lo, b23));
  _mm512_storeu_si512(bytes + 192, _mm512_permutex2var_epi64(b01, hi, b23));
}

/// The missed lanes of one group (clear bits of `fast`), each resolved
/// by its own generator: `draws` holds every lane's raw draw and `group`
/// its fast-path value, overwritten where the lane missed. Out of line:
/// about 3.4% of groups come here.
[[gnu::noinline]] void resolve_misses(NoiseLanes& lanes, unsigned fast,
                                      const std::uint64_t* draws,
                                      double* group) {
  for (std::size_t l = 0; l < kNoiseLanes; ++l) {
    if (((fast >> l) & 1u) == 0) group[l] = lanes[l].normal_slow(draws[l]);
  }
}

/// One group: every lane's next normal(). `st` is the lanes' state in
/// registers; on a miss it is written back to `lanes` for the slow path
/// and read again after it.
[[gnu::always_inline]] inline __m512d normal_group(LaneState& st,
                                                   NoiseLanes& lanes) {
  auto& [s0, s1, s2, s3] = st;
  // xoshiro256++, as util::Rng::next_u64().
  const __m512i u = _mm512_add_epi64(
      _mm512_maskz_rol_epi64(kAllQwords, _mm512_add_epi64(s0, s3), 23), s0);
  const __m512i t = _mm512_maskz_slli_epi64(kAllQwords, s1, 17);
  s2 = _mm512_xor_si512(s2, s0);
  s3 = _mm512_xor_si512(s3, s1);
  s1 = _mm512_xor_si512(s1, s2);
  s0 = _mm512_xor_si512(s0, s3);
  s2 = _mm512_xor_si512(s2, t);
  s3 = _mm512_maskz_rol_epi64(kAllQwords, s3, 45);
  // Rng::normal()'s fast path: x = (U * 2^-53) * kX[layer], kept when
  // x < kX[layer + 1], its sign bit XORed with the draw's sign bit.
  const __m512i layer = _mm512_and_si512(
      u, _mm512_maskz_set1_epi64(
             kAllQwords, static_cast<long long>(util::ziggurat::kLayerMask)));
  const __m512d zero = _mm512_setzero_pd();
  const __m512d edge = _mm512_mask_i64gather_pd(
      zero, kAllQwords, layer, util::ziggurat::kX.data(), 8);
  const __m512d next = _mm512_mask_i64gather_pd(
      zero, kAllQwords, layer, util::ziggurat::kX.data() + 1, 8);
  const __m512d uniform = _mm512_mul_pd(
      _mm512_maskz_cvtepu64_pd(kAllQwords,
                               _mm512_maskz_srli_epi64(kAllQwords, u, 11)),
      _mm512_castsi512_pd(_mm512_maskz_set1_epi64(
          kAllQwords, std::bit_cast<long long>(0x1.0p-53))));
  const __m512d x = _mm512_mul_pd(uniform, edge);
  const __mmask8 fast = _mm512_cmp_pd_mask(x, next, _CMP_LT_OQ);
  const __m512i sign = _mm512_maskz_slli_epi64(
      kAllQwords,
      _mm512_and_si512(
          u, _mm512_maskz_set1_epi64(
                 kAllQwords, static_cast<long long>(util::ziggurat::kSignBit))),
      53);
  __m512d z = _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(x), sign));
  if (fast != kAllQwords) [[unlikely]] {
    alignas(64) std::array<std::uint64_t, kNoiseLanes> draws;
    alignas(64) std::array<double, kNoiseLanes> group;
    _mm512_store_si512(draws.data(), u);
    _mm512_store_pd(group.data(), z);
    store_lanes(st, lanes);
    resolve_misses(lanes, fast, draws.data(), group.data());
    st = load_lanes(lanes);
    z = _mm512_load_pd(group.data());
  }
  return z;
}

/// Lanes [0, n) of an 8-lane mask (all of them for n >= 8).
__mmask8 qwords_below(std::size_t n) {
  return n >= 8 ? kAllQwords : static_cast<__mmask8>((1u << n) - 1);
}

[[gnu::always_inline]] inline void normal_lanes_into(NoiseLanes& lanes,
                                                     std::size_t count,
                                                     double* out) {
  LaneState st = load_lanes(lanes);
  for (std::size_t i = 0; i < count; i += kNoiseLanes) {
    _mm512_mask_storeu_pd(out + i, qwords_below(count - i),
                          normal_group(st, lanes));
  }
  store_lanes(st, lanes);
}

}  // namespace

void acs_block_avx512(const std::int8_t* llrs, std::size_t n_steps,
                      std::uint64_t* decisions, std::int16_t* metrics) {
  // lo holds cur[0 .. 31], hi cur[32 .. 63]. Callers' metric arrays
  // carry no alignment contract, and these loads and stores run once per
  // call.
  __m512i lo =
      _mm512_loadu_si512(metrics);  // witag-lint: allow(simd-unaligned)
  __m512i hi =
      _mm512_loadu_si512(metrics + 32);  // witag-lint: allow(simd-unaligned)
  const __m512i even_idx = _mm512_load_si512(kEvenBytes.data());
  const __m512i odd_idx = _mm512_load_si512(kOddBytes.data());
  const __m512i zero = _mm512_setzero_si512();
  // Whole renormalization periods, unrolled, so no step tests its
  // index: the 16th step of each is followed by the renormalization.
  std::size_t step = 0;
  for (; n_steps - step >= kAcsRenormPeriod; step += kAcsRenormPeriod) {
#pragma GCC unroll 16
    for (std::size_t k = 0; k < kAcsRenormPeriod; ++k) {
      acs_step(llrs + 2 * (step + k), decisions + step + k, lo, hi, even_idx,
               odd_idx);
    }
    // Next-state 0's metric in every lane (word permute, indices 0).
    const __m512i base = _mm512_permutexvar_epi16(zero, lo);
    lo = _mm512_subs_epi16(lo, base);
    hi = _mm512_subs_epi16(hi, base);
  }
  // The last n_steps % 16 steps never reach a renormalization.
  for (; step < n_steps; ++step) {
    acs_step(llrs + 2 * step, decisions + step, lo, hi, even_idx, odd_idx);
  }
  _mm512_storeu_si512(metrics, lo);
  _mm512_storeu_si512(metrics + 32, hi);
}

void acs_pair_avx512(const std::int8_t* llrs, std::size_t n_steps,
                     std::uint64_t* decisions, const AcsPair& pair) {
  // Every step's word goes where its decision will: A reads word k and
  // writes decision k in place, and so does B after its warm-up. B's
  // warm-up decisions go to the side array, because they would
  // overwrite words [split - warmup, split), which A has yet to read.
  branch_words(llrs, n_steps, decisions);
  const std::size_t b_start = pair.split - pair.warmup;
  std::uint64_t* b_words = decisions + b_start;
  ChainMetrics a = load_metrics(pair.metrics_a);
  ChainMetrics b = load_metrics(pair.metrics_b);
  acs_word_blocks2(pair.warmup / kAcsRenormPeriod, decisions, b_words,
                   pair.warmup_decisions, a, b);
  store_metrics(b, pair.snapshot);
  // Both chains on while each has a whole period left, then whichever
  // is longer alone. Each has run a multiple of kAcsRenormPeriod steps,
  // so its renormalizations stay on its own schedule.
  const std::size_t b_steps = n_steps - b_start;
  const std::size_t both =
      std::min(pair.split, b_steps) / kAcsRenormPeriod * kAcsRenormPeriod;
  acs_word_blocks2((both - pair.warmup) / kAcsRenormPeriod,
                   decisions + pair.warmup, b_words + pair.warmup,
                   b_words + pair.warmup, a, b);
  acs_word_chain(pair.split - both, decisions + both, a);
  acs_word_chain(b_steps - both, b_words + both, b);
  store_metrics(a, pair.metrics_a);
  store_metrics(b, pair.metrics_b);
}

void place_avx512(const std::int8_t* llrs, std::size_t n_symbols,
                  const PlacePlan& plan, std::int8_t* out) {
  switch (plan.windows) {
    case 1: return place_windows<1>(llrs, n_symbols, plan, out);
    case 2: return place_windows<2>(llrs, n_symbols, plan, out);
    case 3: return place_windows<3>(llrs, n_symbols, plan, out);
    default:  // wider than any 802.11n symbol
      return place_for(Tier::kAvx2)(llrs, n_symbols, plan, out);
  }
}

void tx_map_avx512(const std::uint8_t* bits, std::size_t n_symbols,
                   const TxMapPlan& plan, SymbolBins* out) {
  // The (windows, bits per point) pairs of MCS 0-7.
  switch (plan.windows * 8 + plan.n_bpsc) {
    case 1 * 8 + 1: return tx_map_windows<1, 1>(bits, n_symbols, plan, out);
    case 1 * 8 + 2: return tx_map_windows<1, 2>(bits, n_symbols, plan, out);
    case 2 * 8 + 2: return tx_map_windows<2, 2>(bits, n_symbols, plan, out);
    case 2 * 8 + 4: return tx_map_windows<2, 4>(bits, n_symbols, plan, out);
    case 3 * 8 + 4: return tx_map_windows<3, 4>(bits, n_symbols, plan, out);
    case 4 * 8 + 6: return tx_map_windows<4, 6>(bits, n_symbols, plan, out);
    case 5 * 8 + 6: return tx_map_windows<5, 6>(bits, n_symbols, plan, out);
    default:  // no 802.11n symbol
      return tx_map_for(Tier::kAvx2)(bits, n_symbols, plan, out);
  }
}

void normal_lanes_avx512(NoiseLanes& lanes, std::size_t count, double* out) {
  normal_lanes_into(lanes, count, out);
}

void channel_mix_avx512(NoiseLanes& lanes, const SymbolBins& h,
                        const SymbolBins& tx, double sigma, SymbolBins& rx) {
  // Four bins (eight doubles) per register. A bin is active when any of
  // its h and tx parts is nonzero (NEQ_UQ: a NaN counts), marked on both
  // of its qwords. Symbols sit in std::vector storage, 16-byte aligned.
  const auto* hp = reinterpret_cast<const double*>(h.data());
  const auto* tp = reinterpret_cast<const double*>(tx.data());
  auto* rp = reinterpret_cast<double*>(rx.data());
  const __m512d zero = _mm512_setzero_pd();
  std::array<__mmask8, 16> active;
  std::size_t n = 0;
  for (std::size_t r = 0; r < active.size(); ++r) {
    const unsigned nonzero =
        _mm512_cmp_pd_mask(
            _mm512_loadu_pd(hp + 8 * r),  // witag-lint: allow(simd-unaligned)
            zero, _CMP_NEQ_UQ) |
        _mm512_cmp_pd_mask(
            _mm512_loadu_pd(tp + 8 * r),  // witag-lint: allow(simd-unaligned)
            zero, _CMP_NEQ_UQ);
    const unsigned bins = (nonzero | nonzero >> 1) & 0x55u;
    active[r] = static_cast<__mmask8>(bins | bins << 1);
    n += static_cast<std::size_t>(std::popcount(bins));
  }
  alignas(64) std::array<double, 2 * 64> z;
  normal_lanes_into(lanes, 2 * n, z.data());
  // re = (hr*tr - hi*ti) + sigma*z, im = (hr*ti + hi*tr) + sigma*z: hr
  // and hi broadcast within each bin, tx swapped within it, the even
  // (re) qwords subtracting and the odd adding. Each active bin's two
  // normals are expanded into its qwords in bin order.
  const __m512d s = _mm512_castsi512_pd(_mm512_maskz_set1_epi64(
      kAllQwords, std::bit_cast<long long>(sigma)));
  const double* next = z.data();
#pragma GCC unroll 4
  for (std::size_t r = 0; r < active.size(); ++r) {
    const __m512d hv =
        _mm512_loadu_pd(hp + 8 * r);  // witag-lint: allow(simd-unaligned)
    const __m512d tv =
        _mm512_loadu_pd(tp + 8 * r);  // witag-lint: allow(simd-unaligned)
    const __m512d p =
        _mm512_mul_pd(_mm512_maskz_permute_pd(kAllQwords, hv, 0x00), tv);
    const __m512d q =
        _mm512_mul_pd(_mm512_maskz_permute_pd(kAllQwords, hv, 0xFF),
                      _mm512_maskz_permute_pd(kAllQwords, tv, 0x55));
    const __m512d mix = _mm512_mask_sub_pd(_mm512_add_pd(p, q), 0x55, p, q);
    const __m512d noise = _mm512_maskz_expandloadu_pd(active[r], next);
    next += std::popcount(static_cast<unsigned>(active[r]));
    _mm512_storeu_pd(rp + 8 * r, _mm512_maskz_add_pd(active[r], mix,
                                                     _mm512_mul_pd(s, noise)));
  }
}

#else  // !(AVX-512 F, BW, DQ and VBMI)

bool avx512_compiled() { return false; }

void acs_block_avx512(const std::int8_t* llrs, std::size_t n_steps,
                      std::uint64_t* decisions, std::int16_t* metrics) {
  acs_block_for(Tier::kAvx2)(llrs, n_steps, decisions, metrics);
}

void acs_pair_avx512(const std::int8_t* llrs, std::size_t n_steps,
                     std::uint64_t* decisions, const AcsPair& pair) {
  acs_pair_for(Tier::kAvx2)(llrs, n_steps, decisions, pair);
}

void place_avx512(const std::int8_t* llrs, std::size_t n_symbols,
                  const PlacePlan& plan, std::int8_t* out) {
  place_for(Tier::kAvx2)(llrs, n_symbols, plan, out);
}

void tx_map_avx512(const std::uint8_t* bits, std::size_t n_symbols,
                   const TxMapPlan& plan, SymbolBins* out) {
  tx_map_for(Tier::kAvx2)(bits, n_symbols, plan, out);
}

void normal_lanes_avx512(NoiseLanes& lanes, std::size_t count, double* out) {
  normal_lanes_for(Tier::kAvx2)(lanes, count, out);
}

void channel_mix_avx512(NoiseLanes& lanes, const SymbolBins& h,
                        const SymbolBins& tx, double sigma, SymbolBins& rx) {
  channel_mix_for(Tier::kAvx2)(lanes, h, tx, sigma, rx);
}

#endif  // AVX-512 F, BW, DQ and VBMI

}  // namespace witag::phy::simd::kernels
