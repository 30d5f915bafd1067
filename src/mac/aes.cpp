#include "mac/aes.hpp"
#include <cstddef>

#include "phy/simd.hpp"

namespace witag::mac {
namespace {

constexpr std::array<std::uint8_t, 256> kSbox = [] {
  // Computed from the multiplicative inverse in GF(2^8) followed by the
  // affine transform, to avoid transcribing a 256-entry table.
  std::array<std::uint8_t, 256> box{};
  // GF(2^8) inverse via exponentiation chain using log tables built on
  // generator 3.
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 256> alog{};
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    alog[static_cast<std::size_t>(i)] = x;
    log[x] = static_cast<std::uint8_t>(i);
    // multiply x by 3 = x ^ (x<<1) with reduction by 0x11B
    const std::uint8_t hi = static_cast<std::uint8_t>(x & 0x80);
    std::uint8_t x2 = static_cast<std::uint8_t>(x << 1);
    if (hi) x2 ^= 0x1B;
    x = static_cast<std::uint8_t>(x2 ^ x);
  }
  for (int i = 0; i < 256; ++i) {
    std::uint8_t inv = 0;
    if (i != 0) {
      inv = alog[static_cast<std::size_t>(
          (255 - log[static_cast<std::size_t>(i)]) % 255)];
    }
    // Affine transform.
    std::uint8_t y = 0;
    for (int bit = 0; bit < 8; ++bit) {
      const int b = ((inv >> bit) & 1) ^ ((inv >> ((bit + 4) % 8)) & 1) ^
                    ((inv >> ((bit + 5) % 8)) & 1) ^
                    ((inv >> ((bit + 6) % 8)) & 1) ^
                    ((inv >> ((bit + 7) % 8)) & 1) ^ ((0x63 >> bit) & 1);
      y = static_cast<std::uint8_t>(y | (b << bit));
    }
    box[static_cast<std::size_t>(i)] = y;
  }
  return box;
}();

std::uint8_t xtime(std::uint8_t v) {
  return static_cast<std::uint8_t>((v << 1) ^ ((v & 0x80) ? 0x1B : 0x00));
}

void sub_bytes(std::array<std::uint8_t, 16>& s) {
  for (auto& b : s) b = kSbox[b];
}

void shift_rows(std::array<std::uint8_t, 16>& s) {
  // State is column-major: s[4*col + row].
  std::array<std::uint8_t, 16> t = s;
  for (int row = 1; row < 4; ++row) {
    for (int col = 0; col < 4; ++col) {
      s[static_cast<std::size_t>(4 * col + row)] =
          t[static_cast<std::size_t>(4 * ((col + row) % 4) + row)];
    }
  }
}

void mix_columns(std::array<std::uint8_t, 16>& s) {
  for (int col = 0; col < 4; ++col) {
    const std::size_t o = static_cast<std::size_t>(4 * col);
    const std::uint8_t a0 = s[o], a1 = s[o + 1], a2 = s[o + 2], a3 = s[o + 3];
    const std::uint8_t t = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
    s[o] = static_cast<std::uint8_t>(a0 ^ t ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
    s[o + 1] = static_cast<std::uint8_t>(a1 ^ t ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
    s[o + 2] = static_cast<std::uint8_t>(a2 ^ t ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
    s[o + 3] = static_cast<std::uint8_t>(a3 ^ t ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
  }
}

void add_round_key(std::array<std::uint8_t, 16>& s,
                   const std::array<std::uint8_t, 16>& rk) {
  for (int i = 0; i < 16; ++i) {
    s[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(s[static_cast<std::size_t>(i)] ^
                                  rk[static_cast<std::size_t>(i)]);
  }
}

}  // namespace

Aes128::Aes128(const AesKey& key) {
  round_keys_[0] = key;
  std::uint8_t rcon = 1;
  for (int round = 1; round <= 10; ++round) {
    const auto& prev = round_keys_[static_cast<std::size_t>(round - 1)];
    auto& rk = round_keys_[static_cast<std::size_t>(round)];
    // First word: rot + sub + rcon.
    std::array<std::uint8_t, 4> temp{prev[13], prev[14], prev[15], prev[12]};
    for (auto& b : temp) b = kSbox[b];
    temp[0] = static_cast<std::uint8_t>(temp[0] ^ rcon);
    rcon = xtime(rcon);
    for (int i = 0; i < 4; ++i) {
      rk[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
          prev[static_cast<std::size_t>(i)] ^ temp[static_cast<std::size_t>(i)]);
    }
    for (int i = 4; i < 16; ++i) {
      rk[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
          prev[static_cast<std::size_t>(i)] ^ rk[static_cast<std::size_t>(i - 4)]);
    }
  }
}

AesBlock Aes128::encrypt(const AesBlock& plaintext) const {
  static_assert(sizeof(round_keys_) == 11 * 16, "round keys are contiguous");
  if (const phy::simd::AesEncryptFn kernel =
          phy::simd::aes_encrypt_for(phy::simd::active_tier())) {
    AesBlock out{};
    kernel(round_keys_.front().data(), plaintext.data(), out.data());
    return out;
  }
  std::array<std::uint8_t, 16> state = plaintext;
  add_round_key(state, round_keys_[0]);
  for (int round = 1; round < 10; ++round) {
    sub_bytes(state);
    shift_rows(state);
    mix_columns(state);
    add_round_key(state, round_keys_[static_cast<std::size_t>(round)]);
  }
  sub_bytes(state);
  shift_rows(state);
  add_round_key(state, round_keys_[10]);
  return state;
}

}  // namespace witag::mac
