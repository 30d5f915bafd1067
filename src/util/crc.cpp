#include "util/crc.hpp"

#include <array>
#include <cstddef>

namespace witag::util {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint8_t, 256> make_crc8_table() {
  std::array<std::uint8_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    // Shifted as unsigned, not as the int a uint8_t promotes to.
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = ((c & 0x80u) ? ((c << 1) ^ 0x07u) : (c << 1)) & 0xFFu;
    }
    table[i] = static_cast<std::uint8_t>(c);
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();
constexpr std::array<std::uint8_t, 256> kCrc8Table = make_crc8_table();

// Slicing-by-8 (Intel's technique): table k advances a byte's
// contribution k extra bytes through the polynomial, so eight input
// bytes fold into eight independent lookups XORed together — one pass
// over the table hierarchy instead of eight dependent byte steps.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_slices() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  t[0] = make_crc32_table();
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Slices =
    make_crc32_slices();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    const std::uint32_t lo = load_le32(p) ^ state;
    const std::uint32_t hi = load_le32(p + 4);
    state = kCrc32Slices[7][lo & 0xFFu] ^ kCrc32Slices[6][(lo >> 8) & 0xFFu] ^
            kCrc32Slices[5][(lo >> 16) & 0xFFu] ^ kCrc32Slices[4][lo >> 24] ^
            kCrc32Slices[3][hi & 0xFFu] ^ kCrc32Slices[2][(hi >> 8) & 0xFFu] ^
            kCrc32Slices[1][(hi >> 16) & 0xFFu] ^ kCrc32Slices[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    state = kCrc32Table[(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

std::uint32_t crc32_final(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

std::uint8_t crc8(std::span<const std::uint8_t> data) {
  std::uint8_t state = 0xFFu;
  for (const std::uint8_t byte : data) {
    state = kCrc8Table[state ^ byte];
  }
  return static_cast<std::uint8_t>(state ^ 0xFFu);
}

}  // namespace witag::util
