// AES-128 block cipher (FIPS-197), encryption direction only — CCM mode
// (counter + CBC-MAC) needs just the forward cipher for both encryption
// and decryption. One key schedule, two paths: phy::simd's AES-NI kernel
// at the vector tiers, and byte-wise rounds implemented from scratch at
// the scalar tier (WITAG_SIMD=off, hosts without AES-NI). The tests
// check both against FIPS-197 appendix vectors and each other.
//
// The byte-wise path is not constant-time: this is a protocol
// simulator, not a production crypto library, and the threat model
// here is protocol fidelity.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace witag::mac {

using AesKey = std::array<std::uint8_t, 16>;
using AesBlock = std::array<std::uint8_t, 16>;

/// AES-128 with a precomputed key schedule.
class Aes128 {
 public:
  explicit Aes128(const AesKey& key);

  /// Encrypts one 16-byte block on the path phy::simd::active_tier()
  /// selects, so ScopedTier and WITAG_SIMD apply as for the PHY kernels.
  AesBlock encrypt(const AesBlock& plaintext) const;

 private:
  // Aligned for the AES-NI kernel's round-key loads.
  alignas(16) std::array<std::array<std::uint8_t, 16>, 11> round_keys_{};
};

}  // namespace witag::mac
