// CCMP (WPA2 data confidentiality): AES-128 in CCM mode (RFC 3610 with
// M = 8 MIC octets and L = 2) with the 802.11 nonce construction
// { priority, transmitter address, 48-bit packet number } and the 8-byte
// CCMP header carrying the PN.
//
// This is what makes WiTAG's encryption claim concrete in the testbed:
// the tag corrupts ciphertext it cannot read, the AP's FCS check fails,
// and the block-ack bit flips — no plaintext access needed anywhere.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <array>
#include <cstddef>

#include "mac/aes.hpp"
#include "mac/mac_header.hpp"
#include "util/bits.hpp"

namespace witag::mac {

inline constexpr std::size_t kCcmpHeaderBytes = 8;
inline constexpr std::size_t kCcmpMicBytes = 8;

/// 13-byte CCM nonce (L = 2).
using CcmNonce = std::array<std::uint8_t, 13>;

/// Raw CCM (RFC 3610, M = 8, L = 2) encryption: returns
/// ciphertext || 8-byte encrypted MIC. Exposed so the mode can be
/// validated against the RFC's test vectors independent of the 802.11
/// framing. Requires plaintext shorter than 2^16 bytes.
util::ByteVec ccm_encrypt(const Aes128& aes, const CcmNonce& nonce,
                          std::span<const std::uint8_t> aad,
                          std::span<const std::uint8_t> plaintext);

/// Inverse of ccm_encrypt; nullopt when the MIC check fails or the
/// buffer is shorter than a MIC.
std::optional<util::ByteVec> ccm_decrypt(const Aes128& aes,
                                         const CcmNonce& nonce,
                                         std::span<const std::uint8_t> aad,
                                         std::span<const std::uint8_t> data);

/// Per-association CCMP state: temporal key and transmit packet number.
class CcmpSession {
 public:
  explicit CcmpSession(const AesKey& temporal_key);

  /// Encrypts `plaintext` for the given MAC header; returns the frame
  /// body (CCMP header + ciphertext + MIC) and advances the PN.
  util::ByteVec encrypt(const MacHeader& header,
                        std::span<const std::uint8_t> plaintext);

  /// encrypt() in place: `body` is the frame body with the plaintext
  /// after kCcmpHeaderBytes of room and kCcmpMicBytes of room after it;
  /// writes the CCMP header, the ciphertext and the MIC over it.
  void encrypt_in_place(const MacHeader& header, std::span<std::uint8_t> body);

  /// Decrypts a frame body produced by `encrypt`. Returns the plaintext
  /// or nullopt when the body is malformed or the MIC check fails.
  std::optional<util::ByteVec> decrypt(const MacHeader& header,
                                       std::span<const std::uint8_t> body) const;

  std::uint64_t packet_number() const { return pn_; }

 private:
  Aes128 aes_;
  std::uint64_t pn_ = 1;  ///< 48-bit packet number (never reused).
};

}  // namespace witag::mac
