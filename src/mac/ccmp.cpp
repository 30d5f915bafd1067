#include "mac/ccmp.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

#include "util/require.hpp"

namespace witag::mac {
namespace {

using Block = AesBlock;

CcmNonce make_nonce(const MacHeader& header, std::uint64_t pn) {
  CcmNonce nonce{};
  nonce[0] = header.tid;  // priority octet
  std::copy(header.addr2.octets.begin(), header.addr2.octets.end(),
            nonce.begin() + 1);
  for (int i = 0; i < 6; ++i) {
    nonce[static_cast<std::size_t>(7 + i)] =
        static_cast<std::uint8_t>((pn >> (8 * (5 - i))) & 0xFF);
  }
  return nonce;
}

// Additional authenticated data: the MAC header with the protected bit
// forced on (both sides derive it identically; simplification relative
// to 802.11's FC-masking rules noted in DESIGN.md).
std::array<std::uint8_t, kQosHeaderBytes> make_aad(const MacHeader& header) {
  MacHeader h = header;
  h.protected_frame = true;
  std::array<std::uint8_t, kQosHeaderBytes> aad;
  serialize_header_into(h, aad);
  return aad;
}

Block ctr_block(const CcmNonce& nonce, std::uint16_t counter) {
  Block a{};
  a[0] = 0x01;  // flags: L' = L - 1 = 1
  std::copy(nonce.begin(), nonce.end(), a.begin() + 1);
  a[14] = static_cast<std::uint8_t>(counter >> 8);
  a[15] = static_cast<std::uint8_t>(counter & 0xFF);
  return a;
}

// CBC-MAC tag (first kCcmpMicBytes bytes) over B0 | AAD | message.
std::array<std::uint8_t, kCcmpMicBytes> cbc_mac(
    const Aes128& aes, const CcmNonce& nonce,
    std::span<const std::uint8_t> aad, std::span<const std::uint8_t> msg) {
  Block b0{};
  // flags: Adata | ((M-2)/2) << 3 | (L-1) = 0x40 | 0x18 | 0x01.
  b0[0] = aad.empty() ? 0x19 : 0x59;
  std::copy(nonce.begin(), nonce.end(), b0.begin() + 1);
  b0[14] = static_cast<std::uint8_t>(msg.size() >> 8);
  b0[15] = static_cast<std::uint8_t>(msg.size() & 0xFF);

  Block x = aes.encrypt(b0);
  // XORs bytes into the chain, encrypting each block as it fills;
  // end_block() zero-pads a partial block and encrypts it.
  std::size_t filled = 0;
  auto absorb = [&](std::span<const std::uint8_t> chunk) {
    for (const std::uint8_t byte : chunk) {
      x[filled] = static_cast<std::uint8_t>(x[filled] ^ byte);
      if (++filled == 16) {
        x = aes.encrypt(x);
        filled = 0;
      }
    }
  };
  auto end_block = [&] {
    if (filled != 0) x = aes.encrypt(x);
    filled = 0;
  };

  if (!aad.empty()) {
    // AAD is prefixed with its 16-bit length, then zero-padded.
    const std::array<std::uint8_t, 2> length{
        static_cast<std::uint8_t>(aad.size() >> 8),
        static_cast<std::uint8_t>(aad.size() & 0xFF)};
    absorb(length);
    absorb(aad);
    end_block();
  }
  absorb(msg);
  end_block();

  std::array<std::uint8_t, kCcmpMicBytes> tag{};
  std::copy_n(x.begin(), kCcmpMicBytes, tag.begin());
  return tag;
}

void ctr_crypt(const Aes128& aes, const CcmNonce& nonce,
               std::span<std::uint8_t> data) {
  // Counter 0 is reserved for the MIC; data starts at counter 1.
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint16_t counter = static_cast<std::uint16_t>(1 + i / 16);
    const Block ks = aes.encrypt(ctr_block(nonce, counter));
    const std::size_t run = std::min<std::size_t>(16, data.size() - i);
    for (std::size_t k = 0; k < run; ++k) {
      data[i + k] = static_cast<std::uint8_t>(data[i + k] ^ ks[k]);
    }
    i += run - 1;
  }
}

// ccm_encrypt in place: `sealed` holds the plaintext followed by
// kCcmpMicBytes bytes of room, and ends up holding ciphertext || MIC.
void ccm_encrypt_in_place(const Aes128& aes, const CcmNonce& nonce,
                          std::span<const std::uint8_t> aad,
                          std::span<std::uint8_t> sealed) {
  WITAG_REQUIRE(sealed.size() >= kCcmpMicBytes);
  const std::span<std::uint8_t> text =
      sealed.first(sealed.size() - kCcmpMicBytes);
  WITAG_REQUIRE(text.size() < 65536);
  const auto mic = cbc_mac(aes, nonce, aad, text);
  ctr_crypt(aes, nonce, text);
  const Block a0 = aes.encrypt(ctr_block(nonce, 0));
  for (std::size_t i = 0; i < kCcmpMicBytes; ++i) {
    sealed[text.size() + i] = static_cast<std::uint8_t>(mic[i] ^ a0[i]);
  }
}

}  // namespace

util::ByteVec ccm_encrypt(const Aes128& aes, const CcmNonce& nonce,
                          std::span<const std::uint8_t> aad,
                          std::span<const std::uint8_t> plaintext) {
  util::ByteVec out(plaintext.size() + kCcmpMicBytes);
  std::copy(plaintext.begin(), plaintext.end(), out.begin());
  ccm_encrypt_in_place(aes, nonce, aad, out);
  return out;
}

std::optional<util::ByteVec> ccm_decrypt(const Aes128& aes,
                                         const CcmNonce& nonce,
                                         std::span<const std::uint8_t> aad,
                                         std::span<const std::uint8_t> data) {
  if (data.size() < kCcmpMicBytes) return std::nullopt;
  const std::size_t cipher_len = data.size() - kCcmpMicBytes;
  util::ByteVec plain(data.begin(),
                      data.begin() + static_cast<std::ptrdiff_t>(cipher_len));
  ctr_crypt(aes, nonce, plain);

  const auto expected = cbc_mac(aes, nonce, aad, plain);
  const Block a0 = aes.encrypt(ctr_block(nonce, 0));
  for (std::size_t i = 0; i < kCcmpMicBytes; ++i) {
    const std::uint8_t got =
        static_cast<std::uint8_t>(data[cipher_len + i] ^ a0[i]);
    if (got != expected[i]) return std::nullopt;
  }
  return plain;
}

CcmpSession::CcmpSession(const AesKey& temporal_key) : aes_(temporal_key) {}

void CcmpSession::encrypt_in_place(const MacHeader& header,
                                   std::span<std::uint8_t> body) {
  WITAG_REQUIRE(body.size() >= kCcmpHeaderBytes + kCcmpMicBytes);
  WITAG_REQUIRE(body.size() - kCcmpHeaderBytes - kCcmpMicBytes < 2048);
  const std::uint64_t pn = pn_++;
  const CcmNonce nonce = make_nonce(header, pn);
  const std::array<std::uint8_t, kQosHeaderBytes> aad = make_aad(header);

  // CCMP header: PN0 PN1 rsvd (ExtIV|KeyID) PN2 PN3 PN4 PN5.
  body[0] = static_cast<std::uint8_t>(pn & 0xFF);
  body[1] = static_cast<std::uint8_t>((pn >> 8) & 0xFF);
  body[2] = 0x00;
  body[3] = 0x20;  // ExtIV set, key id 0
  for (std::size_t i = 2; i < 6; ++i) {
    body[2 + i] = static_cast<std::uint8_t>((pn >> (8 * i)) & 0xFF);
  }
  ccm_encrypt_in_place(aes_, nonce, aad, body.subspan(kCcmpHeaderBytes));
}

util::ByteVec CcmpSession::encrypt(const MacHeader& header,
                                   std::span<const std::uint8_t> plaintext) {
  util::ByteVec body(kCcmpHeaderBytes + plaintext.size() + kCcmpMicBytes);
  std::copy(plaintext.begin(), plaintext.end(),
            body.begin() + static_cast<std::ptrdiff_t>(kCcmpHeaderBytes));
  encrypt_in_place(header, body);
  return body;
}

std::optional<util::ByteVec> CcmpSession::decrypt(
    const MacHeader& header, std::span<const std::uint8_t> body) const {
  if (body.size() < kCcmpHeaderBytes + kCcmpMicBytes) return std::nullopt;
  if ((body[3] & 0x20) == 0) return std::nullopt;  // ExtIV must be set

  std::uint64_t pn = 0;
  pn |= body[0];
  pn |= static_cast<std::uint64_t>(body[1]) << 8;
  for (int i = 2; i < 6; ++i) {
    pn |= static_cast<std::uint64_t>(body[static_cast<std::size_t>(2 + i)])
          << (8 * i);
  }
  const CcmNonce nonce = make_nonce(header, pn);
  const std::array<std::uint8_t, kQosHeaderBytes> aad = make_aad(header);
  return ccm_decrypt(aes_, nonce, aad, body.subspan(kCcmpHeaderBytes));
}

}  // namespace witag::mac
