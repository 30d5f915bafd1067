#include "mac/station.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "obs/obs.hpp"
#include "util/bits.hpp"
#include "util/crc.hpp"
#include "util/require.hpp"

namespace witag::mac {

AccessPoint::AccessPoint(MacAddress address, SecurityConfig security)
    : address_(address), security_(security) {
  if (security_.mode == Security::kCcmp) {
    ccmp_.emplace(security_.ccmp_key);
  }
}

AccessPoint::PsduResult AccessPoint::receive_psdu(
    std::span<const std::uint8_t> psdu) {
  WITAG_SPAN_CAT("mac.receive_psdu", "mac");
  PsduResult result;
  std::optional<BlockAck> ba;

  for (const Subframe& sf : deaggregate(psdu)) {
    const auto mpdu = parse_mpdu(sf.mpdu);
    if (!mpdu) continue;  // FCS failed: subframe not received
    if (mpdu->header.addr1 != address_) continue;  // not for us

    ++result.subframes_valid;
    // Decrypt when the BSS is protected. A MIC/ICV failure is logged but
    // the MPDU still passed its FCS, so the block ack acknowledges it —
    // matching real APs, whose BA logic runs below the crypto layer.
    if (security_.mode == Security::kCcmp && mpdu->header.protected_frame) {
      if (!ccmp_->decrypt(mpdu->header, mpdu->body)) {
        ++result.decrypt_failures;
      }
    } else if (security_.mode == Security::kWep &&
               mpdu->header.protected_frame) {
      if (!wep_decrypt(security_.wep_key, mpdu->body)) {
        ++result.decrypt_failures;
      }
    }

    if (!ba) {
      ba.emplace();
      ba->start_seq = mpdu->header.sequence;
    }
    if (seq_offset(ba->start_seq, mpdu->header.sequence) >= 0) {
      ba->set_received(mpdu->header.sequence);
    }
  }
  result.block_ack = ba;
  return result;
}

Client::Client(MacAddress address, MacAddress ap_address,
               SecurityConfig security)
    : address_(address), ap_address_(ap_address), security_(security) {
  if (security_.mode == Security::kCcmp) {
    ccmp_.emplace(security_.ccmp_key);
  }
}

util::ByteVec Client::build_ampdu(std::span<const util::ByteVec> payloads) {
  util::ByteVec psdu;
  build_ampdu_into(payloads, psdu);
  return psdu;
}

void Client::build_ampdu_into(std::span<const util::ByteVec> payloads,
                              util::ByteVec& psdu) {
  WITAG_REQUIRE(!payloads.empty() && payloads.size() <= kMaxSubframes);
  last_seqs_.clear();
  psdu.clear();

  for (const util::ByteVec& payload : payloads) {
    MacHeader header;
    header.type = FrameType::kQosData;
    header.addr1 = ap_address_;
    header.addr2 = address_;
    header.addr3 = ap_address_;
    header.sequence = next_seq_;
    header.tid = 0;
    last_seqs_.push_back(next_seq_);
    next_seq_ = static_cast<std::uint16_t>((next_seq_ + 1) % 4096);

    // WEP's body is built apart (and allocates); the other modes write
    // theirs in place below.
    util::ByteVec wep_body;
    std::size_t body_bytes = payload.size();
    switch (security_.mode) {
      case Security::kOpen:
        break;
      case Security::kCcmp:
        header.protected_frame = true;
        body_bytes += kCcmpHeaderBytes + kCcmpMicBytes;
        break;
      case Security::kWep:
        header.protected_frame = true;
        wep_body = wep_encrypt(security_.wep_key, next_wep_iv_++ & 0xFFFFFFu,
                               payload);
        body_bytes = wep_body.size();
        break;
    }

    // One subframe: delimiter, header, body, FCS, then zeros to the next
    // 4-byte boundary (aggregate() of serialize_mpdu(), byte for byte).
    const std::size_t mpdu_bytes = kQosHeaderBytes + body_bytes + kFcsBytes;
    const std::size_t at = psdu.size();
    psdu.resize(at + (kDelimiterBytes + mpdu_bytes + 3) / 4 * 4);
    const std::span<std::uint8_t> subframe =
        std::span(psdu).subspan(at, kDelimiterBytes + mpdu_bytes);
    const auto delimiter = make_delimiter(mpdu_bytes);
    std::copy(delimiter.begin(), delimiter.end(), subframe.begin());
    const std::span<std::uint8_t> mpdu = subframe.subspan(kDelimiterBytes);
    serialize_header_into(header, mpdu.first<kQosHeaderBytes>());
    const std::span<std::uint8_t> body =
        mpdu.subspan(kQosHeaderBytes, body_bytes);
    switch (security_.mode) {
      case Security::kOpen:
        std::copy(payload.begin(), payload.end(), body.begin());
        break;
      case Security::kCcmp:
        std::copy(payload.begin(), payload.end(),
                  body.begin() + static_cast<std::ptrdiff_t>(kCcmpHeaderBytes));
        ccmp_->encrypt_in_place(header, body);
        break;
      case Security::kWep:
        std::copy(wep_body.begin(), wep_body.end(), body.begin());
        break;
    }
    const std::uint32_t fcs =
        util::crc32(mpdu.first(kQosHeaderBytes + body_bytes));
    for (std::size_t i = 0; i < kFcsBytes; ++i) {
      mpdu[kQosHeaderBytes + body_bytes + i] =
          static_cast<std::uint8_t>((fcs >> (8 * i)) & 0xFF);
    }
  }
}

std::uint16_t Client::last_seq(std::size_t i) const {
  WITAG_REQUIRE(i < last_seqs_.size());
  return last_seqs_[i];
}

std::vector<bool> Client::subframe_outcomes(
    const std::optional<BlockAck>& ba) const {
  std::vector<bool> outcomes(last_seqs_.size(), false);
  if (!ba) return outcomes;
  for (std::size_t i = 0; i < last_seqs_.size(); ++i) {
    outcomes[i] = ba->received(last_seqs_[i]);
  }
  return outcomes;
}

}  // namespace witag::mac
