#include "mac/station.hpp"

#include "obs/obs.hpp"
#include "util/require.hpp"
#include <cstddef>
#include "util/bits.hpp"
#include <cstdint>

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
  WITAG_REQUIRE(!payloads.empty() && payloads.size() <= kMaxSubframes);
  last_seqs_.clear();
  std::vector<util::ByteVec> mpdus;
  mpdus.reserve(payloads.size());

  for (const util::ByteVec& payload : payloads) {
    Mpdu mpdu;
    mpdu.header.type = FrameType::kQosData;
    mpdu.header.addr1 = ap_address_;
    mpdu.header.addr2 = address_;
    mpdu.header.addr3 = ap_address_;
    mpdu.header.sequence = next_seq_;
    mpdu.header.tid = 0;
    last_seqs_.push_back(next_seq_);
    next_seq_ = static_cast<std::uint16_t>((next_seq_ + 1) % 4096);

    switch (security_.mode) {
      case Security::kOpen:
        mpdu.body = payload;
        break;
      case Security::kCcmp:
        mpdu.header.protected_frame = true;
        mpdu.body = ccmp_->encrypt(mpdu.header, payload);
        break;
      case Security::kWep:
        mpdu.header.protected_frame = true;
        mpdu.body = wep_encrypt(security_.wep_key,
                                next_wep_iv_++ & 0xFFFFFFu, payload);
        break;
    }
    mpdus.push_back(serialize_mpdu(mpdu));
  }
  return aggregate(mpdus);
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
