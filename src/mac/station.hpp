// Client and AP protocol roles.
//
// The AP here behaves exactly like an unmodified commodity AP: it
// deaggregates whatever A-MPDU the PHY hands it, FCS-checks each
// subframe, decrypts valid ones when the BSS uses WEP/CCMP, and answers
// with a standard compressed block ack. It has no idea a tag exists —
// which is WiTAG's central deployment claim.
//
// The client builds query A-MPDUs and extracts per-subframe outcomes
// from the block ack using the sequence numbers it assigned.
#pragma once

#include <optional>
#include <span>
#include <vector>
#include <cstdint>
#include <cstddef>

#include "mac/ampdu.hpp"
#include "mac/block_ack.hpp"
#include "mac/ccmp.hpp"
#include "mac/mpdu.hpp"
#include "mac/wep.hpp"
#include "util/bits.hpp"

namespace witag::mac {

enum class Security { kOpen, kWep, kCcmp };

struct SecurityConfig {
  Security mode = Security::kOpen;
  AesKey ccmp_key{};
  WepKey wep_key{};
};

class AccessPoint {
 public:
  AccessPoint(MacAddress address, SecurityConfig security);

  struct PsduResult {
    /// Block ack for the A-MPDU; nullopt when no subframe survived
    /// (a real AP would not respond, and the client times out).
    std::optional<BlockAck> block_ack;
    std::size_t subframes_valid = 0;  ///< FCS passed.
    std::size_t decrypt_failures = 0; ///< FCS passed but MIC/ICV failed.
  };

  /// Processes a PSDU delivered by the PHY (possibly with corrupted
  /// regions) and produces the block ack an unmodified AP would send.
  PsduResult receive_psdu(std::span<const std::uint8_t> psdu);

  MacAddress address() const { return address_; }

 private:
  MacAddress address_;
  SecurityConfig security_;
  std::optional<CcmpSession> ccmp_;
};

class Client {
 public:
  Client(MacAddress address, MacAddress ap_address, SecurityConfig security);

  /// Builds an A-MPDU from per-subframe payloads, assigning consecutive
  /// sequence numbers and encrypting bodies per the BSS security mode,
  /// into `psdu`, reusing its capacity: each subframe's delimiter,
  /// header, body (CCMP seals it in place), FCS and padding are written
  /// straight into it, so a warm open or CCMP build allocates nothing
  /// (WEP still builds each body apart). Requires 1..64 payloads.
  void build_ampdu_into(std::span<const util::ByteVec> payloads,
                        util::ByteVec& psdu);

  /// build_ampdu_into() into a fresh PSDU.
  util::ByteVec build_ampdu(std::span<const util::ByteVec> payloads);

  /// Sequence number of subframe `i` in the last built A-MPDU.
  std::uint16_t last_seq(std::size_t i) const;
  std::size_t last_subframe_count() const { return last_seqs_.size(); }

  /// Per-subframe delivery flags for the last A-MPDU given the AP's
  /// block ack (all-false when the exchange produced no block ack).
  std::vector<bool> subframe_outcomes(
      const std::optional<BlockAck>& ba) const;

  MacAddress address() const { return address_; }

 private:
  MacAddress address_;
  MacAddress ap_address_;
  SecurityConfig security_;
  std::optional<CcmpSession> ccmp_;
  std::uint16_t next_seq_ = 0;
  std::uint32_t next_wep_iv_ = 1;
  std::vector<std::uint16_t> last_seqs_;
};

}  // namespace witag::mac
