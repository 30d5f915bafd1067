#include "mac/station.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mac/ampdu.hpp"
#include "mac/mpdu.hpp"
#include "util/rng.hpp"

namespace witag::mac {
namespace {

SecurityConfig open_net() { return {}; }

SecurityConfig ccmp_net() {
  SecurityConfig sec;
  sec.mode = Security::kCcmp;
  sec.ccmp_key = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  return sec;
}

SecurityConfig wep_net() {
  SecurityConfig sec;
  sec.mode = Security::kWep;
  for (std::size_t i = 0; i < sec.wep_key.size(); ++i) {
    sec.wep_key[i] = static_cast<std::uint8_t>(i + 1);
  }
  return sec;
}

std::vector<util::ByteVec> payloads(std::size_t n, std::size_t size) {
  std::vector<util::ByteVec> out(n);
  util::Rng rng(n + size);
  for (auto& p : out) p = rng.bytes(size);
  return out;
}

class StationSecurity : public ::testing::TestWithParam<Security> {
 protected:
  SecurityConfig config() const {
    switch (GetParam()) {
      case Security::kOpen: return open_net();
      case Security::kWep: return wep_net();
      case Security::kCcmp: return ccmp_net();
    }
    return {};
  }
};

TEST_P(StationSecurity, CleanExchangeAcksEverySubframe) {
  const SecurityConfig sec = config();
  Client client(make_address(1), make_address(2), sec);
  AccessPoint ap(make_address(2), sec);
  const auto psdu = client.build_ampdu(payloads(10, 20));
  const auto result = ap.receive_psdu(psdu);
  EXPECT_EQ(result.subframes_valid, 10u);
  EXPECT_EQ(result.decrypt_failures, 0u);
  ASSERT_TRUE(result.block_ack.has_value());
  const auto outcomes = client.subframe_outcomes(result.block_ack);
  ASSERT_EQ(outcomes.size(), 10u);
  for (const bool ok : outcomes) EXPECT_TRUE(ok);
}

TEST_P(StationSecurity, CorruptedSubframeReadsAsZero) {
  const SecurityConfig sec = config();
  Client client(make_address(1), make_address(2), sec);
  AccessPoint ap(make_address(2), sec);
  util::ByteVec psdu = client.build_ampdu(payloads(8, 30));
  // Corrupt bytes inside subframe 3's MPDU region. Subframe layout is
  // uniform here, so locate it via deaggregation first.
  const auto subframes = deaggregate(psdu);
  const std::size_t target = subframes[3].offset + kDelimiterBytes + 10;
  for (int i = 0; i < 8; ++i) psdu[target + static_cast<std::size_t>(i)] ^= 0x5A;
  const auto result = ap.receive_psdu(psdu);
  EXPECT_EQ(result.subframes_valid, 7u);
  const auto outcomes = client.subframe_outcomes(result.block_ack);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i], i != 3) << "subframe " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSecurityModes, StationSecurity,
                         ::testing::Values(Security::kOpen, Security::kWep,
                                           Security::kCcmp));

TEST(Station, SequenceNumbersAdvanceAcrossAmpdus) {
  Client client(make_address(1), make_address(2), open_net());
  client.build_ampdu(payloads(5, 10));
  EXPECT_EQ(client.last_seq(0), 0u);
  EXPECT_EQ(client.last_seq(4), 4u);
  client.build_ampdu(payloads(5, 10));
  EXPECT_EQ(client.last_seq(0), 5u);
}

TEST(Station, SequenceWrapsAt4096) {
  Client client(make_address(1), make_address(2), open_net());
  for (int i = 0; i < 4095 / 60; ++i) client.build_ampdu(payloads(60, 4));
  // Push over the wrap point.
  client.build_ampdu(payloads(60, 4));
  client.build_ampdu(payloads(60, 4));
  AccessPoint ap(make_address(2), open_net());
  const auto psdu = client.build_ampdu(payloads(10, 4));
  const auto result = ap.receive_psdu(psdu);
  const auto outcomes = client.subframe_outcomes(result.block_ack);
  for (const bool ok : outcomes) EXPECT_TRUE(ok);
}

TEST(Station, ApIgnoresFramesForOtherReceivers) {
  Client client(make_address(1), make_address(9), open_net());  // wrong AP
  AccessPoint ap(make_address(2), open_net());
  const auto result = ap.receive_psdu(client.build_ampdu(payloads(4, 10)));
  EXPECT_EQ(result.subframes_valid, 0u);
  EXPECT_FALSE(result.block_ack.has_value());
}

TEST(Station, NoBlockAckMeansAllSubframesUnacked) {
  Client client(make_address(1), make_address(2), open_net());
  client.build_ampdu(payloads(6, 10));
  const auto outcomes = client.subframe_outcomes(std::nullopt);
  ASSERT_EQ(outcomes.size(), 6u);
  for (const bool ok : outcomes) EXPECT_FALSE(ok);
}

TEST(Station, CorruptedFirstSubframeShiftsBaStart) {
  // When subframe 0 dies, the AP's BA starts at the first valid seq; the
  // client must still read the remaining subframes correctly.
  Client client(make_address(1), make_address(2), open_net());
  AccessPoint ap(make_address(2), open_net());
  util::ByteVec psdu = client.build_ampdu(payloads(5, 25));
  const auto subframes = deaggregate(psdu);
  psdu[subframes[0].offset + kDelimiterBytes + 5] ^= 0xFF;
  const auto result = ap.receive_psdu(psdu);
  const auto outcomes = client.subframe_outcomes(result.block_ack);
  EXPECT_FALSE(outcomes[0]);
  for (std::size_t i = 1; i < 5; ++i) EXPECT_TRUE(outcomes[i]) << i;
}

TEST(Station, WepDecryptFailureCountsButStillAcks) {
  // FCS-valid but undecryptable: acked at MAC level, flagged upward.
  SecurityConfig tx_sec = wep_net();
  SecurityConfig rx_sec = wep_net();
  rx_sec.wep_key[0] ^= 0xFF;  // AP has a different key
  Client client(make_address(1), make_address(2), tx_sec);
  AccessPoint ap(make_address(2), rx_sec);
  const auto result = ap.receive_psdu(client.build_ampdu(payloads(3, 15)));
  EXPECT_EQ(result.subframes_valid, 3u);
  EXPECT_EQ(result.decrypt_failures, 3u);
  ASSERT_TRUE(result.block_ack.has_value());
}

TEST_P(StationSecurity, AmpduIntoEqualsAggregateOfSerializedMpdus) {
  // build_ampdu_into writes each subframe straight into the PSDU; it
  // must equal the A-MPDU the framing functions build one MPDU at a
  // time, over several keys, payload counts and sizes (odd sizes need
  // padding), with the PSDU buffer reused dirty from the last build.
  util::ByteVec psdu;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(0xA3'D0 + seed);
    SecurityConfig sec = config();
    for (auto& b : sec.ccmp_key) b = rng.bytes(1)[0];
    for (auto& b : sec.wep_key) b = rng.bytes(1)[0];
    const MacAddress me = make_address(static_cast<std::uint8_t>(seed));
    const MacAddress ap = make_address(0x80);
    Client client(me, ap, sec);
    std::optional<CcmpSession> ccmp;
    if (sec.mode == Security::kCcmp) ccmp.emplace(sec.ccmp_key);
    std::uint32_t wep_iv = 1;
    std::uint16_t seq = 0;
    for (int round = 0; round < 3; ++round) {
      std::vector<util::ByteVec> bodies(1 + rng.uniform_int(kMaxSubframes));
      for (auto& body : bodies) body = rng.bytes(rng.uniform_int(97));
      client.build_ampdu_into(bodies, psdu);

      std::vector<util::ByteVec> mpdus;
      for (const util::ByteVec& body : bodies) {
        Mpdu mpdu;
        mpdu.header.addr1 = ap;
        mpdu.header.addr2 = me;
        mpdu.header.addr3 = ap;
        mpdu.header.sequence = seq++;
        mpdu.header.protected_frame = sec.mode != Security::kOpen;
        switch (sec.mode) {
          case Security::kOpen: mpdu.body = body; break;
          case Security::kCcmp:
            mpdu.body = ccmp->encrypt(mpdu.header, body);
            break;
          case Security::kWep:
            mpdu.body = wep_encrypt(sec.wep_key, wep_iv++, body);
            break;
        }
        mpdus.push_back(serialize_mpdu(mpdu));
      }
      EXPECT_EQ(psdu, aggregate(mpdus)) << "seed " << seed << " round "
                                        << round;
    }
  }
}

TEST(Station, BuildAmpduValidatesCount) {
  Client client(make_address(1), make_address(2), open_net());
  EXPECT_THROW(client.build_ampdu({}), std::invalid_argument);
  EXPECT_THROW(client.build_ampdu(payloads(65, 1)), std::invalid_argument);
  util::ByteVec psdu;
  EXPECT_THROW(client.build_ampdu_into({}, psdu), std::invalid_argument);
}

}  // namespace
}  // namespace witag::mac
