#include <gtest/gtest.h>

#include "mac/airtime.hpp"

namespace witag::mac {
namespace {

TEST(Airtime, LegacyFrameMath) {
  // 32 bytes at 24 Mbps: (16+6+256)/96 = 2.9 -> 3 symbols -> 20+12 us.
  EXPECT_DOUBLE_EQ(legacy_frame_airtime_us(32, 24.0).value(), 32.0);
  // 1500 bytes at 6 Mbps: (22+12000)/24 = 500.9 -> 501 symbols.
  EXPECT_DOUBLE_EQ(legacy_frame_airtime_us(1500, 6.0).value(),
                   20.0 + 4.0 * 501.0);
}

TEST(Airtime, BlockAckDuration) {
  EXPECT_DOUBLE_EQ(block_ack_airtime_us().value(), 32.0);
}

TEST(Airtime, InterframeConstants) {
  EXPECT_DOUBLE_EQ(kDifsUs.value(), (kSifsUs + 2.0 * kSlotUs).value());
  EXPECT_DOUBLE_EQ(expected_backoff_us().value(), 9.0 * 15.0 / 2.0);
}

TEST(Airtime, ExchangeTotal) {
  const ExchangeAirtime t =
      ampdu_exchange(util::Micros{1000.0}, util::Micros{45.0});
  EXPECT_DOUBLE_EQ(t.total_us().value(),
                   kDifsUs.value() + 45.0 + 1000.0 + kSifsUs.value() +
                       block_ack_airtime_us().value());
}

}  // namespace
}  // namespace witag::mac
