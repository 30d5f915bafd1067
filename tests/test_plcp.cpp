#include "phy/plcp.hpp"

#include <gtest/gtest.h>

namespace witag::phy {
namespace {

// gtest names each case after the raw bytes of its SigCase, so every byte
// is a field: `name_tag` fills what would otherwise be uninitialised
// padding, which made the case names change from run to run. Its values
// keep the names the cases are registered under; the codec never sees it.
struct SigCase {
  unsigned mcs;
  unsigned name_tag;
  std::size_t length;
};
static_assert(sizeof(SigCase) == 2 * sizeof(unsigned) + sizeof(std::size_t),
              "SigCase must have no padding");

class PlcpParam : public ::testing::TestWithParam<SigCase> {};

TEST_P(PlcpParam, RoundTrip) {
  const HtSig sig{GetParam().mcs, GetParam().length};
  const util::BitVec bits = encode_sig(sig);
  ASSERT_EQ(bits.size(), kSigBits);
  const auto decoded = decode_sig(bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, sig);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, PlcpParam,
    ::testing::Values(SigCase{0, 0, 1}, SigCase{7, 0x560D, 4095},
                      SigCase{5, 0, 3328}, SigCase{127, 0, 65535},
                      SigCase{3, 0, 52}));

TEST(Plcp, CrcRejectsEveryHeaderBitFlip) {
  const HtSig sig{5, 1234};
  const util::BitVec bits = encode_sig(sig);
  for (std::size_t i = 0; i < 24; ++i) {  // fields only
    util::BitVec corrupted = bits;
    corrupted[i] ^= 1;
    const auto decoded = decode_sig(corrupted);
    // Either the CRC rejects it or (never) it decodes to the original.
    EXPECT_FALSE(decoded.has_value()) << "bit " << i;
  }
}

TEST(Plcp, CrcBitFlipInCrcFieldRejects) {
  const HtSig sig{2, 99};
  util::BitVec bits = encode_sig(sig);
  bits[25] ^= 1;  // inside the CRC field
  EXPECT_FALSE(decode_sig(bits).has_value());
}

TEST(Plcp, TailAndPaddingAreZero) {
  const util::BitVec bits = encode_sig(HtSig{1, 10});
  for (std::size_t i = 32; i < kSigBits; ++i) {
    EXPECT_EQ(bits[i], 0) << "bit " << i;
  }
}

TEST(Plcp, RejectsOutOfRangeFields) {
  EXPECT_THROW(encode_sig(HtSig{128, 1}), std::invalid_argument);
  EXPECT_THROW(encode_sig(HtSig{0, 65536}), std::invalid_argument);
}

TEST(Plcp, DecodeRequiresExactWidth) {
  const util::BitVec bits(51, 0);
  EXPECT_THROW(decode_sig(bits), std::invalid_argument);
}

}  // namespace
}  // namespace witag::phy
