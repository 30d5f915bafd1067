#include "channel/tag_path.hpp"

#include "channel/reflector.hpp"
#include "util/require.hpp"

namespace witag::channel {

std::complex<double> tag_gamma(TagMode mode, bool asserted) {
  switch (mode) {
    case TagMode::kOpenShort:
      return asserted ? std::complex<double>{1.0, 0.0}
                      : std::complex<double>{0.0, 0.0};
    case TagMode::kPhaseFlip:
      return asserted ? std::complex<double>{-1.0, 0.0}
                      : std::complex<double>{1.0, 0.0};
  }
  WITAG_ENSURE(false);
  return {};
}

std::complex<double> tag_coupling(const TagPathConfig& tag, Point2 tx,
                                  Point2 rx, const FloorPlan& plan,
                                  util::Hertz freq, util::Hertz offset) {
  return two_hop_path(tx, tag.position, rx, tag.strength, plan, freq)
      .gain(freq, offset);
}

double channel_change_magnitude(const TagPathConfig& tag, Point2 tx, Point2 rx,
                                const FloorPlan& plan, util::Hertz freq) {
  const std::complex<double> delta =
      tag_gamma(tag.mode, true) - tag_gamma(tag.mode, false);
  return std::abs(delta) *
         std::abs(tag_coupling(tag, tx, rx, plan, freq, util::Hertz{0.0}));
}

}  // namespace witag::channel
