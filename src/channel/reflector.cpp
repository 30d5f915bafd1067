#include "channel/reflector.hpp"
#include "util/units.hpp"

namespace witag::channel {

TwoHopPath two_hop_path(Point2 tx, Point2 via, Point2 rx, double strength,
                        const FloorPlan& plan, util::Hertz freq) {
  const util::Meters ds{distance(tx, via)};
  const util::Meters dr{distance(via, rx)};
  return {reflected_terms(ds, dr, strength, freq),
          loss_factor(util::Db{plan.penetration_loss_db(tx, via)}),
          loss_factor(util::Db{plan.penetration_loss_db(via, rx)})};
}

std::complex<double> reflector_path_gain(const StaticReflector& r, Point2 tx,
                                         Point2 rx, const FloorPlan& plan,
                                         util::Hertz freq,
                                         util::Hertz offset) {
  return two_hop_path(tx, r.position, rx, r.strength, plan, freq)
      .gain(freq, offset);
}

}  // namespace witag::channel
