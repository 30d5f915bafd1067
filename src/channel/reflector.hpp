// Static environment reflectors (furniture, walls' specular points).
// Each contributes a two-hop path whose gain follows the radar-equation
// 1/(Ds * Dr) amplitude law; together with the direct path they give the
// frequency-selective multipath profile the OFDM receiver equalizes.
#pragma once

#include <complex>

#include "channel/geometry.hpp"
#include "channel/pathloss.hpp"
#include "util/units.hpp"

namespace witag::channel {

struct StaticReflector {
  Point2 position;
  double strength = 1.0;  ///< Amplitude reflectivity (dimensionless).
};

/// A two-hop path's subcarrier-invariant terms: its free-space terms plus
/// the amplitude factors of the wall losses on its two hops. gain()
/// applies the two factors one after the other, (g * in) * out, as two
/// attenuate() calls do; g * (in * out) can differ in the last bit.
struct TwoHopPath {
  PathTerms terms;
  double loss_in = 1.0;   ///< Wall-loss factor, sender -> reflector.
  double loss_out = 1.0;  ///< Wall-loss factor, reflector -> receiver.

  std::complex<double> gain(util::Hertz freq, util::Hertz offset) const {
    return terms.gain(freq, offset) * loss_in * loss_out;
  }
};

/// Terms of the path tx -> `via` -> rx through a reflector of amplitude
/// reflectivity `strength` at carrier `freq`, with wall penetration on
/// both hops. Requires `via` to differ from tx and rx.
TwoHopPath two_hop_path(Point2 tx, Point2 via, Point2 rx, double strength,
                        const FloorPlan& plan, util::Hertz freq);

/// Complex gain of the two-hop path tx -> reflector -> rx at the given
/// carrier + subcarrier offset, including wall penetration on both hops.
std::complex<double> reflector_path_gain(const StaticReflector& r, Point2 tx,
                                         Point2 rx, const FloorPlan& plan,
                                         util::Hertz freq, util::Hertz offset);

}  // namespace witag::channel
