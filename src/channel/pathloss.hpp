// Propagation primitives: complex amplitude gains for the direct path and
// for two-hop reflected paths.
//
// The reflected-path model follows the radar-equation form the paper uses
// to explain Figure 5: received reflected power scales as 1/(Ds^2 * Dr^2)
// where Ds and Dr are the reflector's distances to sender and receiver,
// so the amplitude scales as 1/(Ds * Dr).
//
// Distances, frequencies and losses cross this boundary as strong unit
// types (util::Meters / util::Hertz / util::Db) so a caller can never
// hand a dB gain where a dBm power belongs or swap a distance for a
// frequency without a compile error.
#pragma once

#include <complex>

#include "util/units.hpp"

namespace witag::channel {

/// The subcarrier-invariant terms of one free-space path: its amplitude
/// and its phase coefficient, -2 pi times the path length. gain() gives
/// polar(amp, phase_coeff * (freq + offset) / c); direct_gain and
/// reflected_gain are exactly that, so a CFR rebuild computes the terms
/// once per path and only the phase and polar() per subcarrier, with
/// the same bits as a per-subcarrier call.
struct PathTerms {
  double amp = 0.0;
  double phase_coeff = 0.0;  ///< -2 pi x path length [m].

  std::complex<double> gain(util::Hertz freq, util::Hertz offset) const;
};

/// Terms of a direct path of length `dist` at carrier `freq`.
/// Requires dist > 0.
PathTerms direct_terms(util::Meters dist, util::Hertz freq);

/// Terms of a two-hop path (see reflected_gain). Requires ds, dr > 0.
PathTerms reflected_terms(util::Meters ds, util::Meters dr, double strength,
                          util::Hertz freq);

/// Complex free-space gain of a direct path of length `dist` at carrier
/// `freq` for the signal component at baseband offset `offset`
/// (subcarrier frequency): amplitude lambda/(4 pi d), phase -2 pi d f / c.
/// Requires dist > 0.
std::complex<double> direct_gain(util::Meters dist, util::Hertz freq,
                                 util::Hertz offset = util::Hertz{0.0});

/// Complex gain of a two-hop path sender -> reflector -> receiver.
/// `strength` is the reflector's dimensionless amplitude reflectivity
/// (aperture/RCS factor); amplitude = strength * lambda^2 /
/// ((4 pi)^(3/2) * ds * dr), phase from the total path length.
/// Requires ds > 0 and dr > 0.
std::complex<double> reflected_gain(util::Meters ds, util::Meters dr,
                                    double strength, util::Hertz freq,
                                    util::Hertz offset = util::Hertz{0.0});

/// Amplitude factor of a penetration power loss: 10^(-loss / 20).
double loss_factor(util::Db loss);

/// Applies a penetration power loss to a complex gain.
std::complex<double> attenuate(std::complex<double> gain, util::Db loss);

}  // namespace witag::channel
