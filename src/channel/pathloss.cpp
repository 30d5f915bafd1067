#include "channel/pathloss.hpp"

#include <cmath>

#include "util/require.hpp"
#include "util/units.hpp"

namespace witag::channel {

using util::kPi;
using util::kSpeedOfLight;

std::complex<double> PathTerms::gain(util::Hertz freq,
                                     util::Hertz offset) const {
  const double phase = phase_coeff * (freq + offset).value() / kSpeedOfLight;
  return std::polar(amp, phase);
}

PathTerms direct_terms(util::Meters dist, util::Hertz freq) {
  WITAG_REQUIRE(dist.value() > 0.0);
  const double lambda = util::wavelength(freq).value();
  return {lambda / (4.0 * kPi * dist.value()), -2.0 * kPi * dist.value()};
}

PathTerms reflected_terms(util::Meters ds, util::Meters dr, double strength,
                          util::Hertz freq) {
  WITAG_REQUIRE(ds.value() > 0.0 && dr.value() > 0.0);
  const double lambda = util::wavelength(freq).value();
  const double amp = strength * lambda * lambda /
                     (std::pow(4.0 * kPi, 1.5) * ds.value() * dr.value());
  return {amp, -2.0 * kPi * (ds + dr).value()};
}

std::complex<double> direct_gain(util::Meters dist, util::Hertz freq,
                                 util::Hertz offset) {
  return direct_terms(dist, freq).gain(freq, offset);
}

std::complex<double> reflected_gain(util::Meters ds, util::Meters dr,
                                    double strength, util::Hertz freq,
                                    util::Hertz offset) {
  return reflected_terms(ds, dr, strength, freq).gain(freq, offset);
}

double loss_factor(util::Db loss) {
  // Amplitude loss is half the power loss in dB.
  return std::pow(10.0, -loss.value() / 20.0);
}

std::complex<double> attenuate(std::complex<double> gain, util::Db loss) {
  return gain * loss_factor(loss);
}

}  // namespace witag::channel
