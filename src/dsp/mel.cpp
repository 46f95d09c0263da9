#include "dsp/mel.hpp"

#include <cmath>

#include "common/error.hpp"

namespace earsonar::dsp {

double hz_to_mel(double hz) {
  require(hz >= 0.0, "hz_to_mel: hz must be >= 0");
  return 2595.0 * std::log10(1.0 + hz / 700.0);
}

double mel_to_hz(double mel) {
  require(mel >= 0.0, "mel_to_hz: mel must be >= 0");
  return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

}  // namespace earsonar::dsp
