// Butterworth IIR filter design via the classic analog-prototype ->
// frequency-transform -> bilinear-transform route, emitted as a cascade of
// second-order sections. The paper's preprocessor uses the band-pass variant
// (16-20 kHz band at a 48 kHz sample rate).
#pragma once

#include "dsp/biquad.hpp"

namespace earsonar::dsp {

/// Order-n Butterworth low-pass with cutoff `cutoff_hz` (0 < f < Nyquist).
BiquadCascade butterworth_lowpass(int order, double cutoff_hz, double sample_rate);

/// Butterworth band-pass between `low_hz` and `high_hz`. `order` is the
/// prototype order; the digital filter has 2*order poles (matching the
/// scipy/matlab convention for "order-N bandpass").
BiquadCascade butterworth_bandpass(int order, double low_hz, double high_hz,
                                   double sample_rate);

}  // namespace earsonar::dsp
