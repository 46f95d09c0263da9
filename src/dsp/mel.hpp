// Mel scale conversions (HTK formula).
//
// The feature stage (core::FeatureExtractor::band_mfcc) lays its triangular
// filters on a mel-spaced grid across the 16-20 kHz analysis band; these are
// the scale conversions it uses.
#pragma once

namespace earsonar::dsp {

/// Hz -> mel (HTK formula).
double hz_to_mel(double hz);

/// Mel -> Hz (HTK formula).
double mel_to_hz(double mel);

}  // namespace earsonar::dsp
