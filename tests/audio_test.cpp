// Waveform container, FMCW chirp synthesis, noise calibration, WAV I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <numbers>

#include "audio/chirp.hpp"
#include "audio/noise.hpp"
#include "audio/wav.hpp"
#include "audio/waveform.hpp"
#include "common/rng.hpp"
#include "dsp/goertzel.hpp"

namespace earsonar::audio {
namespace {

// ---------------------------------------------------------------- waveform

TEST(WaveformTest, SilenceIsZeroed) {
  const Waveform w = Waveform::silence(100, 48000.0);
  EXPECT_EQ(w.size(), 100u);
  EXPECT_DOUBLE_EQ(w.rms(), 0.0);
  EXPECT_DOUBLE_EQ(w.peak(), 0.0);
}

TEST(WaveformTest, DurationSeconds) {
  const Waveform w = Waveform::silence(24000, 48000.0);
  EXPECT_DOUBLE_EQ(w.duration_seconds(), 0.5);
}

TEST(WaveformTest, SliceClampsAtEnd) {
  Waveform w({1, 2, 3, 4, 5}, 48000.0);
  const Waveform s = w.slice(3, 10);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.samples()[0], 4);
  EXPECT_DOUBLE_EQ(s.samples()[1], 5);
}

TEST(WaveformTest, SliceBeyondEndIsEmpty) {
  Waveform w({1, 2}, 48000.0);
  EXPECT_TRUE(w.slice(5, 3).empty());
}

TEST(WaveformTest, ScaleMultipliesSamples) {
  Waveform w({1, -2}, 48000.0);
  w.scale(0.5);
  EXPECT_DOUBLE_EQ(w.samples()[0], 0.5);
  EXPECT_DOUBLE_EQ(w.samples()[1], -1.0);
}

TEST(WaveformTest, AddAtSumsInPlace) {
  Waveform base = Waveform::silence(10, 48000.0);
  Waveform pulse({1, 1}, 48000.0);
  base.add_at(pulse, 4);
  EXPECT_DOUBLE_EQ(base.samples()[4], 1.0);
  EXPECT_DOUBLE_EQ(base.samples()[5], 1.0);
  EXPECT_DOUBLE_EQ(base.samples()[3], 0.0);
}

TEST(WaveformTest, AddAtOutOfRangeThrows) {
  Waveform base = Waveform::silence(4, 48000.0);
  Waveform pulse({1, 1, 1}, 48000.0);
  EXPECT_THROW(base.add_at(pulse, 2), std::invalid_argument);
}

TEST(WaveformTest, MixRequiresMatchingRate) {
  Waveform a = Waveform::silence(4, 48000.0);
  Waveform b = Waveform::silence(4, 44100.0);
  EXPECT_THROW(a.mix(b), std::invalid_argument);
}

TEST(WaveformTest, RmsOfKnownSignal) {
  Waveform w({3, 4, 0, 0}, 48000.0);
  EXPECT_NEAR(w.rms(), 2.5, 1e-12);
}

TEST(WaveformTest, NormalizePeak) {
  Waveform w({0.2, -0.4}, 48000.0);
  w.normalize_peak(1.0);
  EXPECT_DOUBLE_EQ(w.peak(), 1.0);
}

TEST(WaveformTest, NormalizeSilenceIsNoop) {
  Waveform w = Waveform::silence(8, 48000.0);
  EXPECT_NO_THROW(w.normalize_peak());
  EXPECT_DOUBLE_EQ(w.peak(), 0.0);
}

TEST(WaveformTest, SplCalibrationAnchor) {
  // Full-scale sine RMS (1/sqrt 2) corresponds to 94 dB SPL.
  EXPECT_NEAR(Waveform::spl_to_rms_amplitude(94.0), 1.0 / std::sqrt(2.0), 1e-9);
  // 74 dB is 20 dB (10x amplitude) lower.
  EXPECT_NEAR(Waveform::spl_to_rms_amplitude(74.0), 0.1 / std::sqrt(2.0), 1e-9);
}

TEST(WaveformTest, ZeroSampleRateRejected) {
  EXPECT_THROW(Waveform({1.0}, 0.0), std::invalid_argument);
}

// ------------------------------------------------------------------ chirp

TEST(ChirpTest, PaperDefaultsAreValid) {
  FmcwConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.chirp_samples(), 24u);     // 0.5 ms @ 48 kHz
  EXPECT_EQ(cfg.interval_samples(), 240u); // 5 ms @ 48 kHz
  EXPECT_DOUBLE_EQ(cfg.end_hz(), 20000.0);
}

TEST(ChirpTest, EnergyConcentratedInBand) {
  FmcwConfig cfg;
  cfg.duration_s = 0.01;  // longer chirp gives a cleaner band check
  cfg.interval_s = 0.02;
  const Waveform pulse = make_chirp(cfg);
  const double in_band = dsp::goertzel_power(pulse.view(), 18000.0, cfg.sample_rate);
  const double out_band = dsp::goertzel_power(pulse.view(), 6000.0, cfg.sample_rate);
  EXPECT_GT(in_band, 50.0 * std::max(out_band, 1e-15));
}

TEST(ChirpTest, HannShapingTapersEnds) {
  FmcwConfig cfg;
  const Waveform pulse = make_chirp(cfg);
  EXPECT_NEAR(pulse.samples().front(), 0.0, 1e-9);
  EXPECT_NEAR(pulse.samples().back(), 0.0, 0.05);
  EXPECT_GT(pulse.peak(), cfg.amplitude * 0.5);
}

TEST(ChirpTest, UnshapedChirpKeepsAmplitude) {
  FmcwConfig cfg;
  cfg.hann_shaped = false;
  const Waveform pulse = make_chirp(cfg);
  EXPECT_NEAR(pulse.peak(), cfg.amplitude, 0.02);
}

TEST(ChirpTest, TrainHasChirpsAtIntervals) {
  FmcwConfig cfg;
  const Waveform train = make_chirp_train(cfg, 5);
  EXPECT_EQ(train.size(), 5u * cfg.interval_samples());
  // Energy present at each chirp start, silence between.
  for (std::size_t k = 0; k < 5; ++k) {
    const std::size_t start = chirp_start_sample(cfg, k);
    const Waveform on = train.slice(start, cfg.chirp_samples());
    const Waveform off = train.slice(start + cfg.chirp_samples() + 8, 100);
    EXPECT_GT(on.rms(), 0.01) << k;
    EXPECT_NEAR(off.rms(), 0.0, 1e-9) << k;
  }
}

TEST(ChirpTest, InvalidConfigsRejected) {
  FmcwConfig cfg;
  cfg.start_hz = 23000.0;  // 23k + 4k > Nyquist
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = FmcwConfig{};
  cfg.interval_s = 0.0001;  // shorter than the chirp
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = FmcwConfig{};
  cfg.amplitude = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ChirpTest, ZeroChirpTrainRejected) {
  EXPECT_THROW(make_chirp_train(FmcwConfig{}, 0), std::invalid_argument);
}

// ------------------------------------------------------------------ noise

TEST(NoiseTest, UnitRmsForAllColors) {
  earsonar::Rng rng(1);
  for (auto color : {NoiseColor::kWhite, NoiseColor::kPink, NoiseColor::kBabble}) {
    const Waveform n = make_noise(color, 48000, 48000.0, rng);
    EXPECT_NEAR(n.rms(), 1.0, 1e-9) << static_cast<int>(color);
  }
}

TEST(NoiseTest, SplCalibration) {
  earsonar::Rng rng(2);
  const Waveform n = make_noise_at_spl(NoiseColor::kWhite, 74.0, 48000, 48000.0, rng);
  EXPECT_NEAR(n.rms(), Waveform::spl_to_rms_amplitude(74.0), 1e-9);
}

TEST(NoiseTest, PinkHasMoreLowFrequencyEnergy) {
  earsonar::Rng rng(3);
  const Waveform pink = make_noise(NoiseColor::kPink, 1 << 15, 48000.0, rng);
  const double low = dsp::goertzel_power(pink.view(), 200.0, 48000.0);
  const double high = dsp::goertzel_power(pink.view(), 18000.0, 48000.0);
  EXPECT_GT(low, high);
}

TEST(NoiseTest, BabbleConcentratedInSpeechBand) {
  earsonar::Rng rng(4);
  const Waveform babble = make_noise(NoiseColor::kBabble, 1 << 15, 48000.0, rng);
  const double speech = dsp::goertzel_power(babble.view(), 1000.0, 48000.0);
  const double ultrasonic = dsp::goertzel_power(babble.view(), 18000.0, 48000.0);
  EXPECT_GT(speech, 20.0 * std::max(ultrasonic, 1e-15));
}

TEST(NoiseTest, AddNoiseAtSnrSetsLevel) {
  earsonar::Rng rng(5);
  std::vector<double> samples(48000);
  for (std::size_t i = 0; i < samples.size(); ++i)
    samples[i] = std::sin(2 * std::numbers::pi * 1000.0 * i / 48000.0);
  Waveform signal(std::move(samples), 48000.0);
  const double clean_rms = signal.rms();
  Waveform noisy = signal;
  add_noise_at_snr(noisy, 20.0, rng);
  // Total power = signal + noise at -20 dB.
  const double expected_rms = clean_rms * std::sqrt(1.0 + 0.01);
  EXPECT_NEAR(noisy.rms(), expected_rms, 0.01 * expected_rms);
}

TEST(NoiseTest, AddNoiseToSilenceThrows) {
  earsonar::Rng rng(6);
  Waveform w = Waveform::silence(100, 48000.0);
  EXPECT_THROW(add_noise_at_snr(w, 20.0, rng), std::invalid_argument);
}

TEST(NoiseTest, SnrMeasurement) {
  Waveform signal({1, 1, 1, 1}, 48000.0);
  Waveform noise({0.1, 0.1, 0.1, 0.1}, 48000.0);
  EXPECT_NEAR(snr_db(signal, noise), 20.0, 1e-9);
}

// -------------------------------------------------------------------- wav

TEST(WavTest, Pcm16RoundTrip) {
  earsonar::Rng rng(7);
  std::vector<double> samples(1000);
  for (double& s : samples) s = rng.uniform(-0.9, 0.9);
  const Waveform original(samples, 48000.0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "earsonar_pcm16.wav").string();
  write_wav(path, original, WavEncoding::kPcm16);
  const Waveform loaded = read_wav(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_DOUBLE_EQ(loaded.sample_rate(), 48000.0);
  for (std::size_t i = 0; i < loaded.size(); ++i)
    EXPECT_NEAR(loaded.samples()[i], original.samples()[i], 1.0 / 32000.0);
  std::filesystem::remove(path);
}

TEST(WavTest, Float32RoundTripIsNearExact) {
  earsonar::Rng rng(8);
  std::vector<double> samples(777);
  for (double& s : samples) s = rng.uniform(-1.0, 1.0);
  const Waveform original(samples, 44100.0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "earsonar_f32.wav").string();
  write_wav(path, original, WavEncoding::kFloat32);
  const Waveform loaded = read_wav(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_DOUBLE_EQ(loaded.sample_rate(), 44100.0);
  for (std::size_t i = 0; i < loaded.size(); ++i)
    EXPECT_NEAR(loaded.samples()[i], original.samples()[i], 1e-6);
  std::filesystem::remove(path);
}

TEST(WavTest, ClipsOutOfRangeSamples) {
  const Waveform loud({2.0, -3.0}, 48000.0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "earsonar_clip.wav").string();
  write_wav(path, loud, WavEncoding::kPcm16);
  const Waveform loaded = read_wav(path);
  EXPECT_NEAR(loaded.samples()[0], 1.0, 1e-3);
  EXPECT_NEAR(loaded.samples()[1], -1.0, 1e-3);
  std::filesystem::remove(path);
}

TEST(WavTest, MissingFileThrows) {
  EXPECT_THROW(read_wav("/nonexistent/earsonar.wav"), std::runtime_error);
}

TEST(WavTest, GarbageFileThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "earsonar_garbage.wav").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a wav file at all, not even close.....";
  }
  EXPECT_THROW(read_wav(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(WavTest, EmptyWaveformRejected) {
  EXPECT_THROW(write_wav("/tmp/empty.wav", Waveform{}), std::invalid_argument);
}

// ------------------------------------------------- malformed-header hardening
// Regression cases for parse_wav's chunk walking: every hostile header shape
// either throws std::runtime_error or decodes the frames that are really
// there — never reads out of bounds (certified by the ASan sweep in
// scripts/check_sanitize.sh and fuzzed in tests/fuzz/).

namespace wavbytes {

void u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void tag(std::vector<std::uint8_t>& out, const char* t) {
  out.insert(out.end(), t, t + 4);
}

// RIFF/WAVE prelude + a 16-byte PCM16 mono fmt chunk at 48 kHz.
std::vector<std::uint8_t> header() {
  std::vector<std::uint8_t> b;
  tag(b, "RIFF");
  u32(b, 0);  // RIFF size: unchecked by design (phones get it wrong)
  tag(b, "WAVE");
  tag(b, "fmt ");
  u32(b, 16);
  u16(b, 1);       // PCM
  u16(b, 1);       // mono
  u32(b, 48000);   // rate
  u32(b, 96000);   // byte rate
  u16(b, 2);       // block align
  u16(b, 16);      // bits
  return b;
}

void data_chunk(std::vector<std::uint8_t>& b, std::uint32_t declared,
                std::size_t actual_samples) {
  tag(b, "data");
  u32(b, declared);
  for (std::size_t i = 0; i < actual_samples; ++i)
    u16(b, static_cast<std::uint16_t>(1000 + i));
}

}  // namespace wavbytes

TEST(WavHardeningTest, OverflowingChunkSizeBeforeDataThrows) {
  std::vector<std::uint8_t> b = wavbytes::header();
  wavbytes::tag(b, "junk");
  wavbytes::u32(b, 0xFFFFFFFFu);  // would wrap any unguarded position math
  wavbytes::data_chunk(b, 8, 4);
  EXPECT_THROW(
      {
        try {
          (void)parse_wav(b, "overflow");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("chunk size overruns file"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(WavHardeningTest, TruncatedDataChunkIsCappedToPresentBytes) {
  std::vector<std::uint8_t> b = wavbytes::header();
  // Declares 100 samples, ships 5: a truncated upload. The 5 real frames
  // decode; nothing past the buffer is touched.
  wavbytes::data_chunk(b, 200, 5);
  const Waveform loaded = parse_wav(b, "truncated");
  ASSERT_EQ(loaded.size(), 5u);
  EXPECT_NEAR(loaded.samples()[0], 1000.0 / 32767.0, 1e-9);
}

TEST(WavHardeningTest, OddSizedChunkIsSkippedWithRiffPad) {
  std::vector<std::uint8_t> b = wavbytes::header();
  wavbytes::tag(b, "LIST");
  wavbytes::u32(b, 3);           // odd size...
  b.insert(b.end(), {1, 2, 3, 0});  // ...payload + RIFF pad byte
  wavbytes::data_chunk(b, 8, 4);
  const Waveform loaded = parse_wav(b, "odd-chunk");
  EXPECT_EQ(loaded.size(), 4u);
  EXPECT_DOUBLE_EQ(loaded.sample_rate(), 48000.0);
}

TEST(WavHardeningTest, ShortFmtChunkThrows) {
  std::vector<std::uint8_t> b;
  wavbytes::tag(b, "RIFF");
  wavbytes::u32(b, 0);
  wavbytes::tag(b, "WAVE");
  wavbytes::tag(b, "fmt ");
  wavbytes::u32(b, 8);  // too short to hold a fmt body
  for (int i = 0; i < 8; ++i) b.push_back(0);
  wavbytes::data_chunk(b, 8, 4);
  while (b.size() < 44) b.push_back(0);
  EXPECT_THROW((void)parse_wav(b, "short-fmt"), std::runtime_error);
}

TEST(WavHardeningTest, MissingDataChunkThrows) {
  std::vector<std::uint8_t> b = wavbytes::header();
  while (b.size() < 44) b.push_back(0);
  EXPECT_THROW(
      {
        try {
          (void)parse_wav(b, "no-data");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("no data chunk"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(WavHardeningTest, TruncatedTrailingChunkAfterDataIsTolerated) {
  std::vector<std::uint8_t> b = wavbytes::header();
  wavbytes::data_chunk(b, 8, 4);
  // A trailing metadata chunk cut off mid-write must not void the good data.
  wavbytes::tag(b, "LIST");
  wavbytes::u32(b, 1000);
  b.push_back(7);
  const Waveform loaded = parse_wav(b, "trailing");
  EXPECT_EQ(loaded.size(), 4u);
}

TEST(WavHardeningTest, ChunkSizeMaxDoesNotWrapPositionArithmetic) {
  // data declared 0xFFFFFFFF with 4 real samples: capped, not wrapped.
  std::vector<std::uint8_t> b = wavbytes::header();
  wavbytes::data_chunk(b, 0xFFFFFFFFu, 4);
  const Waveform loaded = parse_wav(b, "max-size");
  EXPECT_EQ(loaded.size(), 4u);
}

}  // namespace
}  // namespace earsonar::audio
