// Differential oracle for the pruned echo-window band PSD (pair
// `dsp.psd.band`, bit-exact):
//
//   dsp::BandPsdPlan::execute_x4 — the half-length real transform reduced to
//     broadcast blocks and the butterfly runs a band needs, four windows at a
//     time — against dsp::FftPlan::power_spectrum of each zero-padded window
//     over every bin;
//   core::EchoSpectrumExtractor rows — windows read in place or through a
//     zero-filled copy at the recording's edges, the band resample and the
//     transmit-reference division — against check::echo_psd_row_unpruned.
//
// Inputs: the three anchors' window lengths (73, 65 and 41 samples) at FFT
// sizes 64, 128, 512 and 2048; the served 16-20 kHz band, one bin, bin 0,
// bin n/2 and the full range; windows that cross the recording's first or
// last sample, all-zero, constant, random and null lanes; a NaN sample. The
// extractor level alternates all three anchors at two FFT sizes and two
// probe bands on one thread, so a per-thread plan kept under too coarse a key
// shows up as a wrong row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "audio/chirp.hpp"
#include "check/reference.hpp"
#include "check/tolerance.hpp"
#include "common/rng.hpp"
#include "core/absorption.hpp"
#include "dsp/band_psd.hpp"
#include "dsp/fft_plan.hpp"

namespace earsonar {
namespace {

constexpr const char* kPair = "dsp.psd.band";
constexpr double kFs = 48000.0;

struct Band {
  std::size_t lo, hi;
  const char* name;
};

// The served band's source bins at 48 kHz, and the edge cases.
std::vector<Band> bands_for(std::size_t n) {
  const std::size_t half = n / 2;
  return {{static_cast<std::size_t>(std::floor(16000.0 * static_cast<double>(n) / kFs)),
           static_cast<std::size_t>(std::ceil(20000.0 * static_cast<double>(n) / kFs)),
           "16-20kHz"},
          {n / 5, n / 5, "one bin"},
          {0, 0, "bin 0"},
          {half, half, "bin n/2"},
          {0, half, "full"}};
}

// Window `start .. start + len` of `recording`, zero outside it.
std::vector<double> window_of(const std::vector<double>& recording, std::ptrdiff_t start,
                              std::size_t len) {
  std::vector<double> w(len, 0.0);
  for (std::size_t j = 0; j < len; ++j) {
    const std::ptrdiff_t idx = start + static_cast<std::ptrdiff_t>(j);
    if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(recording.size()))
      w[j] = recording[static_cast<std::size_t>(idx)];
  }
  return w;
}

// FftPlan::power_spectrum of the window zero-padded to n, every bin.
std::vector<double> full_power(const std::vector<double>& window, std::size_t n) {
  std::vector<double> padded(n, 0.0);
  std::copy(window.begin(), window.end(), padded.begin());
  const auto plan = dsp::FftPlan::get(n, dsp::FftPlan::Kind::kReal);
  std::vector<double> out(plan->real_bins());
  dsp::FftScratch scratch;
  plan->power_spectrum(padded, out, 1.0 / static_cast<double>(n), scratch);
  return out;
}

// One lane of the plan's lane-major output.
std::vector<double> lane(const std::vector<double>& out4, std::size_t l) {
  std::vector<double> v(out4.size() / 4);
  for (std::size_t k = 0; k < v.size(); ++k) v[k] = out4[4 * k + l];
  return v;
}

void expect_pair(const std::vector<double>& got, const std::vector<double>& want,
                 const std::string& label) {
  const check::CompareResult r =
      check::compare_vectors(got, want, check::pair_policy(kPair).tol);
  EXPECT_TRUE(r.ok) << label << ": " << check::describe_failure(kPair, r);
}

TEST(OraclePsdBandTest, PrunedBandMatchesFullPowerSpectrumBitwise) {
  Rng rng(0x5eed'b4d);
  for (const std::size_t n : {64UL, 128UL, 512UL, 2048UL}) {
    for (const std::size_t len : {73UL, 65UL, 41UL}) {
      if (len > n) continue;
      std::vector<double> recording(3 * len);
      for (double& v : recording) v = rng.uniform(-1.0, 1.0);
      const auto signed_len = static_cast<std::ptrdiff_t>(len);
      // Two calls of four lanes: across the first sample, across the last
      // sample, mid-recording, constant; then all-zero, a null lane (read as
      // zero), a window of tiny values and one more mid-recording window.
      const std::vector<std::vector<double>> windows = {
          window_of(recording, -signed_len / 3, len),
          window_of(recording, static_cast<std::ptrdiff_t>(recording.size()) - 2 * signed_len / 3,
                    len),
          window_of(recording, signed_len, len),
          std::vector<double>(len, 0.75),
          std::vector<double>(len, 0.0),
          std::vector<double>(len, 0.0),
          window_of(recording, 5, len),
          window_of(recording, signed_len + 7, len)};
      std::vector<std::vector<double>> inputs = windows;
      for (double& v : inputs[6]) v *= 1e-300;
      for (const Band& band : bands_for(n)) {
        const dsp::BandPsdPlan plan(n, len, band.lo, band.hi);
        EXPECT_LE(plan.butterflies(), (n / 4) * static_cast<std::size_t>(std::log2(n / 2)));
        std::vector<double> work;
        for (std::size_t call = 0; call < 2; ++call) {
          const double* in[4];
          for (std::size_t l = 0; l < 4; ++l) in[l] = inputs[4 * call + l].data();
          if (call == 1) in[1] = nullptr;
          std::vector<double> out(4 * plan.bins(), -1.0);
          plan.execute_x4(in, out.data(), 1.0 / static_cast<double>(n), work);
          for (std::size_t l = 0; l < 4; ++l) {
            const std::vector<double> full = full_power(inputs[4 * call + l], n);
            const std::vector<double> want(full.begin() + static_cast<std::ptrdiff_t>(band.lo),
                                           full.begin() + static_cast<std::ptrdiff_t>(band.hi) + 1);
            expect_pair(lane(out, l), want,
                        "n=" + std::to_string(n) + " len=" + std::to_string(len) +
                            " band=" + band.name + " window=" + std::to_string(4 * call + l));
          }
        }
      }
    }
  }
}

// At the served shape the plan keeps 539 of the 1,024 butterflies.
TEST(OraclePsdBandTest, ServedShapeKeepsTheBandsButterfliesOnly) {
  const dsp::BandPsdPlan served(512, 73, 170, 214);
  EXPECT_EQ(served.butterflies(), 539u);
  const dsp::BandPsdPlan full(512, 512, 0, 256);
  EXPECT_EQ(full.butterflies(), 1024u);
}

// A NaN sample reaches every bin of the full transform; the pruned plan must
// not drop it, and its lane-mates must stay exact.
TEST(OraclePsdBandTest, NanSampleGivesNanBinsOnBothPaths) {
  Rng rng(77);
  for (const std::size_t n : {64UL, 128UL, 512UL, 2048UL}) {
    for (const std::size_t len : {73UL, 65UL, 41UL}) {
      if (len > n) continue;
      for (const std::size_t at : {std::size_t{0}, len / 2, len - 1}) {
        std::vector<std::vector<double>> inputs(4, std::vector<double>(len));
        for (auto& w : inputs)
          for (double& v : w) v = rng.uniform(-1.0, 1.0);
        inputs[2][at] = std::numeric_limits<double>::quiet_NaN();
        for (const Band& band : bands_for(n)) {
          const dsp::BandPsdPlan plan(n, len, band.lo, band.hi);
          std::vector<double> work, out(4 * plan.bins());
          const double* in[4] = {inputs[0].data(), inputs[1].data(), inputs[2].data(),
                                 inputs[3].data()};
          plan.execute_x4(in, out.data(), 1.0 / static_cast<double>(n), work);
          const std::string label = "n=" + std::to_string(n) + " len=" +
                                    std::to_string(len) + " at=" + std::to_string(at) +
                                    " band=" + band.name;
          for (std::size_t l = 0; l < 4; ++l) {
            const std::vector<double> full = full_power(inputs[l], n);
            const std::vector<double> got = lane(out, l);
            for (std::size_t k = band.lo; k <= band.hi; ++k) {
              const double g = got[k - band.lo];
              if (l == 2) {
                EXPECT_TRUE(std::isnan(full[k])) << label << " bin " << k;
                EXPECT_TRUE(std::isnan(g)) << label << " bin " << k;
              } else {
                EXPECT_EQ(g, full[k]) << label << " lane " << l << " bin " << k;
              }
            }
          }
        }
      }
    }
  }
}

// --------------------------------------------------------- extractor rows

// The window an anchor places around one echo (EchoSpectrumExtractor's
// geometry): its first sample and its length.
struct WindowSpan {
  std::ptrdiff_t start;
  std::size_t length;
};

WindowSpan echo_window(const core::SpectrumConfig& c, const core::EchoSegment& e) {
  std::size_t center = 0, pre = 0, post = 0;
  switch (c.anchor) {
    case core::WindowAnchor::kEventStart:
      center = e.event_start + c.event_window_length / 2;
      pre = c.event_window_length / 2;
      post = c.event_window_length - pre;
      break;
    case core::WindowAnchor::kEchoPeak:
      center = e.peak_index;
      pre = c.pre_peak;
      post = c.post_peak;
      break;
    case core::WindowAnchor::kDirectGate:
      center = e.direct_peak_index + c.gate_start + c.gate_length / 2;
      pre = c.gate_length / 2;
      post = c.gate_length - pre;
      break;
  }
  return {static_cast<std::ptrdiff_t>(center) - static_cast<std::ptrdiff_t>(pre),
          pre + post + 1};
}

// The extractor's transmit-reference row through the unpruned chain: the
// clean chirp padded at the start of a silent buffer, the anchor's reference
// window (kDirectGate references the pre/post window around the pulse
// center), floored at 1e-4 of its peak.
std::vector<double> unpruned_reference(const core::SpectrumConfig& c,
                                       const audio::FmcwConfig& chirp) {
  const audio::Waveform pulse = audio::make_chirp(chirp);
  const std::size_t len = std::max({c.event_window_length, c.pre_peak + c.post_peak,
                                    c.gate_start + c.gate_length}) +
                          pulse.size() + 8;
  audio::Waveform padded = audio::Waveform::silence(len, chirp.sample_rate);
  padded.add_at(pulse, 0);
  WindowSpan w{0, c.event_window_length + 1};
  if (c.anchor != core::WindowAnchor::kEventStart)
    w = {static_cast<std::ptrdiff_t>(pulse.size() / 2) -
             static_cast<std::ptrdiff_t>(c.pre_peak),
         c.pre_peak + c.post_peak + 1};
  std::vector<double> row = check::echo_psd_row_unpruned(padded.samples(), w.start, w.length,
                                                         chirp.sample_rate, c, chirp);
  const double peak = *std::max_element(row.begin(), row.end());
  for (double& v : row) v = std::max(v, 1e-4 * peak);
  return row;
}

// A chirp train with noise, and echoes whose windows sit mid-recording and
// cross its first and last sample under every anchor.
audio::Waveform test_recording(const audio::FmcwConfig& chirp) {
  audio::Waveform train = audio::make_chirp_train(chirp, 4);
  std::vector<double> x = train.samples();
  Rng rng(4242);
  for (double& v : x) v += rng.uniform(-0.01, 0.01);
  return audio::Waveform(std::move(x), chirp.sample_rate);
}

std::vector<core::EchoSegment> test_echoes(std::size_t size) {
  std::vector<core::EchoSegment> echoes;
  const auto add = [&](std::size_t start, std::size_t peak, std::size_t direct) {
    core::EchoSegment e;
    e.event_start = start;
    e.peak_index = peak;
    e.direct_peak_index = direct;
    echoes.push_back(e);
  };
  add(0, 3, 0);                           // echo-peak window crosses sample 0
  add(240, 260, 252);                     // mid-recording
  add(480, 500, 492);
  add(size - 30, size - 10, size - 20);   // every window crosses the last sample
  add(size - 80, size - 60, size - 70);
  return echoes;
}

void expect_rows_match(const core::EchoSpectrumExtractor& extractor,
                       const audio::Waveform& recording,
                       const std::vector<core::EchoSegment>& echoes,
                       const std::vector<double>& reference, const std::string& label) {
  const core::SpectrumConfig& c = extractor.config();
  const std::vector<double> rows = extractor.extract_all(recording, echoes);
  ASSERT_EQ(rows.size(), echoes.size() * c.band_bins) << label;
  for (std::size_t e = 0; e < echoes.size(); ++e) {
    const WindowSpan w = echo_window(c, echoes[e]);
    const std::vector<double> want =
        check::echo_psd_row_unpruned(recording.samples(), w.start, w.length,
                                     recording.sample_rate(), c, extractor.probe(), reference);
    const std::vector<double> got(rows.begin() + static_cast<std::ptrdiff_t>(e * c.band_bins),
                                  rows.begin() + static_cast<std::ptrdiff_t>((e + 1) * c.band_bins));
    expect_pair(got, want, label + " echo=" + std::to_string(e));
  }
}

TEST(OraclePsdBandTest, ExtractorRowsAtRecordingEdgesMatchUnprunedChain) {
  const audio::FmcwConfig chirp;
  const audio::Waveform recording = test_recording(chirp);
  const std::vector<core::EchoSegment> echoes = test_echoes(recording.size());
  for (const auto anchor : {core::WindowAnchor::kEventStart, core::WindowAnchor::kEchoPeak,
                            core::WindowAnchor::kDirectGate}) {
    core::SpectrumConfig c;
    c.anchor = anchor;
    const core::EchoSpectrumExtractor extractor(c, chirp);
    expect_rows_match(extractor, recording, echoes, unpruned_reference(c, chirp),
                      "anchor=" + std::to_string(static_cast<int>(anchor)));
  }
}

// The per-thread plan must be keyed on everything that shapes it: fft size,
// window length, band and sample rate. Twelve extractors (three anchors at
// two FFT sizes, each for the 16-20 kHz and a 17-20 kHz probe) alternate on
// one thread; kDirectGate's echo windows are 41 samples but its reference
// window is 65, so a plan cached under a coarser key would drop or invent
// window samples, or read another band's bins, in some row.
TEST(OraclePsdBandTest, PlanCacheKeyedOnEverythingThatShapesIt) {
  const audio::FmcwConfig chirp;
  audio::FmcwConfig narrow;
  narrow.start_hz = 17000.0;
  narrow.bandwidth_hz = 3000.0;
  const audio::Waveform recording = test_recording(chirp);
  const std::vector<core::EchoSegment> echoes = test_echoes(recording.size());
  std::vector<core::EchoSpectrumExtractor> extractors;
  std::vector<std::vector<double>> references;
  for (const audio::FmcwConfig& probe : {chirp, narrow}) {
    for (const std::size_t n : {512UL, 128UL}) {
      for (const auto anchor : {core::WindowAnchor::kEventStart,
                                core::WindowAnchor::kEchoPeak,
                                core::WindowAnchor::kDirectGate}) {
        core::SpectrumConfig c;
        c.anchor = anchor;
        c.fft_size = n;
        extractors.emplace_back(c, probe);
        references.push_back(unpruned_reference(c, probe));
      }
    }
  }
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < extractors.size(); ++i) {
      const core::SpectrumConfig& c = extractors[i].config();
      expect_rows_match(extractors[i], recording, echoes, references[i],
                        "round=" + std::to_string(round) + " n=" + std::to_string(c.fft_size) +
                            " anchor=" + std::to_string(static_cast<int>(c.anchor)) +
                            " band_low=" + std::to_string(extractors[i].probe().start_hz));
    }
  }
}

}  // namespace
}  // namespace earsonar
