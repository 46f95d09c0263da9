// Table III: power consumption of EarSonar per smartphone.
//
// SUBSTITUTION (DESIGN.md): no power rails to measure — we reproduce the
// methodology with the paper's own measured device powers and this
// machine's measured pipeline latency: energy = power x latency.
#include "bench_util.hpp"

#include "eval/energy.hpp"

using namespace earsonar;

int main() {
  bench::print_header("Table III — power/energy per detection",
                      "paper: Huawei 2100 mW, Galaxy 2120 mW, MI 10 2243 mW");

  // Measure the pipeline's real per-detection latency on a 1 s recording.
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = 200;
  sim::EarProbe probe(pc);
  Rng rng(1);
  const audio::Waveform rec = probe.record_state(
      factory.make(0), sim::EffusionState::kSerous, sim::reference_earphone(), {}, rng);
  core::EarSonar pipeline;
  const core::EchoAnalysis analysis = pipeline.analyze(rec);
  std::printf("measured stage latency on this machine (1 s recording):");
  for (std::size_t s = 0; s < earsonar::pipeline::kStageCount; ++s)
    std::printf("%s %s %.2f ms", s ? "," : "", earsonar::pipeline::stage_names()[s],
                analysis.timings.ms[s]);
  std::printf("\n\n");

  AsciiTable table({"smartphone", "active power (mW, paper)",
                    "energy/detection (mJ)", "net energy (mJ)",
                    "detections per 4000 mAh charge"});
  for (const eval::PhonePowerProfile& phone : eval::paper_phone_profiles()) {
    // 4000 mAh at 3.85 V nominal = 15400 mWh.
    const double battery_mwh = 4000.0 * 3.85;
    table.add_row(phone.name,
                  {phone.active_power_mw,
                   eval::detection_energy_mj(phone, analysis.timings),
                   eval::detection_net_energy_mj(phone, analysis.timings),
                   eval::detections_per_charge(phone, analysis.timings, battery_mwh)},
                  1);
  }
  bench::print_table(table);
  std::printf("\nexpected shape: all three phones draw ~2.1-2.25 W while the "
              "pipeline runs; recognition time is short, so per-detection "
              "energy stays in the tens of millijoules (paper: 'actual energy "
              "consumption will be much lower').\n");
  return 0;
}
