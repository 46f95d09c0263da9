#include "common/units.hpp"

#include <cmath>

#include "common/error.hpp"

namespace earsonar {

double amplitude_to_db(double amplitude_ratio) {
  require_positive("amplitude_ratio", amplitude_ratio);
  return 20.0 * std::log10(amplitude_ratio);
}

double db_to_amplitude(double db) { return std::pow(10.0, db / 20.0); }

double echo_delay_seconds(double distance_m, double speed) {
  require_positive("distance_m", distance_m);
  require_positive("speed", speed);
  return 2.0 * distance_m / speed;
}

double samples_to_distance_m(double samples, double sample_rate, double speed) {
  require(samples >= 0.0, "samples must be >= 0");
  require_positive("sample_rate", sample_rate);
  return samples / sample_rate * speed / 2.0;
}

double characteristic_impedance(double density_kg_m3, double sound_speed_m_s) {
  require_positive("density_kg_m3", density_kg_m3);
  require_positive("sound_speed_m_s", sound_speed_m_s);
  return density_kg_m3 * sound_speed_m_s;
}

}  // namespace earsonar
