// Physical constants and unit conversions used across the acoustic stack.
#pragma once

namespace earsonar {

/// Speed of sound in air at ~20 degC, m/s. The ear canal is body temperature,
/// but the paper's distance arithmetic (0.5 ms chirp covers echoes within
/// 10 cm) uses the room-temperature figure, so we match it.
inline constexpr double kSpeedOfSoundAir = 343.0;

/// Speed of sound in water-like effusion fluid, m/s.
inline constexpr double kSpeedOfSoundWater = 1482.0;

/// Density of air at sea level, kg/m^3.
inline constexpr double kAirDensity = 1.204;

/// Density of water, kg/m^3 (serous effusion is close to this).
inline constexpr double kWaterDensity = 998.0;

/// Converts a linear amplitude ratio to decibels.
double amplitude_to_db(double amplitude_ratio);

/// Converts decibels to a linear amplitude ratio.
double db_to_amplitude(double db);

/// Round-trip echo delay in seconds for a reflector `distance_m` away.
double echo_delay_seconds(double distance_m, double speed = kSpeedOfSoundAir);

/// One-way distance (m) corresponding to a round-trip delay of `samples`.
double samples_to_distance_m(double samples, double sample_rate,
                             double speed = kSpeedOfSoundAir);

/// Characteristic acoustic impedance rho*c (Pa*s/m = rayl).
double characteristic_impedance(double density_kg_m3, double sound_speed_m_s);

}  // namespace earsonar
