#include "dsp/simd.hpp"

#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "dsp/kernel_impl.hpp"

namespace earsonar::dsp::simd {

namespace {

const KernelSet& resolve_native() {
#if defined(EARSONAR_SIMD_X86) && defined(__GNUC__)
  if (const KernelSet* avx2 = avx2_set(); avx2 && __builtin_cpu_supports("avx2"))
    return *avx2;
#endif
  return base_set();
}

/// The Pack set at the native lane geometry, so scalar mode exercises the
/// exact same templated code at the same width (bit-parity by construction).
const KernelSet& resolve_scalar_twin(const KernelSet& native) {
  return native.lanes_d == 4 ? pack_set_w4() : pack_set_w2();
}

}  // namespace

Level active_level() {
  static const Level level = [] {
    const char* env = std::getenv("EARSONAR_SIMD");
    if (env == nullptr || *env == '\0' || std::strcmp(env, "native") == 0)
      return Level::kNative;
    if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
    fail("EARSONAR_SIMD must be 'scalar' or 'native'");
  }();
  return level;
}

const KernelSet& kernel_set(Level level) {
  static const KernelSet& native = resolve_native();
  static const KernelSet& scalar = resolve_scalar_twin(native);
  return level == Level::kNative ? native : scalar;
}

const KernelSet& active() {
  static const KernelSet& set = kernel_set(active_level());
  return set;
}

const char* native_arch() { return kernel_set(Level::kNative).name; }

}  // namespace earsonar::dsp::simd
