// Baseline-ISA kernel build: whatever the default compile flags provide —
// SSE2 on x86-64, NEON on aarch64, Pack emulation elsewhere.
#include "dsp/kernel_impl.hpp"

namespace earsonar::dsp::simd {

const KernelSet& base_set() {
#if defined(EARSONAR_SIMD_X86)
  static const KernelSet set = make_kernel_set<VecSse2D>("sse2");
  return set;
#elif defined(EARSONAR_SIMD_NEON)
  static const KernelSet set = make_kernel_set<VecNeonD>("neon");
  return set;
#else
  return pack_set_w2();
#endif
}

}  // namespace earsonar::dsp::simd
