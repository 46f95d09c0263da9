// AVX2 kernel build. This translation unit is the only one compiled with
// -mavx2 (see src/dsp/CMakeLists.txt), so __AVX2__ is defined here even in a
// baseline build, and VecAvx2D exists. avx2_set() itself must stay free of
// AVX2 instructions — it runs before the dispatcher's cpuid check — which it
// is: it only returns the address of a table of function pointers.
//
// On targets where the compiler rejects -mavx2 (non-x86), this file compiles
// without __AVX2__ and the set is absent.
#include "dsp/kernel_impl.hpp"

namespace earsonar::dsp::simd {

#if defined(__AVX2__)
const KernelSet* avx2_set() {
  static const KernelSet set = make_kernel_set<VecAvx2D>("avx2");
  return &set;
}
#else
const KernelSet* avx2_set() { return nullptr; }
#endif

}  // namespace earsonar::dsp::simd
