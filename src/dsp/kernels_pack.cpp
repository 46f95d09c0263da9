// Intrinsic-free kernel builds: Pack<T, W> emulation at both supported lane
// geometries. EARSONAR_SIMD=scalar routes here; the parity tests compare
// these against the intrinsic sets of the same width bit for bit.
#include "dsp/kernel_impl.hpp"

namespace earsonar::dsp::simd {

const KernelSet& pack_set_w2() {
  static const KernelSet set = make_kernel_set<Pack<double, 2>>("pack2");
  return set;
}

const KernelSet& pack_set_w4() {
  static const KernelSet set = make_kernel_set<Pack<double, 4>>("pack4");
  return set;
}

}  // namespace earsonar::dsp::simd
