// kernel-capture true positives: a kernel lambda (one taking a ThreadCtx&
// or WarpCtx&) that default-captures. An accidental by-reference capture
// of a host temporary is exactly the dangling pointer a real CUDA launch
// turns into UB, so kernel lambdas enumerate their captures. Never
// compiled; analyzed as if it lived in src/. Expected: exactly 2 findings.

namespace gknn {

void Bad(gpusim::Device* device, uint32_t* out) {
  // Finding 1: default [&] capture on a kernel lambda.
  device->Launch("GPU_Bad", 4, [&](gpusim::ThreadCtx& ctx) { out[ctx.tid] = 0; });

  // Finding 2: default [=] capture with a const, qualified context type.
  device->Launch("GPU_Bad2", 4, [=](const gpusim::WarpCtx& warp) { (void)warp; });

  // Not findings: enumerated captures, and a default capture on a lambda
  // that is not a kernel.
  device->Launch("GPU_Ok", 4, [out](gpusim::ThreadCtx& ctx) { out[ctx.tid] = 1; });
  auto host = [&](uint32_t i) { out[i] = 2; };
  host(0);
}

}  // namespace gknn
