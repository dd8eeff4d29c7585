// kernel-capture false-positive twin: the violations of
// kernel_capture_bad.cc, each carrying a `gknn-check: allow(kernel-capture)`
// marker — one in the comment block above the launch, one on the same
// line. Never compiled. Expected: 0 findings.

namespace gknn {

void Good(gpusim::Device* device, uint32_t* out) {
  // gknn-check: allow(kernel-capture): fixture — marker above the launch
  device->Launch("GPU_Good", 4, [&](gpusim::ThreadCtx& ctx) { out[ctx.tid] = 0; });

  device->Launch("GPU_Good2", 4, [=](const gpusim::WarpCtx& warp) { (void)warp; });  // gknn-check: allow(kernel-capture): fixture — same-line form
}

}  // namespace gknn
