#include "core/framework.hpp"

#include "core/virtual_backend.hpp"

#include <algorithm>

namespace feves {

VirtualFramework::VirtualFramework(const EncoderConfig& cfg,
                                   const PlatformTopology& topo,
                                   FrameworkOptions opts,
                                   PerturbationSchedule perturbations,
                                   FaultSchedule faults)
    // Frame 0 is the I frame, which virtual mode does not model.
    : loop_(cfg, topo, opts, std::move(faults), /*next_frame=*/1),
      perturbations_(std::move(perturbations)) {}

void VirtualFramework::restore(const FrameworkCheckpoint& cp) {
  FEVES_CHECK(cp.next_frame >= 1);
  loop_.restore(cp);
}

FrameStats VirtualFramework::encode_frame(const FrameGrant& grant) {
  const int active_refs =
      std::min(loop_.next_frame(), loop_.cfg().num_ref_frames);
  return loop_.run(*this, grant, active_refs);
}

ExecutionResult VirtualFramework::execute(int frame, const ScheduleDecision& sd,
                                          int active_refs,
                                          const ExecuteOptions& opts,
                                          FrameOpIds* ids) {
  const PlatformTopology& topo = loop_.topo();
  slowdown_.assign(static_cast<std::size_t>(topo.num_devices()), 1.0);
  for (int i = 0; i < topo.num_devices(); ++i) {
    slowdown_[i] = perturbations_.factor(i, frame);
  }
  VirtualBackend backend(loop_.cfg(), topo, active_refs, slowdown_);
  const OpGraph graph = build_frame_graph(topo, sd.dist, sd.plans, backend, ids);
  return execute_virtual(graph, topo, opts);
}

std::vector<FrameStats> VirtualFramework::encode(int frames) {
  std::vector<FrameStats> out;
  out.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) out.push_back(encode_frame());
  return out;
}

double VirtualFramework::steady_state_fps(int frames, int warmup) {
  const auto stats = encode(frames);
  const int skip = std::min<int>(
      std::max(warmup, loop_.cfg().num_ref_frames + 2), frames - 1);
  double total = 0.0;
  int count = 0;
  for (int f = skip; f < frames; ++f) {
    total += stats[f].total_ms;
    ++count;
  }
  FEVES_CHECK(count > 0);
  return 1000.0 / (total / count);
}

}  // namespace feves
