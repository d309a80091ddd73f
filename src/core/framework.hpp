// Virtual mode of the frame loop (core/frame_loop.hpp): Algorithm 1 over
// the discrete-event executor and the analytical cost model, the engine
// behind every figure bench. The mode supplies only the modelled backend
// and its perturbation slowdown; the real-mode counterpart is
// CollaborativeEncoder (collaborative_encoder.hpp).
#pragma once

#include "core/frame_loop.hpp"
#include "platform/perturbation.hpp"

#include <vector>

namespace feves {

class VirtualFramework : private FrameMode {
 public:
  VirtualFramework(const EncoderConfig& cfg, const PlatformTopology& topo,
                   FrameworkOptions opts = {},
                   PerturbationSchedule perturbations = {},
                   FaultSchedule faults = {});

  /// Snapshots the adaptive state at the current frame boundary (call only
  /// between encode_frame calls).
  FrameworkCheckpoint checkpoint() const { return loop_.checkpoint(); }

  /// Restores a frame-boundary snapshot — typically into a freshly
  /// constructed framework over the same topology. Scheduling resumes from
  /// the checkpointed characterization; the pipeline slot and deferred-SF
  /// state are dropped (they describe frames the snapshot does not cover).
  void restore(const FrameworkCheckpoint& cp);

  /// Simulates the next inter-frame; returns its stats. `grant` restricts
  /// the frame to a device subset (multi-session operation; default: the
  /// whole topology).
  FrameStats encode_frame(const FrameGrant& grant = {});

  /// Simulates `frames` consecutive inter-frames.
  std::vector<FrameStats> encode(int frames);

  /// Steady-state throughput: simulates `frames` and averages over the
  /// frames after the reference window has filled and balancing has
  /// converged (skipping the first max(num_ref_frames, warmup) frames).
  double steady_state_fps(int frames = 30, int warmup = 8);

  const PerfCharacterization& characterization() const {
    return loop_.characterization();
  }
  const DeviceHealthMonitor& health() const { return loop_.health(); }
  int frames_encoded() const { return loop_.next_frame() - 1; }

 private:
  bool speculates_concurrently() const override { return false; }
  ExecutionResult execute(int frame, const ScheduleDecision& sd,
                          int active_refs, const ExecuteOptions& opts,
                          FrameOpIds* ids) override;

  FrameLoop loop_;
  PerturbationSchedule perturbations_;
  std::vector<double> slowdown_;  ///< per-attempt scratch (capacity reused)
};

}  // namespace feves
