// One session's encoder behind the interface its drivers need: the encode
// service's escalation ladder (encode_service.cpp) and the cluster worker's
// shard executor (cluster/loopback_worker.cpp) drive every session through
// a SessionEngine, whether it is modelled (VirtualFramework, no source) or
// encoded for real (CollaborativeEncoder over a VideoSource). The drivers
// never branch on the mode; each engine answers for it.
#pragma once

#include "core/collaborative_encoder.hpp"
#include "core/framework.hpp"
#include "video/sequence.hpp"

#include <memory>
#include <vector>

namespace feves {

class SessionEngine {
 public:
  virtual ~SessionEngine() = default;

  /// Loads the next frame's input. False when a real session's source
  /// ended before the stream total (the session completes short).
  virtual bool load_next() = 0;

  /// False only for a real session's bootstrap I frame, which is encoded
  /// host-side on no pool device.
  virtual bool needs_grant() const = 0;

  /// Encodes the loaded frame under `grant`, appending its bitstream (real
  /// mode) to `bitstream`. Commits nothing when it throws, so the frame
  /// can be re-submitted on another grant.
  virtual FrameStats encode(const FrameGrant& grant,
                            std::vector<u8>* bitstream) = 0;

  virtual const DeviceHealthMonitor& health() const = 0;

  /// Frame-boundary snapshot: the framework state, plus the reference
  /// window in real mode (empty in virtual mode).
  virtual EncoderCheckpoint checkpoint() const = 0;
  virtual void restore(const EncoderCheckpoint& cp) = 0;

  /// Whether the degradation ladder may also shrink the search range.
  /// Virtual only: a real session's bitstream must stay bit-exact.
  virtual bool degrades_search_range() const = 0;
};

/// Builds the engine for one session: real mode over `source` when it is
/// non-null, virtual mode otherwise. Each mode ignores the other's inputs
/// (`perturbations` are virtual-only, `tier` real-only).
std::unique_ptr<SessionEngine> make_session_engine(
    const EncoderConfig& cfg, const PlatformTopology& topo,
    const FrameworkOptions& fw, const PerturbationSchedule& perturbations,
    const FaultSchedule& faults, std::shared_ptr<VideoSource> source,
    SimdTier tier);

}  // namespace feves
