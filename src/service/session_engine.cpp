#include "service/session_engine.hpp"

namespace feves {

namespace {

class VirtualEngine final : public SessionEngine {
 public:
  VirtualEngine(const EncoderConfig& cfg, const PlatformTopology& topo,
                const FrameworkOptions& fw,
                const PerturbationSchedule& perturbations,
                const FaultSchedule& faults)
      : fw_(cfg, topo, fw, perturbations, faults) {}

  bool load_next() override { return true; }
  bool needs_grant() const override { return true; }
  FrameStats encode(const FrameGrant& grant, std::vector<u8>*) override {
    return fw_.encode_frame(grant);
  }
  const DeviceHealthMonitor& health() const override { return fw_.health(); }
  EncoderCheckpoint checkpoint() const override {
    EncoderCheckpoint cp;
    cp.fw = fw_.checkpoint();
    return cp;
  }
  void restore(const EncoderCheckpoint& cp) override { fw_.restore(cp.fw); }
  bool degrades_search_range() const override { return true; }

 private:
  VirtualFramework fw_;
};

class RealEngine final : public SessionEngine {
 public:
  RealEngine(const EncoderConfig& cfg, const PlatformTopology& topo,
             const FrameworkOptions& fw, const FaultSchedule& faults,
             std::shared_ptr<VideoSource> source, SimdTier tier)
      : enc_(cfg, topo, fw, tier, faults),
        source_(std::move(source)),
        frame_(cfg.width, cfg.height) {}

  bool load_next() override {
    return source_->read_frame(enc_.frames_encoded(), frame_);
  }
  bool needs_grant() const override { return enc_.frames_encoded() > 0; }
  FrameStats encode(const FrameGrant& grant,
                    std::vector<u8>* bitstream) override {
    return enc_.encode_frame(frame_, bitstream, grant);
  }
  const DeviceHealthMonitor& health() const override { return enc_.health(); }
  EncoderCheckpoint checkpoint() const override { return enc_.checkpoint(); }
  void restore(const EncoderCheckpoint& cp) override { enc_.restore(cp); }
  bool degrades_search_range() const override { return false; }

 private:
  CollaborativeEncoder enc_;
  std::shared_ptr<VideoSource> source_;
  Frame420 frame_;
};

}  // namespace

std::unique_ptr<SessionEngine> make_session_engine(
    const EncoderConfig& cfg, const PlatformTopology& topo,
    const FrameworkOptions& fw, const PerturbationSchedule& perturbations,
    const FaultSchedule& faults, std::shared_ptr<VideoSource> source,
    SimdTier tier) {
  if (source != nullptr) {
    return std::make_unique<RealEngine>(cfg, topo, fw, faults,
                                        std::move(source), tier);
  }
  return std::make_unique<VirtualEngine>(cfg, topo, fw, perturbations, faults);
}

}  // namespace feves
