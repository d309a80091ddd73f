#include "core/collaborative_encoder.hpp"

#include "codec/bitstream.hpp"
#include "common/timer.hpp"

#include <cstdio>

namespace feves {

CollaborativeEncoder::CollaborativeEncoder(const EncoderConfig& cfg,
                                           const PlatformTopology& topo,
                                           FrameworkOptions opts,
                                           SimdTier tier, FaultSchedule faults)
    : loop_(cfg, topo, opts, std::move(faults), /*next_frame=*/0),
      tier_(tier),
      refs_(cfg.num_ref_frames),
      mirrors_(static_cast<std::size_t>(topo.num_devices())),
      mirror_stale_(static_cast<std::size_t>(topo.num_devices()), false),
      staged_(static_cast<std::size_t>(topo.num_devices())) {}

EncoderCheckpoint CollaborativeEncoder::checkpoint() const {
  EncoderCheckpoint cp;
  cp.fw = loop_.checkpoint();
  for (int i = 0; i < refs_.size(); ++i) {
    cp.refs.push_back(std::make_shared<const RefPicture>(refs_.ref(i)));
  }
  return cp;
}

void CollaborativeEncoder::restore(const EncoderCheckpoint& cp) {
  FEVES_CHECK_MSG(static_cast<int>(cp.refs.size()) <= refs_.capacity(),
                  "checkpoint reference window exceeds num_ref_frames");
  FEVES_CHECK_MSG(cp.fw.next_frame == 0 || !cp.refs.empty(),
                  "mid-stream checkpoint carries no reference window");
  loop_.restore(cp.fw);
  refs_.clear();
  // push_front wants oldest first to end up newest-first like the snapshot.
  for (auto it = cp.refs.rbegin(); it != cp.refs.rend(); ++it) {
    refs_.push_front(std::make_unique<RefPicture>(**it));
  }
  // Mirrors and prestaged buffers describe frames the snapshot does not
  // cover: drop them and restage each mirror whole from the restored
  // canonical references.
  const PlatformTopology& topo = loop_.topo();
  for (int i = 0; i < topo.num_devices(); ++i) {
    if (topo.devices[i].is_accelerator()) mirror_stale_[i] = true;
    staged_[static_cast<std::size_t>(i)].valid = false;
  }
}

void CollaborativeEncoder::prepare_job(const Frame420& cur,
                                       std::unique_ptr<RefPicture> recon) {
  // The job is a member purely as an allocation arena: every attempt fully
  // re-prepares it, and ping-ponging the borrowed-refs vector through
  // prepare() keeps even that small buffer alive across frames.
  std::vector<RefPicture*> borrowed = std::move(job_.refs);
  borrowed.clear();
  for (int i = 0; i < refs_.size(); ++i) borrowed.push_back(&refs_.ref(i));
  job_.prepare(loop_.cfg(), cur, std::move(borrowed), loop_.next_frame(),
               std::move(recon));
}

FrameStats CollaborativeEncoder::encode_frame(const Frame420& cur,
                                              std::vector<u8>* bitstream_out,
                                              const FrameGrant& grant) {
  prepare_job(cur, std::move(recycled_));
  FrameStats stats;
  if (job_.is_intra) {
    // Bootstrap I frame: host-only (paper Fig 1's intra path; the inter
    // loop under study starts at frame 1).
    stats.frame_number = loop_.next_frame();
    Timer t;
    intra_frame(job_);
    stats.total_ms = t.elapsed_ms();
    stats.active_refs = 0;
    loop_.skip_frame();
  } else {
    // The loop commits the frame counter only on success: if the frame
    // throws — whole grant quarantined, retry budget exhausted — the caller
    // may re-submit the same source frame on a fresh device grant, and it
    // must encode under the same frame number for the stream to stay
    // bit-exact.
    stats = loop_.run(*this, grant, refs_.size());
  }

  if (bitstream_out != nullptr) {
    BitWriter bw;
    write_frame_bitstream(job_, bw);
    const auto& bytes = bw.bytes();
    bitstream_out->insert(bitstream_out->end(), bytes.begin(), bytes.end());
  }
  recycled_ = refs_.push_front(std::move(job_.recon));
  return stats;
}

void CollaborativeEncoder::stage_attempt(int attempt,
                                         const std::vector<bool>& active,
                                         int active_refs) {
  // A failed attempt may have partially written MVs, SF planes or the
  // reconstruction; rebuild the job from the untouched inputs (the job
  // still points at the source frame). Its own recon is recycled — every
  // pixel is rewritten anyway.
  if (attempt > 0) prepare_job(*job_.cur, std::move(job_.recon));
  const PlatformTopology& topo = loop_.topo();
  for (int i = 0; i < topo.num_devices(); ++i) {
    if (!topo.devices[i].is_accelerator()) continue;
    if (!active[i]) {
      // Sitting this frame out breaks the one-begin-per-frame contract.
      mirror_stale_[i] = true;
      continue;
    }
    if (mirror_stale_[i]) {
      restage_mirror(mirrors_[i], loop_.cfg(), active_refs, refs_);
      mirror_stale_[i] = false;
    } else {
      begin_frame_mirror(mirrors_[i], loop_.cfg(), active_refs,
                         refs_.ref(0).recon.y, &staged_[i]);
    }
  }
}

void CollaborativeEncoder::prestage(const std::vector<bool>& active,
                                    int active_refs) {
  const PlatformTopology& topo = loop_.topo();
  for (int i = 0; i < topo.num_devices(); ++i) {
    if (topo.devices[i].is_accelerator() && active[i]) {
      prestage_mirror(staged_[i], loop_.cfg(), active_refs);
    }
  }
}

ExecutionResult CollaborativeEncoder::execute(int /*frame*/,
                                              const ScheduleDecision& sd,
                                              int /*active_refs*/,
                                              const ExecuteOptions& opts,
                                              FrameOpIds* ids) {
  const PlatformTopology& topo = loop_.topo();
  RealBackend backend(job_, mirrors_, topo, tier_, sd.dist.sme);
  const OpGraph graph = build_frame_graph(topo, sd.dist, sd.plans, backend, ids);
  return execute_real(graph, topo, opts);
}

void CollaborativeEncoder::attempt_failed(DataAccessManagement& dam) {
  // Cancelled/unfinished ops leave mirrors and the deferred-SF bookkeeping
  // out of sync; restage everything and re-plan from an all-resident state.
  const PlatformTopology& topo = loop_.topo();
  for (int i = 0; i < topo.num_devices(); ++i) {
    if (topo.devices[i].is_accelerator()) mirror_stale_[i] = true;
  }
  dam.reset();
}

void CollaborativeEncoder::attempt_succeeded(int frame, FrameStats* stats) {
  // Surface the per-kernel SIMD tier the frame's pixel kernels ran at
  // (requested vs. registry-resolved) — and mark it in the trace once per
  // session, so a capture is self-describing about the ISA level.
  for (const KernelTierChoice& k : kernel_tier_report(tier_)) {
    stats->telemetry.kernel_tiers.push_back(
        {kernel_name(k.id), tier_name(k.requested), tier_name(k.resolved)});
  }
  obs::TraceSession* trace = loop_.options().trace;
  if (trace != nullptr && !tiers_traced_) {
    tiers_traced_ = true;
    for (const obs::KernelTierInfo& k : stats->telemetry.kernel_tiers) {
      char label[obs::TraceEvent::kNameCapacity + 1];
      std::snprintf(label, sizeof label, "k:%s=%s", k.kernel, k.resolved);
      trace->add_host_event(frame, label, obs::EventKind::kMark, 0.0);
    }
  }
}

}  // namespace feves
