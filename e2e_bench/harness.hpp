// Shared machinery of the end-to-end benchmark's workloads: the run
// options, the metric report, the pre-rendered video source, stream
// capture and decode checks, and the per-layer folds over FrameStats and
// trace spans. Everything here drives the program through its public
// entry points and times it from outside.
#pragma once

#include "aggregate.hpp"

#include "core/framework.hpp"
#include "obs/trace.hpp"
#include "video/sequence.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace feves::e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run measured: the attempted/failed frame counts that
/// feed fail_ratio, metric values by name (units live in the metric table
/// in main.cpp) and a human note per metric (bases, percentiles).
class Report {
 public:
  long attempted = 0;
  long failed = 0;

  void set(const std::string& name, double value, std::string note = {}) {
    values_[name] = value;
    if (!note.empty()) notes_[name] = std::move(note);
  }
  void set(const std::string& name, const Ratio& r) {
    set(name, r.value(), r.describe());
  }
  /// Counts `frames` frames as failed and keeps the first few reasons.
  void fail(long frames, const std::string& why) {
    failed += frames;
    if (reasons_.size() < 8) reasons_.push_back(why);
  }

  const std::map<std::string, double>& values() const { return values_; }
  const std::map<std::string, std::string>& notes() const { return notes_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> reasons_;
};

/// Synthetic frames rendered once, before any timed window, and replayed
/// ping-pong (0..n-1, n-2..1, 0..) so a closed loop of any length never
/// synthesizes inside a timed window and never jumps at a wrap.
struct FramePool {
  std::vector<Frame420> frames;
  double synth_ms_per_frame = 0.0;

  const Frame420& at(int index) const;
};

FramePool prerender(const SyntheticConfig& sc);

/// In-memory VideoSource over a FramePool. The client sends frame `index`
/// only after frame `index - 1` returned (the session loop pulls frames),
/// and stops once `stop` has passed or `limit` frames were read, so the
/// source is what closes the loop at the run's deadline. Request times
/// are recorded per index (read back after the session was joined).
class PooledSource final : public VideoSource {
 public:
  PooledSource(std::shared_ptr<const FramePool> pool, Clock::time_point stop,
               int limit = -1);

  int width() const override;
  int height() const override;
  int frame_count() const override { return limit_; }
  bool read_frame(int index, Frame420& out) override;

  /// When each frame index was requested; `end` is the first refused read
  /// (the client's stop), or the last request when none was refused.
  const std::vector<Clock::time_point>& requests() const { return requests_; }
  Clock::time_point end() const { return end_; }

 private:
  std::shared_ptr<const FramePool> pool_;
  Clock::time_point stop_;
  int limit_;
  std::vector<Clock::time_point> requests_;
  Clock::time_point end_{};
};

/// Digest of a frame's visible samples (Y, U, V).
std::uint64_t frame_digest(const Frame420& f);

/// A real-mode stream as encoded: bytes and reconstruction digest per
/// frame (frame 0 is the I frame).
struct Stream {
  std::vector<std::vector<u8>> bytes;
  std::vector<std::uint64_t> recon;
  std::vector<u8> concat() const;
};

/// Decodes `bits` frame by frame with decode_frame and counts the frames
/// whose reconstruction differs from `expected` (a frame the decoder could
/// not reach — it threw earlier — counts as differing). Per-frame decode
/// times of inter-frames go to `decode_ms` when non-null.
long count_decode_mismatches(const EncoderConfig& cfg,
                             const std::vector<u8>& bits,
                             const std::vector<std::uint64_t>& expected,
                             std::vector<double>* decode_ms,
                             std::string* error);

/// The single-device reference path, one stage at a time (what
/// encode_frame_reference runs), timed per stage from outside. Returns the
/// per-frame bytes; stage times of inter-frames are appended by name
/// ("me", "int", "sme", "rstar", "bitstream").
std::vector<std::vector<u8>> staged_reference(
    const EncoderConfig& cfg, const FramePool& pool, int frames,
    std::map<std::string, std::vector<double>>* stage_ms);

/// Per-frame stream from encode_frame_reference over the same frames.
std::vector<std::vector<u8>> reference_stream(const EncoderConfig& cfg,
                                              const FramePool& pool,
                                              int frames);

/// Frames whose bytes differ between two per-frame streams (missing frames
/// on either side count).
long count_byte_mismatches(const std::vector<std::vector<u8>>& a,
                           const std::vector<std::vector<u8>>& b);

/// Per-frame platform view folded from trace spans: compute and transfer
/// busy time summed over devices, bytes moved, and the share of the
/// frame's compute-lane time no kernel covered (imbalance + barriers).
struct PlatformFrame {
  double compute_busy_ms = 0.0;
  double xfer_ms = 0.0;
  double xfer_mb = 0.0;
  double lane_idle_frac = 0.0;
};

/// One PlatformFrame per inter-frame in `frames` that has spans in
/// `events`; the lane count of a frame is its FrameStats::active_devices.
std::vector<PlatformFrame> platform_frames(
    const std::vector<obs::TraceEvent>& events,
    const std::vector<FrameStats>& frames);

/// Sets the sched.* and platform.* metrics from inter-frame stats and
/// their platform folds (per-frame medians or means; ratios with their
/// bases).
void report_sched(const std::vector<FrameStats>& frames, Report* r);
void report_platform(const std::vector<PlatformFrame>& frames, Report* r);

/// Sets the core.* metrics from per-frame wall times paired with stats
/// (host time = the frame span minus the execution it contains).
void report_core(const std::vector<double>& frame_ms,
                 const std::vector<FrameStats>& frames, Report* r);

/// Inter-frames (active_refs > 0) of a stats list.
std::vector<FrameStats> inter_frames(const std::vector<FrameStats>& all);

/// "median of 5 set-ups (min 0.1, max 0.3)".
std::string range_note(const std::vector<double>& v, const char* what);

/// Frames encoded per second over `ms` (0 when nothing was timed).
inline double per_second(double frames, double ms) {
  return ms > 0.0 ? 1000.0 * frames / ms : 0.0;
}

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// The three workloads.
Report run_hd_1080p(const Options& opt);
Report run_service_contended(const Options& opt);
Report run_fleet_virtual(const Options& opt);

}  // namespace feves::e2e
