// hd_1080p: one real-mode CollaborativeEncoder on SysNFF (three compute
// lanes) encoding the paper's headline setting — 1920x1088, SA 32, 1 RF,
// QP 27/28, rolling-objects content — as a closed loop: the next frame is
// sent when encode_frame returns.
#include "harness.hpp"

#include "core/collaborative_encoder.hpp"
#include "platform/presets.hpp"

#include <cmath>
#include <exception>

namespace feves::e2e {
namespace {

constexpr int kPoolFrames = 12;
constexpr std::size_t kSetups = 5;
constexpr int kStagedFrames = 5;  // I frame + 4 inter-frames
constexpr double kRoundSeconds = 5.0;  // untraced runs: per fresh encoder

EncoderConfig hd_config() {
  EncoderConfig cfg;  // defaults: 1920x1088, QP 27/28
  cfg.search_range = 16;  // SA 32
  cfg.num_ref_frames = 1;
  return cfg;
}

/// One encoder's closed loop: the set-up frames (I + first inter-frame)
/// and then inter-frames until `stop`.
struct Session {
  std::unique_ptr<CollaborativeEncoder> enc;
  Stream stream;
  std::vector<FrameStats> stats;  ///< timed inter-frames only
  std::vector<double> frame_ms;   ///< wall time per timed encode_frame
  double setup_ms = 0.0;
  double loop_ms = 0.0;
};

void encode_one(Session* s, const Frame420& cur, FrameStats* stats,
                double* ms) {
  std::vector<u8> bytes;
  const auto t0 = Clock::now();
  *stats = s->enc->encode_frame(cur, &bytes);
  *ms = ms_between(t0, Clock::now());
  s->stream.bytes.push_back(std::move(bytes));
  s->stream.recon.push_back(frame_digest(s->enc->last_recon()));
}

/// Construction + I frame + first inter-frame, timed; digesting the
/// reconstruction is bookkeeping outside the timed calls.
Session start(const EncoderConfig& cfg, const FramePool& pool,
              FrameworkOptions opts) {
  Session s;
  const auto t0 = Clock::now();
  s.enc = std::make_unique<CollaborativeEncoder>(cfg, make_sys_nff(), opts);
  const double construct_ms = ms_between(t0, Clock::now());
  FrameStats st;
  double i_ms = 0.0, p_ms = 0.0;
  encode_one(&s, pool.at(0), &st, &i_ms);
  encode_one(&s, pool.at(1), &st, &p_ms);
  s.setup_ms = construct_ms + i_ms + p_ms;
  return s;
}

void run_loop(Session* s, const FramePool& pool, double seconds) {
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  for (int f = 2; Clock::now() < stop; ++f) {
    FrameStats st;
    double ms = 0.0;
    encode_one(s, pool.at(f), &st, &ms);
    s->stats.push_back(std::move(st));
    s->frame_ms.push_back(ms);
  }
  s->loop_ms = ms_between(t0, Clock::now());
}

double session_fps(const Session& s) {
  return per_second(static_cast<double>(s.frame_ms.size()), s.loop_ms);
}

}  // namespace

Report run_hd_1080p(const Options& opt) {
  Report r;
  const EncoderConfig cfg = hd_config();
  SyntheticConfig sc;
  sc.width = cfg.width;
  sc.height = cfg.height;
  sc.frames = kPoolFrames;
  sc.kind = SceneKind::kRollingObjects;
  sc.seed = opt.seed;
  const FramePool pool = prerender(sc);
  r.set("video.synth_ms", pool.synth_ms_per_frame,
        "per 1080p frame, outside every timed window");

  obs::TraceSession trace;  // outlives the encoder that points at it
  // The timed encoders. Untraced, a series of rounds, each on a fresh
  // encoder: an encoder keeps about one speed for its whole life, but
  // fresh ones differ from one another, so one long loop would measure a
  // single draw of that. Traced, one encoder carrying the trace.
  std::vector<Session> timed;
  double rss = 0.0;
  try {
    if (!opt.trace) {
      // Each round's start is a set-up sample; any still missing run after
      // the window, each on a fresh encoder.
      const int rounds = std::max(
          1, static_cast<int>(std::lround(opt.seconds / kRoundSeconds)));
      std::vector<double> setups;
      for (int k = 0; k < rounds; ++k) {
        timed.push_back(start(cfg, pool, {}));
        setups.push_back(timed.back().setup_ms / 1000.0);
        run_loop(&timed.back(), pool, opt.seconds / rounds);
        // Peak RSS once the first round is done, as on one encoder.
        if (k == 0) rss = peak_rss_mb();
        timed.back().enc.reset();
      }
      while (setups.size() < kSetups) {
        setups.push_back(start(cfg, pool, {}).setup_ms / 1000.0);
      }
      r.set("setup_s", median(setups), range_note(setups, "set-ups"));
    } else {
      // Untraced and traced halves of the window: the traced half gives
      // the per-layer numbers, the pair gives the tracing overhead.
      Session plain = start(cfg, pool, {});
      run_loop(&plain, pool, opt.seconds / 2);
      plain.enc.reset();
      std::string error;
      const long bad = count_decode_mismatches(cfg, plain.stream.concat(),
                                               plain.stream.recon, nullptr,
                                               &error);
      r.attempted += static_cast<long>(plain.stream.bytes.size());
      if (bad > 0) r.fail(bad, "untraced half: decode mismatch " + error);
      FrameworkOptions traced;
      traced.trace = &trace;
      timed.push_back(start(cfg, pool, traced));
      run_loop(&timed.back(), pool, opt.seconds / 2);
      const double off = session_fps(plain), on = session_fps(timed.back());
      r.set("obs.trace_overhead_pct", on > 0 ? 100.0 * (off / on - 1.0) : 0.0,
            "untraced " + std::to_string(off) + " fps vs traced " +
                std::to_string(on) + " fps");
    }
  } catch (const std::exception& e) {
    for (const Session& s : timed) {
      r.attempted += static_cast<long>(s.stream.bytes.size());
    }
    r.attempted += 1;
    r.fail(1, std::string("encode threw: ") + e.what());
    return r;
  }

  // Correctness: the decoder must rebuild every reconstruction exactly.
  std::vector<double> decode_ms;
  long frames = 0;
  double loop_ms = 0.0, makespan = 0.0;
  std::vector<double> frame_ms;
  std::vector<FrameStats> stats;
  for (const Session& s : timed) {
    r.attempted += static_cast<long>(s.stream.bytes.size());
    std::string error;
    const long bad = count_decode_mismatches(cfg, s.stream.concat(),
                                             s.stream.recon, &decode_ms,
                                             &error);
    if (bad > 0) r.fail(bad, "decode mismatch " + error);
    frames += static_cast<long>(s.frame_ms.size());
    loop_ms += s.loop_ms;
    frame_ms.insert(frame_ms.end(), s.frame_ms.begin(), s.frame_ms.end());
    stats.insert(stats.end(), s.stats.begin(), s.stats.end());
    for (const FrameStats& st : s.stats) makespan += st.total_ms;
  }

  if (!opt.trace) {
    const double fps = per_second(static_cast<double>(frames), loop_ms);
    const Tail tail = tail_percentile(frame_ms);
    const std::string base = std::to_string(frames) + " frames in " +
                             std::to_string(timed.size()) + " rounds";
    r.set("fps", fps, base);
    r.set("session_fps_min", fps, "one session at a time; " + base);
    r.set("frame_ms_p50", median(frame_ms), "of " + base);
    r.set("frame_ms_tail", tail.value, tail.describe("frames"));
    r.set("modeled_fps",
          per_second(static_cast<double>(stats.size()), makespan),
          "frames / sum of FrameStats::total_ms");
    r.set("peak_rss_mb", rss,
          "after the first round; whole run " + std::to_string(peak_rss_mb()));
    return r;
  }

  // Traced run: the stream must equal the single-device reference encoder
  // byte for byte, and the staged reference path times each codec stage.
  const Session& traced = timed.front();
  const long traced_frames = static_cast<long>(traced.stream.bytes.size());
  const long ref_bad = count_byte_mismatches(
      traced.stream.bytes,
      reference_stream(cfg, pool, static_cast<int>(traced_frames)));
  if (ref_bad > 0) r.fail(ref_bad, "bitstream differs from reference");
  std::map<std::string, std::vector<double>> stage_ms;
  const int staged =
      std::min<int>(kStagedFrames, static_cast<int>(traced_frames));
  const auto staged_bytes = staged_reference(cfg, pool, staged, &stage_ms);
  const std::vector<std::vector<u8>> prefix(
      traced.stream.bytes.begin(), traced.stream.bytes.begin() + staged);
  const long staged_bad = count_byte_mismatches(prefix, staged_bytes);
  if (staged_bad > 0) r.fail(staged_bad, "staged reference path differs");

  for (const char* stage : {"me", "sme", "int", "rstar", "bitstream"}) {
    r.set(std::string("codec.") + stage + "_ms", median(stage_ms[stage]),
          "median of " + std::to_string(stage_ms[stage].size()) +
              " reference-path frames");
  }
  r.set("codec.decode_ms", median(decode_ms));
  report_platform(platform_frames(trace.sink.events(), traced.stats), &r);
  report_core(traced.frame_ms, traced.stats, &r);
  report_sched(traced.stats, &r);
  r.set("obs.trace_dropped", static_cast<double>(trace.tracer.dropped()));
  return r;
}

}  // namespace feves::e2e
