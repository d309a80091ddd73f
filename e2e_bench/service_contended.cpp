// service_contended: an EncodeService on make_pool(2) (CPU_H + 2 GPU_K)
// running four real-mode sessions — more tenants than devices — at
// 640x368, SA 16, with 1 and 3 reference frames, calendar and
// rolling-objects content and weights 1 and 2 alternating. Each session is
// a closed-loop client: its source hands out the next frame only when the
// session asks for it, and stops at the run's deadline.
#include "harness.hpp"

#include "core/collaborative_encoder.hpp"
#include "platform/presets.hpp"
#include "service/encode_service.hpp"

#include <cmath>
#include <exception>
#include <thread>

namespace feves::e2e {
namespace {

constexpr int kSessions = 4;
constexpr int kPoolFrames = 32;
constexpr int kSetups = 9;
constexpr double kRoundSeconds = 5.0;  // untraced runs: per fresh service
constexpr int kStagedFrames = 4;  // per session: I frame + 3 inter-frames
constexpr int kUnbounded = 1 << 24;

struct Tenant {
  EncoderConfig cfg;
  double weight = 1.0;
  std::shared_ptr<const FramePool> pool;
};

std::vector<Tenant> make_tenants(std::uint64_t seed) {
  std::vector<Tenant> out;
  for (int s = 0; s < kSessions; ++s) {
    Tenant t;
    t.cfg.width = 640;
    t.cfg.height = 368;
    t.cfg.search_range = 8;  // SA 16
    t.cfg.num_ref_frames = s % 2 == 0 ? 1 : 3;
    t.weight = s % 2 == 0 ? 1.0 : 2.0;
    SyntheticConfig sc;
    sc.width = t.cfg.width;
    sc.height = t.cfg.height;
    sc.frames = kPoolFrames;
    sc.kind = s % 2 == 0 ? SceneKind::kCalendar : SceneKind::kRollingObjects;
    sc.seed = seed * kSessions + static_cast<std::uint64_t>(s);
    t.pool = std::make_shared<const FramePool>(prerender(sc));
    out.push_back(std::move(t));
  }
  return out;
}

SessionConfig session_config(const Tenant& t,
                             std::shared_ptr<VideoSource> source,
                             obs::TraceSession* trace) {
  SessionConfig sc;
  sc.cfg = t.cfg;
  sc.weight = t.weight;
  sc.frames = kUnbounded;  // the source ends the stream
  sc.source = std::move(source);
  sc.fw.trace = trace;
  return sc;
}

/// One service run: every tenant submitted at once, each pulling frames
/// until `seconds` have passed (or `limit` frames, for set-up runs).
struct ServiceRun {
  std::vector<SessionResult> results;
  std::vector<std::shared_ptr<PooledSource>> sources;
  std::vector<Clock::time_point> submitted;
  ServiceStats stats;
  double wall_ms = 0.0;
};

ServiceRun run_service(const std::vector<Tenant>& tenants, double seconds,
                       int limit,
                       std::vector<obs::TraceSession>* traces = nullptr) {
  ServiceRun run;
  EncodeService svc(make_pool(2));
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  for (int s = 0; s < kSessions; ++s) {
    const Tenant& t = tenants[static_cast<std::size_t>(s)];
    auto src = std::make_shared<PooledSource>(t.pool, stop, limit);
    run.sources.push_back(src);
    run.submitted.push_back(Clock::now());
    obs::TraceSession* trace =
        traces == nullptr ? nullptr : &(*traces)[static_cast<std::size_t>(s)];
    const int id = svc.submit(session_config(t, src, trace));
    FEVES_CHECK_MSG(id >= 0, "service refused session " << s);
  }
  run.results = svc.drain();
  run.wall_ms = ms_between(t0, Clock::now());
  run.stats = svc.stats();
  return run;
}

long inter_count(const SessionResult& r) {
  return static_cast<long>(inter_frames(r.frames).size());
}

/// Client-side time per inter-frame: from the session's request for frame
/// f to its request for frame f+1 (or its stop), arbiter waits included.
std::vector<double> request_intervals(const PooledSource& src, long frames) {
  std::vector<double> out;
  const auto& req = src.requests();
  for (long f = 1; f < frames; ++f) {
    const std::size_t i = static_cast<std::size_t>(f);
    const auto next = i + 1 < req.size() && f + 1 < frames ? req[i + 1]
                                                           : src.end();
    out.push_back(ms_between(req[i], next));
  }
  return out;
}

/// Encodes a tenant's first `frames` frames alone on the whole pool.
Stream encode_solo(const Tenant& t, int frames) {
  Stream s;
  CollaborativeEncoder enc(t.cfg, make_pool(2));
  for (int f = 0; f < frames; ++f) {
    std::vector<u8> bytes;
    enc.encode_frame(t.pool->at(f), &bytes);
    s.bytes.push_back(std::move(bytes));
    s.recon.push_back(frame_digest(enc.last_recon()));
  }
  return s;
}

/// The first `frames` frames of a stream.
Stream prefix(const Stream& s, std::size_t frames) {
  Stream out;
  const auto n =
      static_cast<std::ptrdiff_t>(std::min(frames, s.bytes.size()));
  out.bytes.assign(s.bytes.begin(), s.bytes.begin() + n);
  out.recon.assign(s.recon.begin(), s.recon.begin() + n);
  return out;
}

/// Splits a session's stream at the solo stream's frame boundaries.
std::vector<std::vector<u8>> split_like(const std::vector<u8>& bits,
                                        const Stream& solo) {
  std::vector<std::vector<u8>> out;
  std::size_t at = 0;
  for (const auto& b : solo.bytes) {
    const std::size_t n = std::min(b.size(), bits.size() - at);
    out.emplace_back(bits.begin() + static_cast<std::ptrdiff_t>(at),
                     bits.begin() + static_cast<std::ptrdiff_t>(at + n));
    at += n;
  }
  if (at < bits.size()) {
    out.emplace_back(bits.begin() + static_cast<std::ptrdiff_t>(at),
                     bits.end());
  }
  return out;
}

/// Each tenant encoded solo for as many frames as its longest session in
/// `runs`. Every session starts at frame 0 of the same input, so each one
/// must equal a prefix of its tenant's solo stream. The solo encodes run
/// concurrently, one per tenant; a tenant whose encode threw gets an empty
/// stream and its message in `errors`.
std::vector<Stream> encode_solos(const std::vector<Tenant>& tenants,
                                 const std::vector<const ServiceRun*>& runs,
                                 std::vector<std::string>* errors) {
  std::vector<Stream> solo(kSessions);
  errors->assign(kSessions, {});
  std::vector<std::thread> workers;
  for (int s = 0; s < kSessions; ++s) {
    const std::size_t i = static_cast<std::size_t>(s);
    std::size_t frames = 0;
    for (const ServiceRun* run : runs) {
      frames = std::max(frames, run->results[i].frames.size());
    }
    workers.emplace_back([&, i, frames] {
      try {
        solo[i] = encode_solo(tenants[i], static_cast<int>(frames));
      } catch (const std::exception& e) {
        (*errors)[i] = e.what();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return solo;
}

/// Correctness of one service run: every session completed, equals the
/// start of the same session encoded solo byte for byte, and decodes to
/// the solo reconstructions.
void check_run(const std::vector<Tenant>& tenants, const ServiceRun& run,
               const std::vector<Stream>& solo,
               const std::vector<std::string>& errors, Report* r,
               std::vector<double>* decode_ms) {
  for (int s = 0; s < kSessions; ++s) {
    const std::size_t i = static_cast<std::size_t>(s);
    const SessionResult& res = run.results[i];
    const std::size_t frames = res.frames.size();
    r->attempted += static_cast<long>(frames);
    if (res.state != SessionResult::State::kCompleted) {
      r->fail(static_cast<long>(frames),
              "session " + std::to_string(s) + " ended " +
                  to_string(res.reason) + ": " + res.error);
      continue;
    }
    if (!errors[i].empty()) {
      r->fail(static_cast<long>(frames), "solo encode threw: " + errors[i]);
      continue;
    }
    const Stream want = prefix(solo[i], frames);
    std::string error;
    const long bad_decode = count_decode_mismatches(
        tenants[i].cfg, res.bitstream, want.recon, decode_ms, &error);
    const long bad_bytes =
        count_byte_mismatches(split_like(res.bitstream, want), want.bytes);
    const long bad = std::max(bad_decode, bad_bytes);
    if (bad > 0) {
      r->fail(bad, "session " + std::to_string(s) + " differs from solo " +
                       error);
    }
  }
}

}  // namespace

Report run_service_contended(const Options& opt) {
  Report r;
  const std::vector<Tenant> tenants = make_tenants(opt.seed);
  double synth_ms = 0.0;
  for (const Tenant& t : tenants) synth_ms += t.pool->synth_ms_per_frame;
  r.set("video.synth_ms", synth_ms / kSessions,
        "per 640x368 frame, outside every timed window");

  std::vector<obs::TraceSession> traces(kSessions);
  // The timed runs. Untraced, a series of rounds, each on a fresh service:
  // a service keeps about one speed for its whole life, but fresh services
  // on the same host differ from one another, so one long run would
  // measure a single draw of that. Traced, one run whose sessions carry
  // the trace.
  std::vector<ServiceRun> timed;
  // Runs whose output is checked but not timed. All checks run once timing
  // is over, so the solo re-encodes never weigh on a timed window or the
  // peak RSS.
  std::vector<ServiceRun> also_checked;
  double rss = 0.0;
  if (!opt.trace) {
    const int rounds = std::max(
        1, static_cast<int>(std::lround(opt.seconds / kRoundSeconds)));
    for (int k = 0; k < rounds; ++k) {
      timed.push_back(run_service(tenants, opt.seconds / rounds, -1));
      // Peak RSS once the first round is done: later fresh services only
      // add the allocator's retention across them.
      if (k == 0) rss = peak_rss_mb();
    }
    // Set-up, after the timed window: service construction, then every
    // session's I frame and first inter-frame.
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
      const auto t0 = Clock::now();
      also_checked.push_back(run_service(tenants, 0.0, 2));
      setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
    r.set("setup_s", median(setups), range_note(setups, "set-ups"));
  } else {
    also_checked.push_back(run_service(tenants, opt.seconds / 2, -1));
    const ServiceRun& plain = also_checked.back();
    timed.push_back(run_service(tenants, opt.seconds / 2, -1, &traces));
    const ServiceRun& traced = timed.back();
    long plain_frames = 0, traced_frames = 0;
    for (const SessionResult& s : plain.results) plain_frames += inter_count(s);
    for (const SessionResult& s : traced.results) {
      traced_frames += inter_count(s);
    }
    const double off =
        per_second(static_cast<double>(plain_frames), plain.wall_ms);
    const double on =
        per_second(static_cast<double>(traced_frames), traced.wall_ms);
    r.set("obs.trace_overhead_pct", on > 0 ? 100.0 * (off / on - 1.0) : 0.0,
          "untraced " + std::to_string(off) + " fps vs traced " +
              std::to_string(on) + " fps");
  }

  std::vector<const ServiceRun*> checked;
  for (const ServiceRun& run : timed) checked.push_back(&run);
  for (const ServiceRun& run : also_checked) checked.push_back(&run);
  std::vector<std::string> solo_errors;
  const std::vector<Stream> solo = encode_solos(tenants, checked, &solo_errors);
  for (const ServiceRun& run : also_checked) {
    check_run(tenants, run, solo, solo_errors, &r, nullptr);
  }
  std::vector<double> decode_ms;
  for (const ServiceRun& run : timed) {
    check_run(tenants, run, solo, solo_errors, &r, &decode_ms);
  }

  // Sums over the timed runs; a session's fps is its tenant's frames over
  // its time from submit to stop, summed over the rounds.
  long frames = 0;
  double wall_ms = 0.0, makespan = 0.0;
  std::vector<double> session_frames(kSessions, 0.0);
  std::vector<double> session_ms(kSessions, 0.0);
  std::vector<double> frame_ms;
  std::vector<FrameStats> stats;
  std::vector<double> round_fps;
  for (const ServiceRun& run : timed) {
    long round_frames = 0;
    for (const SessionResult& res : run.results) {
      round_frames += inter_count(res);
    }
    round_fps.push_back(
        per_second(static_cast<double>(round_frames), run.wall_ms));
    wall_ms += run.wall_ms;
    for (int s = 0; s < kSessions; ++s) {
      const std::size_t i = static_cast<std::size_t>(s);
      const SessionResult& res = run.results[i];
      const std::vector<FrameStats> inter = inter_frames(res.frames);
      const long n = static_cast<long>(inter.size());
      frames += n;
      for (const FrameStats& st : inter) makespan += st.total_ms;
      session_frames[i] += static_cast<double>(n);
      session_ms[i] += ms_between(run.submitted[i], run.sources[i]->end());
      const auto iv = request_intervals(*run.sources[i],
                                        static_cast<long>(res.frames.size()));
      frame_ms.insert(frame_ms.end(), iv.begin(), iv.end());
      stats.insert(stats.end(), inter.begin(), inter.end());
    }
  }
  double slowest = 0.0;
  std::string per_session = "sessions";
  for (int s = 0; s < kSessions; ++s) {
    const std::size_t i = static_cast<std::size_t>(s);
    const double fps = per_second(session_frames[i], session_ms[i]);
    slowest = s == 0 ? fps : std::min(slowest, fps);
    per_session += " " + std::to_string(fps);
  }

  if (!opt.trace) {
    const Tail tail = tail_percentile(frame_ms);
    r.set("fps", per_second(static_cast<double>(frames), wall_ms),
          std::to_string(frames) + " inter-frames over " +
              std::to_string(kSessions) + " sessions in " +
              std::to_string(timed.size()) + " rounds; " +
              range_note(round_fps, "rounds' fps"));
    r.set("session_fps_min", slowest, per_session);
    r.set("frame_ms_p50", median(frame_ms),
          "of " + std::to_string(frame_ms.size()) + " client-side frames");
    r.set("frame_ms_tail", tail.value, tail.describe("frames"));
    r.set("modeled_fps", per_second(static_cast<double>(frames), makespan),
          "frames / sum of FrameStats::total_ms");
    r.set("peak_rss_mb", rss,
          "after the first round; whole run " + std::to_string(peak_rss_mb()));
    return r;
  }

  // Per-layer numbers from the traced half. The staged reference path
  // must reproduce the start of each (checked) solo stream.
  const ServiceRun& run = timed.front();
  std::map<std::string, std::vector<double>> stage_ms;
  for (int s = 0; s < kSessions; ++s) {
    const std::size_t i = static_cast<std::size_t>(s);
    const Tenant& t = tenants[i];
    const int n = std::min<int>(kStagedFrames,
                                static_cast<int>(solo[i].bytes.size()));
    const auto staged = staged_reference(t.cfg, *t.pool, n, &stage_ms);
    const std::vector<std::vector<u8>> prefix(solo[i].bytes.begin(),
                                              solo[i].bytes.begin() + n);
    const long bad = count_byte_mismatches(staged, prefix);
    if (bad > 0) r.fail(bad, "staged reference path differs from solo");
  }
  for (const char* stage : {"me", "sme", "int", "rstar", "bitstream"}) {
    r.set(std::string("codec.") + stage + "_ms", median(stage_ms[stage]),
          "median of " + std::to_string(stage_ms[stage].size()) +
              " reference-path frames");
  }
  r.set("codec.decode_ms", median(decode_ms));

  std::vector<PlatformFrame> platform;
  double dropped = 0.0;
  for (int s = 0; s < kSessions; ++s) {
    const std::size_t i = static_cast<std::size_t>(s);
    const auto p = platform_frames(traces[i].sink.events(),
                                   inter_frames(run.results[i].frames));
    platform.insert(platform.end(), p.begin(), p.end());
    dropped += static_cast<double>(traces[i].tracer.dropped());
  }
  report_platform(platform, &r);
  report_core(frame_ms, stats, &r);
  report_sched(stats, &r);
  r.set("obs.trace_dropped", dropped);

  const ServiceStats& st = run.stats;
  double busy = 0.0;
  for (double b : st.device_busy_ms) busy += b;
  const Ratio wait{st.total_queue_wait_ms,
                  static_cast<double>(st.total_frames)};
  r.set("service.queue_wait_ms", wait.value(),
        "per frame on the arbiter timeline: " + wait.describe());
  r.set("service.grant_utilization", st.mean_grant_utilization);
  const double devices = static_cast<double>(st.device_busy_ms.size());
  r.set("service.device_busy_frac", Ratio{busy, st.makespan_ms * devices});
  r.set("service.shed", st.shed);
  r.set("service.rejected", st.rejected);
  r.set("service.restarts", st.resilience.restarts);
  return r;
}

}  // namespace feves::e2e
