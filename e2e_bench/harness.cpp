#include "harness.hpp"

#include "codec/bitstream.hpp"
#include "codec/frame_codec.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <exception>

namespace feves::e2e {

const Frame420& FramePool::at(int index) const {
  const int n = static_cast<int>(frames.size());
  if (n == 1) return frames[0];
  const int period = 2 * (n - 1);
  const int i = index % period;
  return frames[static_cast<std::size_t>(i < n ? i : period - i)];
}

FramePool prerender(const SyntheticConfig& sc) {
  FramePool pool;
  SyntheticSequence seq(sc);
  const auto t0 = Clock::now();
  pool.frames.reserve(static_cast<std::size_t>(sc.frames));
  for (int f = 0; f < sc.frames; ++f) {
    pool.frames.emplace_back(sc.width, sc.height);
    seq.read_frame(f, pool.frames.back());
  }
  pool.synth_ms_per_frame = ms_between(t0, Clock::now()) / sc.frames;
  return pool;
}

PooledSource::PooledSource(std::shared_ptr<const FramePool> pool,
                           Clock::time_point stop, int limit)
    : pool_(std::move(pool)), stop_(stop), limit_(limit) {}

int PooledSource::width() const { return pool_->frames[0].width(); }
int PooledSource::height() const { return pool_->frames[0].height(); }

bool PooledSource::read_frame(int index, Frame420& out) {
  const Clock::time_point now = Clock::now();
  // Frames 0 and 1 (the I frame and the first inter-frame) are always
  // served, so every session yields at least one inter-frame.
  if ((limit_ >= 0 && index >= limit_) || (index >= 2 && now >= stop_)) {
    end_ = now;
    return false;
  }
  if (requests_.size() <= static_cast<std::size_t>(index)) {
    requests_.resize(static_cast<std::size_t>(index) + 1);
  }
  requests_[static_cast<std::size_t>(index)] = now;
  end_ = now;
  out = pool_->at(index);
  return true;
}

std::uint64_t frame_digest(const Frame420& f) {
  Digest d;
  for (const PlaneU8* p : {&f.y, &f.u, &f.v}) {
    for (int y = 0; y < p->height(); ++y) {
      d.add(p->row(y), static_cast<std::size_t>(p->width()));
    }
  }
  return d.value();
}

std::vector<u8> Stream::concat() const {
  std::vector<u8> out;
  for (const auto& b : bytes) out.insert(out.end(), b.begin(), b.end());
  return out;
}

long count_decode_mismatches(const EncoderConfig& cfg,
                             const std::vector<u8>& bits,
                             const std::vector<std::uint64_t>& expected,
                             std::vector<double>* decode_ms,
                             std::string* error) {
  RefList refs(cfg.num_ref_frames);
  BitReader br(bits);
  long bad = 0;
  std::size_t f = 0;
  try {
    for (; f < expected.size(); ++f) {
      const auto t0 = Clock::now();
      auto pic = decode_frame(cfg, br, refs);
      if (decode_ms != nullptr && f > 0) {
        decode_ms->push_back(ms_between(t0, Clock::now()));
      }
      if (frame_digest(pic->recon) != expected[f]) ++bad;
      refs.push_front(std::move(pic));
    }
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    bad += static_cast<long>(expected.size() - f);
  }
  return bad;
}

std::vector<std::vector<u8>> staged_reference(
    const EncoderConfig& cfg, const FramePool& pool, int frames,
    std::map<std::string, std::vector<double>>* stage_ms) {
  std::vector<std::vector<u8>> out;
  RefList refs(cfg.num_ref_frames);
  const int rows = cfg.num_mb_rows();
  for (int f = 0; f < frames; ++f) {
    EncodeJob job;
    std::vector<RefPicture*> borrowed;
    for (int i = 0; i < refs.size(); ++i) borrowed.push_back(&refs.ref(i));
    job.prepare(cfg, pool.at(f), std::move(borrowed), f);
    auto stage = [&](const char* name, auto&& fn) {
      const auto t0 = Clock::now();
      fn();
      if (f > 0) (*stage_ms)[name].push_back(ms_between(t0, Clock::now()));
    };
    if (job.is_intra) {
      intra_frame(job);
    } else {
      stage("me", [&] { me_rows(job, 0, rows); });
      stage("int", [&] {
        int_rows(job, 0, rows);
        finish_interpolation(job);
      });
      stage("sme", [&] { sme_rows(job, 0, rows); });
      stage("rstar", [&] { rstar_frame(job); });
    }
    BitWriter bw;
    stage("bitstream", [&] { write_frame_bitstream(job, bw); });
    out.push_back(bw.take());
    refs.push_front(std::move(job.recon));
  }
  return out;
}

std::vector<std::vector<u8>> reference_stream(const EncoderConfig& cfg,
                                              const FramePool& pool,
                                              int frames) {
  std::vector<std::vector<u8>> out;
  RefList refs(cfg.num_ref_frames);
  for (int f = 0; f < frames; ++f) {
    std::vector<u8> bytes;
    refs.push_front(encode_frame_reference(cfg, pool.at(f), refs, f, &bytes));
    out.push_back(std::move(bytes));
  }
  return out;
}

long count_byte_mismatches(const std::vector<std::vector<u8>>& a,
                           const std::vector<std::vector<u8>>& b) {
  const std::size_t n = std::max(a.size(), b.size());
  long bad = 0;
  for (std::size_t f = 0; f < n; ++f) {
    if (f >= a.size() || f >= b.size() || a[f] != b[f]) ++bad;
  }
  return bad;
}

std::vector<PlatformFrame> platform_frames(
    const std::vector<obs::TraceEvent>& events,
    const std::vector<FrameStats>& frames) {
  std::map<int, std::vector<const obs::TraceEvent*>> by_frame;
  for (const obs::TraceEvent& e : events) {
    if (e.status != obs::EventStatus::kOk) continue;
    if (e.kind != obs::EventKind::kKernel &&
        e.kind != obs::EventKind::kTransfer) {
      continue;
    }
    by_frame[e.frame].push_back(&e);
  }
  std::vector<PlatformFrame> out;
  for (const FrameStats& s : frames) {
    const auto it = by_frame.find(s.frame_number);
    if (it == by_frame.end() || s.active_devices <= 0) continue;
    PlatformFrame p;
    Interval window{it->second.front()->t_start_ms,
                    it->second.front()->t_end_ms};
    std::map<int, std::vector<Interval>> compute_by_device;
    for (const obs::TraceEvent* e : it->second) {
      window.begin = std::min(window.begin, e->t_start_ms);
      window.end = std::max(window.end, e->t_end_ms);
      if (e->kind == obs::EventKind::kKernel) {
        p.compute_busy_ms += e->duration_ms();
        compute_by_device[e->device].push_back({e->t_start_ms, e->t_end_ms});
      } else {
        p.xfer_ms += e->duration_ms();
        p.xfer_mb += e->bytes / 1e6;
      }
    }
    // Each active device's compute lane is a child-covered span of the
    // frame window; its self time is the lane's idle time.
    const double lanes = s.active_devices * (window.end - window.begin);
    double idle = lanes;
    for (const auto& lane : compute_by_device) {
      idle -= coverage(window, lane.second);
    }
    p.lane_idle_frac = lanes > 0.0 ? idle / lanes : 0.0;
    out.push_back(p);
  }
  return out;
}

std::vector<FrameStats> inter_frames(const std::vector<FrameStats>& all) {
  std::vector<FrameStats> out;
  for (const FrameStats& s : all) {
    if (s.active_refs > 0) out.push_back(s);
  }
  return out;
}

void report_sched(const std::vector<FrameStats>& frames, Report* r) {
  std::vector<double> critical, overlapped, solve_ms, mispredict, module_err;
  Ratio hits, warm;
  double solves = 0.0, pivots = 0.0;
  for (const FrameStats& s : frames) {
    const obs::SchedTelemetry& t = s.telemetry;
    critical.push_back(t.sched_critical_ms);
    overlapped.push_back(t.sched_overlapped_ms);
    solve_ms.push_back(t.lp_solve_ms);
    mispredict.push_back(t.misprediction());
    module_err.push_back(t.worst_module_error());
    hits.num += t.pipeline_hits;
    hits.den += t.pipeline_hits + t.pipeline_misses;
    warm.num += t.lp_warm_solves;
    warm.den += t.lp_solves;
    solves += t.lp_solves;
    pivots += t.lp_iterations;
  }
  const double n = static_cast<double>(frames.size());
  const Ratio solves_per_frame{solves, n};
  const Ratio pivots_per_frame{pivots, n};
  r->set("sched.critical_ms", mean(critical), "mean per frame");
  r->set("sched.overlapped_ms", mean(overlapped), "mean per frame");
  r->set("sched.pipeline_hit_ratio", hits);
  r->set("sched.lp_solves", solves_per_frame);
  r->set("sched.lp_pivots", pivots_per_frame);
  r->set("sched.lp_warm_ratio", warm);
  r->set("sched.lp_solve_ms", mean(solve_ms), "mean per frame");
  r->set("sched.misprediction_p50", median(mispredict));
  r->set("sched.module_error_p50", median(module_err));
}

void report_platform(const std::vector<PlatformFrame>& frames, Report* r) {
  std::vector<double> busy, xfer, mb, idle;
  for (const PlatformFrame& p : frames) {
    busy.push_back(p.compute_busy_ms);
    xfer.push_back(p.xfer_ms);
    mb.push_back(p.xfer_mb);
    idle.push_back(p.lane_idle_frac);
  }
  const std::string base = "median of " + std::to_string(frames.size()) +
                           " traced frames";
  r->set("platform.compute_busy_ms", median(busy), base);
  r->set("platform.xfer_ms", median(xfer), base);
  r->set("platform.xfer_mb", median(mb), base);
  r->set("platform.lane_idle_frac", median(idle), base);
}

void report_core(const std::vector<double>& frame_ms,
                 const std::vector<FrameStats>& frames, Report* r) {
  std::vector<double> makespan, host;
  double retries = 0.0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    makespan.push_back(frames[i].total_ms);
    retries += frames[i].retries;
    if (i < frame_ms.size()) {
      host.push_back(
          self_time({0.0, frame_ms[i]}, {{0.0, frames[i].total_ms}}));
    }
  }
  const std::string base =
      "median of " + std::to_string(frame_ms.size()) + " frames";
  r->set("core.frame_ms", median(frame_ms), base);
  r->set("core.makespan_ms", median(makespan), base);
  r->set("core.host_ms", median(host), base);
  r->set("core.retries", retries);
}

std::string range_note(const std::vector<double>& v, const char* what) {
  if (v.empty()) return std::string("no ") + what;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  char buf[128];
  std::snprintf(buf, sizeof buf, "median of %zu %s (min %.6g, max %.6g)",
                v.size(), what, *lo, *hi);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace feves::e2e
