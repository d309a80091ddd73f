// fleet_virtual: a WorkerManager over two LoopbackWorker nodes, each a
// make_pool(7) box, driven by four closed-loop clients. Each client
// submits a virtual-mode session (1080p, SA 32, 1 or 2 RFs, 10-frame
// leases) with one Fig-7b-style slowdown window and waits for it. No
// pixels are processed: the wall time is LP, DES, data-access planning
// and cluster dispatch.
//
// The run is a series of short rounds, each on a fresh manager: a set-up
// sample (construction plus every client's first inter-frame), then one
// session per client. Where the heavy 1-RF sessions land decides a round's
// speed, so many short rounds — summed, not one long run — sample that
// placement often enough to average it out.
#include "harness.hpp"

#include "cluster/loopback_worker.hpp"
#include "cluster/worker_manager.hpp"
#include "common/rng.hpp"
#include "platform/presets.hpp"

#include <cmath>
#include <thread>

namespace feves::e2e {
namespace {

constexpr int kClients = 4;
constexpr int kNodes = 2;
constexpr int kGpusPerNode = 7;
constexpr int kFrames = 100;  // per session; a multiple of kChunk
constexpr int kChunk = 10;
constexpr int kRssRounds = 5;
// Session index offsets of set-up sessions and traced rounds, so every
// session of a run gets its own perturbation draw.
constexpr int kSetupIndex = 1 << 20;
constexpr int kTracedRound = 1 << 16;

/// Client `client`'s session number `k`: its config and perturbation are a
/// function of (seed, client, k) only.
cluster::ClusterSessionConfig session_config(std::uint64_t seed, int client,
                                             int k, int frames) {
  Rng rng(seed * 1000003ull + static_cast<std::uint64_t>(client) * 7919ull +
          static_cast<std::uint64_t>(k));
  cluster::ClusterSessionConfig sc;
  sc.cfg.search_range = 16;  // 1080p, SA 32
  sc.cfg.num_ref_frames = client % 2 == 0 ? 1 : 2;
  sc.frames = frames;
  sc.chunk_frames = kChunk;
  const int begin =
      static_cast<int>(rng.uniform_int(2, std::max(2, frames - 4)));
  sc.perturbations.add({static_cast<int>(rng.uniform_int(1, kGpusPerNode)),
                        begin, begin + 3, 2.0});
  return sc;
}

struct ClientSession {
  cluster::ClusterSessionConfig cfg;
  cluster::ClusterSessionResult result;
  double wall_ms = 0.0;
};

struct Round {
  double setup_ms = 0.0;
  std::vector<ClientSession> setup;     ///< one 1-frame session per client
  std::vector<ClientSession> sessions;  ///< one timed session per client
  obs::NodeTelemetry tel;
  std::vector<cluster::NodeCounters> nodes;
  double wall_ms = 0.0;  ///< first submit to last wait of the timed part
};

Round run_round(std::uint64_t seed, int round, obs::TraceSession* trace) {
  Round out;
  const auto t0 = Clock::now();
  cluster::WorkerManagerOptions mo;
  mo.trace = trace;
  cluster::WorkerManager mgr(mo);
  for (int n = 0; n < kNodes; ++n) {
    mgr.register_worker(std::make_unique<cluster::LoopbackWorker>(
        n, "node" + std::to_string(n), make_pool(kGpusPerNode)));
  }
  std::vector<int> ids;
  for (int c = 0; c < kClients; ++c) {
    ClientSession cs;
    cs.cfg = session_config(seed, c, kSetupIndex + round, 1);
    ids.push_back(mgr.submit(cs.cfg));
    out.setup.push_back(std::move(cs));
  }
  for (int c = 0; c < kClients; ++c) {
    out.setup[static_cast<std::size_t>(c)].result =
        mgr.wait(ids[static_cast<std::size_t>(c)]);
  }
  out.setup_ms = ms_between(t0, Clock::now());

  out.sessions.resize(kClients);
  const auto t1 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientSession& cs = out.sessions[static_cast<std::size_t>(c)];
      cs.cfg = session_config(seed, c, round, kFrames);
      const auto s0 = Clock::now();
      cs.result = mgr.wait(mgr.submit(cs.cfg));
      cs.wall_ms = ms_between(s0, Clock::now());
    });
  }
  for (std::thread& t : clients) t.join();
  out.wall_ms = ms_between(t1, Clock::now());
  out.tel = mgr.telemetry();
  out.nodes = mgr.node_counters();
  return out;
}

/// Every session must complete every frame.
void check_sessions(const std::vector<ClientSession>& sessions, Report* r) {
  for (const ClientSession& cs : sessions) {
    const cluster::ClusterSessionResult& res = cs.result;
    const int want = cs.cfg.frames;
    const int got =
        std::min(res.committed_frames, static_cast<int>(res.frames.size()));
    r->attempted += want;
    if (res.reason != TerminalReason::kCompleted) {
      r->fail(want, std::string("session ended ") + to_string(res.reason) +
                        ": " + res.error);
    } else if (got != want || res.committed_frames != want) {
      r->fail(want - got, "session committed " +
                              std::to_string(res.committed_frames) + " of " +
                              std::to_string(want) + " frames");
    }
  }
}

/// What the metrics need from a series of rounds. Per-frame stats and the
/// sessions themselves are kept only when `keep_frames` (traced runs), so
/// an untraced run's memory does not grow with the rounds it fits in.
struct Totals {
  bool keep_frames = false;
  std::vector<double> setup_s, frame_ms, makespan;
  /// Wall per simulated frame of each round as a whole. Sessions mix 1-RF
  /// and 2-RF clients, whose per-frame walls differ several times over, so
  /// a percentile over sessions would sit between the two groups; a round
  /// always holds both.
  std::vector<double> round_frame_ms;
  std::vector<double> client_frames = std::vector<double>(kClients, 0.0);
  std::vector<double> client_ms = std::vector<double>(kClients, 0.0);
  double frames = 0.0, modeled_ms = 0.0, wall_ms = 0.0;
  /// Peak RSS once the first kRssRounds rounds are done (or the run, if it
  /// fit fewer): a fixed amount of work. How much the first rounds' threads
  /// leave in their allocator arenas varies from run to run, and a few
  /// fresh managers smooth that; later rounds only add retention across
  /// managers, which grows with the number of rounds a faster build fits
  /// in the window.
  double rss_mb = 0.0;
  obs::NodeTelemetry tel;
  std::vector<double> node_completions;
  std::vector<FrameStats> stats;
  std::vector<ClientSession> sessions;

  double fps() const { return per_second(frames, wall_ms); }

  void add(Round&& round) {
    setup_s.push_back(round.setup_ms / 1000.0);
    double round_frames = 0.0;
    for (std::size_t c = 0; c < round.sessions.size(); ++c) {
      ClientSession& cs = round.sessions[c];
      const int n = cs.result.committed_frames;
      client_frames[c] += n;
      client_ms[c] += cs.wall_ms;
      frames += n;
      round_frames += n;
      if (n > 0) frame_ms.push_back(cs.wall_ms / n);
      for (const FrameStats& st : cs.result.frames) {
        modeled_ms += st.total_ms;
        if (keep_frames) {
          makespan.push_back(st.total_ms);
          stats.push_back(st);
        }
      }
      if (keep_frames) sessions.push_back(std::move(cs));
    }
    if (round_frames > 0) {
      round_frame_ms.push_back(round.wall_ms / round_frames);
    }
    wall_ms += round.wall_ms;
    tel.merge(round.tel);
    node_completions.resize(round.nodes.size());
    for (std::size_t n = 0; n < round.nodes.size(); ++n) {
      node_completions[n] += round.nodes[n].completions;
    }
  }
};

/// Rounds until `seconds` have passed (at least one), each checked and
/// folded into `totals` as soon as it ends.
void run_rounds(std::uint64_t seed, double seconds, int first_round,
                obs::TraceSession* trace, Totals* totals, Report* r) {
  const auto stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int round = first_round; round == first_round || Clock::now() < stop;
       ++round) {
    Round done = run_round(seed, round, trace);
    check_sessions(done.setup, r);
    check_sessions(done.sessions, r);
    totals->add(std::move(done));
    if (round - first_round + 1 == kRssRounds) totals->rss_mb = peak_rss_mb();
  }
  if (totals->rss_mb == 0.0) totals->rss_mb = peak_rss_mb();
}

/// Frames whose modeled time differs from the same session run alone on a
/// VirtualFramework (reported, not a failure). The solo runs are traced so
/// the modeled platform layer can be folded from their spans.
long solo_divergence(const std::vector<ClientSession>& sessions,
                     std::vector<PlatformFrame>* platform, double* dropped) {
  long divergent = 0;
  for (const ClientSession& cs : sessions) {
    obs::TraceSession trace;
    FrameworkOptions fw = cs.cfg.fw;
    fw.trace = &trace;
    VirtualFramework solo(cs.cfg.cfg, make_pool(kGpusPerNode), fw,
                          cs.cfg.perturbations);
    const std::vector<FrameStats> frames = solo.encode(cs.cfg.frames);
    const auto& got = cs.result.frames;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const double want = frames[f].total_ms;
      if (f >= got.size() ||
          std::abs(got[f].total_ms - want) > 1e-9 * std::max(1.0, want)) {
        ++divergent;
      }
    }
    const auto p = platform_frames(trace.sink.events(), frames);
    platform->insert(platform->end(), p.begin(), p.end());
    *dropped += static_cast<double>(trace.tracer.dropped());
  }
  return divergent;
}

}  // namespace

Report run_fleet_virtual(const Options& opt) {
  Report r;
  obs::TraceSession trace;  // outlives the managers that point at it
  Totals run;
  run.keep_frames = opt.trace;
  if (!opt.trace) {
    run_rounds(opt.seed, opt.seconds, 0, nullptr, &run, &r);
  } else {
    Totals plain;
    run_rounds(opt.seed, opt.seconds / 2, 0, nullptr, &plain, &r);
    run_rounds(opt.seed, opt.seconds / 2, kTracedRound, &trace, &run, &r);
    const double off = plain.fps(), on = run.fps();
    r.set("obs.trace_overhead_pct", on > 0 ? 100.0 * (off / on - 1.0) : 0.0,
          "untraced " + std::to_string(off) + " fps vs traced " +
              std::to_string(on) + " fps");
  }
  const std::string rounds = std::to_string(run.setup_s.size()) + " rounds";

  if (!opt.trace) {
    double slowest = 0.0;
    for (int c = 0; c < kClients; ++c) {
      const double fps = per_second(run.client_frames[c], run.client_ms[c]);
      slowest = c == 0 ? fps : std::min(slowest, fps);
    }
    const Tail tail = tail_percentile(run.round_frame_ms);
    r.set("fps", run.fps(),
          std::to_string(static_cast<long>(run.frames)) +
              " simulated frames over " + rounds);
    r.set("session_fps_min", slowest,
          "slowest of " + std::to_string(kClients) + " clients");
    r.set("frame_ms_p50", median(run.round_frame_ms),
          "wall per simulated frame, of " +
              std::to_string(run.round_frame_ms.size()) + " rounds");
    r.set("frame_ms_tail", tail.value, tail.describe("rounds"));
    r.set("modeled_fps", per_second(run.frames, run.modeled_ms),
          "frames / sum of FrameStats::total_ms");
    r.set("setup_s", median(run.setup_s), range_note(run.setup_s, "set-ups"));
    r.set("peak_rss_mb", run.rss_mb,
          "after the first " + std::to_string(kRssRounds) +
              " rounds; whole run " +
              std::to_string(peak_rss_mb()));
    return r;
  }

  std::vector<PlatformFrame> platform;
  double dropped = static_cast<double>(trace.tracer.dropped());
  r.set("cluster.solo_divergent_frames",
        static_cast<double>(solo_divergence(run.sessions, &platform, &dropped)),
        "of " + std::to_string(run.stats.size()) + " frames");
  report_platform(platform, &r);
  report_sched(run.stats, &r);
  // Virtual frames execute nothing for real: every wall millisecond of a
  // frame is host-side work, and the makespan is the model's.
  double retries = 0.0;
  for (const FrameStats& st : run.stats) retries += st.retries;
  r.set("core.frame_ms", median(run.frame_ms), "wall per simulated frame");
  r.set("core.makespan_ms", median(run.makespan), "modeled tau_tot");
  r.set("core.host_ms", median(run.frame_ms), "all host-side in virtual mode");
  r.set("core.retries", retries);
  r.set("obs.trace_dropped", dropped);

  const obs::NodeTelemetry& t = run.tel;
  r.set("cluster.dispatches", t.dispatches);
  r.set("cluster.commit_ratio", Ratio{static_cast<double>(t.completions),
                                      static_cast<double>(t.dispatches)});
  r.set("cluster.fenced", t.fenced_replies);
  r.set("cluster.reassigns", t.reassigns);
  r.set("cluster.steals", t.steals);
  r.set("cluster.heartbeats_per_s", per_second(t.heartbeats, run.wall_ms),
        std::to_string(t.heartbeats) + " heartbeats");
  // Work skew across nodes: (max - min) committed leases over the mean.
  const auto& per_node = run.node_completions;
  const auto [lo, hi] = std::minmax_element(per_node.begin(), per_node.end());
  r.set("cluster.node_frame_skew",
        Ratio{per_node.empty() ? 0.0 : *hi - *lo, mean(per_node)});
  return r;
}

}  // namespace feves::e2e
