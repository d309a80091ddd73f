// Self-tests of the benchmark's own aggregation and correctness gate:
// the tail-percentile rule, span self time, ratios printed with their
// base, the platform fold over trace spans, the ping-pong frame pool, and
// that a corrupted stream byte is caught as a failure. Exit status = number
// of failed checks.
//
//   python3 e2e_bench/run.py --selftest
#include "harness.hpp"

#include "core/collaborative_encoder.hpp"
#include "platform/presets.hpp"

#include <cmath>
#include <cstdio>

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

using namespace feves;
using namespace feves::e2e;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_tail_rule() {
  // 100 samples: the 90th value has exactly 10 above it.
  Tail t = tail_percentile(one_to(100));
  EXPECT(t.valid && near(t.value, 90.0) && near(t.percentile, 90.0));
  EXPECT(t.samples == 100);
  // 20 samples: only the median still has 10 beyond it.
  t = tail_percentile(one_to(20));
  EXPECT(t.valid && near(t.value, 10.0) && near(t.percentile, 50.0));
  // 11 samples: the lowest sample is the only one with 10 beyond.
  t = tail_percentile(one_to(11));
  EXPECT(t.valid && near(t.value, 1.0));
  // 10 samples: no percentile has 10 beyond; the max is flagged invalid.
  t = tail_percentile(one_to(10));
  EXPECT(!t.valid && near(t.value, 10.0) && t.samples == 10);
  EXPECT(!tail_percentile({}).valid);
  EXPECT(near(median(one_to(4)), 2.5));
  EXPECT(near(percentile(one_to(5), 100.0), 5.0));
}

void test_self_time() {
  // Overlapping children count once; parts outside the span do not count.
  EXPECT(near(self_time({0, 10}, {{1, 3}, {2, 4}, {8, 12}}), 5.0));
  EXPECT(near(self_time({0, 10}, {}), 10.0));
  EXPECT(near(self_time({0, 10}, {{-5, -1}, {11, 20}}), 10.0));
  EXPECT(near(self_time({0, 10}, {{0, 10}, {2, 3}}), 0.0));
  // core.host_ms: frame span minus the execution it contains.
  Report r;
  FrameStats fs;
  fs.total_ms = 30.0;
  report_core({40.0}, {fs}, &r);
  EXPECT(near(r.values().at("core.host_ms"), 10.0));
}

void test_ratios_carry_base() {
  EXPECT(Ratio({3, 6}).describe() == "0.5 (3/6)");
  EXPECT(Ratio({0, 0}).describe() == "0 (0/0)");
  Report r;
  FrameStats a, b;
  a.telemetry.pipeline_hits = 1;
  a.telemetry.lp_solves = 4;
  a.telemetry.lp_warm_solves = 1;
  b.telemetry.pipeline_misses = 3;
  report_sched({a, b}, &r);
  EXPECT(near(r.values().at("sched.pipeline_hit_ratio"), 0.25));
  EXPECT(r.notes().at("sched.pipeline_hit_ratio") == "0.25 (1/4)");
  EXPECT(r.notes().at("sched.lp_warm_ratio") == "0.25 (1/4)");
  EXPECT(r.notes().at("sched.lp_solves") == "2 (4/2)");
}

obs::TraceEvent span(int device, obs::EventKind kind, double b, double e,
                     double bytes = 0.0) {
  obs::TraceEvent ev;
  ev.frame = 1;
  ev.device = device;
  ev.kind = kind;
  ev.t_start_ms = b;
  ev.t_end_ms = e;
  ev.bytes = bytes;
  return ev;
}

void test_platform_fold() {
  using obs::EventKind;
  // Two lanes over a 10 ms window: device 0 computes 0-10, device 1
  // computes 2-6 and copies 1 MB during 6-8 (copies are not compute).
  std::vector<obs::TraceEvent> ev = {
      span(0, EventKind::kKernel, 0, 10), span(1, EventKind::kKernel, 2, 6),
      span(1, EventKind::kTransfer, 6, 8, 1e6)};
  obs::TraceEvent failed = span(1, EventKind::kKernel, 0, 10);
  failed.status = obs::EventStatus::kFailed;  // failed attempts never count
  ev.push_back(failed);
  FrameStats fs;
  fs.frame_number = 1;
  fs.active_devices = 2;
  const auto p = platform_frames(ev, {fs});
  EXPECT(p.size() == 1);
  EXPECT(near(p[0].compute_busy_ms, 14.0));
  EXPECT(near(p[0].xfer_ms, 2.0));
  EXPECT(near(p[0].xfer_mb, 1.0));
  EXPECT(near(p[0].lane_idle_frac, 6.0 / 20.0));
}

void test_pingpong_pool() {
  FramePool pool;
  for (int i = 0; i < 3; ++i) pool.frames.emplace_back(16, 16);
  const int expect[] = {0, 1, 2, 1, 0, 1, 2, 1};
  for (int i = 0; i < 8; ++i) {
    EXPECT(&pool.at(i) == &pool.frames[static_cast<std::size_t>(expect[i])]);
  }
}

void test_corrupted_stream_is_caught() {
  EncoderConfig cfg;
  cfg.width = 64;
  cfg.height = 48;
  cfg.search_range = 4;
  SyntheticConfig sc;
  sc.width = cfg.width;
  sc.height = cfg.height;
  sc.frames = 4;
  const FramePool pool = prerender(sc);
  Stream s;
  CollaborativeEncoder enc(cfg, make_sys_nf());
  for (int f = 0; f < 4; ++f) {
    std::vector<u8> bytes;
    enc.encode_frame(pool.at(f), &bytes);
    s.bytes.push_back(std::move(bytes));
    s.recon.push_back(frame_digest(enc.last_recon()));
  }
  const std::vector<u8> bits = s.concat();
  EXPECT(count_decode_mismatches(cfg, bits, s.recon, nullptr, nullptr) == 0);
  EXPECT(count_byte_mismatches(s.bytes, reference_stream(cfg, pool, 4)) == 0);

  // Flip one byte inside frame 2: the decode check and the byte compare
  // must each report at least that frame.
  Stream bad = s;
  bad.bytes[2][bad.bytes[2].size() / 2] ^= 0x5A;
  std::string error;
  EXPECT(count_decode_mismatches(cfg, bad.concat(), s.recon, nullptr,
                                 &error) >= 1);
  EXPECT(count_byte_mismatches(bad.bytes, s.bytes) == 1);
  // A truncated stream fails every frame the decoder cannot reach.
  std::vector<u8> cut(bits.begin(), bits.begin() + s.bytes[0].size());
  EXPECT(count_decode_mismatches(cfg, cut, s.recon, nullptr, &error) >= 3);
}

}  // namespace

int main() {
  test_tail_rule();
  test_self_time();
  test_ratios_carry_base();
  test_platform_fold();
  test_pingpong_pool();
  test_corrupted_stream_is_caught();
  std::printf("%s: %d failed check(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures;
}
