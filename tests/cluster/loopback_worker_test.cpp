// Continuation-cache lifetime of the loopback worker: a session's warm
// encoder state stays cached between its quanta (the affinity fast path),
// and leaves the cache once the session cannot get another quantum — its
// last frame is encoded or its source ran out.
#include "cluster/loopback_worker.hpp"

#include "platform/presets.hpp"
#include "video/sequence.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>

namespace feves::cluster {
namespace {

/// Submits `shard` to `w` and waits for its completion.
ShardResult run_shard(LoopbackWorker& w, const WorkShard& shard) {
  std::mutex mu;
  std::condition_variable cv;
  bool got = false;
  ShardResult out;
  w.set_completion_sink([&](ShardResult r) {
    std::lock_guard<std::mutex> lk(mu);
    out = std::move(r);
    got = true;
    cv.notify_all();
  });
  EXPECT_EQ(w.submit(shard, 1.0), RpcStatus::kOk);
  std::unique_lock<std::mutex> lk(mu);
  cv.wait_for(lk, std::chrono::seconds(60), [&] { return got; });
  EXPECT_TRUE(got);
  return out;
}

WorkShard first_quantum(const EncoderConfig& cfg, int frame_end,
                        int total_frames) {
  WorkShard s;
  s.lease_id = 1;
  s.epoch = 1;
  s.session = 0;
  s.frame_begin = 0;
  s.frame_end = frame_end;
  s.total_frames = total_frames;
  s.cfg = cfg;
  return s;
}

TEST(LoopbackWorkerCache, FinishedSessionLeavesTheCache) {
  EncoderConfig cfg;
  cfg.width = 640;
  cfg.height = 384;
  cfg.search_range = 8;
  LoopbackWorker w(0, "node", make_sys_nf());
  EXPECT_EQ(w.cached_sessions(), 0);

  WorkShard s = first_quantum(cfg, /*frame_end=*/3, /*total_frames=*/6);
  const ShardResult r0 = run_shard(w, s);
  ASSERT_TRUE(r0.ok) << r0.error;
  ASSERT_EQ(r0.frames_done, 3);
  EXPECT_EQ(w.cached_sessions(), 1) << "a mid-session quantum stays warm";

  s.lease_id = 2;
  s.epoch = 2;
  s.frame_begin = 3;
  s.frame_end = 6;
  s.resume = r0.checkpoint;
  const ShardResult r1 = run_shard(w, s);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_EQ(r1.frames_done, 3);
  EXPECT_EQ(w.cached_sessions(), 0)
      << "the session's last quantum must drop its continuation state";
}

TEST(LoopbackWorkerCache, ExhaustedSourceLeavesTheCache) {
  EncoderConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.search_range = 8;
  cfg.num_ref_frames = 2;
  SyntheticConfig sconf;
  sconf.width = cfg.width;
  sconf.height = cfg.height;
  sconf.frames = 3;  // shorter than the session asks for
  sconf.seed = 5;
  LoopbackWorker w(0, "node", make_sys_nf());

  WorkShard s = first_quantum(cfg, /*frame_end=*/5, /*total_frames=*/8);
  s.source = std::make_shared<SyntheticSequence>(sconf);
  const ShardResult r = run_shard(w, s);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.source_exhausted);
  EXPECT_EQ(r.frames_done, 3);
  EXPECT_EQ(w.cached_sessions(), 0)
      << "a session whose source ran out must drop its encoder";
}

}  // namespace
}  // namespace feves::cluster
