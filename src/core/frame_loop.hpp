// Framework Control (paper Algorithm 1): the per-frame loop tying together
// Load Balancing, the Video Coding Manager, Data Access Management and
// Performance Characterization.
//
//   initialization (first inter-frame): equidistant split, record times,
//     build the initial characterization;
//   iterative (every further inter-frame): balance from the measured K
//     parameters, orchestrate, record, update.
//
// `FrameLoop` runs that loop once for both modes. It owns the adaptive
// state (balancer, Data Access Management, characterization, device
// health, frame counter, R* holder, the pipeline slot and the fault plan)
// and the whole per-frame flow: retries and quarantines, scheduling with
// the two-slot pipeline, telemetry and trace events, the τ1/τ2 accounting
// and the characterization update. A `FrameMode` supplies only what
// differs between modelling a frame and encoding it for real: the backend
// the op graph runs over, mirror staging, and how the next frame's
// speculation is launched. VirtualFramework (framework.hpp) and
// CollaborativeEncoder (collaborative_encoder.hpp) are the two modes.
#pragma once

#include "core/coding_manager.hpp"
#include "core/data_access.hpp"
#include "core/health.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "platform/fault.hpp"
#include "sched/load_balancer.hpp"

#include <optional>
#include <vector>

namespace feves {

class DeviceLease;

/// Per-frame device grant for a framework sharing its platform with other
/// encode sessions (src/service). `devices` restricts this frame's
/// scheduling to a subset of the topology — it is intersected with the
/// health monitor's active mask, so a session's own quarantines compose
/// with the arbiter's share. `lease`, when non-null, is forwarded to the
/// executors, which refuse any op targeting a device outside it. A
/// default-constructed grant (the single-tenant case) changes nothing.
struct FrameGrant {
  const std::vector<bool>* devices = nullptr;
  const DeviceLease* lease = nullptr;
};

/// Which scheduler drives the distribution decisions — kAdaptiveLp is the
/// paper's Algorithm 2; the other two are the evaluation baselines.
enum class SchedulingPolicy {
  kAdaptiveLp,    ///< Algorithm 2 (LP + performance characterization)
  kProportional,  ///< per-module speed-proportional split ([9]-style)
  kEquidistant,   ///< static equal split (multi-GPU related work)
};

struct FrameworkOptions {
  SchedulingPolicy policy = SchedulingPolicy::kAdaptiveLp;
  /// Weight of the newest measurement when updating the characterization.
  /// 1.0 = the paper's Algorithm 1 (each frame's recorded times directly
  /// parameterize the next LP — "a single inter-frame to converge");
  /// lower values EWMA-smooth noisy non-dedicated systems.
  double ewma_alpha = 1.0;
  LoadBalancerOptions lb;
  /// Shared-buffer reuse in Data Access Management (ablation knob; the
  /// paper's communication-minimization mechanism, Sec. III-B2).
  bool enable_data_reuse = true;
  /// Pin the R* block to a device (-1 = automatic Dijkstra selection).
  /// Pinning the CPU gives the paper's CPU-centric operation; pinning an
  /// accelerator the GPU-centric one. A pin on a quarantined device is
  /// suspended (automatic selection over survivors) until re-admission.
  int force_rstar_device = -1;
  /// Quarantine / probation policy for device faults.
  HealthOptions health;
  /// Per-op watchdog deadline handed to the executors (0 = disabled).
  /// Required (> 0) when the fault schedule injects hangs.
  double watchdog_ms = 0.0;
  /// Real mode: how long an injected hang sleeps (must exceed watchdog_ms).
  double hang_sleep_ms = 20.0;
  /// Failed execution attempts tolerated per frame before giving up. Each
  /// attempt quarantines at least the faulty device's failure streak, so a
  /// handful suffices even for simultaneous multi-device faults.
  int max_frame_retries = 8;
  /// Observability: when non-null, every op the executors run plus the
  /// host-side scheduling phases are emitted into this session's tracer and
  /// folded into its sink frame by frame (Chrome trace export). The session
  /// must outlive the framework. Null = zero tracing overhead.
  obs::TraceSession* trace = nullptr;
  /// Two-slot frame pipeline: after frame n succeeds, frame n+1's LP solve,
  /// transfer planning and (real mode) mirror prestaging run in the shadow
  /// of frame n's execution — in real mode on a genuinely concurrent
  /// speculation thread — and are consumed next frame only if the device
  /// set, R* placement, reference window and characterization still match
  /// (drift < lb.convergence_epsilon). Any mismatch (fault retry, grant
  /// churn, perturbation spike) discards the slot and re-solves
  /// synchronously from fresh state, so adaptation latency and output are
  /// bit-identical to the unpipelined loop; only the critical-path
  /// scheduling cost changes.
  bool enable_pipeline = true;
};

/// Everything measured about one encoded inter-frame.
struct FrameStats {
  int frame_number = 0;    ///< 1-based inter-frame index
  int active_refs = 1;     ///< reference-window size in effect
  double total_ms = 0.0;   ///< τtot: inter-loop time of this frame
                           ///< (includes any failed attempts' wall time)
  double tau1_ms = 0.0;    ///< measured τ1 (ME/INT + gathers done)
  double tau2_ms = 0.0;    ///< measured τ2 (SME done everywhere)
  double scheduling_ms = 0.0;  ///< LB + data-access planning wall time
  Distribution dist;       ///< the distribution that produced the frame
  // Fault-recovery accounting:
  int retries = 0;               ///< failed execution attempts before success
  int devices_quarantined = 0;   ///< devices newly quarantined this frame
  int devices_readmitted = 0;    ///< devices entering probation after it
  int active_devices = 0;        ///< devices the successful attempt ran on
  /// Scheduler telemetry: LP effort and predicted-vs-measured times.
  obs::SchedTelemetry telemetry;
  double fps() const { return total_ms > 0 ? 1000.0 / total_ms : 0.0; }
};

/// One scheduling decision: the distribution the policy produced, the
/// transfer plans derived from it, and the LP effort it took. Produced
/// either synchronously on the critical path or speculatively inside the
/// frame pipeline.
struct ScheduleDecision {
  Distribution dist;
  std::vector<TransferPlan> plans;
  BalanceStats lb;
};

/// One precomputed frame of the two-slot pipeline: the speculative schedule
/// for frame `frame`, the advanced copy of the Data Access state it was
/// planned against, and the inputs it speculated on (validated at consume
/// time against the then-current platform state).
struct PipelineSlot {
  bool valid = false;
  int frame = 0;
  int active_refs = 0;
  int rf_holder = -1;
  std::vector<bool> active;
  std::vector<DeviceParams> params;  ///< characterization at solve time
  ScheduleDecision sched;
  std::optional<DataAccessManagement> dam;
  double cost_ms = 0.0;  ///< wall time the precompute took (overlapped)
};

/// Frame-boundary snapshot of Algorithm 1's adaptive state — the minimal
/// cross-frame scheduling state either framework needs to resume from the
/// frame after the snapshot. Pixels (the reference window) are real-mode
/// only and live in EncoderCheckpoint (collaborative_encoder.hpp), which
/// the service layer wraps in a SessionCheckpoint. Copyable by value so a
/// checkpoint can outlive the framework it was taken from — restoring into
/// a freshly constructed framework is exactly the resume-elsewhere story.
struct FrameworkCheckpoint {
  int next_frame = 1;  ///< first inter-frame NOT covered by the snapshot
  int rf_holder = 0;   ///< device holding the newest RF at the boundary
  PerfCharacterization perf{1};  ///< K parameters at the last good frame
  DeviceHealthMonitor health{1}; ///< quarantine/probation state
};

/// Folds one frame's measured per-op times into the characterization
/// (Algorithm 1 lines 5-6/10).
/// Only ops that completed cleanly are folded: failed, timed-out and
/// cancelled ops carry truncated or zero durations that would poison the
/// K parameters every later LP consumes.
void attribute_frame_times(const EncoderConfig& cfg,
                           const PlatformTopology& topo,
                           const Distribution& dist, const FrameOpIds& ids,
                           const ExecutionResult& result,
                           PerfCharacterization* perf);

/// What one mode of the frame loop supplies. Every hook runs on the thread
/// that called FrameLoop::run, except prestage(), which runs inside the
/// speculation (on its own thread when speculates_concurrently()).
class FrameMode {
 public:
  virtual ~FrameMode() = default;

  /// True: frame n+1's schedule is solved on a thread concurrent with frame
  /// n's execution and published only if the attempt succeeds (real mode,
  /// where execution takes wall time worth hiding). False: it runs inline
  /// after a successful attempt, before the characterization folds —
  /// a failed attempt then never touches the balancer's warm cache, and the
  /// modelled schedule sequence stays that of the unthreaded loop.
  virtual bool speculates_concurrently() const = 0;

  /// Prepares attempt `attempt` (0 = first) of the frame on `active`
  /// devices, right before it executes.
  virtual void stage_attempt(int /*attempt*/,
                             const std::vector<bool>& /*active*/,
                             int /*active_refs*/) {}

  /// Speculation side job: readies per-device buffers for the next frame.
  /// Must touch nothing the executing frame reads or writes.
  virtual void prestage(const std::vector<bool>& /*active*/,
                        int /*active_refs*/) {}

  /// Builds the frame's op graph over the mode's backend and executes it.
  virtual ExecutionResult execute(int frame, const ScheduleDecision& sd,
                                  int active_refs, const ExecuteOptions& opts,
                                  FrameOpIds* ids) = 0;

  /// After a failed attempt (devices already charged with the failure).
  /// `dam` may be reset when the attempt left transfer state out of sync.
  virtual void attempt_failed(DataAccessManagement& /*dam*/) {}

  /// After the successful attempt's device telemetry is filled.
  virtual void attempt_succeeded(int /*frame*/, FrameStats* /*stats*/) {}
};

/// Algorithm 1's adaptive state and per-frame flow, shared by both modes.
class FrameLoop {
 public:
  /// `next_frame` is the first frame run() encodes (0 when the caller
  /// encodes a bootstrap I frame itself, 1 when it is not modelled).
  FrameLoop(const EncoderConfig& cfg, const PlatformTopology& topo,
            const FrameworkOptions& opts, FaultSchedule faults,
            int next_frame);

  /// Encodes inter-frame next_frame() with `active_refs` references through
  /// `mode`, retrying over the survivors when devices fault. The frame
  /// counter advances only on success, so a caller can re-submit the frame
  /// on a fresh grant after the whole grant was quarantined mid-frame.
  FrameStats run(FrameMode& mode, const FrameGrant& grant, int active_refs);

  /// Counts a frame encoded outside the loop (the host-side I frame).
  void skip_frame() { ++next_frame_; }

  /// Frame-boundary snapshot of the adaptive state (between run() calls).
  FrameworkCheckpoint checkpoint() const;
  /// Restores a snapshot; the pipeline slot and the deferred-SF ledger are
  /// dropped, since they describe frames the snapshot does not cover.
  void restore(const FrameworkCheckpoint& cp);

  int next_frame() const { return next_frame_; }
  const EncoderConfig& cfg() const { return cfg_; }
  const PlatformTopology& topo() const { return topo_; }
  const FrameworkOptions& options() const { return opts_; }
  const PerfCharacterization& characterization() const { return perf_; }
  const DeviceHealthMonitor& health() const { return health_; }

 private:
  /// One scheduling step: policy dispatch (Algorithm 2 / proportional /
  /// equidistant, including the probe path for partially characterized
  /// grants and the R*-pin quarantine fallback), then transfer planning on
  /// `dam`. Mutates `dam`'s deferred-SF state and the balancer's warm cache.
  ScheduleDecision schedule(DataAccessManagement& dam,
                            const std::vector<bool>& active, int rf_holder,
                            int active_refs);
  /// Consume-time validation of slot_ against this attempt's inputs.
  bool slot_matches(int frame, const std::vector<bool>& active, int rf_holder,
                    int active_refs) const;

  EncoderConfig cfg_;
  PlatformTopology topo_;
  FrameworkOptions opts_;
  FaultSchedule faults_;
  LoadBalancer balancer_;
  DataAccessManagement dam_;
  PerfCharacterization perf_;
  DeviceHealthMonitor health_;
  int next_frame_;
  int rf_holder_ = 0;  ///< device that produced the newest RF
  PipelineSlot slot_;  ///< next frame's speculative schedule
};

}  // namespace feves
