// End-to-end benchmark entry point: runs one workload for a fixed wall time,
// checks the program's output, and prints every metric by name and unit.
//
//   feves_e2e --workload <hd_1080p|service_contended|fleet_virtual>
//             --seed <n> --seconds <s> --trace <0|1>
//   feves_e2e --list-metrics
//
// --trace 0 prints the end-to-end metrics, --trace 1 attaches the
// program's TraceSession and prints the per-layer metrics. A human report
// and a host/build metadata line come first; the last line of standard
// output is the result object. The exit status is 0 whenever a result was
// printed (a failed correctness check shows as correct=false), nonzero
// when the benchmark could not run at all.
#include "harness.hpp"

#include "codec/kernels.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#ifndef FEVES_E2E_BUILD_TYPE
#define FEVES_E2E_BUILD_TYPE "unknown"
#endif
#ifndef FEVES_E2E_SANITIZE
#define FEVES_E2E_SANITIZE ""
#endif

namespace feves::e2e {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric tables; BENCHMARK.json declares the same names and units.
constexpr MetricSpec kEndToEnd[] = {
    {"fps", "1/s"},
    {"frame_ms_p50", "ms"},
    {"frame_ms_tail", "ms"},
    {"session_fps_min", "1/s"},
    {"modeled_fps", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"codec.me_ms", "ms"},
    {"codec.sme_ms", "ms"},
    {"codec.int_ms", "ms"},
    {"codec.rstar_ms", "ms"},
    {"codec.bitstream_ms", "ms"},
    {"codec.decode_ms", "ms"},
    {"platform.compute_busy_ms", "ms"},
    {"platform.xfer_ms", "ms"},
    {"platform.xfer_mb", "MB"},
    {"platform.lane_idle_frac", "ratio"},
    {"core.frame_ms", "ms"},
    {"core.makespan_ms", "ms"},
    {"core.host_ms", "ms"},
    {"core.retries", "count"},
    {"sched.critical_ms", "ms"},
    {"sched.overlapped_ms", "ms"},
    {"sched.pipeline_hit_ratio", "ratio"},
    {"sched.lp_solves", "1/frame"},
    {"sched.lp_pivots", "1/frame"},
    {"sched.lp_warm_ratio", "ratio"},
    {"sched.lp_solve_ms", "ms"},
    {"sched.misprediction_p50", "ratio"},
    {"sched.module_error_p50", "ratio"},
    {"video.synth_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.trace_dropped", "count"},
    {"service.queue_wait_ms", "ms"},
    {"service.grant_utilization", "ratio"},
    {"service.device_busy_frac", "ratio"},
    {"service.shed", "count"},
    {"service.rejected", "count"},
    {"service.restarts", "count"},
    {"cluster.dispatches", "count"},
    {"cluster.commit_ratio", "ratio"},
    {"cluster.fenced", "count"},
    {"cluster.reassigns", "count"},
    {"cluster.steals", "count"},
    {"cluster.heartbeats_per_s", "1/s"},
    {"cluster.node_frame_skew", "ratio"},
    {"cluster.solo_divergent_frames", "count"},
};

bool is_timing_build() {
  const std::string type = FEVES_E2E_BUILD_TYPE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#endif
#ifndef __OPTIMIZE__
  return false;
#endif
  return std::strlen(FEVES_E2E_SANITIZE) == 0 &&
         (type == "Release" || type == "RelWithDebInfo");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

/// JSON string literal (quotes and backslashes escaped; control characters
/// dropped — metadata and notes never need them).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metadata(const std::string& workload, const Options& opt) {
  std::string tiers;
  for (const KernelTierChoice& k : kernel_tier_report(SimdTier::kAuto)) {
    if (!tiers.empty()) tiers += ",";
    tiers += quoted(kernel_name(k.id)) + ":" + quoted(tier_name(k.resolved));
  }
  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"cpu\": %s, \"tiers\": {%s}, "
      "\"compiler\": %s, \"build_type\": %s}}\n",
      quoted(workload).c_str(), static_cast<unsigned long long>(opt.seed),
      number(opt.seconds).c_str(), opt.trace ? 1 : 0,
      std::thread::hardware_concurrency(), quoted(cpu_model()).c_str(),
      tiers.c_str(), quoted(__VERSION__).c_str(),
      quoted(FEVES_E2E_BUILD_TYPE).c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <hd_1080p|service_contended|"
               "fleet_virtual> --seed <n> --seconds <s> --trace <0|1>\n"
               "       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace feves::e2e

int main(int argc, char** argv) {
  using namespace feves::e2e;
  std::string workload;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const MetricSpec& m : kEndToEnd) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      }
      for (const MetricSpec& m : kPerLayer) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (!(opt.seconds > 0.0)) return usage(argv[0]);

  Report (*run)(const Options&) = nullptr;
  if (workload == "hd_1080p") run = run_hd_1080p;
  if (workload == "service_contended") run = run_service_contended;
  if (workload == "fleet_virtual") run = run_fleet_virtual;
  if (run == nullptr) return usage(argv[0]);

  if (!is_timing_build()) {
    std::fprintf(stderr,
                 "refusing to time a %s build (sanitizer: '%s'): build "
                 "Release or RelWithDebInfo without sanitizers\n",
                 FEVES_E2E_BUILD_TYPE, FEVES_E2E_SANITIZE);
    return 3;
  }

  print_metadata(workload, opt);
  Report rep;
  try {
    rep = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  if (rep.attempted < 1) rep.attempted = 1;

  // Human report: every metric the workload measured, declared or not
  // (fail_ratio included), with its base or note.
  std::printf("fail_ratio %.6g (%ld/%ld frames)\n",
              static_cast<double>(rep.failed) /
                  static_cast<double>(rep.attempted),
              rep.failed, rep.attempted);
  for (const std::string& why : rep.reasons()) {
    std::printf("  failure: %s\n", why.c_str());
  }
  for (const auto& [name, value] : rep.values()) {
    const auto note = rep.notes().find(name);
    std::printf("%-32s %-14.6g %s\n", name.c_str(), value,
                note == rep.notes().end() ? "" : note->second.c_str());
  }

  // Result line: exactly the declared metrics of this mode. A per-layer
  // metric whose layer the workload never reaches reads 0; a missing
  // end-to-end metric is a benchmark bug.
  std::string metrics;
  auto emit = [&](const MetricSpec& m, double v) {
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(m.name) + ": {\"value\": " + number(v) +
               ", \"unit\": " + quoted(m.unit) + "}";
  };
  if (!opt.trace) {
    for (const MetricSpec& m : kEndToEnd) {
      const auto it = rep.values().find(m.name);
      if (it == rep.values().end() && rep.failed == 0) {
        std::fprintf(stderr, "workload %s did not measure %s\n",
                     workload.c_str(), m.name);
        return 1;
      }
      emit(m, it == rep.values().end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& m : kPerLayer) {
      const auto it = rep.values().find(m.name);
      emit(m, it == rep.values().end() ? 0.0 : it->second);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {%s}}\n",
      rep.failed == 0 ? "true" : "false", rep.attempted, rep.failed,
      metrics.c_str());
  return 0;
}
