// Pure aggregation helpers of the end-to-end benchmark: percentiles and the
// tail rule, span self time, ratios that keep their base, and the digest
// used to compare reconstructions. No encoder types here, so the self-tests
// can pin the arithmetic without running a workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace feves::e2e {

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples;
/// 0 for an empty set.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The highest percentile that still has at least `beyond` samples above
/// it: with samples sorted ascending, the (N - beyond)-th one. `samples`
/// records N so a reader can judge how far into the tail it reaches.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 100 * rank / N
  std::size_t samples = 0;
  bool valid = false;  ///< false when N <= beyond: no such percentile

  /// "p90.0 of 100 frames" (or the max, flagged, when too few samples).
  std::string describe(const char* what) const {
    char buf[96];
    if (valid) {
      std::snprintf(buf, sizeof buf, "p%.1f of %zu %s", percentile, samples,
                    what);
    } else {
      std::snprintf(buf, sizeof buf, "max of %zu %s (too few samples)",
                    samples, what);
    }
    return buf;
  }
};

inline Tail tail_percentile(std::vector<double> v, std::size_t beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.size() <= beyond) {
    // Too few samples to put `beyond` of them past any rank; report the
    // maximum so the number stays a real observation, flagged invalid.
    if (!v.empty()) t.value = *std::max_element(v.begin(), v.end());
    t.percentile = 100.0;
    return t;
  }
  std::sort(v.begin(), v.end());
  const std::size_t rank = v.size() - beyond;  // 1-based rank of the value
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) /
                 static_cast<double>(v.size());
  t.valid = true;
  return t;
}

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of the part of `span` covered by the union of `children`
/// (children may overlap each other and stick out of the span).
inline double coverage(Interval span, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double cursor = span.begin;
  for (const Interval& c : children) {
    const double b = std::max(c.begin, cursor);
    const double e = std::min(c.end, span.end);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return covered;
}

/// A span's self time: its duration minus what its child spans cover.
inline double self_time(Interval span, std::vector<Interval> children) {
  return (span.end - span.begin) - coverage(span, std::move(children));
}

/// A ratio that remembers its base, so every printed ratio can show the
/// counts it was taken over ("0.5 (3/6)"). An empty base reads as 0.
struct Ratio {
  double num = 0.0;
  double den = 0.0;

  double value() const { return den > 0.0 ? num / den : 0.0; }
  std::string describe() const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.6g (%.6g/%.6g)", value(), num, den);
    return buf;
  }
};

/// 64-bit digest of a byte sequence, fed row by row (FNV-1a over 8-byte
/// words; collisions are irrelevant at the benchmark's sample counts).
class Digest {
 public:
  void add(const std::uint8_t* p, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, p + i, sizeof w);
      mix(w);
    }
    for (; i < n; ++i) mix(p[i]);
    mix(n);
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t w) {
    h_ ^= w;
    h_ *= 0x100000001b3ull;
    h_ ^= h_ >> 29;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace feves::e2e
