// Host-speed reference for the benchmark's CPU-bound timings.
//
// The shared hosts this benchmark runs on change their effective speed by
// up to 2x over tens of seconds (a fixed hash-map kernel took 70 ms to
// 157 ms across eight same-seed runs), which swamps any change to the
// program. So between timed operations the benchmark times two fixed
// kernels of its own, which no change to the program can touch, and
// converts each timed sample to reference seconds: measured seconds times
// a reference time over the mean kernel time of the runs just before and
// just after it.
//
// Work on a graph that fits in the caches is scaled by the cache kernel
// alone (hash-map inserts, probes and a sort; reference 10 ms). Work on a
// graph larger than the caches is scaled by the cache kernel plus the
// memory kernel (a dependent walk over a 32 MiB ring; reference 15 ms for
// the two), because there memory latency slows with the host as well.
#ifndef WDRBENCH_SPEED_H_
#define WDRBENCH_SPEED_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "gen.h"

namespace wdrbench {

// A measured time, whether its work was on a graph larger than the
// caches, and the number of kernel runs before it.
struct Timed {
  double seconds;
  bool large;
  size_t calibrations;
};

class HostSpeed {
 public:
  static constexpr double kCacheReferenceSeconds = 0.010;
  static constexpr double kLargeReferenceSeconds = 0.015;

  // Times both kernels once. Call before the first timed operation,
  // between groups of timed operations, and after the last.
  void Calibrate() {
    const double cache = CacheKernel();
    cache_.push_back(cache);
    large_.push_back(cache + MemoryKernel());
  }

  // Tags a time measured now with the kernel runs that bracket it.
  Timed Stamp(double seconds, bool large) const {
    return {seconds, large, cache_.size()};
  }

  // Reference seconds of a stamped time.
  double Ref(const Timed& t) const {
    const std::vector<double>& kernel = t.large ? large_ : cache_;
    const double before = kernel.at(t.calibrations - 1);
    const double after =
        t.calibrations < kernel.size() ? kernel[t.calibrations] : before;
    const double reference =
        t.large ? kLargeReferenceSeconds : kCacheReferenceSeconds;
    return t.seconds * reference * 2 / (before + after);
  }
  std::vector<double> Ref(const std::vector<Timed>& times) const {
    std::vector<double> out;
    out.reserve(times.size());
    for (const auto& t : times) out.push_back(Ref(t));
    return out;
  }

  // Every cache-kernel time of the run.
  const std::vector<double>& cache_samples() const { return cache_; }

 private:
  using Clock = std::chrono::steady_clock;

  static double CacheKernel() {
    std::vector<uint64_t> keys(1 << 15);
    Rng rng(1);
    for (auto& k : keys) k = rng.Next();
    const auto start = Clock::now();
    std::unordered_map<uint64_t, uint64_t> map;
    for (size_t i = 0; i < keys.size(); ++i) map[keys[i]] = i;
    uint64_t sum = 0;
    for (int pass = 0; pass < 4; ++pass) {
      for (uint64_t k : keys) sum += map.count(k ^ (pass == 0 ? 0 : 1));
    }
    std::sort(keys.begin(), keys.end());
    sum += keys[keys.size() / 2] & 1;
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    sink_ = sink_ + sum;  // keeps the work observable
    return seconds;
  }

  static double MemoryKernel() {
    static const std::vector<uint32_t> ring = MakeRing();
    const auto start = Clock::now();
    uint32_t at = 0;
    for (int step = 0; step < (1 << 16); ++step) at = ring[at];
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    sink_ = sink_ + at;
    return seconds;
  }

  // One random cycle through 8M slots, built in place (Sattolo's
  // algorithm), so the kernel holds 32 MiB and no more.
  static std::vector<uint32_t> MakeRing() {
    std::vector<uint32_t> ring(1 << 23);
    std::iota(ring.begin(), ring.end(), 0u);
    Rng rng(2);
    for (size_t i = ring.size() - 1; i > 0; --i) {
      std::swap(ring[i], ring[rng.Below(i)]);
    }
    return ring;
  }

  static inline volatile uint64_t sink_ = 0;
  std::vector<double> cache_, large_;
};

}  // namespace wdrbench

#endif  // WDRBENCH_SPEED_H_
