// Seeded open-loop arrival traces for serving benchmarks.
//
// Open-loop load generation (arrivals fire on a clock, independent of how
// fast the server drains them) is what exposes scheduling policy differences:
// a closed loop self-throttles and hides overload entirely. Two processes:
//
//   * Poisson: exponential inter-arrival gaps at a fixed rate — the classic
//     memoryless open-loop model.
//   * Bursty: a two-state Markov-modulated Poisson process. The trace
//     alternates between a calm phase at the base rate and a burst phase at
//     `burst_rate_multiplier` times the base rate, with exponentially
//     distributed phase lengths. Bursts are where deadline-aware scheduling
//     earns its keep; a plain Poisson trace at moderate load rarely queues
//     deep enough to matter.
//
// Everything is seeded (common/rng.h) so a trace — and therefore an entire
// serving benchmark run — is reproducible bit-for-bit.

#ifndef KTX_BENCH_ARRIVAL_TRACE_H_
#define KTX_BENCH_ARRIVAL_TRACE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace ktx {

struct ArrivalTraceOptions {
  double rate_rps = 10.0;   // mean arrival rate, requests per second
  double duration_s = 1.0;  // trace length; arrivals past it are dropped
  bool bursty = false;
  double burst_rate_multiplier = 4.0;  // burst-phase rate = multiplier * rate_rps
  double mean_phase_s = 0.25;          // mean length of each calm/burst phase
  std::uint64_t seed = 1;
};

// One exponential draw with the given rate (inverse-CDF of 1 - u).
inline double ExponentialGap(Rng& rng, double rate) {
  double u = rng.NextDouble();
  if (u > 1.0 - 1e-12) {
    u = 1.0 - 1e-12;  // clamp: -log(0) would be infinite
  }
  return -std::log(1.0 - u) / rate;
}

// Arrival timestamps in seconds, ascending, all < duration_s.
inline std::vector<double> GenerateArrivalTimes(const ArrivalTraceOptions& options) {
  std::vector<double> arrivals;
  if (options.rate_rps <= 0.0 || options.duration_s <= 0.0) {
    return arrivals;
  }
  Rng rng(options.seed);
  double now = 0.0;
  if (!options.bursty) {
    while (true) {
      now += ExponentialGap(rng, options.rate_rps);
      if (now >= options.duration_s) {
        return arrivals;
      }
      arrivals.push_back(now);
    }
  }
  // Markov-modulated: phase switches are drawn up front per phase; arrivals
  // inside a phase are Poisson at that phase's rate.
  bool burst = false;
  double phase_end = ExponentialGap(rng, 1.0 / options.mean_phase_s);
  while (now < options.duration_s) {
    const double rate =
        options.rate_rps * (burst ? options.burst_rate_multiplier : 1.0);
    const double next = now + ExponentialGap(rng, rate);
    if (next >= phase_end) {
      // No arrival before the phase flips: jump to the boundary and redraw
      // from the new phase's rate (memorylessness makes this exact).
      now = phase_end;
      burst = !burst;
      phase_end = now + ExponentialGap(rng, 1.0 / options.mean_phase_s);
      continue;
    }
    now = next;
    if (now >= options.duration_s) {
      break;
    }
    arrivals.push_back(now);
  }
  return arrivals;
}

}  // namespace ktx

#endif  // KTX_BENCH_ARRIVAL_TRACE_H_
