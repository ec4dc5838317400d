// The four benchmark workloads.  Each workload is a list of seeded
// scenarios; one scenario builds its stack from the cpe public entry points,
// runs it, verifies the outputs and distils one Rep.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sampler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile `q` of `v` (0 when empty).
[[nodiscard]] inline double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, k == 0 ? 0 : k - 1)];
}

/// Host-time bookkeeping for one scenario run.  Set-up time runs from
/// construction (or begin_setup()) to begin_run(), which a scenario calls
/// right before its first run_until/run_scenario; run time runs from there to
/// end_run(), once the result is distilled and audited.  A scenario that
/// builds several stacks in turn brackets each one; the times add up.  In a
/// traced run the sampler records only inside the run brackets.
class RepClock {
 public:
  explicit RepClock(StackSampler* sampler) : sampler_(sampler) {}

  void begin_setup() { mark_ = Clock::now(); }
  void begin_run() {
    setup_s += seconds_since(mark_);
    mark_ = Clock::now();
    if (sampler_ != nullptr) sampler_->resume();
  }
  void end_run() {
    if (sampler_ != nullptr) sampler_->pause();
    wall_s += seconds_since(mark_);
  }

  double setup_s = 0;
  double wall_s = 0;
  std::vector<double> slice_ms;  ///< host ms of each run_until slice
  double audit_s = 0;            ///< host s in TraceAuditor::audit

 private:
  StackSampler* sampler_;
  Clock::time_point mark_ = Clock::now();
};

/// What one scenario returns.  Everything here is a virtual-time output and
/// repeats exactly for a seed; host time lives in the RepClock.
struct Rep {
  std::uint64_t attempted = 0;  ///< operations: requests or jobs/migrations
  std::uint64_t failed = 0;
  std::vector<double> op_vs;    ///< virtual latency of each sampled operation
  std::vector<double> wait_vs;  ///< virtual queue wait of each sampled request
  /// Per-layer counts and sums; scenarios of one workload add up.
  std::map<std::string, double> layer;
  std::vector<std::string> problems;  ///< failed correctness checks
  std::uint64_t digest = 0;           ///< hash of the virtual-time outputs
  std::string summary;                ///< one human-readable line
};

/// A workload's scenarios pooled, with its derived per-layer values.
struct Pooled {
  Rep rep;
  std::string op_note;              ///< what op_vs holds: counts, censoring
  std::vector<std::string> absent;  ///< per-layer values not reachable here
};

struct Workload {
  std::string name;
  /// Scenarios in one cycle; each draws its inputs from its own seed.
  int scenarios = 1;
  Rep (*run)(std::uint64_t scenario_seed, RepClock& clock) = nullptr;
  /// Derive means and ratios from the pooled sums; note and absent list.
  void (*finish)(Pooled& pooled) = nullptr;
};

/// All workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<Workload>& workloads();

/// Seed of scenario `index` of a run with `seed`.
[[nodiscard]] std::uint64_t scenario_seed(std::uint64_t seed, int index);

/// Fold one scenario's result into `into`.
void merge(Rep& into, const Rep& part);

}  // namespace perfbench
