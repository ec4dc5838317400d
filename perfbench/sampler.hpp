// Host-time attribution by stack sampling.
//
// A SIGPROF profiling timer interrupts the benchmark process every
// kPeriodUs of CPU time; the handler copies the interrupted stack into a
// buffer allocated up front (no allocation in the handler).  Afterwards each
// sample is charged, as self time, to the innermost frame that belongs to a
// `cpe::<module>` function.  Frames are named from the executable's full
// static symbol table (`nm -C`), which includes the local-linkage lambdas
// and coroutine actor/destroy clones that a dynamic-symbol lookup misses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class StackSampler {
 public:
  static constexpr long kPeriodUs = 1000;
  static constexpr int kDepth = 64;

  /// Reserve room for `max_samples` stacks and install the SIGPROF handler.
  /// Only one sampler may exist at a time.
  explicit StackSampler(std::size_t max_samples);
  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;
  ~StackSampler();

  /// Record stacks between resume() and pause(); the timer runs throughout.
  void resume() noexcept;
  void pause() noexcept;

  /// Samples that arrived while the buffer was full.
  [[nodiscard]] std::uint64_t overflowed() const noexcept;

  /// Samples charged to each layer.  Layers are the cpe module names
  /// ("sim", "pvm", ...); "bench" is the benchmark's own code and "other"
  /// a stack with no cpe or benchmark frame.  Runs `nm` once.
  [[nodiscard]] std::map<std::string, std::uint64_t> self_samples() const;
};

/// Layer of one demangled function name: the cpe module that owns the code
/// ("gs" for a lambda defined in a gs function, even when a sim template
/// thunk invokes it), "bench" for the benchmark's own namespace, or "" for
/// frames that are transparent to attribution (std::, libc, cpe::util).
[[nodiscard]] std::string layer_of(const std::string& demangled);

}  // namespace perfbench
