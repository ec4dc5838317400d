// Repo benchmark program: runs one workload for a fixed host-time budget and
// prints every metric by name and unit, ending with one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A workload is a list of scenarios, each with inputs drawn from a seed
// derived from --seed.  A run repeats the whole list (a cycle) until the
// budget is spent, and always completes at least two cycles.  Host-time
// metrics are medians over every scenario run, each divided by the time of a
// fixed piece of reference work done next to it (see reference_s()) and
// scaled to that work's nominal time; virtual-time metrics pool the first
// cycle's scenarios, and every later cycle must reproduce each
// scenario's digest exactly.  --trace 0 reports the end-to-end metrics.
// --trace 1 alternates untraced and stack-sampled cycles and reports the
// per-layer metrics: self-time shares from the samples, counts from the
// public accessors, and the sampling overhead.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sampler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool seen[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("missing value");
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      seen[0] = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      seen[1] = *val != '\0' && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      seen[2] = *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "1") == 0;
      seen[3] = a.trace || std::strcmp(val, "0") == 0;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!(seen[0] && seen[1] && seen[2] && seen[3])) usage("bad arguments");
  return a;
}

/// Nominal host time of one reference_s() call: about its time in the
/// fastest speed state of the 4-vCPU 2.1 GHz Xeon VM (GCC 12.2) the
/// benchmark was defined on, where it measured 4.6 to 9.4 ms.
constexpr double kReferenceS = 5e-3;

/// Host time of a fixed piece of reference work, timed right before and
/// right after every scenario run.  On a shared host the same work runs in
/// speed states up to about twice as slow as the fastest, and a state can
/// outlast a whole run, so a median over one run cannot average it out.  The work is
/// what the simulator does most: binary-heap pushes and pops, as an event
/// queue makes, and probes into a 4 MiB open-addressed table, as its maps
/// make; its time follows the speed state, and each scenario's host time is
/// divided by it.  It is the benchmark's own code, not src/'s, and it
/// allocates nothing while timed, so no change to src/ (its allocator
/// included) moves it.
double reference_s() {
  constexpr std::size_t kSlots = std::size_t{1} << 19;  // 4 MiB of keys
  static std::vector<std::uint64_t> table;
  static std::vector<std::uint64_t> heap;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Fibonacci hash to 19 bits, a slot of the table.
  auto slot = [](std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 45);
  };
  if (table.empty()) {
    table.assign(kSlots, 0);
    for (std::size_t i = 0; i < kSlots / 2; ++i) {
      const std::uint64_t key = next() | 1;
      std::size_t h = slot(key);
      while (table[h] != 0) h = (h + 1) & (kSlots - 1);
      table[h] = key;
    }
    heap.reserve(8192);
  }
  x = 0x2545f4914f6cdd1dull;
  heap.clear();
  const Clock::time_point t0 = Clock::now();
  std::uint64_t sum = 0;
  for (int i = 0; i < 60000; ++i) {
    heap.push_back(next() >> 20);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > 4096) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      sum += heap.back();
      heap.pop_back();
    }
    const std::uint64_t key = next() | 1;
    std::size_t h = slot(key);
    while (table[h] != 0 && table[h] != key) h = (h + 1) & (kSlots - 1);
    sum += h;
  }
  const double t = seconds_since(t0);
  static volatile std::uint64_t sink;
  sink = sum;
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Layers whose self-time share the traced run reports.  "other" is the
/// benchmark's own code plus stacks with no cpe frame.
const char* const kShareLayers[] = {"load", "gs",  "pvm",  "sim",  "obs",
                                    "net",  "os",  "mpvm", "svc",  "upvm",
                                    "adm",  "opt", "fault", "other"};

/// Per-layer counts in report order, with their units.
const std::pair<const char*, const char*> kLayerCounts[] = {
    {"load.rounds", "count"},
    {"load.gossip.sent", "count"},
    {"load.gossip.merged", "count"},
    {"load.merge_ratio", "ratio"},
    {"gs.decisions", "count"},
    {"gs.migration.attempts", "count"},
    {"gs.migration.admission_refused", "count"},
    {"gs.refusal_ratio", "ratio"},
    {"gs.load_cv", "ratio"},
    {"pvm.messages_routed", "count"},
    {"pvm.bytes_routed", "bytes"},
    {"sim.events", "count"},
    {"obs.spans", "count"},
    {"net.datagrams.sent", "count"},
    {"net.ether.frames", "count"},
    {"mpvm.migrations.completed", "count"},
    {"mpvm.migrations.failed", "count"},
    {"mpvm.completion_ratio", "ratio"},
    {"mpvm.freeze_mean_vs", "s"},
    {"mpvm.migration.bytes", "bytes"},
    {"svc.queue_wait_p99_vs", "s"},
    {"svc.late", "count"},
    {"upvm.migrations.completed", "count"},
    {"upvm.migration_vs", "s"},
    {"adm.repartitions", "count"},
    {"adm.consensus.rounds", "count"},
    {"mpvm.job_vs", "s"},
    {"upvm.job_vs", "s"},
    {"adm.job_vs", "s"},
    {"opt.job_vs", "s"},
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  // Room for every sample the run can take, plus slack for the last rep.
  const auto capacity = static_cast<std::size_t>(
      (args.seconds + 60.0) * 1e6 / StackSampler::kPeriodUs);
  std::unique_ptr<StackSampler> sampler;
  if (args.trace) sampler = std::make_unique<StackSampler>(capacity);

  std::printf("perfbench %s seed %llu, %.0f s budget, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  const Workload* wl = nullptr;
  for (const Workload& w : workloads())
    if (w.name == args.workload) wl = &w;
  if (wl == nullptr) usage(("unknown workload " + args.workload).c_str());

  Pooled pooled;
  std::vector<std::uint64_t> digests;
  std::vector<std::string> problems;
  // Host times of the untraced scenario runs, and of the sampled ones, with
  // the reference time measured next to each.
  std::vector<double> setup, wall, ref, traced_wall, traced_ref, audit,
      slices;
  const Clock::time_point start = Clock::now();
  double peak_rss_mb = 0;  // over the first cycle: every scenario once
  int cycles = 0;
  bool done = false;
  for (; !done; ++cycles) {
    const bool traced = args.trace && cycles % 2 == 1;
    for (int k = 0; k < wl->scenarios && !done; ++k) {
      const double ref_before = reference_s();
      RepClock clock(traced ? sampler.get() : nullptr);
      const std::uint64_t seed = scenario_seed(args.seed, k);
      Rep r;
      bool aborted = false;
      try {
        r = wl->run(seed, clock);
      } catch (const std::exception& e) {
        aborted = true;
        // A scenario the simulator aborts (a broken invariant, an engine
        // error) fails the run; the others still report.  Its digest is the
        // message, so the next cycle must abort the same way.
        r = Rep();
        r.problems.push_back("scenario seed " + std::to_string(seed) +
                             " aborted: " + e.what());
        r.digest = std::hash<std::string>{}(e.what());
        r.summary = "ABORTED";
      }
      const double rep_ref = (ref_before + reference_s()) / 2;
      std::printf("  cycle %d scenario %d%s: setup %.4f s, run %.4f s, "
                  "reference %.2f ms, %s\n",
                  cycles + 1, k + 1, traced ? " (sampled)" : "",
                  clock.setup_s, clock.wall_s, rep_ref * 1e3,
                  r.summary.c_str());
      if (aborted) {
        // No host time: the scenario did not reach a result.
      } else if (traced) {
        traced_wall.push_back(clock.wall_s);
        traced_ref.push_back(rep_ref);
      } else {
        setup.push_back(clock.setup_s);
        wall.push_back(clock.wall_s);
        ref.push_back(rep_ref);
        audit.push_back(clock.audit_s);
        slices.insert(slices.end(), clock.slice_ms.begin(),
                      clock.slice_ms.end());
      }
      const std::string where = "cycle " + std::to_string(cycles + 1) +
                                " scenario " + std::to_string(k + 1) + ": ";
      for (const std::string& p : r.problems) problems.push_back(where + p);
      if (cycles == 0) {
        if (!aborted) merge(pooled.rep, r);
        digests.push_back(r.digest);
      } else if (r.digest != digests[static_cast<std::size_t>(k)]) {
        problems.push_back(where + "virtual-time digest differs from cycle 1");
      }
      // Stop once two whole cycles are in (the run-twice check) and the
      // budget is spent; a third cycle may end part way.
      done = cycles >= 2 && seconds_since(start) >= args.seconds;
    }
    if (cycles == 0) {
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    done = done || (cycles == 1 && seconds_since(start) >= args.seconds);
  }
  wl->finish(pooled);

  // Correctness: every scenario's checks, and the run-twice digests.
  const Rep& first = pooled.rep;
  if (first.attempted == 0) problems.push_back("no operation attempted");
  std::printf("  operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed));
  std::printf("  latency sample: %s\n", pooled.op_note.c_str());
  std::printf("  %d scenario(s) x %d cycles, digests reproduced: %s\n",
              wl->scenarios, cycles,
              problems.empty() ? "all checks pass" : "CHECKS FAILED");
  for (const std::string& p : problems) std::printf("  FAIL %s\n", p.c_str());

  // Median of the host times `raw`, each over the reference time measured
  // next to it, in seconds at the reference work's nominal speed.
  auto scaled = [](const std::vector<double>& raw,
                   const std::vector<double>& refs) {
    std::vector<double> v;
    for (std::size_t i = 0; i < raw.size(); ++i)
      v.push_back(raw[i] / refs[i] * kReferenceS);
    return median(v);
  };
  std::printf("  host speed: reference work %.3f ms (median; nominal %.1f "
              "ms); unscaled medians: run %.4f s, setup %.6f s\n",
              median(ref) * 1e3, kReferenceS * 1e3, median(wall),
              median(setup));

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double attempted = static_cast<double>(first.attempted);
    metrics = {
        {"wall_s", scaled(wall, ref), "s"},
        {"setup_s", scaled(setup, ref), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ok_frac",
         attempted > 0 ? (attempted - static_cast<double>(first.failed)) /
                             attempted
                       : 0,
         "ratio"},
        {"op_p50_vs", nearest_rank(first.op_vs, 0.50), "s"},
        {"op_p99_vs", nearest_rank(first.op_vs, 0.99), "s"},
    };
  } else {
    const std::map<std::string, std::uint64_t> self = sampler->self_samples();
    double total = 0;
    for (const auto& [layer, n] : self) total += static_cast<double>(n);
    auto share = [&](const std::string& layer) {
      const auto it = self.find(layer);
      return it == self.end() || total == 0
                 ? 0.0
                 : static_cast<double>(it->second) / total;
    };
    for (const char* layer : kShareLayers) {
      double s = share(layer);
      if (std::strcmp(layer, "other") == 0) s += share("bench");
      metrics.push_back({std::string(layer) + ".self_share", s, "ratio"});
    }
    std::map<std::string, double> counts = first.layer;
    auto ratio = [&](const char* num, const char* den) {
      return counts[den] > 0 ? counts[num] / counts[den] : 0.0;
    };
    // Ratios of useful outcomes to attempts, each printed with its base.
    counts["mpvm.attempts"] =
        counts["mpvm.migrations.completed"] + counts["mpvm.migrations.failed"];
    counts["mpvm.completion_ratio"] =
        ratio("mpvm.migrations.completed", "mpvm.attempts");
    // An admission request is either refused or becomes a migration attempt.
    counts["gs.admission_requests"] =
        counts["gs.migration.admission_refused"] + counts["mpvm.attempts"];
    counts["gs.refusal_ratio"] =
        ratio("gs.migration.admission_refused", "gs.admission_requests");
    std::printf("  ratios: mpvm.completion_ratio = %.0f completed / %.0f "
                "attempted; gs.refusal_ratio = %.0f refused / %.0f admission "
                "requests; load.merge_ratio = %.0f merged / %.0f offered "
                "(datagrams x vector cap)\n",
                counts["mpvm.migrations.completed"], counts["mpvm.attempts"],
                counts["gs.migration.admission_refused"],
                counts["gs.admission_requests"], counts["load.gossip.merged"],
                counts["load.entries_offered"]);
    std::printf("  spans by module prefix:");
    for (const auto& [name, n] : counts)
      if (name.starts_with("obs.spans."))
        std::printf(" %s %.0f", name.c_str() + 10, n);
    std::printf("; load.stale_dropped %.0f\n", counts["load.stale_dropped"]);
    for (const auto& [name, unit] : kLayerCounts)
      metrics.push_back({name, counts[name], unit});
    const bool engine_visible =
        std::find(pooled.absent.begin(), pooled.absent.end(), "sim.events") ==
        pooled.absent.end();
    metrics.push_back(
        {"sim.events_per_s",
         engine_visible && median(wall) > 0
             ? counts["sim.events"] / counts["scenarios"] / median(wall)
             : 0,
         "1/s"});
    metrics.push_back(
        {"sim.slice_p99_ms", engine_visible ? nearest_rank(slices, 0.99) : 0,
         "ms"});
    metrics.push_back({"obs.audit_s", median(audit), "s"});
    metrics.push_back(
        {"trace.overhead",
         scaled(traced_wall, traced_ref) / scaled(wall, ref) - 1, "ratio"});
    metrics.push_back({"host.wall_unscaled_s", median(wall), "s"});
    metrics.push_back({"host.reference_ms", median(ref) * 1e3, "ms"});
    metrics.push_back(
        {"trace.samples", static_cast<double>(total), "count"});
    std::printf("  sampled %.0f stacks (%llu over capacity); self-time "
                "shares:",
                total, static_cast<unsigned long long>(sampler->overflowed()));
    for (const auto& [layer, n] : self)
      std::printf(" %s %.3f", layer.c_str(), static_cast<double>(n) / total);
    std::printf("\n");
    std::string absent;
    for (const std::string& a : pooled.absent) absent += " " + a;
    std::printf("  absent on this workload (reported as 0):%s\n",
                absent.c_str());
  }
  for (const Metric& m : metrics)
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  print_json(problems.empty(), first.attempted, first.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // glibc raises its mmap threshold as large blocks are freed, so without
  // fixed thresholds the cost of an allocation (and of a whole scenario's
  // set-up) depends on what the previous scenario left in the heap.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
