#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "apps/opt/adm_opt.hpp"
#include "apps/opt/opt_app.hpp"
#include "apps/opt/spmd_opt.hpp"
#include "calib/costs.hpp"
#include "gs/scheduler.hpp"
#include "load/exchange.hpp"
#include "mpvm/mpvm.hpp"
#include "net/network.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "os/host.hpp"
#include "os/owner.hpp"
#include "pvm/system.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "svc/scenario.hpp"
#include "upvm/upvm.hpp"

namespace perfbench {
namespace {

using namespace cpe;

/// FNV-1a over the virtual-time outputs: two repetitions with one seed must
/// produce the same value.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    byte(0);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Audit `auditor`'s spans, charging the host time to the clock.
std::size_t timed_audit(const obs::TraceAuditor& auditor, RepClock& clock,
                        std::string* report) {
  const Clock::time_point t0 = Clock::now();
  const std::vector<obs::AuditViolation> v = auditor.audit();
  clock.audit_s += seconds_since(t0);
  if (!v.empty() && report != nullptr)
    *report += obs::TraceAuditor::format(v);
  return v.size();
}

/// Advance `eng` to `until` in `step`-second virtual slices, timing each.
std::uint64_t run_sliced(sim::Engine& eng, sim::Time until, sim::Time step,
                         RepClock& clock) {
  std::uint64_t events = 0;
  for (sim::Time t = eng.now() + step; eng.now() < until; t += step) {
    const Clock::time_point t0 = Clock::now();
    events += eng.run_until(std::min(t, until));
    clock.slice_ms.push_back(seconds_since(t0) * 1e3);
  }
  return events;
}

void add_counter_deltas(Rep& rep, const obs::MetricsSnapshot& after,
                        const obs::MetricsSnapshot& before) {
  static const char* const kCounters[] = {
      "load.gossip.sent",         "load.gossip.merged",
      "gs.decisions",             "gs.migration.attempts",
      "gs.migration.admission_refused", "pvm.messages_routed",
      "pvm.bytes_routed",         "mpvm.migrations.completed",
      "mpvm.migrations.failed",   "upvm.migrations.completed",
      "upvm.migrations.aborted",  "adm.repartitions",
      "adm.consensus.rounds"};
  for (const char* name : kCounters)
    rep.layer[name] += static_cast<double>(after.delta(before, name));
}

void add_net_totals(Rep& rep, net::Network& net) {
  rep.layer["net.datagrams.sent"] +=
      static_cast<double>(net.datagrams().datagrams_sent());
  rep.layer["net.ether.frames"] +=
      static_cast<double>(net.ethernet().total_frames());
}

/// Span counts by module prefix ("svc" for "svc.request"), as
/// "obs.spans.<prefix>" layer keys.
template <class Spans>
void count_spans(Rep& rep, const Spans& spans) {
  for (const obs::SpanRecord& s : spans)
    rep.layer["obs.spans." + s.name.substr(0, s.name.find('.'))] += 1;
}

/// `num / den` from the pooled sums, 0 when the base is empty.
double ratio(const Rep& rep, const std::string& num, const std::string& den) {
  const auto n = rep.layer.find(num);
  const auto d = rep.layer.find(den);
  if (n == rep.layer.end() || d == rep.layer.end() || d->second <= 0) return 0;
  return n->second / d->second;
}

// ---------------------------------------------------------------------------
// gossip_fleet: the bench_load_scale shape under best_fit placement.
// ---------------------------------------------------------------------------

constexpr int kFleetHosts = 1024;
constexpr int kFleetTasks = 16384;
constexpr int kFleetChurn = 128;         ///< hosts gaining an owner per beat
constexpr sim::Time kFleetBeat = 10.0;   ///< owner-churn rotation period
constexpr sim::Time kFleetHorizon = 30.0;
constexpr sim::Time kFleetGrace = 20.0;  ///< in-flight migrations resolve
constexpr sim::Time kFleetSpawnBound = 120.0;  ///< spawning takes ~9.1 s

Rep gossip_fleet(std::uint64_t seed, RepClock& clock) {
  Rep rep;
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  sim::Engine eng;
  net::Network net(eng);
  std::vector<std::unique_ptr<os::Host>> hosts;
  hosts.reserve(kFleetHosts);
  for (int i = 0; i < kFleetHosts; ++i)
    hosts.push_back(std::make_unique<os::Host>(
        eng, net, os::HostConfig("h" + std::to_string(i), "HPPA", 1.0)));
  pvm::PvmSystem vm(eng, net);
  for (auto& h : hosts) vm.add_host(*h);
  mpvm::Mpvm mpvm(vm);

  gs::GsPolicy pol;
  pol.placement = load::PolicyKind::kBestFit;
  pol.poll_interval = 1.0;
  pol.min_residency = 5.0;
  pol.max_rebalance_actions = kFleetHosts / 4;
  pol.max_concurrent_migrations = 16;  // admission streams
  pol.load_threshold = 20.0;           // mean is 16: only hot hosts shed
  pol.placement_seed = rng.next_u64();
  gs::GlobalScheduler gs(vm, pol);
  gs.attach(mpvm);
  load::ExchangePolicy xp;
  xp.seed = rng.next_u64();
  load::LoadExchange exchange(vm, xp);
  gs.attach(exchange, *hosts[0]);

  vm.register_program("worker", [](pvm::Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 100'000;
    co_await t.compute(1000.0);  // outlives the run: placement matters
  });
  // 3:1 skew over a seeded half of the fleet: 24 tasks on each hot host, 8
  // on each cold one (16384 in total).
  std::vector<int> order(kFleetHosts);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng.below(i + 1)]);
  auto spawn_batch = [&vm, &hosts](int hi, int n) -> sim::Proc {
    co_await vm.spawn("worker", n, hosts[static_cast<std::size_t>(hi)]->name());
  };
  for (int k = 0; k < kFleetHosts; ++k)
    sim::spawn(eng, spawn_batch(order[static_cast<std::size_t>(k)],
                                k < kFleetHosts / 2 ? 24 : 8));

  // Set-up ends once every task runs: spawning is part of building the fleet.
  // (A spawn that never completes stops at the bound; the task-count check
  // below then fails the run.)
  while (vm.live_task_count() < static_cast<std::size_t>(kFleetTasks) &&
         eng.now() < kFleetSpawnBound)
    eng.run_until(eng.now() + 0.01);
  const sim::Time t0 = eng.now();

  // Owner churn: every beat a window of kFleetChurn hosts, starting at a
  // seeded offset, gains an owner with 6 local jobs; the previous window's
  // owners leave.
  const int churn0 = static_cast<int>(rng.below(kFleetHosts));
  for (int k = 1; k * kFleetBeat < kFleetHorizon; ++k) {
    eng.schedule_at(t0 + k * kFleetBeat, [&hosts, k, churn0] {
      for (int j = 0; j < kFleetChurn; ++j) {
        const int prev = (churn0 + (k - 1) * kFleetChurn + j) % kFleetHosts;
        const int cur = (churn0 + k * kFleetChurn + j) % kFleetHosts;
        hosts[static_cast<std::size_t>(prev)]->cpu().set_external_jobs(0);
        hosts[static_cast<std::size_t>(cur)]->cpu().set_external_jobs(6);
      }
    });
  }
  // Four times a second over the second half, each at a seeded offset into
  // its quarter (sensor and gossip ticks sit on a fixed grid, and sampling on
  // that grid would quantize the ages): the CV of the true runnable load, and
  // the age of every load entry the GS host's gossip view holds, which is the
  // staleness its placement decisions act on.
  double cv_sum = 0;
  int cv_samples = 0;
  for (sim::Time t = kFleetHorizon / 2; t < kFleetHorizon; t += 0.25) {
    const sim::Time at = t0 + t + 0.25 * rng.uniform();
    eng.schedule_at(at, [&eng, &exchange, &hosts, &rep, &cv_sum,
                         &cv_samples] {
      for (const load::LoadEntry& e : exchange.view(*hosts[0]))
        if (e.host != hosts[0]->name())
          rep.op_vs.push_back(eng.now() - e.stamp);
      double sum = 0, sq = 0;
      for (const auto& h : hosts) {
        const double l = h->cpu().load();
        sum += l;
        sq += l * l;
      }
      const double mean = sum / kFleetHosts;
      if (mean <= 0) return;
      const double var = sq / kFleetHosts - mean * mean;
      cv_sum += std::sqrt(var > 0 ? var : 0) / mean;
      ++cv_samples;
    });
  }
  exchange.start(t0 + kFleetHorizon);
  gs.start_monitoring(t0 + kFleetHorizon);
  const obs::MetricsSnapshot before = vm.metrics().snapshot();

  clock.begin_run();
  const std::uint64_t events =
      run_sliced(eng, t0 + kFleetHorizon + kFleetGrace, 1.0, clock);
  const obs::MetricsSnapshot after = vm.metrics().snapshot();
  std::string report;
  const std::size_t violations =
      timed_audit(obs::TraceAuditor(vm.spans()), clock, &report);
  clock.end_run();

  add_counter_deltas(rep, after, before);
  add_net_totals(rep, net);
  const double completed = rep.layer["mpvm.migrations.completed"];
  const double failed = rep.layer["mpvm.migrations.failed"];
  rep.attempted = static_cast<std::uint64_t>(completed + failed);
  rep.failed = static_cast<std::uint64_t>(failed);
  Digest d;
  double bytes = 0, freeze = 0;
  for (const mpvm::MigrationStats& m : mpvm.history()) {
    bytes += static_cast<double>(m.state_bytes);
    freeze += m.freeze_window();
    d.add(m.from_host);
    d.add(m.to_host);
    d.add(m.event_time);
    d.add(m.restart_done);
  }
  for (const gs::Decision& dec : gs.journal()) {
    d.add(dec.t);
    d.add(dec.what);
    d.add(static_cast<std::uint64_t>(dec.ok));
  }
  rep.layer["mpvm.migration.bytes"] = bytes;
  rep.layer["mpvm.freeze_sum_vs"] = freeze;
  rep.layer["load.rounds"] = static_cast<double>(exchange.rounds());
  rep.layer["load.stale_dropped"] =
      static_cast<double>(exchange.stale_dropped());
  // Each gossip datagram offers at most vector_cap entries; the offer is the
  // base the merges are counted against.
  rep.layer["load.entries_offered"] =
      rep.layer["load.gossip.sent"] * static_cast<double>(xp.vector_cap);
  rep.layer["load.entries_merged"] =
      static_cast<double>(exchange.entries_merged());
  rep.layer["gs.load_cv_sum"] = cv_samples > 0 ? cv_sum / cv_samples : 0;
  rep.layer["sim.events"] = static_cast<double>(events);
  rep.layer["obs.spans"] = static_cast<double>(vm.spans().size());
  count_spans(rep, vm.spans().spans());
  rep.layer["obs.audit_violations"] = static_cast<double>(violations);
  for (const auto& [name, value] : rep.layer) {
    d.add(name);
    d.add(value);
  }
  rep.digest = d.value();

  if (violations != 0)
    rep.problems.push_back("trace audit: " + std::to_string(violations) +
                           " violation(s)\n" + report);
  if (vm.live_task_count() != static_cast<std::size_t>(kFleetTasks))
    rep.problems.push_back("task registry lost tasks");
  if (mpvm.history().empty()) rep.problems.push_back("no migration completed");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "tasks running at t=%.2f, cv %.4f, %zu migrations (%.0f "
                "failed), %llu events",
                t0, rep.layer["gs.load_cv_sum"], mpvm.history().size(), failed,
                static_cast<unsigned long long>(events));
  rep.summary = buf;
  return rep;
}

void gossip_fleet_finish(Pooled& p) {
  Rep& r = p.rep;
  r.layer["load.merge_ratio"] =
      ratio(r, "load.entries_merged", "load.entries_offered");
  r.layer["gs.load_cv"] = ratio(r, "gs.load_cv_sum", "scenarios");
  r.layer["mpvm.freeze_mean_vs"] =
      ratio(r, "mpvm.freeze_sum_vs", "mpvm.migrations.completed");
  p.op_note = "age of " + std::to_string(r.op_vs.size()) +
              " load entries in the GS host's gossip view, sampled four "
              "times a virtual second over the second half of the run";
  p.absent = {"svc.queue_wait_p99_vs", "svc.late", "opt.job_vs",
              "mpvm.job_vs", "upvm.job_vs", "adm.job_vs", "upvm.migration_vs"};
}

// ---------------------------------------------------------------------------
// paper_reclaim: A1 — Opt (~9 MB, 3 slaves, 3 hosts) with one host reclaimed,
// under each GS mover.
// ---------------------------------------------------------------------------

constexpr int kReclaimJobs = 2;  ///< owner jobs on the reclaimed host
constexpr sim::Time kReclaimJobBound = 3000.0;

struct Worknet3 {
  sim::Engine eng;
  net::Network net{eng};
  os::Host host1{eng, net, os::HostConfig("host1", "HPPA", 1.0)};
  os::Host host2{eng, net, os::HostConfig("host2", "HPPA", 1.0)};
  os::Host host3{eng, net, os::HostConfig("host3", "HPPA", 1.0)};
  pvm::PvmSystem vm{eng, net};
  Worknet3() {
    vm.add_host(host1);
    vm.add_host(host2);
    vm.add_host(host3);
  }
};

opt::OptConfig opt_config(double data_mb) {
  opt::OptConfig cfg;
  cfg.data_bytes = static_cast<std::size_t>(data_mb * 1e6);
  cfg.nslaves = 3;
  cfg.iterations = calib::OptWorkload{}.iterations_large;
  cfg.real_math = false;
  cfg.master_host = "host1";
  cfg.slave_hosts = {"host1", "host2", "host3"};
  return cfg;
}

enum class Mover { kMpvm, kUpvm, kAdm };

const char* to_string(Mover m) {
  switch (m) {
    case Mover::kMpvm: return "mpvm";
    case Mover::kUpvm: return "upvm";
    case Mover::kAdm: return "adm";
  }
  return "?";
}

/// One Opt run with host2 reclaimed at `reclaim_at`; appends to `rep`.
/// Returns the job's virtual makespan.
double reclaim_arm(Mover mover, double data_mb, sim::Time reclaim_at, Rep& rep,
                   RepClock& clock, Digest& d) {
  Worknet3 w;
  const opt::OptConfig cfg = opt_config(data_mb);
  std::unique_ptr<mpvm::Mpvm> mpvm;
  std::unique_ptr<upvm::Upvm> upvm;
  std::unique_ptr<opt::PvmOpt> pvm_app;
  std::unique_ptr<opt::SpmdOpt> spmd_app;
  std::unique_ptr<opt::AdmOpt> adm_app;
  gs::GlobalScheduler sched(w.vm);
  opt::OptResult r;
  bool done = false;
  // The job lambdas live in this scope: a coroutine from a capturing lambda
  // must not outlive the lambda object.
  auto run_pvm = [&]() -> sim::Proc {
    r = co_await pvm_app->run();
    done = true;
  };
  auto run_spmd = [&]() -> sim::Proc {
    r = co_await spmd_app->run();
    upvm->shutdown();
    done = true;
  };
  auto run_adm = [&]() -> sim::Proc {
    r = co_await adm_app->run();
    done = true;
  };
  clock.begin_setup();
  switch (mover) {
    case Mover::kMpvm:
      mpvm = std::make_unique<mpvm::Mpvm>(w.vm);
      sched.attach(*mpvm);
      pvm_app = std::make_unique<opt::PvmOpt>(w.vm, cfg);
      sim::spawn(w.eng, run_pvm());
      break;
    case Mover::kUpvm:
      upvm = std::make_unique<upvm::Upvm>(w.vm);
      sched.attach(*upvm);
      sim::spawn(w.eng, upvm->start());
      w.eng.run();  // containers up before the SPMD program launches
      spmd_app = std::make_unique<opt::SpmdOpt>(*upvm, cfg);
      sim::spawn(w.eng, run_spmd());
      break;
    case Mover::kAdm: {
      opt::AdmOptConfig acfg;
      acfg.opt = cfg;
      adm_app = std::make_unique<opt::AdmOpt>(w.vm, acfg);
      sched.attach(*adm_app);
      sim::spawn(w.eng, run_adm());
      break;
    }
  }
  os::ScriptedOwner owner(
      w.eng, {os::OwnerEvent(reclaim_at, w.host2, os::OwnerAction::kReclaim,
                             kReclaimJobs)});
  owner.set_observer(
      [&sched](const os::OwnerEvent& ev) { sched.on_owner_event(ev); });
  owner.start();
  const obs::MetricsSnapshot before = w.vm.metrics().snapshot();

  clock.begin_run();
  std::uint64_t events = 0;
  // The job takes ~250 s of virtual time; the bound only stops a job that
  // never finishes (the iteration check below then fails the run).
  while (!done && w.eng.now() < kReclaimJobBound)
    events += run_sliced(w.eng, w.eng.now() + 10.0, 10.0, clock);
  if (done) events += w.eng.run();  // drain what the finished job left
  const obs::MetricsSnapshot after = w.vm.metrics().snapshot();
  std::string report;
  const std::size_t violations =
      timed_audit(obs::TraceAuditor(w.vm.spans()), clock, &report);
  clock.end_run();

  add_counter_deltas(rep, after, before);
  add_net_totals(rep, w.net);
  const std::string m = to_string(mover);
  std::uint64_t moves = 0;
  switch (mover) {
    case Mover::kMpvm:
      for (const mpvm::MigrationStats& s : mpvm->history()) {
        rep.layer["mpvm.migration.bytes"] += static_cast<double>(s.state_bytes);
        rep.layer["mpvm.freeze_sum_vs"] += s.freeze_window();
        d.add(s.migration_time());
        ++moves;
      }
      break;
    case Mover::kUpvm:
      for (const upvm::UlpMigrationStats& s : upvm->history()) {
        rep.layer["upvm.migration_sum_vs"] += s.migration_time();
        d.add(s.migration_time());
        ++moves;
      }
      break;
    case Mover::kAdm:
      for (const opt::AdmRedistStats& s : adm_app->redistributions()) {
        d.add(s.migration_time());
        ++moves;
      }
      // ADM exemplar conservation: no exemplar lost or duplicated.
      if (adm_app->final_data_checksum() != r.data_checksum)
        rep.problems.push_back("adm exemplar checksum not conserved (reclaim "
                               "at " + std::to_string(reclaim_at) + ")");
      break;
  }
  // The operation is the reclaimed job: it fails when its vacate moved
  // nothing or a move failed or aborted, and its latency is its makespan.
  const std::uint64_t failed =
      mover == Mover::kMpvm   ? after.delta(before, "mpvm.migrations.failed")
      : mover == Mover::kUpvm ? after.delta(before, "upvm.migrations.aborted")
                              : 0;
  rep.attempted += 1;
  if (moves == 0 || failed != 0) rep.failed += 1;
  rep.op_vs.push_back(r.runtime());
  if (!done || r.iterations_done != cfg.iterations)
    rep.problems.push_back(m + " arm: Opt did not finish its iterations");
  if (violations != 0)
    rep.problems.push_back(m + " arm: trace audit: " +
                           std::to_string(violations) + " violation(s)\n" +
                           report);
  rep.layer["sim.events"] += static_cast<double>(events);
  rep.layer["obs.spans"] += static_cast<double>(w.vm.spans().size());
  count_spans(rep, w.vm.spans().spans());
  rep.layer["obs.audit_violations"] += static_cast<double>(violations);
  d.add(r.runtime());
  d.add(r.net_checksum);
  d.add(r.data_checksum);
  for (const gs::Decision& dec : sched.journal()) {
    d.add(dec.t);
    d.add(dec.what);
  }
  return r.runtime();
}

Rep paper_reclaim(std::uint64_t seed, RepClock& clock) {
  Rep rep;
  // The paper's 9 MB training set and owner return at t=30 s, both jittered
  // by the seed so that makespans vary continuously between scenarios.
  sim::Rng rng(seed);
  const double data_mb = rng.uniform(8.5, 9.5);
  const sim::Time at = rng.uniform(20.0, 40.0);
  Digest d;
  double job[3] = {0, 0, 0};
  for (const Mover m : {Mover::kMpvm, Mover::kUpvm, Mover::kAdm})
    job[static_cast<int>(m)] = reclaim_arm(m, data_mb, at, rep, clock, d);
  rep.layer["mpvm.job_sum_vs"] = job[0];
  rep.layer["upvm.job_sum_vs"] = job[1];
  rep.layer["adm.job_sum_vs"] = job[2];
  for (const auto& [name, value] : rep.layer) {
    d.add(name);
    d.add(value);
  }
  rep.digest = d.value();
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%.2f MB, owner back at t=%.2f s; makespan mpvm %.1f s, "
                "upvm %.1f s, adm %.1f s", data_mb, at, job[0], job[1], job[2]);
  rep.summary = buf;
  return rep;
}

void paper_reclaim_finish(Pooled& p) {
  Rep& r = p.rep;
  r.layer["mpvm.job_vs"] = ratio(r, "mpvm.job_sum_vs", "scenarios");
  r.layer["upvm.job_vs"] = ratio(r, "upvm.job_sum_vs", "scenarios");
  r.layer["adm.job_vs"] = ratio(r, "adm.job_sum_vs", "scenarios");
  r.layer["opt.job_vs"] = (r.layer["mpvm.job_vs"] + r.layer["upvm.job_vs"] +
                           r.layer["adm.job_vs"]) / 3;
  r.layer["mpvm.freeze_mean_vs"] =
      ratio(r, "mpvm.freeze_sum_vs", "mpvm.migrations.completed");
  r.layer["upvm.migration_vs"] =
      ratio(r, "upvm.migration_sum_vs", "upvm.migrations.completed");
  p.op_note = "Opt makespan of " + std::to_string(r.op_vs.size()) +
              " reclaimed jobs (mpvm, upvm and adm arms of each scenario)";
  p.absent = {"svc.queue_wait_p99_vs", "svc.late", "gs.load_cv",
              "load.merge_ratio"};
}

// ---------------------------------------------------------------------------
// service_day / service_storm: open-loop request workloads via run_scenario.
// ---------------------------------------------------------------------------

svc::ScenarioRow day_row(std::uint64_t seed) {
  // bench_service_tail's day row, with the diurnal period compressed to the
  // run length so one run sees a whole trough-to-peak cycle.
  svc::ScenarioRow row;
  row.name = "service_day";
  row.hosts = 6;
  row.frontends = 1;
  row.workers = 8;
  row.arrival = svc::ArrivalKind::kDiurnal;
  row.rate = 13.0;
  row.amplitude = 0.6;
  row.horizon = 7200.0;
  row.period = row.horizon;
  row.route = svc::RouteKind::kLeastOutstanding;
  row.service_demand = 20e-3;
  row.timeout = 2.0;
  row.sample_every = 16;
  row.policy = load::PolicyKind::kBestFit;
  row.queue_weight = 0.25;
  row.load_threshold = 6.0;  // quiet cluster: only a genuine hot spot sheds
  row.poll_interval = 5.0;
  row.seed = seed;
  return row;
}

svc::ScenarioRow storm_row(std::uint64_t seed) {
  // bench_service_tail's storm row under best_fit + pre-copy, with the
  // owner-reclaim storm rotating to the next 2 hosts every storm period.
  svc::ScenarioRow row;
  row.name = "service_storm";
  row.hosts = 10;
  row.frontends = 2;
  row.workers = 16;
  row.arrival = svc::ArrivalKind::kPoisson;
  row.rate = 150.0;  // per shard: 300 req/s offered
  row.route = svc::RouteKind::kRoundRobin;
  row.service_demand = 20e-3;
  row.timeout = 10.0;
  // Dense tracing, one request in 5: a stride that shares a factor with the
  // 8 workers each shard deals to round-robin would trace only some workers
  // (every 4th request lands on 2 of the 8), and bias the exact percentiles.
  row.sample_every = 5;
  row.worker_image_bytes = 8 * 1024 * 1024;
  row.queue_weight = 0.05;
  row.load_threshold = 4.0;
  row.poll_interval = 1.0;
  row.min_residency = 8.0;
  row.policy = load::PolicyKind::kBestFit;
  row.precopy = true;
  row.fault = svc::FaultKind::kStorm;
  row.storm_hosts = 2;
  row.storm_jobs = 6;
  row.storm_period = 30.0;
  row.fault_start = 20.0;
  row.horizon = 120.0;
  row.seed = seed;
  return row;
}

Rep service(const svc::ScenarioRow& row, RepClock& clock) {
  Rep rep;
  // run_scenario builds and runs a stack in one call.  Its set-up cost is
  // measured as the same row with a horizon too short for any arrival,
  // gossip round or poll (median of three such calls), and subtracted from
  // the full call.
  svc::ScenarioRow probe = row;
  probe.horizon = 1e-3;
  std::vector<double> probes;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    (void)svc::run_scenario(probe);
    probes.push_back(seconds_since(t0));
  }
  std::sort(probes.begin(), probes.end());
  clock.begin_setup();
  clock.begin_run();
  std::vector<obs::SpanRecord> spans;
  const svc::ScenarioResult r = svc::run_scenario(row, &spans);
  const std::size_t violations =
      timed_audit(obs::TraceAuditor(spans), clock, nullptr);
  clock.end_run();
  clock.setup_s = probes[1];
  clock.wall_s -= clock.setup_s;

  // Exact latencies from the sampled request spans.  A completed request
  // counts its span; one the client timed out counts until its worker
  // finished serving it (the answer came that late), and one never served
  // is censored at the end of the trace.
  std::unordered_map<obs::SpanId, const obs::SpanRecord*> serve_of;
  std::uint64_t max_id = 0, mpvm_aborted = 0, timed_out = 0, censored = 0;
  sim::Time trace_end = 0;
  Digest d;
  for (const obs::SpanRecord& s : spans) {
    max_id = std::max(max_id, s.span_id);
    trace_end = std::max({trace_end, s.start, s.end});
    d.add(s.name);
    d.add(s.start);
    d.add(s.end);
    d.add(static_cast<std::uint64_t>(s.status));
    if (s.name == "svc.serve") {
      serve_of[s.parent_span] = &s;
      if (const std::string* q = s.attr("queue_wait_s"))
        rep.wait_vs.push_back(std::stod(*q));
    } else if (s.name == "mpvm.migrate" &&
               s.status == obs::SpanStatus::kAborted) {
      ++mpvm_aborted;
    }
  }
  for (const obs::SpanRecord& s : spans) {
    if (s.name != "svc.request") continue;
    if (s.status == obs::SpanStatus::kOk) {
      rep.op_vs.push_back(s.duration());
      continue;
    }
    ++timed_out;
    const auto it = serve_of.find(s.span_id);
    if (it != serve_of.end() && it->second->status == obs::SpanStatus::kOk) {
      rep.op_vs.push_back(it->second->end - s.start);
    } else {
      rep.op_vs.push_back(trace_end - s.start);
      ++censored;
    }
  }

  rep.attempted = r.issued;
  rep.failed = r.timeouts + r.rejected + r.pending;
  rep.layer["svc.late"] = static_cast<double>(r.late);
  rep.layer["svc.sampled_timed_out"] = static_cast<double>(timed_out);
  rep.layer["svc.sampled_censored"] = static_cast<double>(censored);
  rep.layer["svc.sample_every"] = static_cast<double>(row.sample_every);
  rep.layer["mpvm.migrations.completed"] = static_cast<double>(r.migrations);
  rep.layer["mpvm.migrations.failed"] = static_cast<double>(mpvm_aborted);
  rep.layer["mpvm.freeze_sum_vs"] =
      r.mean_freeze * static_cast<double>(r.migrations);
  rep.layer["obs.spans"] = static_cast<double>(r.spans);
  count_spans(rep, spans);
  rep.layer["obs.spans_evicted"] = static_cast<double>(max_id - spans.size());
  rep.layer["obs.audit_violations"] = static_cast<double>(r.audit_violations);
  d.add(r.issued);
  d.add(r.completed);
  d.add(r.timeouts);
  d.add(r.rejected);
  d.add(r.late);
  d.add(static_cast<std::uint64_t>(r.migrations));
  d.add(r.mean_freeze);
  rep.digest = d.value();

  if (!r.exactly_once)
    rep.problems.push_back(
        "request accounting is not exactly-once: issued " +
        std::to_string(r.issued) + ", completed " +
        std::to_string(r.completed) + ", timeouts " +
        std::to_string(r.timeouts) + ", rejected " +
        std::to_string(r.rejected) + ", pending " + std::to_string(r.pending));
  if (r.audit_violations != 0)
    rep.problems.push_back("trace audit: " +
                           std::to_string(r.audit_violations) +
                           " violation(s)\n" + r.audit_report);
  if (violations != r.audit_violations)
    rep.problems.push_back("re-audit of the exported spans disagrees");
  if (rep.op_vs.empty()) rep.problems.push_back("no sampled request");
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "%llu requests, %llu timeouts, %zu migrations, histogram "
                "svc.latency p50/p99 %.4f/%.4f s",
                static_cast<unsigned long long>(r.issued),
                static_cast<unsigned long long>(r.timeouts), r.migrations,
                r.latency_p50, r.latency_p99);
  rep.summary = buf;
  return rep;
}

void service_finish(Pooled& p) {
  Rep& r = p.rep;
  r.layer["svc.queue_wait_p99_vs"] = nearest_rank(r.wait_vs, 0.99);
  r.layer["mpvm.freeze_mean_vs"] =
      ratio(r, "mpvm.freeze_sum_vs", "mpvm.migrations.completed");
  auto count = [&r](const char* key) {
    return std::to_string(static_cast<std::uint64_t>(r.layer[key]));
  };
  p.op_note = "request latency from " + std::to_string(r.op_vs.size()) +
              " sampled svc.request spans (1 in " +
              std::to_string(static_cast<int>(
                  ratio(r, "svc.sample_every", "scenarios"))) +
              "; " +
              count("svc.sampled_timed_out") +
              " timed out and counted to their serve-leg end, " +
              count("svc.sampled_censored") +
              " never served and censored at the trace end, " +
              count("obs.spans_evicted") + " spans ring-evicted)";
  // run_scenario owns the engine, registry, exchange and network: these
  // values are out of the benchmark's reach on this workload.
  p.absent = {"load.rounds", "load.gossip.sent", "load.gossip.merged",
              "load.merge_ratio", "gs.load_cv", "gs.decisions",
              "gs.migration.attempts", "gs.migration.admission_refused",
              "gs.refusal_ratio", "pvm.messages_routed", "pvm.bytes_routed",
              "sim.events", "sim.events_per_s", "sim.slice_p99_ms",
              "net.datagrams.sent", "net.ether.frames",
              "mpvm.migration.bytes", "opt.job_vs", "mpvm.job_vs",
              "upvm.job_vs", "adm.job_vs", "upvm.migration_vs"};
}

Rep service_day(std::uint64_t seed, RepClock& clock) {
  return service(day_row(seed), clock);
}
Rep service_storm(std::uint64_t seed, RepClock& clock) {
  return service(storm_row(seed), clock);
}

}  // namespace

std::uint64_t scenario_seed(std::uint64_t seed, int index) {
  // splitmix64 of (seed, index): neighbouring seeds share no scenario.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(index) * 0xbf58476d1ce4e5b9ull +
                    0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void merge(Rep& into, const Rep& part) {
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.op_vs.insert(into.op_vs.end(), part.op_vs.begin(), part.op_vs.end());
  into.wait_vs.insert(into.wait_vs.end(), part.wait_vs.begin(),
                      part.wait_vs.end());
  for (const auto& [name, value] : part.layer) into.layer[name] += value;
  into.layer["scenarios"] += 1;
  into.problems.insert(into.problems.end(), part.problems.begin(),
                       part.problems.end());
}

const std::vector<Workload>& workloads() {
  // Scenarios per cycle: enough seeded scenarios that the pooled virtual
  // metrics move little from one --seed to the next (the storm's outcome
  // swings with its seed, since the order of migrations cascades), each
  // short enough that a run holds many of them for the host-time median.
  static const std::vector<Workload> all = {
      {"gossip_fleet", 1, gossip_fleet, gossip_fleet_finish},
      {"service_day", 1, service_day, service_finish},
      {"service_storm", 16, service_storm, service_finish},
      {"paper_reclaim", 8, paper_reclaim, paper_reclaim_finish},
  };
  return all;
}

}  // namespace perfbench
