#include "gs/scheduler.hpp"

#include <algorithm>
#include <iterator>

namespace cpe::gs {

void GlobalScheduler::note(std::string what, bool ok, DecisionReason reason,
                           double load) {
  vm_->metrics().counter(ok ? "gs.decisions" : "gs.decisions.failed").inc();
  vm_->metrics()
      .counter(std::string("gs.decisions.reason.") + to_string(reason))
      .inc();
  vm_->trace().log("gs", what + (ok ? "" : " (failed)"));
  journal_.emplace_back(vm_->engine().now(), std::move(what), ok, reason,
                        load);
  if (replication_hook_) replication_hook_();
}

void GlobalScheduler::open_vacate(const std::string& host_name) {
  ++vacate_open_[host_name];
  if (replication_hook_) replication_hook_();
}

void GlobalScheduler::close_vacate(const std::string& host_name) {
  auto it = vacate_open_.find(host_name);
  if (it == vacate_open_.end()) return;
  if (--it->second <= 0) vacate_open_.erase(it);
  if (replication_hook_) replication_hook_();
}

void GlobalScheduler::on_owner_event(const os::OwnerEvent& ev) {
  CPE_EXPECTS(ev.host != nullptr);
  if (!active_) return;  // followers observe, only the leader acts
  switch (ev.action) {
    case os::OwnerAction::kReclaim:
      if (policy_.vacate_on_reclaim) {
        note("owner reclaimed " + ev.host->name() + ": vacating", true,
             DecisionReason::kReclaim, ev.host->cpu().load());
        vacate(*ev.host);
      }
      break;
    case os::OwnerAction::kArrive:
      if (policy_.vacate_on_arrival) {
        note("owner arrived on " + ev.host->name() + ": vacating", true,
             DecisionReason::kReclaim, ev.host->cpu().load());
        vacate(*ev.host);
      }
      break;
    case os::OwnerAction::kDepart:
      if (adm_ != nullptr && policy_.rejoin_on_depart)
        vacate_adm(*ev.host, /*withdraw=*/false);
      break;
  }
}

os::Host* GlobalScheduler::pick_destination(const os::Host& from) const {
  const std::vector<os::Host*> ranked = ranked_destinations(from);
  return ranked.empty() ? nullptr : ranked.front();
}

std::vector<os::Host*> GlobalScheduler::ranked_destinations(
    const os::Host& from) const {
  std::vector<os::Host*> out;
  for (const auto& d : vm_->daemons()) {
    os::Host& h = d->host();
    if (&h == &from) continue;
    if (!h.up() || is_blacklisted(h)) continue;
    if (!from.migration_compatible_with(h)) continue;
    out.push_back(&h);
  }
  // Stable sort on the legacy destination rank so ties keep daemon order —
  // pick_destination() (the front of this list) stays decision-identical
  // to the old first-minimum scan.
  std::stable_sort(out.begin(), out.end(), [](os::Host* a, os::Host* b) {
    return a->cpu().load() + a->cpu().external_jobs() <
           b->cpu().load() + b->cpu().external_jobs();
  });
  return out;
}

std::uint64_t GlobalScheduler::admit_migration(std::int64_t unit,
                                               const std::string& from,
                                               const std::string& to) {
  const std::uint64_t ticket =
      admission_.admit(unit, from, to, vm_->engine().now());
  if (ticket != 0 && replication_hook_) replication_hook_();
  return ticket;
}

void GlobalScheduler::release_migration(std::uint64_t ticket) {
  admission_.release(ticket);
  if (replication_hook_) replication_hook_();
}

bool GlobalScheduler::is_blacklisted(const os::Host& host) const {
  const auto it = blacklist_until_.find(&host);
  return it != blacklist_until_.end() && it->second > vm_->engine().now();
}

void GlobalScheduler::blacklist(os::Host& host) {
  blacklist_until_[&host] = vm_->engine().now() + policy_.blacklist_duration;
  // Surface the transport's view of the destination alongside the decision:
  // drops and exhausted sends say the link is *lossy*; duplicates and
  // corruption say it is *adversarial* — different reasons to shun a host,
  // distinguishable straight from the journal.
  const auto& dg = vm_->network().datagrams();
  note("blacklisting " + host.name() + " for " +
           std::to_string(policy_.blacklist_duration) + " s (drops=" +
           std::to_string(dg.drops_to(host.node())) + ", delivery_errors=" +
           std::to_string(dg.delivery_errors_to(host.node())) +
           ", duplicates=" + std::to_string(dg.duplicates_to(host.node())) +
           ", corrupt=" + std::to_string(dg.corrupt_to(host.node())) + ")",
       true);
}

void GlobalScheduler::vacate(os::Host& host) {
  if (mpvm_ != nullptr) vacate_mpvm(host);
  if (upvm_ != nullptr) vacate_upvm(host);
  if (adm_ != nullptr) vacate_adm(host, /*withdraw=*/true);
}

void GlobalScheduler::vacate_mpvm(os::Host& host) {
  for (pvm::Task* t : vm_->all_tasks()) {
    if (t->exited() || &t->pvmd().host() != &host) continue;
    const std::int32_t raw = t->tid().raw();
    // A checkpoint recovery of the same task owns it until it resolves.
    if (recovering_.contains(raw)) continue;
    if (!vacating_.insert(raw).second) continue;
    open_vacate(host.name());
    // One recovery driver per task: pick a destination, migrate, and on a
    // run-time failure (crashed destination, timeout) blacklist the
    // destination and retry against the next-best host with exponential
    // backoff.  Every attempt, failure, and retry lands in the journal.
    // After a failover the new leader re-issues the vacate: the driver
    // rides out a predecessor's still-in-flight migration instead of
    // starting a second one, and stands down the moment its core is
    // deposed.
    auto driver = [](GlobalScheduler* self, mpvm::Mpvm* m, pvm::Tid victim,
                     std::string host_name) -> sim::Co<void> {
      sim::Engine& eng = self->vm_->engine();
      // One trace per vacate decision: every migration attempt (and its
      // freeze/flush/transfer/restart stages) is a child of this root.
      obs::SpanTracer& sp = self->vm_->spans();
      const obs::SpanId root =
          sp.begin_span({}, "gs.vacate", "gs", victim.raw());
      sp.annotate(root, "task", victim.str());
      sp.annotate(root, "host", host_name);
      obs::SpanStatus outcome = obs::SpanStatus::kOk;
      sim::ScopeExit done([self, victim, host_name, &sp, root, &outcome] {
        sp.end_span(root, outcome);
        self->vacating_.erase(victim.raw());
        self->close_vacate(host_name);
      });
      sim::Time backoff = self->policy_.retry_backoff;
      for (int attempt = 1;; ++attempt) {
        if (!self->active_) co_return;
        while (m->migrating(victim)) {
          co_await sim::Delay(eng, 0.2);
          if (!self->active_) co_return;
        }
        pvm::Task* task = self->vm_->find_logical(victim);
        if (task == nullptr || task->exited()) co_return;
        os::Host& src = task->pvmd().host();
        if (src.name() != host_name) co_return;  // already off the host
        // Claim the first ranked destination whose (src, dst) stream lane
        // the admission controller has free: k concurrent drain drivers
        // fan out over k distinct destinations instead of herding onto the
        // momentarily least-loaded one.  When the whole budget is taken,
        // wait briefly and revalidate — the task may have moved or exited
        // while this driver queued.
        os::Host* to = nullptr;
        std::uint64_t ticket = 0;
        for (;;) {
          const std::vector<os::Host*> ranked =
              self->ranked_destinations(src);
          if (ranked.empty()) {
            self->note("vacate " + victim.str() + " from " + src.name() +
                           ": no compatible live destination",
                       false, DecisionReason::kReclaim, src.cpu().load());
            outcome = obs::SpanStatus::kAborted;
            co_return;
          }
          for (os::Host* cand : ranked) {
            ticket = self->admit_migration(unit_of(victim), src.name(),
                                           cand->name());
            if (ticket != 0) {
              to = cand;
              break;
            }
          }
          if (to != nullptr) break;
          self->vm_->metrics().counter("gs.migration.admission_waits").inc();
          co_await sim::Delay(eng, 0.3);
          if (!self->active_) co_return;
          task = self->vm_->find_logical(victim);
          if (task == nullptr || task->exited()) co_return;
          if (task->pvmd().host().name() != host_name) co_return;
        }
        self->note("migrate " + victim.str() + " (" + task->program() +
                       ") " + src.name() + " -> " + to->name(),
                   true, DecisionReason::kReclaim, src.cpu().load());
        std::string abandoned;
        mpvm::MigrationStats st;
        self->vm_->metrics().counter("gs.migration.attempts").inc();
        try {
          st = co_await m->migrate(victim, *to, self->stamp(),
                                   sp.context_of(root));
        } catch (const mpvm::MigrationError& e) {
          abandoned = e.what();
        }
        self->release_migration(ticket);
        if (!abandoned.empty()) {
          self->note("migration abandoned: " + abandoned, false,
                     DecisionReason::kReclaim);
          outcome = obs::SpanStatus::kAborted;
          co_return;
        }
        if (st.ok) {
          // A vacate move restarts the unit's residency window without
          // counting against the thrash gate (the policy mandated it).
          self->engine_.touch(unit_of(victim), eng.now());
          co_return;
        }
        self->note("migration of " + victim.str() + " to " + to->name() +
                       " failed: " + st.failure,
                   false, DecisionReason::kReclaim);
        self->blacklist(*to);
        if (attempt >= self->policy_.max_migration_retries) {
          self->note("giving up on vacating " + victim.str() + " after " +
                         std::to_string(attempt) + " attempts",
                     false, DecisionReason::kReclaim);
          outcome = obs::SpanStatus::kAborted;
          co_return;
        }
        self->vm_->metrics().counter("gs.migration.retries").inc();
        self->note("retrying " + victim.str() + " in " +
                       std::to_string(backoff) + " s",
                   true, DecisionReason::kReclaim);
        co_await sim::Delay(eng, backoff);
        backoff = self->policy_.next_backoff(backoff);
      }
    };
    sim::spawn(vm_->engine(), driver(this, mpvm_, t->tid(), host.name()));
  }
}

void GlobalScheduler::vacate_upvm(os::Host& host) {
  for (int i = 0; i < upvm_->nulps(); ++i) {
    upvm::Ulp* u = upvm_->ulp(i);
    if (u == nullptr || u->done() || &u->host() != &host) continue;
    if (!vacating_ulps_.insert(i).second) continue;
    open_vacate(host.name());
    auto driver = [](GlobalScheduler* self, upvm::Upvm* up, int inst,
                     std::string host_name) -> sim::Co<void> {
      sim::Engine& eng = self->vm_->engine();
      obs::SpanTracer& sp = self->vm_->spans();
      const obs::SpanId root = sp.begin_span({}, "gs.vacate", "gs", inst);
      sp.annotate(root, "ulp", std::to_string(inst));
      sp.annotate(root, "host", host_name);
      obs::SpanStatus outcome = obs::SpanStatus::kOk;
      sim::ScopeExit done([self, inst, host_name, &sp, root, &outcome] {
        sp.end_span(root, outcome);
        self->vacating_ulps_.erase(inst);
        self->close_vacate(host_name);
      });
      sim::Time backoff = self->policy_.retry_backoff;
      for (int attempt = 1;; ++attempt) {
        if (!self->active_) co_return;
        while (up->migrating(inst)) {
          co_await sim::Delay(eng, 0.2);
          if (!self->active_) co_return;
        }
        upvm::Ulp* ulp = up->ulp(inst);
        if (ulp == nullptr || ulp->done()) co_return;
        os::Host& src = ulp->host();
        if (src.name() != host_name) co_return;  // already off the host
        os::Host* to = self->pick_destination(src);
        if (to == nullptr) {
          self->note("vacate ULP" + std::to_string(inst) + " from " +
                         src.name() + ": no compatible live destination",
                     false, DecisionReason::kReclaim, src.cpu().load());
          outcome = obs::SpanStatus::kAborted;
          co_return;
        }
        self->note("migrate ULP" + std::to_string(inst) + " " + src.name() +
                       " -> " + to->name(),
                   true, DecisionReason::kReclaim, src.cpu().load());
        std::string abandoned;
        upvm::UlpMigrationStats st;
        self->vm_->metrics().counter("gs.migration.attempts").inc();
        try {
          st = co_await up->migrate_ulp(inst, *to, self->stamp(),
                                        sp.context_of(root));
        } catch (const Error& e) {
          abandoned = e.what();
        }
        if (!abandoned.empty()) {
          self->note("ULP migration abandoned: " + abandoned, false,
                     DecisionReason::kReclaim);
          outcome = obs::SpanStatus::kAborted;
          co_return;
        }
        if (st.ok) {
          self->engine_.touch(unit_of_ulp(inst), eng.now());
          co_return;
        }
        self->note("migration of ULP" + std::to_string(inst) + " to " +
                       to->name() + " failed: " + st.failure,
                   false, DecisionReason::kReclaim);
        self->blacklist(*to);
        if (attempt >= self->policy_.max_migration_retries) {
          self->note("giving up on vacating ULP" + std::to_string(inst) +
                         " after " + std::to_string(attempt) + " attempts",
                     false, DecisionReason::kReclaim);
          outcome = obs::SpanStatus::kAborted;
          co_return;
        }
        self->vm_->metrics().counter("gs.migration.retries").inc();
        self->note("retrying ULP" + std::to_string(inst) + " in " +
                       std::to_string(backoff) + " s",
                   true, DecisionReason::kReclaim);
        co_await sim::Delay(eng, backoff);
        backoff = self->policy_.next_backoff(backoff);
      }
    };
    sim::spawn(vm_->engine(), driver(this, upvm_, i, host.name()));
  }
}

void GlobalScheduler::vacate_adm(os::Host& host, bool withdraw) {
  // Find ADM slaves living on this host and post withdraw/rejoin events.
  for (int s = 0; s < adm_->slaves_spawned(); ++s) {
    pvm::Task* t = vm_->find_logical(adm_->slave_tid(s));
    if (t == nullptr || t->exited() || &t->pvmd().host() != &host) continue;
    obs::SpanTracer& sp = vm_->spans();
    const obs::SpanId root = sp.begin_span({}, "gs.vacate", "gs", s);
    sp.annotate(root, "slave", std::to_string(s));
    sp.annotate(root, "host", host.name());
    const bool posted = adm_->post_event(
        s,
        withdraw ? adm::AdmEventKind::kWithdraw : adm::AdmEventKind::kRejoin,
        stamp(), sp.context_of(root));
    sp.end_span(root,
                posted ? obs::SpanStatus::kOk : obs::SpanStatus::kFenced);
    note(std::string(withdraw ? "withdraw" : "rejoin") + " ADM slave " +
             std::to_string(s) + " on " + host.name() +
             (posted ? "" : ": fenced (stale epoch)"),
         posted, DecisionReason::kReclaim, host.cpu().load());
  }
}

void GlobalScheduler::start_monitoring(sim::Time until) {
  auto loop = [](GlobalScheduler* self, sim::Time horizon) -> sim::Co<void> {
    sim::Engine& eng = self->vm_->engine();
    while (eng.now() < horizon) {
      co_await sim::Delay(eng, self->policy_.poll_interval);
      self->monitor_tick();
    }
  };
  monitor_ = sim::launch(vm_->engine(), loop(this, until));
}

void GlobalScheduler::start_heartbeat(sim::Time until) {
  for (const auto& d : vm_->daemons())
    host_up_.try_emplace(&d->host(), d->host().up());
  auto loop = [](GlobalScheduler* self, sim::Time horizon) -> sim::Co<void> {
    sim::Engine& eng = self->vm_->engine();
    while (eng.now() < horizon) {
      co_await sim::Delay(eng, self->policy_.heartbeat_interval);
      self->heartbeat_tick();
    }
  };
  heartbeat_ = sim::launch(vm_->engine(), loop(this, until));
}

void GlobalScheduler::tick() {
  if (!active_) return;
  heartbeat_tick();
  monitor_tick();
}

GsDurableState GlobalScheduler::export_state(std::size_t journal_from) const {
  GsDurableState s;
  s.epoch = epoch_;
  s.journal_base = std::min(journal_from, journal_.size());
  s.journal.assign(journal_.begin() + static_cast<std::ptrdiff_t>(s.journal_base),
                   journal_.end());
  for (const auto& [h, until] : blacklist_until_)
    s.blacklist.emplace_back(h->name(), until);
  for (const auto& [h, up] : host_up_) s.host_up.emplace_back(h->name(), up);
  s.reported_lost.assign(reported_lost_.begin(), reported_lost_.end());
  std::unordered_set<std::string> pending(resume_pending_.begin(),
                                          resume_pending_.end());
  for (const auto& [name, n] : vacate_open_)
    if (n > 0) pending.insert(name);
  s.pending_vacates.assign(pending.begin(), pending.end());
  s.in_flight_migrations = admission_.in_flight();
  return s;
}

void GlobalScheduler::import_state(const GsDurableState& s) {
  if (s.epoch > epoch_) epoch_ = s.epoch;
  // The leader's journal is authoritative from journal_base on.  A base
  // beyond our length is a gap (a lost earlier heartbeat): skip the journal
  // this round — our next ack reports our real length and the leader
  // resends from there.
  if (s.journal_base <= journal_.size()) {
    journal_.resize(s.journal_base);
    journal_.insert(journal_.end(), s.journal.begin(), s.journal.end());
  }
  blacklist_until_.clear();
  host_up_.clear();
  for (const auto& d : vm_->daemons()) {
    os::Host& h = d->host();
    for (const auto& [name, until] : s.blacklist)
      if (name == h.name()) blacklist_until_[&h] = until;
    for (const auto& [name, up] : s.host_up)
      if (name == h.name()) host_up_[&h] = up;
  }
  reported_lost_.clear();
  reported_lost_.insert(s.reported_lost.begin(), s.reported_lost.end());
  resume_pending_.assign(s.pending_vacates.begin(), s.pending_vacates.end());
  // The predecessor's in-flight streams count against our budget as
  // *adopted* entries until the migration layer shows them resolved —
  // a successor cannot over-admit during the handover window.
  admission_.import_adopted(s.in_flight_migrations, vm_->engine().now());
}

void GlobalScheduler::resume_after_failover() {
  const std::vector<std::string> pending = std::move(resume_pending_);
  resume_pending_.clear();
  for (const std::string& name : pending) {
    for (const auto& d : vm_->daemons()) {
      if (d->host().name() != name) continue;
      note("failover: resuming vacate of " + name, true);
      vacate(d->host());
      break;
    }
  }
  // The replicated liveness baseline vs reality: hosts that died during the
  // leaderless window are detected (and their fallout handled) right now
  // rather than a heartbeat later.
  heartbeat_tick();
}

void GlobalScheduler::heartbeat_tick() {
  if (!active_) return;
  for (const auto& d : vm_->daemons()) {
    os::Host& h = d->host();
    const bool now_up = h.up();
    auto [it, first_seen] = host_up_.try_emplace(&h, now_up);
    if (first_seen || it->second == now_up) continue;
    it->second = now_up;
    if (now_up) {
      note("heartbeat: host " + h.name() + " recovered", true);
    } else {
      note("heartbeat: host " + h.name() + " is down", false);
      handle_host_down(h);
    }
  }
  watchdog_tick();
}

void GlobalScheduler::watchdog_tick() {
  const sim::Time now = vm_->engine().now();
  // Adopted entries belong to a deposed leader's streams: drop each as soon
  // as the migration layer no longer shows its unit in flight.  Non-task
  // units (ULP/ADM ranges) cannot be queried and their streams are short,
  // so they are reaped outright.
  admission_.reap_adopted([this](std::int64_t unit) {
    if (mpvm_ == nullptr || unit >= (std::int64_t{1} << 40)) return false;
    return mpvm_->migrating(pvm::Tid(static_cast<std::int32_t>(unit)));
  });
  if (mpvm_ == nullptr) return;
  for (const load::AdmissionController::InFlight& f :
       admission_.stalled(now, policy_.migration_watchdog)) {
    if (f.unit >= (std::int64_t{1} << 40)) continue;  // only MPVM streams
    const pvm::Tid victim(static_cast<std::int32_t>(f.unit));
    if (!mpvm_->request_abort(victim, "gs watchdog: in flight " +
                                          std::to_string(now - f.since) +
                                          " s"))
      continue;
    vm_->metrics().counter("gs.migration.watchdog_aborts").inc();
    note("watchdog: aborting stalled migration of " + victim.str() + " (" +
             f.from + " -> " + f.to + ", in flight " +
             std::to_string(now - f.since) + " s)",
         false);
  }
}

void GlobalScheduler::handle_host_down(os::Host& host) {
  for (pvm::Task* t : vm_->all_tasks()) {
    if (&t->pvmd().host() != &host) continue;
    const std::int32_t raw = t->tid().raw();
    if (t->exited()) {
      // Died in the crash with no checkpoint to fall back on: the work is
      // gone, and the journal is where that loss is recorded.
      if (reported_lost_.insert(raw).second)
        note("task " + t->tid().str() + " (" + t->program() +
                 ") lost in crash of " + host.name() + "; work is lost",
             false);
      continue;
    }
    // Stranded but crash-recoverable: restart from the last checkpoint.
    if (ckpt_ == nullptr || !ckpt_->watches(t->tid())) continue;
    if (!recovering_.insert(raw).second) continue;
    auto driver = [](GlobalScheduler* self, pvm::Tid victim,
                     os::Host* from) -> sim::Co<void> {
      sim::Engine& eng = self->vm_->engine();
      obs::SpanTracer& sp = self->vm_->spans();
      const obs::SpanId root =
          sp.begin_span({}, "gs.recover", "gs", victim.raw());
      sp.annotate(root, "task", victim.str());
      sp.annotate(root, "host", from->name());
      obs::SpanStatus outcome = obs::SpanStatus::kOk;
      sim::ScopeExit clear([self, victim, &sp, root, &outcome] {
        sp.end_span(root, outcome);
        self->recovering_.erase(victim.raw());
      });
      // A vacate migration of the victim may still be in flight (it will
      // roll back against the dead source), or a predecessor leader's
      // recovery may still be running; let either resolve first so the two
      // paths can never resurrect the task twice.
      while ((self->mpvm_ != nullptr && self->mpvm_->migrating(victim)) ||
             self->ckpt_->recovering(victim)) {
        co_await sim::Delay(eng, 0.2);
        if (!self->active_) co_return;
      }
      // Deposed (or never became leader): the recovery belongs to whoever
      // holds the current term now.  Without this check a deposed core with
      // no migration in flight would fall straight through to recover().
      if (!self->active_) co_return;
      pvm::Task* task = self->vm_->find_logical(victim);
      if (task == nullptr || task->exited()) co_return;
      // The in-flight migration relocated it after all: nothing to recover.
      if (&task->pvmd().host() != from && task->pvmd().host().up())
        co_return;
      os::Host* to = self->pick_destination(*from);
      if (to == nullptr) {
        self->note("recover " + victim.str() +
                       ": no compatible live destination",
                   false);
        outcome = obs::SpanStatus::kAborted;
        co_return;
      }
      self->note("recovering " + victim.str() + " from checkpoint onto " +
                     to->name(),
                 true);
      std::string failed;
      try {
        const mpvm::CkptVacateStats st =
            co_await self->ckpt_->recover(victim, *to, self->stamp(),
                                          sp.context_of(root));
        self->note("recovered " + victim.str() + " onto " + to->name() +
                       " (redoing " + std::to_string(st.redo_work) +
                       " s of lost work)",
                   true);
      } catch (const Error& e) {
        failed = e.what();
      }
      if (!failed.empty()) {
        self->note("checkpoint recovery of " + victim.str() + " failed: " +
                       failed,
                   false);
        outcome = obs::SpanStatus::kAborted;
      }
    };
    sim::spawn(vm_->engine(), driver(this, t->tid(), &host));
  }
}

std::vector<load::HostLoadView> GlobalScheduler::build_views() const {
  std::vector<load::HostLoadView> views;
  views.reserve(vm_->daemons().size());
  const sim::Time now = vm_->engine().now();

  // Movable units per host: MPVM tasks, ULPs, ADM slaves that currently
  // live there.  (The legacy Threshold policy ignores this; the index
  // policies use it to avoid aiming at hosts with nothing to shed.)
  std::unordered_map<const os::Host*, int> movable;
  if (mpvm_ != nullptr) {
    for (const auto& d : vm_->daemons())
      if (!d->tasks().empty())
        movable[&d->host()] += static_cast<int>(d->tasks().size());
  }
  if (upvm_ != nullptr) {
    for (int i = 0; i < upvm_->nulps(); ++i) {
      upvm::Ulp* u = upvm_->ulp(i);
      if (u != nullptr && !u->done()) ++movable[&u->host()];
    }
  }
  if (adm_ != nullptr) {
    for (int s = 0; s < adm_->slaves_spawned(); ++s) {
      pvm::Task* t = vm_->find_logical(adm_->slave_tid(s));
      if (t != nullptr && !t->exited()) ++movable[&t->pvmd().host()];
    }
  }

  for (const auto& d : vm_->daemons()) {
    os::Host& h = d->host();
    const double instant = h.cpu().load();
    const double dest_rank = h.cpu().load() + h.cpu().external_jobs();
    double index = instant;
    sim::Time age = 0;
    if (exchange_ != nullptr && gs_host_ != nullptr) {
      // Decentralized mode: the index is whatever the gossip map *at the
      // scheduler's host* says — possibly stale, possibly absent.  Only
      // our own host is always live (its sensor is local).
      if (&h == gs_host_) {
        if (const load::LoadSensor* s = exchange_->sensor_on(h)) {
          index = s->index();
          age = 0;
        }
      } else if (const std::optional<load::LoadEntry> e =
                     exchange_->entry_at(*gs_host_, h.name())) {
        index = e->index;
        age = now - e->stamp;
      } else {
        // Never heard of it: infinitely stale, so the index policies skip
        // it rather than trusting the live reading they should not have.
        age = std::numeric_limits<double>::infinity();
      }
    }
    // Overlay the shifts this scheduler has *already ordered* but the
    // smoothed, gossiped indices cannot reflect yet.  Without this, every
    // poll tick inside the sensor's settle time re-reads the same stale
    // gap and herds unit after unit onto one momentarily-cold host — then
    // reverses the lot once the indices catch up (ping-pong).
    if (const auto ps = pending_shift_.find(&h); ps != pending_shift_.end()) {
      for (const auto& [t0, delta] : ps->second)
        if (now - t0 < policy_.staleness_bound) index += delta;
      index = std::max(index, 0.0);
    }
    const auto mv = movable.find(&h);
    views.emplace_back(&h, instant, dest_rank, index, age,
                       mv == movable.end() ? 0 : mv->second, h.up(),
                       !is_blacklisted(h));
    // Queueing pressure from the service layer (0 without a source: batch
    // decisions stay bit-identical).
    views.back().outstanding = pressure_ ? pressure_(h) : 0.0;
  }
  return views;
}

load::PlacementParams GlobalScheduler::placement_params() const {
  load::PlacementParams p;
  p.load_threshold = policy_.load_threshold;
  p.improvement_margin = policy_.improvement_margin;
  p.min_residency = policy_.min_residency;
  p.staleness_bound = policy_.staleness_bound;
  p.costs = &vm_->costs();
  p.cost_horizon = policy_.cost_horizon;
  p.max_actions = policy_.max_rebalance_actions;
  p.now = vm_->engine().now();
  p.queue_weight = policy_.queue_weight;
  return p;
}

void GlobalScheduler::execute_rebalance(const load::PlacementAction& action) {
  os::Host& host = *action.from;
  os::Host* dst = action.to;
  // Scoped flush plus residual forwarding (DESIGN.md §12) let disjoint
  // migration streams run concurrently, so the old one-at-a-time gate is
  // gone: the admission controller refuses only on the concurrency budget
  // or a busy/reversed (from, to) lane.  A refused action just waits for
  // the next monitor tick.
  if (!admission_.would_admit(host.name(), dst->name())) {
    vm_->metrics().counter("gs.migration.admission_refused").inc();
    return;
  }
  const bool legacy = engine_.kind() == load::PolicyKind::kThreshold;
  const sim::Time now = vm_->engine().now();
  if (legacy) {
    note("load " + std::to_string(action.from_load) + " on " + host.name() +
             " exceeds threshold: rebalancing",
         true, DecisionReason::kOverload, action.from_load);
  } else {
    note(std::string("placement ") + engine_.name() + ": rebalance " +
             host.name() + " (index " + std::to_string(action.from_load) +
             ") -> " + dst->name() + " (index " +
             std::to_string(action.to_load) + ")",
         true, DecisionReason::kRebalance, action.from_load);
    // Remember the ordered shift until the sensors can see it (one load
    // unit leaves `from`, lands on `to`); build_views() overlays it so the
    // next ticks do not re-decide from the same stale gap.
    pending_shift_[action.from].emplace_back(now, -1.0);
    pending_shift_[action.to].emplace_back(now, +1.0);
    engine_.record_settle(action.from, action.to, now, policy_.min_residency);
  }
  // Each method driver owns a "gs.rebalance" root; the decision itself is
  // recorded as a closed "load.decide" child so the trace shows *why* the
  // migration below it happened (and the auditor can demand the linkage).
  // Both spans are opened synchronously here — only the root's SpanId rides
  // into the migration coroutine (the GCC 12 by-value rule: scalar, safe).
  const auto open_spans = [this, &action](std::int64_t track) {
    obs::SpanTracer& sp = vm_->spans();
    const obs::SpanId root = sp.begin_span({}, "gs.rebalance", "gs", track);
    sp.annotate(root, "to", action.to->name());
    const obs::SpanId dec =
        sp.begin_span(sp.context_of(root), "load.decide", "gs");
    sp.annotate(dec, "policy", engine_.name());
    sp.annotate(dec, "from", action.from->name());
    sp.annotate(dec, "to", action.to->name());
    sp.annotate(dec, "from_load", std::to_string(action.from_load));
    sp.annotate(dec, "to_load", std::to_string(action.to_load));
    sp.end_span(dec, obs::SpanStatus::kOk);
    return root;
  };
  const pvm::Pvmd* src_pvmd = vm_->daemon_on(host);
  if (mpvm_ != nullptr && src_pvmd != nullptr) {
    // Move one task (the loop breaks right after spawning its driver, so
    // the daemon's list is never read after the move starts).
    for (pvm::Task* t : src_pvmd->tasks()) {
      if (mpvm_->migrating(t->tid())) continue;
      if (!engine_.may_move(unit_of(t->tid()), now, policy_.min_residency))
        continue;
      const std::uint64_t ticket =
          admit_migration(unit_of(t->tid()), host.name(), dst->name());
      if (ticket == 0) {
        vm_->metrics().counter("gs.migration.admission_refused").inc();
        break;
      }
      const obs::SpanId root = open_spans(t->tid().raw());
      vm_->spans().annotate(root, "task", t->tid().str());
      auto driver = [](GlobalScheduler* self, mpvm::Mpvm* m, pvm::Tid victim,
                       os::Host* to, obs::SpanId span,
                       std::uint64_t tk) -> sim::Co<void> {
        obs::SpanTracer& sp = self->vm_->spans();
        try {
          const mpvm::MigrationStats st = co_await m->migrate(
              victim, *to, self->stamp(), sp.context_of(span));
          sp.end_span(span, st.ok ? obs::SpanStatus::kOk
                                  : obs::SpanStatus::kAborted);
          if (st.ok)
            self->engine_.record_move(unit_of(victim),
                                      self->vm_->engine().now(),
                                      self->policy_.min_residency);
        } catch (const mpvm::MigrationError& e) {
          sp.end_span(span, obs::SpanStatus::kAborted);
          self->note(std::string("migration abandoned: ") + e.what(), false,
                     DecisionReason::kRebalance);
        }
        self->release_migration(tk);
      };
      sim::spawn(vm_->engine(),
                 driver(this, mpvm_, t->tid(), dst, root, ticket));
      break;
    }
  }
  if (upvm_ != nullptr) {
    for (int i = 0; i < upvm_->nulps(); ++i) {
      upvm::Ulp* u = upvm_->ulp(i);
      if (u == nullptr || u->done() || &u->host() != &host) continue;
      if (!engine_.may_move(unit_of_ulp(i), now, policy_.min_residency))
        continue;
      const std::uint64_t ticket =
          admit_migration(unit_of_ulp(i), host.name(), dst->name());
      if (ticket == 0) {
        vm_->metrics().counter("gs.migration.admission_refused").inc();
        break;
      }
      const obs::SpanId root = open_spans(i);
      vm_->spans().annotate(root, "ulp", std::to_string(i));
      auto driver = [](GlobalScheduler* self, upvm::Upvm* up, int inst,
                       os::Host* to, obs::SpanId span,
                       std::uint64_t tk) -> sim::Co<void> {
        obs::SpanTracer& sp = self->vm_->spans();
        try {
          const upvm::UlpMigrationStats st = co_await up->migrate_ulp(
              inst, *to, self->stamp(), sp.context_of(span));
          sp.end_span(span, st.ok ? obs::SpanStatus::kOk
                                  : obs::SpanStatus::kAborted);
          if (st.ok)
            self->engine_.record_move(unit_of_ulp(inst),
                                      self->vm_->engine().now(),
                                      self->policy_.min_residency);
        } catch (const Error& e) {
          sp.end_span(span, obs::SpanStatus::kAborted);
          self->note(std::string("ULP migration abandoned: ") + e.what(),
                     false, DecisionReason::kRebalance);
        }
        self->release_migration(tk);
      };
      sim::spawn(vm_->engine(), driver(this, upvm_, i, dst, root, ticket));
      break;
    }
  }
  if (adm_ != nullptr) {
    // ADM rebalances by repartitioning rather than by moving a VP.  Under
    // an index policy, skew the partition weights by observed load first,
    // so the repartition actually shifts exemplars toward lighter hosts.
    if (!legacy) {
      std::vector<double> weights;
      weights.reserve(static_cast<std::size_t>(adm_->nslaves()));
      for (int s = 0; s < adm_->nslaves(); ++s) {
        double w = 1.0;
        if (s < adm_->slaves_spawned()) {
          pvm::Task* t = vm_->find_logical(adm_->slave_tid(s));
          if (t != nullptr && !t->exited()) {
            os::Host& h = t->pvmd().host();
            double index = h.cpu().load();
            if (exchange_ != nullptr && gs_host_ != nullptr) {
              if (const std::optional<load::LoadEntry> e =
                      exchange_->entry_at(*gs_host_, h.name()))
                index = e->index;
            }
            w = h.cpu().speed() / (1.0 + index);
          }
        }
        weights.push_back(w);
      }
      adm_->set_partition_weights(std::move(weights));
    }
    for (int s = 0; s < adm_->slaves_spawned(); ++s) {
      pvm::Task* t = vm_->find_logical(adm_->slave_tid(s));
      if (t == nullptr || t->exited() || &t->pvmd().host() != &host)
        continue;
      if (!engine_.may_move(unit_of_slave(s), now, policy_.min_residency))
        continue;
      obs::SpanTracer& sp = vm_->spans();
      const obs::SpanId root = open_spans(s);
      sp.annotate(root, "slave", std::to_string(s));
      const bool posted = adm_->post_event(
          s, adm::AdmEventKind::kRebalance, stamp(), sp.context_of(root));
      sp.end_span(root,
                  posted ? obs::SpanStatus::kOk : obs::SpanStatus::kFenced);
      if (posted)
        engine_.record_move(unit_of_slave(s), now, policy_.min_residency);
      break;
    }
  }
}

void GlobalScheduler::monitor_tick() {
  if (!active_) return;
  if (engine_.kind() == load::PolicyKind::kNone) return;
  // Legacy early-out: with the threshold policy disabled (infinite
  // threshold) the monitor does nothing, exactly as before.
  if (engine_.kind() == load::PolicyKind::kThreshold &&
      policy_.load_threshold == std::numeric_limits<double>::infinity())
    return;
  // Expire pending shifts the sensors have had time to absorb.
  const sim::Time now = vm_->engine().now();
  for (auto it = pending_shift_.begin(); it != pending_shift_.end();) {
    auto& shifts = it->second;
    std::erase_if(shifts, [&](const std::pair<sim::Time, double>& s) {
      return now - s.first >= policy_.staleness_bound;
    });
    it = shifts.empty() ? pending_shift_.erase(it) : std::next(it);
  }
  const std::vector<load::HostLoadView> views = build_views();
  // Publish the cluster-imbalance figure every tick (only while a policy is
  // active — the early-outs above mean a no-balancing baseline run has no
  // gs.load.cv series, by design).  Analytics windows + SLO ceilings hang
  // off this one gauge.
  if (load_cv_gauge_ == nullptr)
    load_cv_gauge_ = &vm_->metrics().gauge("gs.load.cv");
  load_cv_gauge_->set(load::load_cv(views));
  for (const load::PlacementAction& a :
       engine_.decide(views, placement_params()))
    execute_rebalance(a);
}

}  // namespace cpe::gs
