#include "gs/ha.hpp"

#include <algorithm>
#include <any>
#include <utility>

namespace cpe::gs {

namespace {

/// Charged wire size of a replica-to-replica message: the fixed header.
/// The wire model also prices the durable state a heartbeat carries — per
/// decision 25 B + its text, per blacklist entry name + 8 B, per host-up
/// entry name + 1 B, 4 B per reported loss, per pending vacate name + 4 B,
/// per in-flight migration 16 B + both host names — but that is not
/// charged.  The send used to be written as
/// Datagram(..., wire_bytes(msg), std::move(msg)), and argument evaluation
/// order is unspecified: GCC builds the payload first, so the size was
/// always taken from a moved-from, empty message.  Virtual time is pinned
/// to that charge; pricing the state would change it.
constexpr std::size_t kWireHeaderBytes = 64;

}  // namespace

std::string_view to_string(ReplicaRole r) {
  switch (r) {
    case ReplicaRole::kFollower: return "follower";
    case ReplicaRole::kCandidate: return "candidate";
    case ReplicaRole::kLeader: return "leader";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// GsReplica

GsReplica::GsReplica(HaScheduler& ha, int id, os::Host& host,
                     sim::Time election_timeout)
    : ha_(&ha),
      id_(id),
      host_(&host),
      core_(ha.vm(), ha.policy().core),
      election_timeout_(election_timeout) {
  core_.set_active(false);
  core_.set_replication_hook([this] { on_core_change(); });
  ha.vm().network().datagrams().bind(
      host.node(), kGsPort, [this](net::Datagram d) {
        const GsWireMessage* m = std::any_cast<GsWireMessage>(&d.payload);
        if (m != nullptr) on_message(*m);
      });
  host.add_observer(
      [this](os::Host&, os::HostEvent ev) { on_host_event(ev); });
}

sim::Engine& GsReplica::engine() const noexcept {
  return ha_->vm().engine();
}

void GsReplica::start(sim::Time until) {
  auto loop = [](GsReplica* self, sim::Time horizon) -> sim::Co<void> {
    sim::Engine& eng = self->engine();
    // Half-heartbeat granularity: fine enough to notice a missed heartbeat
    // promptly, coarse enough not to swamp the event queue.
    const sim::Time step = self->ha_->policy().heartbeat_interval / 2.0;
    while (eng.now() < horizon) {
      co_await sim::Delay(eng, step);
      self->duty_tick();
    }
  };
  duty_ = sim::launch(engine(), loop(this, until));
}

void GsReplica::duty_tick() {
  if (!host_->up()) return;  // a crashed replica neither acts nor times out
  const sim::Time now = engine().now();
  const sim::Time hb = ha_->policy().heartbeat_interval;
  switch (role_) {
    case ReplicaRole::kLeader:
      // Threshold of 3/4 hb, not hb: broadcasts happen at tick granularity
      // (hb/2), so an exact-hb threshold lets the gap after an off-grid
      // takeover quantize up to 1.5 hb — long enough for the fixed lease
      // (majority_lease_held) to lapse on stale acks and depose a perfectly
      // healthy leader.  3/4 hb keeps the steady-state period at one hb on
      // the tick grid while capping any single gap at one hb.
      if (now - last_broadcast_ >= 0.75 * hb) {
        broadcast(GsWireMessage(GsWireMessage::Kind::kHeartbeat, id_, term_,
                                core_.journal().size()),
                  /*with_state=*/true);
        last_broadcast_ = now;
      }
      core_.tick();
      if (!majority_lease_held())
        step_down("lost contact with a majority of replicas");
      break;
    case ReplicaRole::kFollower:
      if (now - last_heartbeat_ >= election_timeout_) start_election();
      break;
    case ReplicaRole::kCandidate:
      if (now - election_started_ >=
          ha_->policy().vote_timeout_beats * hb) {
        // Split vote or unreachable peers: back off and re-arm the
        // election timer rather than spinning the term counter.
        role_ = ReplicaRole::kFollower;
        last_heartbeat_ = now;
      }
      break;
  }
}

bool GsReplica::majority_lease_held() const {
  const sim::Time now = engine().now();
  // Fixed lease window, identical on every replica and free of the per-id
  // jitter/stagger that pads election_timeout_: the lease must expire no
  // later than the *fastest* follower's election timeout, or a high-id
  // deposed leader would keep acting while its successor is already
  // elected.
  const sim::Time lease =
      ha_->policy().election_timeout_beats * ha_->policy().heartbeat_interval;
  int alive = 1;  // self
  for (int i = 0; i < ha_->size(); ++i) {
    if (i == id_) continue;
    const auto idx = static_cast<std::size_t>(i);
    if (idx < peer_ack_.size() && now - peer_ack_[idx] <= lease) ++alive;
  }
  return alive >= ha_->majority();
}

void GsReplica::start_election() {
  ++term_;
  role_ = ReplicaRole::kCandidate;
  voted_in_term_ = term_;  // vote for self
  votes_ = 1;
  vote_granted_mask_ = 1ull << id_;
  election_started_ = engine().now();
  ha_->vm().metrics().counter("gs.elections").inc();
  ha_->vm().trace().log("gs-ha", "replica " + std::to_string(id_) +
                                     " starts election term=" +
                                     std::to_string(term_));
  if (votes_ >= ha_->majority()) {  // single-replica deployment
    become_leader();
    return;
  }
  broadcast(GsWireMessage(GsWireMessage::Kind::kVoteRequest, id_, term_,
                          core_.journal().size()),
            /*with_state=*/false);
}

void GsReplica::become_leader() {
  const sim::Time now = engine().now();
  role_ = ReplicaRole::kLeader;
  peer_ack_.assign(static_cast<std::size_t>(ha_->size()), now);
  // Until a peer acks, assume it has nothing: the first heartbeat to each
  // follower carries the full journal, later ones only the suffix past what
  // that follower acked.
  peer_journal_len_.assign(static_cast<std::size_t>(ha_->size()), 0);
  // Fence first, then act: every command this core issues from here on
  // carries the new term, and older terms are dead on arrival.
  core_.set_epoch(term_);
  ha_->fence()->raise(term_);
  core_.set_active(true);
  // Election latency — the leaderless window this replica just closed — is
  // what failover SLOs are made of.  The bootstrap leader never ran an
  // election, so it records nothing.
  if (election_started_ > 0)
    ha_->vm()
        .metrics()
        .histogram("gs.election.latency")
        .record(now - election_started_);
  ha_->note_leader(id_, term_);
  ha_->vm().trace().log("gs-ha", "replica " + std::to_string(id_) +
                                     " becomes leader term=" +
                                     std::to_string(term_));
  // Resume what the previous leader left open (replicated pending vacates,
  // liveness re-baseline), then announce.
  core_.resume_after_failover();
  // Replay owner events that arrived during the leaderless window: anything
  // heard after we last heard the old leader cannot have been acted on.
  // (Events older than that were the live leader's business; re-acting is
  // harmless anyway — vacates de-duplicate — but skipping them keeps the
  // journal honest.)
  for (const os::OwnerEvent& ev : pending_events_) {
    if (ev.t < last_heartbeat_) continue;
    ha_->vm().trace().log("gs-ha", "replica " + std::to_string(id_) +
                                       " replays owner event from t=" +
                                       std::to_string(ev.t));
    core_.on_owner_event(ev);
  }
  pending_events_.clear();
  broadcast(GsWireMessage(GsWireMessage::Kind::kHeartbeat, id_, term_,
                          core_.journal().size()),
            /*with_state=*/true);
  last_broadcast_ = now;
}

void GsReplica::on_owner_event(const os::OwnerEvent& ev) {
  if (role_ == ReplicaRole::kLeader) {
    core_.on_owner_event(ev);
    return;
  }
  // Not our decision to make (yet): hold on to it in case the cluster is
  // between leaders and we are the one who ends up winning the election.
  if (pending_events_.size() >= ha_->policy().pending_event_cap) {
    ++pending_evictions_;
    ha_->vm().trace().log(
        "gs-ha", "replica " + std::to_string(id_) +
                     " pending-event buffer full: dropping oldest (" +
                     std::to_string(pending_evictions_) + " dropped total)");
    pending_events_.erase(pending_events_.begin());
  }
  pending_events_.push_back(ev);
}

void GsReplica::step_down(const std::string& why) {
  ha_->vm().trace().log("gs-ha", "replica " + std::to_string(id_) +
                                     " steps down term=" +
                                     std::to_string(term_) + " (" + why +
                                     ")");
  role_ = ReplicaRole::kFollower;
  core_.set_active(false);
  last_heartbeat_ = engine().now();
}

void GsReplica::on_message(const GsWireMessage& m) {
  if (!host_->up()) return;  // dead replicas hear nothing
  const sim::Time now = engine().now();
  switch (m.kind) {
    case GsWireMessage::Kind::kHeartbeat: {
      if (m.term < term_) {
        // Stale leader: the ack carries our newer term so it steps down.
        post(m.from,
             GsWireMessage(GsWireMessage::Kind::kHeartbeatAck, id_, term_,
                           core_.journal().size()),
             false);
        return;
      }
      if (m.term > term_) term_ = m.term;
      if (role_ == ReplicaRole::kLeader)
        step_down("saw a live leader with term " + std::to_string(m.term));
      role_ = ReplicaRole::kFollower;
      last_heartbeat_ = now;
      core_.import_state(m.state);
      post(m.from,
           GsWireMessage(GsWireMessage::Kind::kHeartbeatAck, id_, term_,
                         core_.journal().size()),
           false);
      break;
    }
    case GsWireMessage::Kind::kHeartbeatAck: {
      if (m.term > term_) {
        term_ = m.term;
        if (role_ == ReplicaRole::kLeader)
          step_down("a peer reported a newer term");
        role_ = ReplicaRole::kFollower;
        break;
      }
      if (role_ == ReplicaRole::kLeader && m.term == term_ && m.from >= 0 &&
          static_cast<std::size_t>(m.from) < peer_ack_.size()) {
        const auto idx = static_cast<std::size_t>(m.from);
        peer_ack_[idx] = now;
        // The acked journal length drives incremental replication.  Clamp
        // to our own journal (a peer can never legitimately be ahead); a
        // reordered older ack merely resends a little more.
        if (idx < peer_journal_len_.size())
          peer_journal_len_[idx] =
              std::min(m.journal_len, core_.journal().size());
      }
      break;
    }
    case GsWireMessage::Kind::kVoteRequest: {
      if (m.term > term_) {
        term_ = m.term;
        if (role_ == ReplicaRole::kLeader)
          step_down("vote request with newer term");
        role_ = ReplicaRole::kFollower;
      }
      // One vote per term, and only for candidates whose replicated journal
      // is at least as complete as ours (raft-style up-to-date check).
      const bool grant = m.term == term_ && voted_in_term_ < term_ &&
                         role_ != ReplicaRole::kLeader &&
                         m.journal_len >= core_.journal().size();
      if (grant) {
        voted_in_term_ = term_;
        last_heartbeat_ = now;  // granting a vote re-arms our own timer
        post(m.from,
             GsWireMessage(GsWireMessage::Kind::kVoteGrant, id_, term_,
                           core_.journal().size()),
             false);
      }
      break;
    }
    case GsWireMessage::Kind::kVoteGrant: {
      if (role_ != ReplicaRole::kCandidate || m.term != term_) break;
      // One replica, one vote: a grant replayed by an adversarial network
      // (or a duplicated datagram) must not be double-counted into a
      // majority the electorate never gave.
      if (m.from < 0 || m.from >= 64) break;
      const std::uint64_t bit = 1ull << m.from;
      if ((vote_granted_mask_ & bit) != 0) break;
      vote_granted_mask_ |= bit;
      if (++votes_ >= ha_->majority()) become_leader();
      break;
    }
  }
}

void GsReplica::on_host_event(os::HostEvent ev) {
  switch (ev) {
    case os::HostEvent::kCrash:
      if (role_ == ReplicaRole::kLeader)
        ha_->vm().trace().log("gs-ha", "leader replica " +
                                           std::to_string(id_) + " crashed");
      // The crash silences us; the core goes inactive so its retry drivers
      // wind down instead of acting from beyond the grave.
      role_ = ReplicaRole::kFollower;
      core_.set_active(false);
      votes_ = 0;
      break;
    case os::HostEvent::kRecover:
      // Rejoin as a follower; the term catches up from the next heartbeat.
      last_heartbeat_ = engine().now();
      break;
    case os::HostEvent::kFreeze:
    case os::HostEvent::kUnfreeze:
      break;  // the NIC stall already silences a frozen replica
  }
}

void GsReplica::broadcast(GsWireMessage m, bool with_state) {
  for (int i = 0; i < ha_->size(); ++i) {
    if (i == id_) continue;
    post(i, m, with_state);
  }
}

void GsReplica::post(int to, GsWireMessage m, bool with_state) {
  if (!host_->up() || to == id_) return;
  m.from = id_;
  if (with_state) {
    const auto idx = static_cast<std::size_t>(to);
    const std::size_t from = role_ == ReplicaRole::kLeader &&
                                     idx < peer_journal_len_.size()
                                 ? peer_journal_len_[idx]
                                 : 0;
    m.state = core_.export_state(from);
  }
  auto send = [](GsReplica* self, int to_id,
                 GsWireMessage msg) -> sim::Co<void> {
    net::DatagramService& dg = self->ha_->vm().network().datagrams();
    const net::NodeId src = self->host_->node();
    const net::NodeId dst = self->ha_->replica(to_id).host().node();
    try {
      co_await dg.send(
          net::Datagram(src, dst, kGsPort, kWireHeaderBytes, std::move(msg)));
    } catch (const Error&) {
      // Crashed or partitioned-away peer: silence is what the election
      // machinery is built to handle.
    }
  };
  sim::spawn(engine(), send(this, to, std::move(m)));
}

void GsReplica::on_core_change() {
  // Push fresh state to the followers promptly (coalescing bursts of
  // journal notes) so the missed-decision window on failover is the
  // replication latency, not a whole heartbeat interval.
  if (role_ != ReplicaRole::kLeader || flush_scheduled_ || !host_->up())
    return;
  flush_scheduled_ = true;
  auto flush = [](GsReplica* self) -> sim::Co<void> {
    co_await sim::Delay(self->engine(), 1e-3);
    self->flush_scheduled_ = false;
    if (self->role_ != ReplicaRole::kLeader || !self->host_->up()) co_return;
    self->broadcast(GsWireMessage(GsWireMessage::Kind::kHeartbeat, self->id_,
                                  self->term_, self->core_.journal().size()),
                    /*with_state=*/true);
    self->last_broadcast_ = self->engine().now();
  };
  sim::spawn(engine(), flush(this));
}

// ---------------------------------------------------------------------------
// HaScheduler

HaScheduler::HaScheduler(pvm::PvmSystem& vm, std::vector<os::Host*> hosts,
                         HaPolicy policy)
    : vm_(&vm),
      policy_(policy),
      fence_(std::make_shared<pvm::MigrationFence>()) {
  CPE_EXPECTS(!hosts.empty());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    CPE_EXPECTS(hosts[i] != nullptr);
    for (std::size_t j = 0; j < i; ++j)
      CPE_EXPECTS(hosts[i] != hosts[j]);  // replicas on distinct hosts
  }
  sim::Rng rng(policy_.seed);
  const sim::Time hb = policy_.heartbeat_interval;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    // Deterministic per-replica election timeout: base + jitter draw + an
    // id-based stagger.  Timers are only checked at duty-tick granularity
    // (hb/2), so the stagger must out-distance tick quantisation plus the
    // whole jitter range — otherwise two followers time out in the same
    // tick, split the vote, and the cluster burns a full election round.
    const sim::Time timeout =
        policy_.election_timeout_beats * hb +
        rng.uniform(0.0, policy_.election_jitter_beats * hb) +
        static_cast<double>(i) * policy_.election_stagger_beats * hb;
    replicas_.push_back(std::make_unique<GsReplica>(
        *this, static_cast<int>(i), *hosts[i], timeout));
  }
}

void HaScheduler::attach(mpvm::Mpvm& m) {
  m.set_fence(fence_);
  for (auto& r : replicas_) r->core().attach(m);
}

void HaScheduler::attach(upvm::Upvm& u) {
  u.set_fence(fence_);
  for (auto& r : replicas_) r->core().attach(u);
}

void HaScheduler::attach(opt::AdmOpt& a) {
  a.set_fence(fence_);
  for (auto& r : replicas_) r->core().attach(a);
}

void HaScheduler::attach(mpvm::Checkpointer& c) {
  c.set_fence(fence_);
  for (auto& r : replicas_) r->core().attach(c);
}

void HaScheduler::attach(load::LoadExchange& x) {
  for (auto& r : replicas_) r->core().attach(x, r->host());
}

void HaScheduler::start(sim::Time until) {
  const sim::Time now = vm_->engine().now();
  for (auto& r : replicas_) {
    r->core().set_active(false);
    r->last_heartbeat_ = now;
  }
  // Bootstrap: replica 0 is the term-1 leader.  Every replica starts in
  // term 1 with its bootstrap vote already spent, so no challenger can
  // assemble a majority in term 1 — if replica 0's first heartbeats are
  // lost (startup partition), a successor must win term 2, whose first
  // command raises the fence floor past replica 0's.  Two same-term leaders
  // are therefore impossible even at start-of-world.
  for (auto& r : replicas_) {
    r->term_ = 1;
    r->voted_in_term_ = 1;
  }
  replicas_.front()->become_leader();
  for (auto& r : replicas_) r->start(until);
}

void HaScheduler::on_owner_event(const os::OwnerEvent& ev) {
  CPE_EXPECTS(ev.host != nullptr);
  net::Ethernet& eth = vm_->network().ethernet();
  for (auto& r : replicas_) {
    if (!r->host().up()) continue;
    // The owner daemon's notification travels the network: a replica on
    // the wrong side of a partition never hears it.
    if (!eth.reachable(ev.host->node(), r->host().node())) continue;
    r->on_owner_event(ev);
  }
}

int HaScheduler::leader_id() const {
  int best = -1;
  std::uint64_t best_term = 0;
  for (const auto& r : replicas_) {
    if (r->role() != ReplicaRole::kLeader || !r->host().up()) continue;
    if (r->term() >= best_term) {
      best_term = r->term();
      best = r->id();
    }
  }
  return best;
}

GsReplica* HaScheduler::leader() {
  const int id = leader_id();
  return id < 0 ? nullptr : replicas_[static_cast<std::size_t>(id)].get();
}

const std::vector<Decision>& HaScheduler::journal() const {
  const int id = leader_id();
  if (id >= 0)
    return replicas_[static_cast<std::size_t>(id)]->core().journal();
  const GsReplica* best = replicas_.front().get();
  for (const auto& r : replicas_)
    if (r->core().journal().size() > best->core().journal().size())
      best = r.get();
  return best->core().journal();
}

void HaScheduler::note_leader(int replica, std::uint64_t term) {
  // Every change after the bootstrap leader is a failover.
  if (!changes_.empty()) vm_->metrics().counter("gs.failovers").inc();
  changes_.emplace_back(vm_->engine().now(), replica, term);
}

}  // namespace cpe::gs
