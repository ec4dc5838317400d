#include "load/exchange.hpp"

#include <algorithm>
#include <any>
#include <limits>
#include <numeric>

namespace cpe::load {

LoadExchange::LoadExchange(pvm::PvmSystem& vm, ExchangePolicy policy)
    : vm_(&vm), policy_(policy), rng_(policy.seed) {
  CPE_EXPECTS(policy.gossip_interval > 0);
  CPE_EXPECTS(policy.fanout > 0);
  CPE_EXPECTS(policy.vector_cap > 0);
  CPE_EXPECTS(policy.staleness_bound > 0);
  sent_ctr_ = &vm.metrics().counter("load.gossip.sent");
  merged_ctr_ = &vm.metrics().counter("load.gossip.merged");
  net::DatagramService& dg = vm.network().datagrams();
  by_node_.reserve(vm.daemons().size());
  for (const auto& d : vm.daemons()) {
    os::Host& h = d->host();
    const auto self = static_cast<std::uint32_t>(agents_.size());
    agents_.push_back(std::make_unique<Agent>(
        &h, self,
        std::make_unique<LoadSensor>(h, vm.metrics(), policy.sensor),
        rng_.split()));
    by_node_[h.node()] = self;
    Agent* agent = agents_.back().get();
    dg.bind(h.node(), kLoadPort, [this, agent](net::Datagram d_in) {
      const auto* body = std::any_cast<Gossip>(&d_in.payload);
      if (body != nullptr && *body != nullptr) receive(*agent, **body);
    });
  }
  by_name_.resize(agents_.size());
  std::iota(by_name_.begin(), by_name_.end(), 0u);
  std::sort(by_name_.begin(), by_name_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return agents_[a]->host->name() < agents_[b]->host->name();
            });
  name_rank_.resize(agents_.size());
  for (std::size_t r = 0; r < by_name_.size(); ++r) {
    // Entries are keyed by origin name on the wire model and in view():
    // two agents with one name would be one entry.
    CPE_EXPECTS(r == 0 || agents_[by_name_[r - 1]]->host->name() !=
                              agents_[by_name_[r]]->host->name());
    name_rank_[by_name_[r]] = static_cast<std::uint32_t>(r);
  }
}

LoadExchange::~LoadExchange() {
  net::DatagramService& dg = vm_->network().datagrams();
  for (const auto& a : agents_) dg.unbind(a->host->node(), kLoadPort);
}

const LoadExchange::Agent* LoadExchange::agent_on(const os::Host& host) const {
  const auto it = by_node_.find(host.node());
  if (it == by_node_.end()) return nullptr;
  const Agent* a = agents_[it->second].get();
  return a->host == &host ? a : nullptr;
}

void LoadExchange::ensure_table(Agent& agent) {
  if (!agent.stamp.empty()) return;
  agent.stamp.assign(agents_.size(), kNever);
  agent.sample.resize(agents_.size());
}

LoadEntry LoadExchange::entry_of(std::uint32_t about, sim::Time stamp,
                                 const LoadSample& s) const {
  return LoadEntry(agents_[about]->host->name(), s.index, s.instant,
                   s.external_jobs, s.owner_active, s.up, stamp);
}

LoadSensor* LoadExchange::sensor_on(const os::Host& host) const {
  const Agent* a = agent_on(host);
  return a == nullptr ? nullptr : a->sensor.get();
}

std::vector<LoadEntry> LoadExchange::view(const os::Host& at) const {
  std::vector<LoadEntry> out;
  const Agent* a = agent_on(at);
  if (a == nullptr) return out;
  for (const std::uint32_t j : by_name_) {
    if (j == a->self)
      out.push_back(a->sensor->entry());  // own view is always live
    else if (!a->stamp.empty() && known(*a, j))
      out.push_back(entry_of(j, a->stamp[j], a->sample[j]));
  }
  return out;
}

std::optional<LoadEntry> LoadExchange::entry_at(
    const os::Host& at, const std::string& about) const {
  const Agent* a = agent_on(at);
  if (a == nullptr || a->stamp.empty()) return std::nullopt;
  const auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), about,
      [this](std::uint32_t j, const std::string& name) {
        return agents_[j]->host->name() < name;
      });
  if (it == by_name_.end() || agents_[*it]->host->name() != about)
    return std::nullopt;
  // Our own entry (as of our last round) never ages out.
  if (*it == a->self ? a->stamp[*it] == kNever : !known(*a, *it))
    return std::nullopt;
  return entry_of(*it, a->stamp[*it], a->sample[*it]);
}

void LoadExchange::receive(Agent& agent,
                           const std::vector<GossipItem>& gossip) {
  const sim::Time now = vm_->engine().now();
  ensure_table(agent);
  for (const GossipItem& e : gossip) {
    // A host's own sensor is authoritative for its own entry.
    if (e.host == agent.self) continue;
    if (now - e.stamp > 3.0 * policy_.staleness_bound) {
      ++stale_dropped_;
      continue;
    }
    // An aged-out slot still holds its old stamp (see known()), but it
    // never blocks a merge: this entry passed the staleness check above,
    // so it is fresher than anything the last round aged out.
    sim::Time& held = agent.stamp[e.host];
    if (held >= e.stamp) continue;  // we know something newer
    held = e.stamp;
    agent.sample[e.host] = e.sample;
    // Its stamp rose: re-rank it among the freshest.
    const auto it = std::find(agent.fresh.begin(), agent.fresh.end(), e.host);
    if (it != agent.fresh.end()) agent.fresh.erase(it);
    offer_fresh(agent, e.host);
    ++merged_;
    merged_ctr_->inc();
  }
}

void LoadExchange::offer_fresh(Agent& agent, std::uint32_t j) const {
  const std::vector<sim::Time>& stamp = agent.stamp;
  const auto fresher = [&stamp, this](std::uint32_t x, std::uint32_t y) {
    return stamp[x] != stamp[y] ? stamp[x] > stamp[y]
                                : name_rank_[x] < name_rank_[y];
  };
  std::vector<std::uint32_t>& fresh = agent.fresh;
  const std::size_t keep = policy_.vector_cap - 1;
  const auto pos = std::upper_bound(fresh.begin(), fresh.end(), j, fresher);
  if (pos == fresh.end() && fresh.size() >= keep) return;
  fresh.insert(pos, j);
  if (fresh.size() > keep) fresh.pop_back();
}

bool LoadExchange::known(const Agent& agent, std::uint32_t j) const {
  return agent.stamp[j] != kNever &&
         !(agent.aged_at - agent.stamp[j] > 3.0 * policy_.staleness_bound);
}

void LoadExchange::gossip_round(Agent& agent) {
  const sim::Time now = vm_->engine().now();
  ++rounds_;
  ensure_table(agent);
  std::vector<sim::Time>& stamp = agent.stamp;

  // Refresh our own entry, and age out what nobody has refreshed in a
  // long time (a crashed host's last words should not circulate forever):
  // from now on known() hides entries older than 3x staleness_bound.
  stamp[agent.self] = agent.sensor->last_sample();
  agent.sample[agent.self] = agent.sensor->reading();
  agent.aged_at = now;

  // The gossip vector — our own entry first — built once and shared by
  // every datagram of the round.
  auto body = std::make_shared<std::vector<GossipItem>>();
  body->reserve(1 + agent.fresh.size());
  body->emplace_back(agent.self, stamp[agent.self], agent.sample[agent.self]);
  // The freshest of the rest.  Aged-out entries are the stalest, so the
  // known ones are a prefix of `fresh`.
  for (const std::uint32_t j : agent.fresh) {
    if (!known(agent, j)) break;
    body->emplace_back(j, stamp[j], agent.sample[j]);
  }
  const Gossip shared = std::move(body);

  pick_peers(agent);

  if (observer_) {
    std::vector<LoadEntry> vec;
    vec.reserve(shared->size());
    for (const GossipItem& e : *shared)
      vec.push_back(entry_of(e.host, e.stamp, e.sample));
    std::vector<const os::Host*> peers;
    peers.reserve(picks_.size());
    for (const std::uint32_t p : picks_) peers.push_back(agents_[p]->host);
    observer_(*agent.host, vec, peers);
  }

  for (const std::uint32_t p : picks_) {
    // Charged size: the header only.  The send used to be written as
    // Datagram(..., gossip_wire_bytes(g), std::move(g)), and argument
    // evaluation order is unspecified: GCC builds the payload first, so
    // the size was always taken from a moved-from, empty vector.  Virtual
    // time is pinned to that charge; pricing the entries (load.hpp) would
    // change it.
    net::Datagram d(agent.host->node(), agents_[p]->host->node(), kLoadPort,
                    kGossipHeaderBytes, shared);
    sent_ctr_->inc();
    auto sender = [](net::DatagramService* dg,
                     net::Datagram dgram) -> sim::Co<void> {
      try {
        co_await dg->send_unreliable(std::move(dgram));
      } catch (const net::DeliveryError&) {
        // Local NIC detached mid-round (host crashed): the round is moot.
      }
    };
    sim::spawn(vm_->engine(),
               sender(&vm_->network().datagrams(), std::move(d)));
  }
}

void LoadExchange::pick_peers(Agent& agent) {
  // The candidates are the other agents whose host is up, in agent order.
  // With every VM host up that list is implicit — the k-th candidate is
  // agent k, or k + 1 past ourselves — so it is not materialized; only
  // while some host is down is it scanned into live_.
  const bool all_up = vm_->down_hosts() == 0;
  std::size_t count = agents_.size() - 1;
  if (!all_up) {
    live_.clear();
    for (const auto& a : agents_)
      if (a.get() != &agent && a->host->up()) live_.push_back(a->self);
    count = live_.size();
  }
  const auto candidate = [&](std::size_t k) -> std::uint32_t {
    if (!all_up) return live_[k];
    return static_cast<std::uint32_t>(k < agent.self ? k : k + 1);
  };

  // Partial Fisher-Yates: draw i swaps position i with a uniform position
  // in [i, count) and sends to whoever lands at i.  Only the positions
  // touched so far differ from the candidate order; `moved_` holds them.
  const std::size_t sends =
      std::min(static_cast<std::size_t>(policy_.fanout), count);
  picks_.clear();
  moved_.clear();
  const auto at = [&](std::size_t pos) {
    for (const auto& [p, v] : moved_)
      if (p == pos) return v;
    return candidate(pos);
  };
  const auto put = [&](std::size_t pos, std::uint32_t v) {
    for (auto& [p, val] : moved_)
      if (p == pos) {
        val = v;
        return;
      }
    moved_.emplace_back(pos, v);
  };
  for (std::size_t i = 0; i < sends; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(agent.rng.below(count - i));
    const std::uint32_t vi = at(i);
    const std::uint32_t vj = at(j);
    put(i, vj);
    put(j, vi);
    picks_.push_back(vj);
  }
}

sim::Co<void> LoadExchange::run_agent(Agent* agent, sim::Time until) {
  sim::Engine& eng = vm_->engine();
  // Desynchronize the rounds so 64 hosts don't all transmit on the same
  // instant of every simulated second.
  co_await sim::Delay(eng, agent->rng.uniform() * policy_.gossip_interval);
  while (eng.now() < until) {
    if (agent->host->up() && !agent->host->frozen()) gossip_round(*agent);
    co_await sim::Delay(eng, policy_.gossip_interval);
  }
}

void LoadExchange::start(sim::Time until) {
  for (const auto& a : agents_) {
    a->sensor->start(until);
    loops_.push_back(sim::launch(vm_->engine(), run_agent(a.get(), until)));
  }
}

}  // namespace cpe::load
