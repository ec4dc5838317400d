// Golden model of load::LoadExchange: the original name-keyed algorithm,
// kept test-only so the dense rewrite can be raced against it
// (exchange_diff_test.cpp).  Each agent holds a std::map from origin host
// name to its freshest LoadEntry; a round refreshes the own entry, erases
// entries older than 3x staleness_bound, sorts the rest by (stamp desc,
// name) to pick the vector, rebuilds the live-peer list and shuffles it,
// and sends every peer its own copy of the vector.  Do not optimize this
// file: its value is that it is obviously the old behaviour.
#pragma once

#include <algorithm>
#include <any>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "load/exchange.hpp"

namespace cpe::load::test {

/// The original gossip payload: named entries, copied per datagram.
struct LegacyGossip {
  std::string origin;
  std::vector<LoadEntry> entries;

  LegacyGossip() noexcept {}
  LegacyGossip(std::string origin_, std::vector<LoadEntry> entries_)
      : origin(std::move(origin_)), entries(std::move(entries_)) {}
};

class LegacyLoadExchange {
 public:
  LegacyLoadExchange(pvm::PvmSystem& vm, ExchangePolicy policy = {})
      : vm_(&vm), policy_(policy), rng_(policy.seed) {
    net::DatagramService& dg = vm.network().datagrams();
    for (const auto& d : vm.daemons()) {
      os::Host& h = d->host();
      agents_.push_back(std::make_unique<Agent>(
          &h, std::make_unique<LoadSensor>(h, vm.metrics(), policy.sensor),
          rng_.split()));
      Agent* agent = agents_.back().get();
      dg.bind(h.node(), kLoadPort, [this, agent](net::Datagram d_in) {
        const auto* gossip = std::any_cast<LegacyGossip>(&d_in.payload);
        if (gossip != nullptr) receive(*agent, *gossip);
      });
    }
  }
  LegacyLoadExchange(const LegacyLoadExchange&) = delete;
  LegacyLoadExchange& operator=(const LegacyLoadExchange&) = delete;
  ~LegacyLoadExchange() {
    net::DatagramService& dg = vm_->network().datagrams();
    for (const auto& a : agents_) dg.unbind(a->host->node(), kLoadPort);
  }

  void start(sim::Time until) {
    for (const auto& a : agents_) {
      a->sensor->start(until);
      loops_.push_back(sim::launch(vm_->engine(), run_agent(a.get(), until)));
    }
  }

  [[nodiscard]] std::vector<LoadEntry> view(const os::Host& at) const {
    std::vector<LoadEntry> out;
    for (const auto& a : agents_) {
      if (a->host != &at) continue;
      for (const auto& [name, e] : a->map)
        if (name != at.name()) out.push_back(e);
      out.push_back(a->sensor->entry());
      std::sort(out.begin(), out.end(),
                [](const LoadEntry& x, const LoadEntry& y) {
                  return x.host < y.host;
                });
      break;
    }
    return out;
  }

  [[nodiscard]] std::optional<LoadEntry> entry_at(
      const os::Host& at, const std::string& about) const {
    for (const auto& a : agents_) {
      if (a->host != &at) continue;
      const auto it = a->map.find(about);
      if (it == a->map.end()) return std::nullopt;
      return it->second;
    }
    return std::nullopt;
  }

  void set_round_observer(LoadExchange::RoundObserver obs) {
    observer_ = std::move(obs);
  }
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t entries_merged() const noexcept {
    return merged_;
  }
  [[nodiscard]] std::uint64_t stale_dropped() const noexcept {
    return stale_dropped_;
  }

 private:
  struct Agent {
    os::Host* host = nullptr;
    std::unique_ptr<LoadSensor> sensor;
    std::map<std::string, LoadEntry> map;
    sim::Rng rng;

    Agent(os::Host* host_, std::unique_ptr<LoadSensor> sensor_, sim::Rng rng_)
        : host(host_), sensor(std::move(sensor_)), rng(rng_) {}
  };

  void receive(Agent& agent, const LegacyGossip& gossip) {
    const sim::Time now = vm_->engine().now();
    for (const LoadEntry& e : gossip.entries) {
      if (e.host == agent.host->name()) continue;
      if (now - e.stamp > 3.0 * policy_.staleness_bound) {
        ++stale_dropped_;
        continue;
      }
      auto [it, inserted] = agent.map.try_emplace(e.host, e);
      if (!inserted) {
        if (it->second.stamp >= e.stamp) continue;
        it->second = e;
      }
      ++merged_;
    }
  }

  void gossip_round(Agent& agent) {
    const sim::Time now = vm_->engine().now();
    ++rounds_;
    agent.map[agent.host->name()] = agent.sensor->entry();
    std::erase_if(agent.map, [&](const auto& kv) {
      return kv.first != agent.host->name() &&
             now - kv.second.stamp > 3.0 * policy_.staleness_bound;
    });
    std::vector<LoadEntry> entries;
    entries.push_back(agent.map[agent.host->name()]);
    std::vector<const LoadEntry*> rest;
    for (const auto& [name, e] : agent.map)
      if (name != agent.host->name()) rest.push_back(&e);
    std::sort(rest.begin(), rest.end(),
              [](const LoadEntry* a, const LoadEntry* b) {
                return a->stamp != b->stamp ? a->stamp > b->stamp
                                            : a->host < b->host;
              });
    for (const LoadEntry* e : rest) {
      if (entries.size() >= policy_.vector_cap) break;
      entries.push_back(*e);
    }

    std::vector<Agent*> peers;
    for (const auto& a : agents_)
      if (a.get() != &agent && a->host->up()) peers.push_back(a.get());
    const std::size_t sends =
        std::min(static_cast<std::size_t>(policy_.fanout), peers.size());
    std::vector<const os::Host*> chosen;
    for (std::size_t i = 0; i < sends; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(agent.rng.below(peers.size() - i));
      std::swap(peers[i], peers[j]);
      chosen.push_back(peers[i]->host);
    }
    if (observer_) observer_(*agent.host, entries, chosen);
    for (const os::Host* peer : chosen) {
      // The header-only charge the original build actually made (its size
      // was computed from a moved-from payload).
      net::Datagram d(agent.host->node(), peer->node(), kLoadPort,
                      kGossipHeaderBytes,
                      LegacyGossip(agent.host->name(), entries));
      auto sender = [](net::DatagramService* dg,
                       net::Datagram dgram) -> sim::Co<void> {
        try {
          co_await dg->send_unreliable(std::move(dgram));
        } catch (const net::DeliveryError&) {
        }
      };
      sim::spawn(vm_->engine(),
                 sender(&vm_->network().datagrams(), std::move(d)));
    }
  }

  [[nodiscard]] sim::Co<void> run_agent(Agent* agent, sim::Time until) {
    sim::Engine& eng = vm_->engine();
    co_await sim::Delay(eng, agent->rng.uniform() * policy_.gossip_interval);
    while (eng.now() < until) {
      if (agent->host->up() && !agent->host->frozen()) gossip_round(*agent);
      co_await sim::Delay(eng, policy_.gossip_interval);
    }
  }

  pvm::PvmSystem* vm_;
  ExchangePolicy policy_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<sim::ProcHandle> loops_;
  LoadExchange::RoundObserver observer_;
  std::uint64_t rounds_ = 0;
  std::uint64_t merged_ = 0;
  std::uint64_t stale_dropped_ = 0;
};

}  // namespace cpe::load::test
