#include "load/exchange.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "support/pvm_fixture.hpp"

namespace cpe::load {
namespace {

using test::WorknetFixture;

TEST_F(WorknetFixture, GossipBuildsAFullMapOnASmallWorknet) {
  host1.cpu().set_external_jobs(4);
  LoadExchange x(vm);
  x.start(20.0);
  eng.run_until(20.0);
  // Three hosts, fanout 2: everyone hears about everyone within a few
  // rounds.
  for (const os::Host* at : {&host1, &host2, &sparc}) {
    const std::vector<LoadEntry> v = x.view(*at);
    ASSERT_EQ(v.size(), 3u) << "partial map at " << at->name();
  }
  EXPECT_GT(x.rounds(), 0u);
  EXPECT_GT(x.entries_merged(), 0u);
  // host2's map has host1's load (gossiped, not polled).
  const std::optional<LoadEntry> e = x.entry_at(host2, "host1");
  ASSERT_TRUE(e.has_value());
  EXPECT_GT(e->index, 2.0);  // EWMA converging toward 4
  EXPECT_TRUE(e->owner_active);
}

TEST_F(WorknetFixture, OwnEntryIsAlwaysLiveInTheView) {
  LoadExchange x(vm);
  host1.cpu().set_external_jobs(6);  // no gossip has run yet
  for (const LoadEntry& e : x.view(host1)) {
    if (e.host == "host1") {
      EXPECT_DOUBLE_EQ(e.instant, 6.0);
    }
  }
}

TEST_F(WorknetFixture, EntriesCarryTheOriginStampNotTheArrivalTime) {
  host1.cpu().set_external_jobs(2);
  LoadExchange x(vm);
  x.start(10.0);
  eng.run_until(10.0);
  const std::optional<LoadEntry> e = x.entry_at(host2, "host1");
  ASSERT_TRUE(e.has_value());
  EXPECT_LE(e->stamp, eng.now());
  EXPECT_GE(e->stamp, 0.0);
}

TEST_F(WorknetFixture, CrashedHostEntriesAgeOutOfTheMaps) {
  ExchangePolicy p;
  p.staleness_bound = 2.0;
  LoadExchange x(vm, p);
  x.start(40.0);
  auto driver = [](sim::Engine* e, os::Host* victim) -> sim::Co<void> {
    co_await sim::Delay(*e, 5.0);
    victim->crash();
  };
  sim::spawn(eng, driver(&eng, &sparc));
  eng.run_until(40.0);
  // sparc stopped refreshing at t=5; by t=40 its last entry is far past
  // 3x the staleness bound and must have been garbage-collected.
  EXPECT_FALSE(x.entry_at(host1, "sparc1").has_value());
  EXPECT_FALSE(x.entry_at(host2, "sparc1").has_value());
}

TEST_F(WorknetFixture, CrashedHostNeitherSendsNorWedgesTheExchange) {
  LoadExchange x(vm);
  x.start(20.0);
  auto driver = [](sim::Engine* e, os::Host* victim) -> sim::Co<void> {
    co_await sim::Delay(*e, 2.0);
    victim->crash();
  };
  sim::spawn(eng, driver(&eng, &host2));
  eng.run_until(20.0);  // must not throw DeliveryError out of the loops
  // The survivors still gossip to each other.
  EXPECT_TRUE(x.entry_at(host1, "sparc1").has_value());
  EXPECT_TRUE(x.entry_at(sparc, "host1").has_value());
}

TEST_F(WorknetFixture, GossipUsesUnreliableDatagrams) {
  LoadExchange x(vm);
  x.start(10.0);
  eng.run_until(10.0);
  EXPECT_GT(net.datagrams().unreliable_sent(), 0u);
  EXPECT_GT(vm.metrics().counter("load.gossip.sent").value(), 0u);
}

TEST_F(WorknetFixture, GossipDatagramsAreChargedTheHeaderOnly) {
  // The charged size is pinned to what the original build charged (its
  // size expression read a moved-from payload): kGossipHeaderBytes per
  // datagram, whatever the vector holds.  Gossip is the only traffic here.
  LoadExchange x(vm);
  x.start(10.0);
  eng.run_until(10.0);
  const auto& dg = net.datagrams();
  ASSERT_GT(dg.unreliable_sent(), 0u);
  EXPECT_EQ(dg.payload_bytes_sent(), kGossipHeaderBytes * dg.unreliable_sent());
}

TEST_F(WorknetFixture, PeerSamplingSkipsADownHost) {
  // Once host2 is down, every round at host1 and sparc1 must target the
  // only other live host (the scanned draw), then all hosts again after
  // host2 recovers (the implicit draw).
  ExchangePolicy p;
  p.fanout = 1;
  LoadExchange x(vm, p);
  std::vector<std::string> down_targets;
  std::size_t after_recover = 0;
  x.set_round_observer([&](const os::Host& from, const std::vector<LoadEntry>&,
                           const std::vector<const os::Host*>& peers) {
    ASSERT_EQ(peers.size(), 1u);
    if (!host2.up()) down_targets.push_back(from.name() + ">" +
                                            peers[0]->name());
    else if (eng.now() > 12.0 && peers[0] == &host2)
      ++after_recover;
  });
  x.start(20.0);
  eng.schedule_at(2.0, [this] { host2.crash(); });
  eng.schedule_at(10.0, [this] { host2.recover(); });
  eng.run_until(20.0);
  ASSERT_FALSE(down_targets.empty());
  for (const std::string& t : down_targets)
    EXPECT_TRUE(t == "host1>sparc1" || t == "sparc1>host1") << t;
  EXPECT_GT(after_recover, 0u);
  EXPECT_EQ(vm.down_hosts(), 0u);
}

TEST(GossipAdversary, DuplicatedGossipMergesExactlyOnce) {
  // Freshest-wins merging is the gossip layer's dedup: an echoed datagram
  // carries entries with the stamps the first copy already delivered, so
  // the replay merges nothing.  A run on a duplicating fabric must
  // converge to the same maps — and the same merge count — as a clean one.
  auto run_once = [](bool duplicated) {
    sim::Engine e;
    net::Network n(e);
    os::Host a(e, n, os::HostConfig("a", "HPPA", 1.0));
    os::Host b(e, n, os::HostConfig("b", "HPPA", 1.0));
    os::Host c(e, n, os::HostConfig("c", "HPPA", 1.0));
    pvm::PvmSystem v(e, n);
    v.add_host(a);
    v.add_host(b);
    v.add_host(c);
    if (duplicated) n.set_adversary({.duplicate_probability = 1.0});
    LoadExchange x(v);
    x.start(20.0);
    e.run_until(20.0);
    std::size_t full_maps = 0;
    for (const os::Host* at : {&a, &b, &c})
      if (x.view(*at).size() == 3u) ++full_maps;
    return std::tuple{full_maps, x.entries_merged(),
                      n.datagrams().duplicates_injected()};
  };
  const auto [clean_maps, clean_merged, clean_dups] = run_once(false);
  const auto [adv_maps, adv_merged, adv_dups] = run_once(true);
  EXPECT_EQ(clean_maps, 3u);
  EXPECT_EQ(adv_maps, 3u);
  EXPECT_EQ(clean_dups, 0u);
  EXPECT_GT(adv_dups, 0u);
  // Every echoed entry was skipped by the stamp check: not one extra merge.
  EXPECT_EQ(adv_merged, clean_merged);
}

TEST_F(WorknetFixture, SensorAccessorsFindEveryDaemonHost) {
  LoadExchange x(vm);
  EXPECT_NE(x.sensor_on(host1), nullptr);
  EXPECT_NE(x.sensor_on(host2), nullptr);
  EXPECT_NE(x.sensor_on(sparc), nullptr);
  os::Host outsider(eng, net, os::HostConfig("outsider", "HPPA", 1.0));
  EXPECT_EQ(x.sensor_on(outsider), nullptr);
}

}  // namespace
}  // namespace cpe::load
