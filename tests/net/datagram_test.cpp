#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace cpe::net {
namespace {

struct DatagramFixture : ::testing::Test {
  sim::Engine eng;
  Network net{eng};
  NodeId h1 = net.add_node("host1");
  NodeId h2 = net.add_node("host2");
};

TEST_F(DatagramFixture, DeliversPayloadToBoundHandler) {
  std::string got;
  net.datagrams().bind(h2, 7, [&](Datagram d) {
    got = std::any_cast<std::string>(d.payload);
  });
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(
        Datagram{h1, h2, 7, 100, std::string("hello")});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_EQ(got, "hello");
}

TEST_F(DatagramFixture, ThrowsWithoutHandler) {
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 9, 10, {}});
  };
  sim::spawn(eng, body());
  EXPECT_THROW(eng.run(), Error);
}

TEST_F(DatagramFixture, UnbindRemovesHandler) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.datagrams().unbind(h2, 7);
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 10, {}});
  };
  sim::spawn(eng, body());
  EXPECT_THROW(eng.run(), Error);
}

TEST_F(DatagramFixture, RebindReplacesHandler) {
  int first = 0, second = 0;
  net.datagrams().bind(h2, 7, [&](Datagram) { ++first; });
  net.datagrams().bind(h2, 7, [&](Datagram) { ++second; });
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 10, {}});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(DatagramHandlerTable, ChurnAcrossThousandsOfBindingsKeepsEveryKey) {
  // Two ports on each of 2048 nodes is enough keys for long probe chains;
  // unbinding every third binding then exercises erase in the middle of
  // them, and rebinding some of those reuses the freed slots.
  constexpr std::size_t kNodes = 2048;
  constexpr std::uint16_t kPorts[] = {7, 9};
  sim::Engine eng;
  Network net{eng};
  const NodeId sender = net.add_node("sender");
  struct Binding {
    NodeId node;
    std::uint16_t port;
    bool bound = true;
    int generation = 1;  ///< 2 once rebound
    int hits = 0;
  };
  std::vector<Binding> bindings;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId n = net.add_node("n" + std::to_string(i));
    for (const std::uint16_t p : kPorts) bindings.push_back({n, p});
  }
  DatagramService& dg = net.datagrams();
  auto bind = [&](std::size_t b, int generation) {
    Binding& bd = bindings[b];
    bd.bound = true;
    bd.generation = generation;
    dg.bind(bd.node, bd.port, [&bindings, b, generation](Datagram d) {
      Binding& self = bindings[b];
      EXPECT_EQ(d.dst, self.node);
      EXPECT_EQ(d.port, self.port);
      EXPECT_EQ(generation, self.generation) << "stale handler ran";
      EXPECT_EQ(std::any_cast<std::size_t>(d.payload), b);
      ++self.hits;
    });
  };
  for (std::size_t b = 0; b < bindings.size(); ++b) bind(b, 1);
  for (std::size_t b = 0; b < bindings.size(); b += 3) {
    dg.unbind(bindings[b].node, bindings[b].port);
    bindings[b].bound = false;
  }
  for (std::size_t b = 0; b < bindings.size(); b += 9) bind(b, 2);

  // One process sends a datagram to every binding whose state is `bound`.
  auto send_all = [&](bool bound) {
    auto body = [](DatagramService* d,
                   std::vector<Datagram> sends) -> sim::Proc {
      for (Datagram& dgram : sends) co_await d->send(std::move(dgram));
    };
    std::vector<Datagram> sends;
    for (std::size_t b = 0; b < bindings.size(); ++b)
      if (bindings[b].bound == bound)
        sends.push_back(
            Datagram{sender, bindings[b].node, bindings[b].port, 16, b});
    sim::spawn(eng, body(&dg, std::move(sends)));
    eng.run();
  };

  // Every live key reaches its own (latest) handler exactly once.
  send_all(true);
  std::size_t unbound = 0;
  for (const Binding& bd : bindings) {
    EXPECT_EQ(bd.hits, bd.bound ? 1 : 0);
    if (!bd.bound) ++unbound;
  }
  ASSERT_GT(unbound, bindings.size() / 5);

  // An unbound key throws through the synchronous delivery path.
  for (std::size_t b = 0; b < bindings.size(); ++b) {
    if (bindings[b].bound) continue;
    auto body = [](DatagramService* d, Datagram dgram) -> sim::Proc {
      co_await d->send(std::move(dgram));
    };
    sim::spawn(eng, body(&dg, Datagram{sender, bindings[b].node,
                                       bindings[b].port, 16, b}));
    EXPECT_THROW(eng.run(), Error) << "binding " << b;
  }

  // Through the jittered (deferred) path an unbound key is a counted drop.
  ASSERT_EQ(dg.drops_total(), 0u);
  net.set_adversary({.reorder_probability = 1.0, .reorder_horizon = 0.01});
  send_all(false);
  EXPECT_EQ(dg.reorders_injected(), unbound);
  EXPECT_EQ(dg.drops_total(), unbound);
  std::map<NodeId, std::uint64_t> unbound_at;
  for (const Binding& bd : bindings) unbound_at[bd.node] += bd.bound ? 0 : 1;
  for (const auto& [node, n] : unbound_at)
    EXPECT_EQ(dg.drops_to(node), n) << "node " << node;
}

TEST_F(DatagramFixture, LargeMessageFragmentsOnTheWire) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 100'000, {}});
  };
  sim::spawn(eng, body());
  eng.run();
  // 100 kB / 4 kB fragments = 25 fragments, each ~3 data frames + 1 ack.
  EXPECT_GT(net.ethernet().total_frames(), 80u);
}

TEST_F(DatagramFixture, DaemonRouteSlowerThanRawWire) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  double done_at = -1;
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 1'000'000, {}});
    done_at = eng.now();
  };
  sim::spawn(eng, body());
  eng.run();
  const double goodput = 1'000'000 / done_at;  // B/s
  // Slower than TCP (~1.12 MB/s) because of per-fragment stop-and-wait.
  EXPECT_LT(goodput, 1.05e6);
  EXPECT_GT(goodput, 0.6e6);
}

TEST_F(DatagramFixture, LocalDeliveryBypassesMedium) {
  bool got = false;
  net.datagrams().bind(h1, 7, [&](Datagram) { got = true; });
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h1, 7, 50'000, {}});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(net.ethernet().total_frames(), 0u);
}

TEST_F(DatagramFixture, OrderPreservedBetweenPair) {
  std::vector<int> got;
  net.datagrams().bind(h2, 7, [&](Datagram d) {
    got.push_back(std::any_cast<int>(d.payload));
  });
  auto body = [&]() -> sim::Proc {
    for (int i = 0; i < 5; ++i)
      co_await net.datagrams().send(Datagram{h1, h2, 7, 5000, i});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(DatagramFixture, SurvivesLossyNetworkViaRetransmission) {
  int delivered = 0;
  net.datagrams().bind(h2, 7, [&](Datagram) { ++delivered; });
  net.datagrams().set_loss_probability(0.3);
  auto body = [&]() -> sim::Proc {
    for (int i = 0; i < 10; ++i)
      co_await net.datagrams().send(Datagram{h1, h2, 7, 20'000, {}});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_GT(net.datagrams().fragments_retransmitted(), 0u);
}

TEST_F(DatagramFixture, GivesUpAfterMaxRetries) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.datagrams().set_loss_probability(1.0);  // black hole
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 100, {}});
  };
  sim::spawn(eng, body());
  EXPECT_THROW(eng.run(), Error);
}

TEST_F(DatagramFixture, LossyDeliveryIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Engine eng2;
    Network net2(eng2, EthernetParams{}, DatagramParams{}, seed);
    NodeId a = net2.add_node("a");
    NodeId b = net2.add_node("b");
    net2.datagrams().bind(b, 7, [](Datagram) {});
    net2.datagrams().set_loss_probability(0.2);
    auto body = [&]() -> sim::Proc {
      co_await net2.datagrams().send(Datagram{a, b, 7, 100'000, {}});
    };
    sim::spawn(eng2, body());
    eng2.run();
    return eng2.now();
  };
  EXPECT_DOUBLE_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST_F(DatagramFixture, DetachedReceiverExhaustsRetriesWithTypedError) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.ethernet().set_attached(h2, false);
  std::optional<DeliveryError> caught;
  auto body = [&]() -> sim::Proc {
    try {
      co_await net.datagrams().send(Datagram{h1, h2, 7, 10'000, {}});
    } catch (const DeliveryError& e) {
      caught = e;
    }
  };
  sim::spawn(eng, body());
  eng.run();
  ASSERT_TRUE(caught.has_value());
  EXPECT_EQ(caught->dst(), h2);
  EXPECT_EQ(caught->fragment(), 0u);
  // Every attempt beyond the first was counted as a retransmission.
  EXPECT_EQ(net.datagrams().fragments_retransmitted(),
            static_cast<std::uint64_t>(net.datagrams().params().max_retries) +
                1);
}

TEST_F(DatagramFixture, DeliveryErrorReportsTheFailingFragment) {
  // Receiver detaches mid-message: fragment 0 is delivered, a later one
  // exhausts its retries and the error names it.
  net.datagrams().bind(h2, 7, [](Datagram) {});
  eng.schedule_at(0.05, [&] { net.ethernet().set_attached(h2, false); });
  std::optional<DeliveryError> caught;
  auto body = [&]() -> sim::Proc {
    try {
      co_await net.datagrams().send(Datagram{h1, h2, 7, 200'000, {}});
    } catch (const DeliveryError& e) {
      caught = e;
    }
  };
  sim::spawn(eng, body());
  eng.run();
  ASSERT_TRUE(caught.has_value());
  EXPECT_GT(caught->fragment(), 0u);
}

TEST_F(DatagramFixture, DetachedSenderFailsFast) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.ethernet().set_attached(h1, false);
  bool threw = false;
  auto body = [&]() -> sim::Proc {
    try {
      co_await net.datagrams().send(Datagram{h1, h2, 7, 100, {}});
    } catch (const DeliveryError&) {
      threw = true;
    }
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_TRUE(threw);
}

TEST_F(DatagramFixture, ShortOutageIsRiddenOutByRetransmission) {
  // A transient freeze shorter than the retry budget: the message arrives.
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.ethernet().set_attached(h2, false);
  eng.schedule_at(0.3, [&] { net.ethernet().set_attached(h2, true); });
  bool delivered = false;
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 1'000, {}});
    delivered = true;
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_TRUE(delivered);
  EXPECT_GT(net.datagrams().fragments_retransmitted(), 0u);
}

TEST_F(DatagramFixture, PerDestinationCountersTrackDropsAndFailures) {
  // The GS blacklist notes surface these counters; they must attribute
  // trouble to the destination that caused it and to no one else.
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.ethernet().set_attached(h2, false);
  bool threw = false;
  auto body = [&]() -> sim::Proc {
    try {
      co_await net.datagrams().send(Datagram{h1, h2, 7, 1'000, {}});
    } catch (const DeliveryError&) {
      threw = true;
    }
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_TRUE(threw);
  // Every attempt on the dead destination was a drop; the exhausted send is
  // one delivery error.  The healthy node's ledger stays clean.
  EXPECT_GT(net.datagrams().drops_to(h2), 0u);
  EXPECT_EQ(net.datagrams().delivery_errors_to(h2), 1u);
  EXPECT_EQ(net.datagrams().drops_to(h1), 0u);
  EXPECT_EQ(net.datagrams().delivery_errors_to(h1), 0u);
}

TEST_F(DatagramFixture, PartitionBlocksTrafficUntilHealed) {
  net.datagrams().bind(h2, 7, [](Datagram) {});
  net.ethernet().set_partition_group(h2, 1);
  EXPECT_FALSE(net.ethernet().reachable(h1, h2));
  EXPECT_TRUE(net.ethernet().reachable(h1, h1));  // self always reachable
  bool threw = false;
  int delivered = 0;
  auto cut_off = [&]() -> sim::Proc {
    try {
      co_await net.datagrams().send(Datagram{h1, h2, 7, 1'000, {}});
    } catch (const DeliveryError&) {
      threw = true;
    }
  };
  sim::spawn(eng, cut_off());
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_GT(net.datagrams().drops_to(h2), 0u);
  // Heal: group 0 restores full connectivity and traffic flows again.
  net.ethernet().set_partition_group(h2, 0);
  EXPECT_TRUE(net.ethernet().reachable(h1, h2));
  net.datagrams().bind(h2, 7, [&](Datagram) { ++delivered; });
  auto healed = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h1, h2, 7, 1'000, {}});
  };
  sim::spawn(eng, healed());
  eng.run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(DatagramFixture, SameIslandStillCommunicatesDuringPartition) {
  // A partition cuts islands apart but traffic *within* each island flows.
  const NodeId h3 = net.add_node("host3");
  net.ethernet().set_partition_group(h2, 1);
  net.ethernet().set_partition_group(h3, 1);
  EXPECT_TRUE(net.ethernet().reachable(h2, h3));
  EXPECT_FALSE(net.ethernet().reachable(h1, h3));
  int delivered = 0;
  net.datagrams().bind(h3, 7, [&](Datagram) { ++delivered; });
  auto body = [&]() -> sim::Proc {
    co_await net.datagrams().send(Datagram{h2, h3, 7, 1'000, {}});
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace cpe::net
