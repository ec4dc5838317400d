// Differential test: the dense, sort-free LoadExchange against the golden
// name-keyed model it replaced (legacy_exchange.hpp).  Both run the same
// seeded small worknets — random sizes, policies, owner load, crash /
// recover / freeze faults, and a duplicating fabric — and must agree on
// every gossip vector, every chosen peer, the counters, and every host's
// view sampled along the way.  Fault cells hold some host down for part of
// the run, which sends peer sampling down its scanned (slow) path.
#include <gtest/gtest.h>

#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "load/exchange.hpp"
#include "load/legacy_exchange.hpp"

namespace cpe::load {
namespace {

struct Outcome {
  std::vector<std::string> rounds;  ///< one line per gossip round
  std::vector<std::string> views;   ///< one line per sampled view
  std::uint64_t round_count = 0;
  std::uint64_t merged = 0;
  std::uint64_t stale = 0;
  std::uint64_t rounds_with_host_down = 0;
};

std::string show(const LoadEntry& e) {
  std::ostringstream s;
  s << std::setprecision(17) << e.host << '@' << e.stamp << '(' << e.index
    << ',' << e.instant << ',' << e.external_jobs << ',' << e.owner_active
    << ',' << e.up << ')';
  return s.str();
}

enum class Mode { kClean, kFaults, kFaultsDuplicated };

template <class Exchange>
Outcome run_cell(std::uint64_t seed, Mode mode) {
  Outcome out;
  sim::Rng rng(seed);
  sim::Engine eng;
  net::Network net(eng);
  // Names chosen so that name order differs from agent order (w10 < w2).
  const int n = 3 + static_cast<int>(rng.below(10));
  std::vector<std::unique_ptr<os::Host>> hosts;
  for (int i = 0; i < n; ++i)
    hosts.push_back(std::make_unique<os::Host>(
        eng, net, os::HostConfig("w" + std::to_string(i), "HPPA", 1.0)));
  pvm::PvmSystem vm(eng, net);
  for (auto& h : hosts) vm.add_host(*h);
  if (mode == Mode::kFaultsDuplicated)
    net.set_adversary({.duplicate_probability = 0.4, .reorder_horizon = 0.3});

  ExchangePolicy p;
  p.seed = rng.next_u64();
  p.fanout = 1 + static_cast<int>(rng.below(3));
  p.vector_cap = 1 + rng.below(6);
  p.staleness_bound = 0.5 + 2.0 * rng.uniform();
  p.gossip_interval = 0.5 + rng.uniform();
  Exchange x(vm, p);
  x.set_round_observer([&](const os::Host& from,
                           const std::vector<LoadEntry>& vec,
                           const std::vector<const os::Host*>& peers) {
    std::ostringstream s;
    s << std::setprecision(17) << eng.now() << ' ' << from.name() << ':';
    for (const LoadEntry& e : vec) s << ' ' << show(e);
    s << " ->";
    for (const os::Host* h : peers) s << ' ' << h->name();
    out.rounds.push_back(s.str());
    if (vm.down_hosts() > 0) ++out.rounds_with_host_down;
  });

  constexpr sim::Time kUntil = 40.0;
  // Owner load changes drive event-driven sensor samples off the poll grid.
  for (int k = 0; k < 3 * n; ++k) {
    os::Host* h = hosts[rng.below(hosts.size())].get();
    const int jobs = static_cast<int>(rng.below(5));
    eng.schedule_at(kUntil * rng.uniform(),
                    [h, jobs] { h->cpu().set_external_jobs(jobs); });
  }
  if (mode != Mode::kClean) {
    for (int k = 0; k < 4; ++k) {
      os::Host* h = hosts[rng.below(hosts.size())].get();
      const sim::Time at = 30.0 * rng.uniform();
      const sim::Time len = 1.0 + 8.0 * rng.uniform();
      if (k == 0 || rng.below(2) == 0) {  // at least one crash
        eng.schedule_at(at, [h] { h->crash(); });
        eng.schedule_at(at + len, [h] { h->recover(); });
      } else {
        eng.schedule_at(at, [h] { h->freeze(); });
        eng.schedule_at(at + len, [h] { h->unfreeze(); });
      }
    }
  }
  for (sim::Time t = 0.37; t < kUntil; t += 0.9) {
    eng.schedule_at(t, [&] {
      for (const auto& h : hosts) {
        std::ostringstream s;
        s << std::setprecision(17) << eng.now() << ' ' << h->name() << ':';
        for (const LoadEntry& e : x.view(*h)) s << ' ' << show(e);
        out.views.push_back(s.str());
      }
    });
  }
  x.start(kUntil);
  eng.run_until(kUntil + 1.0);
  // Point lookups, own entry included (the last-round snapshot).
  for (const auto& at : hosts)
    for (const auto& about : hosts) {
      const std::optional<LoadEntry> e = x.entry_at(*at, about->name());
      out.views.push_back(at->name() + "/" + about->name() + ": " +
                          (e ? show(*e) : std::string("-")));
    }
  out.round_count = x.rounds();
  out.merged = x.entries_merged();
  out.stale = x.stale_dropped();
  return out;
}

/// Index of the first differing line (or the shorter length), for a
/// readable failure instead of two thousand-line dumps.
std::size_t first_diff(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

void expect_same(std::uint64_t seed, Mode mode) {
  const Outcome want = run_cell<test::LegacyLoadExchange>(seed, mode);
  const Outcome got = run_cell<LoadExchange>(seed, mode);
  ASSERT_FALSE(want.rounds.empty());
  const std::size_t r = first_diff(want.rounds, got.rounds);
  EXPECT_EQ(r, want.rounds.size())
      << "gossip round " << r << " differs:\n  model: "
      << (r < want.rounds.size() ? want.rounds[r] : "<end>")
      << "\n  dense: " << (r < got.rounds.size() ? got.rounds[r] : "<end>");
  EXPECT_EQ(want.rounds.size(), got.rounds.size());
  const std::size_t v = first_diff(want.views, got.views);
  EXPECT_EQ(v, want.views.size())
      << "view " << v << " differs:\n  model: "
      << (v < want.views.size() ? want.views[v] : "<end>")
      << "\n  dense: " << (v < got.views.size() ? got.views[v] : "<end>");
  EXPECT_EQ(want.views.size(), got.views.size());
  EXPECT_EQ(want.round_count, got.round_count);
  EXPECT_EQ(want.merged, got.merged);
  EXPECT_EQ(want.stale, got.stale);
  if (mode != Mode::kClean) {
    // The fault cells really exercised the scanned peer draw.
    EXPECT_GT(got.rounds_with_host_down, 0u);
  }
}

TEST(ExchangeDifferential, CleanWorknetsMatchTheNameKeyedModel) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same(seed, Mode::kClean);
  }
}

TEST(ExchangeDifferential, CrashRecoverFreezeMatchTheNameKeyedModel) {
  for (std::uint64_t seed = 101; seed <= 112; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same(seed, Mode::kFaults);
  }
}

TEST(ExchangeDifferential, DuplicatingFabricMatchesTheNameKeyedModel) {
  for (std::uint64_t seed = 201; seed <= 212; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same(seed, Mode::kFaultsDuplicated);
  }
}

}  // namespace
}  // namespace cpe::load
