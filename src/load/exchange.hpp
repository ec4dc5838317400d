// MOSIX-style load dissemination (DESIGN.md §11.2).
//
// Each host runs one gossip agent: every `gossip_interval` it refreshes its
// own sensor entry, then sends its `vector_cap` freshest entries (itself
// always first) to `fanout` random live peers over *unreliable* datagrams —
// a lost gossip round costs nothing but staleness, so the exchange never
// blocks on a dead peer the way the reliable pvmd transport would.
// Receivers merge by origin stamp: newer wins, and a host's own sensor is
// always authoritative for its own entry.  The result at every host is an
// eventually-consistent partial load map whose entries carry their age; the
// PlacementEngine discounts or drops entries older than its staleness
// bound rather than trusting them.
//
// Host time is dominated by this class at fleet scale, so agent state is
// dense: a table indexed by agent number (vm.daemons() order) with names
// only at the edges (view, entry_at, the round observer).  See DESIGN.md
// §11.2 for the layout and why each shortcut keeps every virtual-time
// output identical.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/flat_map.hpp"

#include "load/sensor.hpp"
#include "pvm/system.hpp"
#include "sim/random.hpp"

namespace cpe::load {

struct ExchangePolicy {
  sim::Time gossip_interval = 1.0;
  int fanout = 2;               ///< random peers per round
  std::size_t vector_cap = 16;  ///< freshest entries per gossip datagram
  /// Entries older than this are garbage-collected from the maps (placement
  /// applies its own, usually equal, bound when reading).
  sim::Time staleness_bound = 5.0;
  SensorPolicy sensor;
  std::uint64_t seed = 0x10adf00d;
};

class LoadExchange {
 public:
  LoadExchange(pvm::PvmSystem& vm, ExchangePolicy policy = {});
  LoadExchange(const LoadExchange&) = delete;
  LoadExchange& operator=(const LoadExchange&) = delete;
  /// Unbinds every agent's port (the VM outlives the exchange in tests).
  ~LoadExchange();

  [[nodiscard]] pvm::PvmSystem& vm() const noexcept { return *vm_; }
  [[nodiscard]] const ExchangePolicy& policy() const noexcept {
    return policy_;
  }

  /// Start every sensor poll and gossip loop until `until`.
  void start(sim::Time until);

  /// The sensor running on `host`; nullptr when the host is not in the VM.
  [[nodiscard]] LoadSensor* sensor_on(const os::Host& host) const;

  /// Snapshot of the load map held *at* `at` (name-sorted, own entry
  /// refreshed from the local sensor).  This is what a scheduler hosted on
  /// `at` can actually know without central polling.
  [[nodiscard]] std::vector<LoadEntry> view(const os::Host& at) const;

  /// The entry for `about` in `at`'s map; nullopt when never heard of (or
  /// garbage-collected).  For `about == at` this is the own entry as of
  /// `at`'s last gossip round, not the live sensor.
  [[nodiscard]] std::optional<LoadEntry> entry_at(
      const os::Host& at, const std::string& about) const;

  /// Diagnostics hook, called once per gossip round after the peers are
  /// drawn: the sending host, the vector it sends (own entry first), and
  /// the chosen peers in send order.
  using RoundObserver = std::function<void(
      const os::Host& from, const std::vector<LoadEntry>& vector,
      const std::vector<const os::Host*>& peers)>;
  void set_round_observer(RoundObserver obs) { observer_ = std::move(obs); }

  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t entries_merged() const noexcept {
    return merged_;
  }
  [[nodiscard]] std::uint64_t stale_dropped() const noexcept {
    return stale_dropped_;
  }

 private:
  /// Stamp of a table slot that holds nothing.  Every real stamp is
  /// finite, so "held entry at least as fresh" (stamp >= incoming) is
  /// false for it.
  static constexpr sim::Time kNever =
      -std::numeric_limits<sim::Time>::infinity();

  /// One gossiped entry, naming its host by agent number.
  struct GossipItem {
    std::uint32_t host = 0;
    sim::Time stamp = 0;
    LoadSample sample;

    GossipItem() noexcept {}
    GossipItem(std::uint32_t host_, sim::Time stamp_,
               LoadSample sample_) noexcept
        : host(host_), stamp(stamp_), sample(sample_) {}
  };
  /// Gossip payload: the sender's freshest entries, its own first.  One
  /// immutable vector per round is shared by all of its datagrams (and by
  /// duplicated deliveries).  Nothing on the path mutates it: the PVM
  /// corrupt hook garbles only pvm::Message payloads.
  using Gossip = std::shared_ptr<const std::vector<GossipItem>>;

  struct Agent {
    os::Host* host = nullptr;
    std::uint32_t self = 0;  ///< this agent's number
    std::unique_ptr<LoadSensor> sensor;
    /// Dense load table indexed by agent number, allocated on first use
    /// (so building a 1024-host exchange does not zero 32 MB up front).
    /// stamp[j] == kNever: nothing ever heard about agent j; otherwise
    /// sample[j] is its freshest entry.  The agent's own slot holds its
    /// entry as of its last gossip round.
    std::vector<sim::Time> stamp;
    std::vector<LoadSample> sample;
    /// Time of the last gossip round.  Aging out is lazy: a slot older than
    /// 3x staleness_bound at that instant is not known() — exactly the
    /// entries the round would have erased — and keeps its stamp until a
    /// fresher merge overwrites it.
    sim::Time aged_at = kNever;
    /// The vector_cap - 1 freshest slots other than our own, best first
    /// (stamp descending, then host name), aged-out ones included.  Stamps
    /// only ever rise, so a merge is the only way into this list and each
    /// merge re-ranks one slot: no round has to scan the table.
    std::vector<std::uint32_t> fresh;
    sim::Rng rng;

    Agent() : rng(0) {}
    Agent(os::Host* host_, std::uint32_t self_,
          std::unique_ptr<LoadSensor> sensor_, sim::Rng rng_)
        : host(host_), self(self_), sensor(std::move(sensor_)), rng(rng_) {}
  };

  [[nodiscard]] const Agent* agent_on(const os::Host& host) const;
  /// Allocate the agent's table (all kNever) on first use.
  void ensure_table(Agent& agent);
  /// A table slot or gossip item about agent `about`, named.
  [[nodiscard]] LoadEntry entry_of(std::uint32_t about, sim::Time stamp,
                                   const LoadSample& s) const;
  /// Whether `agent` holds an entry about `j` (never heard and aged-out
  /// slots do not count).
  [[nodiscard]] bool known(const Agent& agent, std::uint32_t j) const;
  /// Rank slot `j` (not in `agent.fresh`) into `agent.fresh`.
  void offer_fresh(Agent& agent, std::uint32_t j) const;
  void receive(Agent& agent, const std::vector<GossipItem>& gossip);
  void gossip_round(Agent& agent);
  /// Draw min(fanout, live peers) distinct live peers of `agent` into
  /// picks_: the same RNG draws and picks as a partial Fisher-Yates over
  /// the materialized list of live peers.
  void pick_peers(Agent& agent);
  [[nodiscard]] sim::Co<void> run_agent(Agent* agent, sim::Time until);

  pvm::PvmSystem* vm_;
  ExchangePolicy policy_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Agent>> agents_;
  /// Agent numbers sorted by host name, and each agent's position in that
  /// order: the name tie-break of the top-k as an integer compare.
  std::vector<std::uint32_t> by_name_;
  std::vector<std::uint32_t> name_rank_;
  util::FlatMap<net::NodeId, std::uint32_t> by_node_;
  // Per-round scratch for the peer draw: the drawn peers, the shuffle
  // positions moved so far, and the live peers (scanned only while some
  // host is down).
  std::vector<std::uint32_t> picks_;
  std::vector<std::pair<std::size_t, std::uint32_t>> moved_;
  std::vector<std::uint32_t> live_;
  std::vector<sim::ProcHandle> loops_;
  RoundObserver observer_;
  obs::Counter* sent_ctr_ = nullptr;
  obs::Counter* merged_ctr_ = nullptr;
  std::uint64_t rounds_ = 0;
  std::uint64_t merged_ = 0;
  std::uint64_t stale_dropped_ = 0;
};

}  // namespace cpe::load
