// The worknet fabric: node registry, shared Ethernet segment, and the
// reliable datagram service used by PVM daemons.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ethernet.hpp"
#include "sim/channel.hpp"
#include "sim/random.hpp"
#include "util/flat_map.hpp"

namespace cpe::net {

/// Identifies a workstation on the network.
using NodeId = std::uint32_t;

/// A transport gave up on a peer: retransmissions exhausted, the local NIC
/// detached, or a stream stalled past its deadline.  Distinct from the
/// generic Error so migration and recovery code can tell "the network gave
/// up" apart from programming errors and roll back instead of corrupting
/// state.
class DeliveryError : public Error {
 public:
  DeliveryError(std::string what, NodeId dst, std::size_t fragment)
      : Error(std::move(what)), dst_(dst), fragment_(fragment) {}

  /// The unreachable destination node.
  [[nodiscard]] NodeId dst() const noexcept { return dst_; }
  /// Index of the fragment/segment that was undeliverable (0 for streams).
  [[nodiscard]] std::size_t fragment() const noexcept { return fragment_; }

 private:
  NodeId dst_;
  std::size_t fragment_;
};

/// A delivered message.  `bytes` is the modelled size on the wire; `payload`
/// carries the real in-simulation object (a packed PVM message, a task image,
/// ...) so that data movement is functional, not just timed.
///
/// NOTE: deliberately *not* an aggregate (user-provided constructor).  GCC 12
/// miscompiles prvalue aggregate-initialized arguments to by-value coroutine
/// parameters (the frame copy aliases the caller's temporary and its members
/// are destroyed twice).  Every type passed by value into a coroutine in this
/// codebase carries a user-provided constructor for this reason; see
/// tests/sim/coro_test.cpp (GccAggregateParamRegression).
struct Datagram {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint16_t port = 0;
  std::size_t bytes = 0;
  std::any payload;

  Datagram() noexcept {}
  Datagram(NodeId src_, NodeId dst_, std::uint16_t port_, std::size_t bytes_,
           std::any payload_ = {})
      : src(src_),
        dst(dst_),
        port(port_),
        bytes(bytes_),
        payload(std::move(payload_)) {}
};

/// Adversarial-network knobs (DESIGN.md §7).  Beyond loss and partition the
/// fabric can duplicate deliveries, reorder them within a bounded horizon,
/// stall a frame in a congestion burst, and flip payload bits on the wire.
/// All probabilities default to 0, i.e. a benign network.  Applied per
/// delivery/fragment by DatagramService and (corruption/burst only — TCP's
/// sequence numbers mask duplication and reordering end-to-end) per segment
/// by TcpStream.
struct AdversaryParams {
  double duplicate_probability = 0.0;  ///< deliver an extra, jittered copy
  double reorder_probability = 0.0;    ///< hold a delivery for up to horizon
  sim::Time reorder_horizon = 0.0;     ///< max extra delay for held/dup copies
  double corrupt_probability = 0.0;    ///< flip payload bits in a fragment
  double burst_probability = 0.0;      ///< stall a frame behind a burst
  sim::Time burst_delay = 0.0;         ///< length of the stall

  [[nodiscard]] bool any() const noexcept {
    return duplicate_probability > 0 || reorder_probability > 0 ||
           corrupt_probability > 0 || burst_probability > 0;
  }
};

struct DatagramParams {
  /// PVM daemons fragment large messages into ~4 KB UDP datagrams and ack
  /// each fragment; this stop-and-wait per-fragment turnaround is why the
  /// pvmd route is slower than a direct TCP connection.
  std::size_t fragment_bytes = 4096;
  std::size_t udp_ip_header = 28;       ///< UDP 8 + IP 20 per packet
  std::size_t ack_payload = 32;         ///< fragment-ack packet payload
  sim::Time per_fragment_proc = 800e-6; ///< daemon processing per fragment
  sim::Time retransmit_timeout = 50e-3;
  double loss_probability = 0.0;        ///< fault injection (tests)
  int max_retries = 20;
  /// Same-node delivery: a local-socket copy, no medium involved.
  double local_copy_bps = 30e6 * 8;     ///< ~30 MB/s 1994-era memcpy
  sim::Time local_fixed = 200e-6;
};

/// Reliable, ordered datagram transport between nodes, in the style of the
/// pvmd-pvmd UDP protocol: fragmentation, per-fragment acks, timeouts and
/// retransmission (lossy-network fault injection is supported for tests).
class DatagramService {
 public:
  using Handler = std::function<void(Datagram)>;
  /// Models what bit-corruption does to a payload in flight: garble it in
  /// place and report whether the receiver's integrity check catches the
  /// damage (true = detected, the fragment is discarded and retransmitted;
  /// false = the garbage is delivered).  Installed by the PVM layer, which
  /// owns the frame-checksum policy; with no hook installed corruption is
  /// always detected (a plain transport checksum with no payload to keep).
  using CorruptHook = std::function<bool(std::any&)>;

  DatagramService(Ethernet& ether, DatagramParams params, sim::Rng rng)
      : ether_(ether), params_(params), rng_(rng) {}

  [[nodiscard]] const DatagramParams& params() const noexcept {
    return params_;
  }
  void set_loss_probability(double p) noexcept {
    params_.loss_probability = p;
  }
  void set_adversary(const AdversaryParams& adv) noexcept { adversary_ = adv; }
  [[nodiscard]] const AdversaryParams& adversary() const noexcept {
    return adversary_;
  }
  void set_corrupt_hook(CorruptHook hook) { corrupt_hook_ = std::move(hook); }

  /// Register the receive handler for (node, port).  One handler per pair.
  /// A running handler lives in the table, so it must not bind or unbind
  /// synchronously (schedule the change instead).
  void bind(NodeId node, std::uint16_t port, Handler handler);
  void unbind(NodeId node, std::uint16_t port);

  /// Send a datagram reliably; completes when the final fragment has been
  /// acknowledged.  The handler at (dst, port) fires when the last fragment
  /// is *delivered* (just before its ack).  Throws DeliveryError when the
  /// peer stays unreachable for max_retries or the local node is detached.
  [[nodiscard]] sim::Co<void> send(Datagram d);

  /// Fire-and-forget send: every fragment is transmitted exactly once, no
  /// acks, no retransmission.  A lost fragment silently discards the whole
  /// datagram (counted in drops_to).  This is the UDP the load-gossip layer
  /// wants: stale or missing load vectors are tolerable, head-of-line
  /// blocking on a dead peer is not.  Never throws for an unreachable peer;
  /// only a detached *local* node raises DeliveryError.
  [[nodiscard]] sim::Co<void> send_unreliable(Datagram d);

  [[nodiscard]] std::uint64_t datagrams_sent() const noexcept {
    return sent_;
  }
  /// Datagrams handed to send_unreliable() (delivered or not).
  [[nodiscard]] std::uint64_t unreliable_sent() const noexcept {
    return unreliable_sent_;
  }
  [[nodiscard]] std::uint64_t fragments_retransmitted() const noexcept {
    return retransmits_;
  }
  /// Sum of the payload bytes of every datagram handed to send() (before
  /// fragmentation/header overhead; the Ethernet counters cover the wire).
  [[nodiscard]] std::uint64_t payload_bytes_sent() const noexcept {
    return payload_bytes_sent_;
  }
  [[nodiscard]] std::uint64_t drops_total() const noexcept {
    std::uint64_t n = 0;
    for (const auto& [node, c] : drops_) n += c;
    return n;
  }
  [[nodiscard]] std::uint64_t delivery_errors_total() const noexcept {
    std::uint64_t n = 0;
    for (const auto& [node, c] : delivery_errors_) n += c;
    return n;
  }

  // -- Per-destination health counters ---------------------------------------
  // Operators (and the GS journal) want to know *why* a destination was
  // given up on.  drops_to counts fragments that vanished en route to a
  // node (detached peer, partition, or injected loss); delivery_errors_to
  // counts sends that exhausted the retry budget and threw DeliveryError.
  [[nodiscard]] std::uint64_t drops_to(NodeId dst) const noexcept {
    const auto it = drops_.find(dst);
    return it == drops_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t delivery_errors_to(NodeId dst) const noexcept {
    const auto it = delivery_errors_.find(dst);
    return it == delivery_errors_.end() ? 0 : it->second;
  }
  /// Adversary-injected duplicate deliveries aimed at a node.  Together with
  /// corrupt_to this lets blacklisting distinguish a lossy link from an
  /// adversarial one.
  [[nodiscard]] std::uint64_t duplicates_to(NodeId dst) const noexcept {
    const auto it = duplicates_.find(dst);
    return it == duplicates_.end() ? 0 : it->second;
  }
  /// Adversary-injected corruption events aimed at a node.
  [[nodiscard]] std::uint64_t corrupt_to(NodeId dst) const noexcept {
    const auto it = corrupt_.find(dst);
    return it == corrupt_.end() ? 0 : it->second;
  }

  // -- Per-axis injection counters (DESIGN.md §7) ----------------------------
  // The adversarial sweeps assert these are nonzero: chaos that provably
  // happened, not knobs that silently did nothing.
  [[nodiscard]] std::uint64_t duplicates_injected() const noexcept {
    return duplicates_injected_;
  }
  [[nodiscard]] std::uint64_t reorders_injected() const noexcept {
    return reorders_injected_;
  }
  [[nodiscard]] std::uint64_t bursts_injected() const noexcept {
    return bursts_injected_;
  }
  [[nodiscard]] std::uint64_t corrupt_injected() const noexcept {
    return corrupt_injected_;
  }
  /// Corruption events the receiver's checksum caught (fragment discarded;
  /// reliable sends retransmit, unreliable sends lose the datagram).
  [[nodiscard]] std::uint64_t corrupt_dropped() const noexcept {
    return corrupt_dropped_;
  }
  /// Corruption events that slipped past detection: garbage was delivered.
  /// Nonzero only when the PVM layer runs with frame checksums disabled.
  [[nodiscard]] std::uint64_t corrupt_delivered() const noexcept {
    return corrupt_delivered_;
  }

 private:
  void deliver(Datagram d);
  /// deliver(), but an unbound handler is a counted drop instead of an
  /// error: jittered (reordered/duplicated) deliveries can outlive the
  /// receiver's binding.
  bool try_deliver(Datagram d);
  /// Hand the reassembled datagram to the receiver, applying duplication
  /// and reordering: a duplicate schedules an extra jittered copy, a
  /// reorder holds the delivery itself for up to reorder_horizon while the
  /// (already sent) ack lets later datagrams overtake it.
  void inject_delivery(Datagram d);
  void deliver_later(Datagram d, sim::Time dt);
  /// Corruption roll for one fragment attempt.  Returns true when the
  /// fragment must be treated as lost (detected corruption); on an
  /// undetected flip `d`'s payload is garbled in place and delivery
  /// proceeds.  `last` marks the payload-carrying final fragment.
  bool corrupt_attempt(Datagram& d, bool last);
  [[nodiscard]] sim::Co<void> send_fragment_frames(std::size_t frag_payload);

  Ethernet& ether_;
  DatagramParams params_;
  sim::Rng rng_;
  AdversaryParams adversary_;
  CorruptHook corrupt_hook_;
  util::FlatMap<std::uint64_t, Handler> handlers_;  ///< by key_of(node, port)
  std::uint64_t sent_ = 0;
  std::uint64_t unreliable_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t payload_bytes_sent_ = 0;
  std::uint64_t duplicates_injected_ = 0;
  std::uint64_t reorders_injected_ = 0;
  std::uint64_t bursts_injected_ = 0;
  std::uint64_t corrupt_injected_ = 0;
  std::uint64_t corrupt_dropped_ = 0;
  std::uint64_t corrupt_delivered_ = 0;
  std::unordered_map<NodeId, std::uint64_t> drops_;
  std::unordered_map<NodeId, std::uint64_t> delivery_errors_;
  std::unordered_map<NodeId, std::uint64_t> duplicates_;
  std::unordered_map<NodeId, std::uint64_t> corrupt_;
};

/// A workstation's attachment point plus the fabric that connects them.
class Network {
 public:
  explicit Network(sim::Engine& eng, EthernetParams eparams = {},
                   DatagramParams dparams = {}, std::uint64_t seed = 1)
      : eng_(eng),
        ether_(eng, eparams),
        rng_(seed),
        datagrams_(ether_, dparams, rng_.split()) {}

  [[nodiscard]] sim::Engine& engine() noexcept { return eng_; }
  [[nodiscard]] Ethernet& ethernet() noexcept { return ether_; }
  [[nodiscard]] DatagramService& datagrams() noexcept { return datagrams_; }

  /// Install (or clear, with {}) the adversarial profile for the whole
  /// fabric: the datagram service picks it up immediately, TCP streams read
  /// it through adversary() on every segment.
  void set_adversary(const AdversaryParams& adv) noexcept {
    adversary_ = adv;
    datagrams_.set_adversary(adv);
  }
  [[nodiscard]] const AdversaryParams& adversary() const noexcept {
    return adversary_;
  }
  /// Shared dice for TCP-side injection (the datagram service rolls its
  /// own stream).
  [[nodiscard]] sim::Rng& adversary_rng() noexcept { return adv_rng_; }

  // TCP streams are transient objects; their injection counters live here.
  void note_tcp_corrupt() noexcept { ++tcp_corrupt_segments_; }
  void note_tcp_burst() noexcept { ++tcp_bursts_; }
  [[nodiscard]] std::uint64_t tcp_corrupt_segments() const noexcept {
    return tcp_corrupt_segments_;
  }
  [[nodiscard]] std::uint64_t tcp_bursts() const noexcept {
    return tcp_bursts_;
  }

  NodeId add_node(std::string name) {
    node_names_.push_back(std::move(name));
    return static_cast<NodeId>(node_names_.size() - 1);
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_names_.size();
  }
  [[nodiscard]] const std::string& node_name(NodeId id) const {
    CPE_EXPECTS(id < node_names_.size());
    return node_names_[id];
  }

 private:
  sim::Engine& eng_;
  Ethernet ether_;
  sim::Rng rng_;
  DatagramService datagrams_;
  AdversaryParams adversary_;
  sim::Rng adv_rng_{rng_.split()};
  std::uint64_t tcp_corrupt_segments_ = 0;
  std::uint64_t tcp_bursts_ = 0;
  std::vector<std::string> node_names_;
};

}  // namespace cpe::net
