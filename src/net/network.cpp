#include "net/network.hpp"

#include <utility>

namespace cpe::net {

namespace {
constexpr std::uint64_t key_of(NodeId node, std::uint16_t port) {
  return (static_cast<std::uint64_t>(node) << 16) | port;
}
}  // namespace

void DatagramService::bind(NodeId node, std::uint16_t port, Handler handler) {
  CPE_EXPECTS(handler != nullptr);
  handlers_.insert_or_assign(key_of(node, port), std::move(handler));
}

void DatagramService::unbind(NodeId node, std::uint16_t port) {
  handlers_.erase(key_of(node, port));
}

void DatagramService::deliver(Datagram d) {
  const NodeId dst = d.dst;
  const std::uint16_t port = d.port;
  if (!try_deliver(std::move(d)))
    throw Error("DatagramService: no handler bound for node " +
                std::to_string(dst) + " port " + std::to_string(port));
}

bool DatagramService::try_deliver(Datagram d) {
  const auto it = handlers_.find(key_of(d.dst, d.port));
  if (it == handlers_.end()) return false;
  it->second(std::move(d));
  return true;
}

void DatagramService::deliver_later(Datagram d, sim::Time dt) {
  // Engine callbacks are std::function (copyable); park the datagram behind
  // a shared_ptr so the lambda stays copyable without copying the payload.
  const NodeId dst = d.dst;
  auto held = std::make_shared<Datagram>(std::move(d));
  ether_.engine().schedule_in(dt, [this, held, dst] {
    if (!try_deliver(std::move(*held))) ++drops_[dst];
  });
}

void DatagramService::inject_delivery(Datagram d) {
  const AdversaryParams& adv = adversary_;
  if (adv.duplicate_probability > 0 &&
      rng_.chance(adv.duplicate_probability)) {
    // The fabric echoes the datagram: the receiver sees it twice, the
    // second copy a jitter later.  Dedup is the receiver's problem.
    ++duplicates_injected_;
    ++duplicates_[d.dst];
    const sim::Time jitter =
        adv.reorder_horizon > 0 ? rng_.uniform(0.0, adv.reorder_horizon) : 0.0;
    deliver_later(d, jitter);  // copy; the original continues below
  }
  if (adv.reorder_probability > 0 && adv.reorder_horizon > 0 &&
      rng_.chance(adv.reorder_probability)) {
    // Bounded reordering: this delivery sits in a queue for up to the
    // reorder horizon while its ack (already on the wire) lets subsequent
    // datagrams overtake it.
    ++reorders_injected_;
    deliver_later(std::move(d), rng_.uniform(0.0, adv.reorder_horizon));
    return;
  }
  deliver(std::move(d));
}

bool DatagramService::corrupt_attempt(Datagram& d, bool last) {
  ++corrupt_injected_;
  ++corrupt_[d.dst];
  bool detected = true;
  if (last && corrupt_hook_) {
    // Garble a copy: if the flip is detected the sender retransmits the
    // *original* fragment, so the pristine payload must survive.
    Datagram garbled = d;
    if (!corrupt_hook_(garbled.payload)) {
      detected = false;
      d = std::move(garbled);
    }
  }
  if (detected) {
    ++corrupt_dropped_;
    return true;
  }
  ++corrupt_delivered_;
  return false;
}

sim::Co<void> DatagramService::send_fragment_frames(std::size_t frag_payload) {
  // An IP datagram larger than the MTU is fragmented at the IP layer; each
  // wire frame carries up to mtu bytes including the IP/UDP header overhead.
  const std::size_t mtu = ether_.params().mtu;
  std::size_t remaining = frag_payload + params_.udp_ip_header;
  while (remaining > 0) {
    const std::size_t chunk = remaining < mtu ? remaining : mtu;
    co_await ether_.transmit_frame(chunk);
    remaining -= chunk;
  }
}

sim::Co<void> DatagramService::send(Datagram d) {
  sim::Engine& eng = ether_.engine();
  ++sent_;
  payload_bytes_sent_ += d.bytes;

  if (d.src == d.dst) {
    // Local delivery through a Unix-domain socket: copy-limited, no medium.
    const sim::Time t =
        params_.local_fixed +
        static_cast<double>(d.bytes) * 8.0 / params_.local_copy_bps;
    co_await sim::Delay(eng, t);
    deliver(std::move(d));
    co_return;
  }

  const std::size_t total = d.bytes;
  std::size_t sent_bytes = 0;
  std::size_t frag_index = 0;
  while (true) {
    const std::size_t frag = std::min(params_.fragment_bytes,
                                      total - sent_bytes);
    const bool last = sent_bytes + frag >= total;

    bool acked = false;
    for (int attempt = 0; !acked; ++attempt) {
      if (attempt > params_.max_retries) {
        ++delivery_errors_[d.dst];
        throw DeliveryError("DatagramService: fragment " +
                                std::to_string(frag_index) + " to node " +
                                std::to_string(d.dst) + " lost " +
                                std::to_string(attempt) + " times; giving up",
                            d.dst, frag_index);
      }
      if (!ether_.attached(d.src)) {
        ++delivery_errors_[d.dst];
        throw DeliveryError("DatagramService: local node " +
                                std::to_string(d.src) + " is detached",
                            d.dst, frag_index);
      }
      if (adversary_.burst_probability > 0 &&
          rng_.chance(adversary_.burst_probability)) {
        // Congestion burst: the fragment queues behind a traffic spike
        // before it even reaches the wire.
        ++bursts_injected_;
        co_await sim::Delay(eng, adversary_.burst_delay);
      }
      co_await send_fragment_frames(frag);
      co_await sim::Delay(eng, ether_.params().hop_latency);
      // A detached or partitioned-away receiver never acks: the fragment is
      // lost exactly like a wire drop, and the sender retransmits until the
      // retry budget runs out.  Short outages (a transient freeze) are
      // ridden out this way.
      const bool dropped = !ether_.reachable(d.src, d.dst) ||
                           (params_.loss_probability > 0 &&
                            rng_.chance(params_.loss_probability));
      if (dropped) {
        ++retransmits_;
        ++drops_[d.dst];
        co_await sim::Delay(eng, params_.retransmit_timeout);
        continue;
      }
      // Bit-corruption on the wire.  Detected (by the receiver's fragment
      // checksum or the PVM frame CRC) means no ack: the existing
      // retransmission path recovers, preserving exactly-once.  Undetected
      // means the garbled payload is delivered and acked like a clean one.
      if (adversary_.corrupt_probability > 0 &&
          rng_.chance(adversary_.corrupt_probability) &&
          corrupt_attempt(d, last)) {
        ++retransmits_;
        co_await sim::Delay(eng, params_.retransmit_timeout);
        continue;
      }
      // Receiving daemon processes the fragment, then acks it.
      co_await sim::Delay(eng, params_.per_fragment_proc);
      if (last) inject_delivery(std::move(d));
      co_await ether_.transmit_frame(params_.ack_payload +
                                     params_.udp_ip_header);
      co_await sim::Delay(eng, ether_.params().hop_latency);
      acked = true;
    }

    sent_bytes += frag;
    ++frag_index;
    if (last) co_return;
  }
}

sim::Co<void> DatagramService::send_unreliable(Datagram d) {
  sim::Engine& eng = ether_.engine();
  ++unreliable_sent_;
  payload_bytes_sent_ += d.bytes;

  if (d.src == d.dst) {
    const sim::Time t =
        params_.local_fixed +
        static_cast<double>(d.bytes) * 8.0 / params_.local_copy_bps;
    co_await sim::Delay(eng, t);
    deliver(std::move(d));
    co_return;
  }

  const std::size_t total = d.bytes;
  std::size_t sent_bytes = 0;
  while (true) {
    const std::size_t frag = std::min(params_.fragment_bytes,
                                      total - sent_bytes);
    const bool last = sent_bytes + frag >= total;

    if (!ether_.attached(d.src)) {
      ++delivery_errors_[d.dst];
      throw DeliveryError("DatagramService: local node " +
                              std::to_string(d.src) + " is detached",
                          d.dst, sent_bytes / params_.fragment_bytes);
    }
    if (adversary_.burst_probability > 0 &&
        rng_.chance(adversary_.burst_probability)) {
      ++bursts_injected_;
      co_await sim::Delay(eng, adversary_.burst_delay);
    }
    co_await send_fragment_frames(frag);
    co_await sim::Delay(eng, ether_.params().hop_latency);
    const bool dropped = !ether_.reachable(d.src, d.dst) ||
                         (params_.loss_probability > 0 &&
                          rng_.chance(params_.loss_probability));
    if (dropped) {
      // One fragment gone means the receiver can never reassemble: stop
      // wasting wire time on the rest of the datagram.
      ++drops_[d.dst];
      co_return;
    }
    // With no retransmission, detected corruption costs the whole datagram
    // — exactly the trade gossip signed up for.
    if (adversary_.corrupt_probability > 0 &&
        rng_.chance(adversary_.corrupt_probability) &&
        corrupt_attempt(d, last)) {
      ++drops_[d.dst];
      co_return;
    }
    co_await sim::Delay(eng, params_.per_fragment_proc);
    if (last) {
      inject_delivery(std::move(d));
      co_return;
    }
    sent_bytes += frag;
  }
}

}  // namespace cpe::net
