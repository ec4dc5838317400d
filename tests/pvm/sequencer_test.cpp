// End-to-end exactly-once hardening (DESIGN.md §7): the CRC-32 wire
// checksum, the per-sender sequence window in Task::accept, and both
// defenses exercised over a genuinely adversarial fabric.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "pvm/system.hpp"
#include "support/pvm_fixture.hpp"

namespace cpe::pvm {
namespace {

using cpe::test::WorknetFixture;

// ---------------------------------------------------------------------------
// Buffer::crc32 / corrupt_bit unit behaviour.

TEST(BufferCrc, StableAcrossIdenticalContent) {
  Buffer a;
  a.pk_int(42);
  a.pk_str("state");
  Buffer b;
  b.pk_int(42);
  b.pk_str("state");
  EXPECT_EQ(a.crc32(), b.crc32());
}

TEST(BufferCrc, SensitiveToContentAndItemMetadata) {
  Buffer a;
  a.pk_int(42);
  Buffer b;
  b.pk_int(43);
  EXPECT_NE(a.crc32(), b.crc32());
  // Same payload bytes, different item tag: the checksum covers metadata.
  Buffer c;
  c.pk_uint(42);
  EXPECT_NE(a.crc32(), c.crc32());
}

TEST(BufferCrc, SingleBitFlipChangesTheChecksum) {
  Buffer a;
  a.pk_double(std::vector<double>(100, 1.5));
  const std::uint32_t before = a.crc32();
  a.corrupt_bit(3137);
  EXPECT_NE(a.crc32(), before);
}

TEST(BufferCrc, CorruptBitOnEmptyBufferIsANoop) {
  Buffer a;
  const std::uint32_t before = a.crc32();
  a.corrupt_bit(99);
  EXPECT_EQ(a.crc32(), before);
}

// Known answers: an independent bit-at-a-time CRC-32 over a hand-built wire
// image.  Per item the image is the tag byte (pack-API order: int, uint,
// long, float, double, byte, string), the element count as 8 bytes
// little-endian, then the encoded payload.  Any kernel change that moves a
// stamped Message::crc fails here.
class WireImage {
 public:
  void item(std::uint8_t tag, std::uint64_t count,
            const std::vector<std::uint8_t>& payload) {
    bytes_.push_back(tag);
    for (int k = 0; k < 8; ++k)
      bytes_.push_back(static_cast<std::uint8_t>(count >> (8 * k)));
    bytes_.insert(bytes_.end(), payload.begin(), payload.end());
  }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

std::uint32_t bitwise_crc32(const std::vector<std::uint8_t>& data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

constexpr std::uint8_t kTagInt = 0, kTagUint = 1, kTagLong = 2,
                       kTagFloat = 3, kTagDouble = 4, kTagByte = 5,
                       kTagStr = 6;

/// `n` bytes of a pattern that differs per (seed, position).
std::vector<std::uint8_t> pattern(std::size_t n, unsigned seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(i * 131u + seed * 17u + 7u);
  return v;
}

std::span<const std::byte> as_bytes(const std::vector<std::uint8_t>& v) {
  return std::as_bytes(std::span<const std::uint8_t>(v));
}

/// Scalar values in their encoded form: big-endian for XDR, host order
/// (little-endian on every supported target) for raw.
template <class T>
std::vector<std::uint8_t> encoded(const std::vector<T>& vals, Encoding enc) {
  std::vector<std::uint8_t> out;
  for (const T& v : vals) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    for (std::size_t k = 0; k < sizeof(T); ++k) {
      const std::size_t shift =
          enc == Encoding::kDefault ? 8 * (sizeof(T) - 1 - k) : 8 * k;
      out.push_back(static_cast<std::uint8_t>(bits >> shift));
    }
  }
  return out;
}

TEST(BufferCrc, ReferenceKernelMatchesTheIeeeCheckValue) {
  const std::vector<std::uint8_t> check = {'1', '2', '3', '4', '5',
                                           '6', '7', '8', '9'};
  ASSERT_EQ(bitwise_crc32(check), 0xCBF43926u);

  Buffer b;
  b.pk_byte(as_bytes(check));
  WireImage w;
  w.item(kTagByte, check.size(), check);
  EXPECT_EQ(b.crc32(), bitwise_crc32(w.bytes()));
}

TEST(BufferCrc, MatchesReferenceForEveryLengthAndArenaOffset) {
  for (std::size_t len = 0; len <= 70; ++len) {
    for (std::size_t lead = 0; lead < 8; ++lead) {
      // A leading item of `lead` bytes shifts the payload's arena offset.
      const auto head = pattern(lead, 1);
      const auto body = pattern(len, static_cast<unsigned>(len + lead));
      Buffer b;
      b.pk_byte(as_bytes(head));
      b.pk_byte(as_bytes(body));
      WireImage w;
      w.item(kTagByte, head.size(), head);
      w.item(kTagByte, body.size(), body);
      EXPECT_EQ(b.crc32(), bitwise_crc32(w.bytes()))
          << "len " << len << " lead " << lead;
    }
  }
}

TEST(BufferCrc, MatchesReferenceForMultiItemBuffersOfEveryTag) {
  const std::vector<std::int32_t> ints = {0, -1, 42, 0x12345678};
  const std::vector<std::uint32_t> uints = {7u, 0xDEADBEEFu, 0u};
  const std::vector<std::int64_t> longs = {-2, 0x0102030405060708LL};
  const std::vector<float> floats = {1.5f, -0.0f, 3.25e7f};
  const std::vector<double> doubles = {2.0, -1e-300, 0.1, 7.0, 9.5};
  const auto raw = pattern(13, 3);
  const std::string str = "pvm frame checksum";
  const std::vector<std::uint8_t> str_bytes(str.begin(), str.end());

  for (const Encoding enc : {Encoding::kDefault, Encoding::kRaw}) {
    Buffer b(enc);
    b.pk_int(ints);
    b.pk_uint(uints);
    b.pk_long(longs);
    b.pk_float(floats);
    b.pk_double(doubles);
    b.pk_byte(as_bytes(raw));
    b.pk_str(str);
    b.pk_int(std::vector<std::int32_t>{});

    WireImage w;
    w.item(kTagInt, ints.size(), encoded(ints, enc));
    w.item(kTagUint, uints.size(), encoded(uints, enc));
    w.item(kTagLong, longs.size(), encoded(longs, enc));
    w.item(kTagFloat, floats.size(), encoded(floats, enc));
    w.item(kTagDouble, doubles.size(), encoded(doubles, enc));
    w.item(kTagByte, raw.size(), raw);
    w.item(kTagStr, str.size(), str_bytes);
    w.item(kTagInt, 0, {});
    EXPECT_EQ(b.crc32(), bitwise_crc32(w.bytes())) << to_string(enc);
  }
}

// ---------------------------------------------------------------------------
// Task::accept sequence-window unit behaviour (forged frames).

struct SequencerFixture : WorknetFixture {
  std::vector<int> got;
  Tid tid;
  Task* task = nullptr;

  /// Spawn a collector that receives `expect` tag-9 messages into `got`.
  void start_collector(int expect) {
    vm.register_program("collector", [this, expect](Task& t) -> sim::Co<void> {
      for (int i = 0; i < expect; ++i) {
        Message m = co_await t.recv(kAny, 9);
        Buffer b(*m.body);
        got.push_back(b.upk_int());
      }
    });
    auto body = [this]() -> sim::Proc {
      auto tids = co_await vm.spawn("collector", 1, "host1");
      tid = tids[0];
    };
    sim::spawn(eng, body());
    eng.run();
    task = vm.find_logical(tid);
    ASSERT_NE(task, nullptr);
  }

  /// A frame as the receiving daemon would hand it over, sequence-stamped
  /// by a (fictitious) remote sender.
  [[nodiscard]] Message forged(std::uint64_t seq, int val,
                               Tid src = Tid::make(2, 30)) const {
    auto b = std::make_shared<Buffer>();
    b->pk_int(val);
    return Message(src, tid, 9, std::move(b), seq);
  }

  [[nodiscard]] std::uint64_t ctr(const char* name) {
    return vm.metrics().counter(name).value();
  }
};

TEST_F(SequencerFixture, ReplayedSeqIsDroppedExactlyOnce) {
  start_collector(2);
  task->accept(forged(1, 10));
  task->accept(forged(1, 10));  // the fabric echoed the frame
  task->accept(forged(2, 20));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 1u);
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 0u);
}

TEST_F(SequencerFixture, OutOfOrderFramesHeldAndReleasedInOrder) {
  start_collector(3);
  task->accept(forged(3, 30));
  task->accept(forged(2, 20));
  EXPECT_EQ(task->held_messages(), 2u);
  task->accept(forged(1, 10));  // the straggler closes the gap
  EXPECT_EQ(task->held_messages(), 0u);
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(ctr("pvm.seq.reordered_held"), 2u);
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 0u);
}

TEST_F(SequencerFixture, DuplicateOfAHeldFrameIsDropped) {
  start_collector(2);
  task->accept(forged(2, 20));
  task->accept(forged(2, 20));  // duplicate while parked in the window
  EXPECT_EQ(task->held_messages(), 1u);
  task->accept(forged(1, 10));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 1u);
}

TEST_F(SequencerFixture, GapTimeoutSkipsAMissingSeq) {
  start_collector(1);
  const double held_at = eng.now();
  task->accept(forged(2, 20));  // seq 1 lost forever (sender-side give-up)
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{20}));
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 1u);
  EXPECT_EQ(task->held_messages(), 0u);
  // Liveness costs exactly the configured gap timeout.
  EXPECT_GE(eng.now(), held_at + vm.reorder_gap_timeout());
}

TEST_F(SequencerFixture, StragglerArrivingAfterGapSkipIsDropped) {
  start_collector(1);
  task->accept(forged(2, 20));
  eng.run();  // gap timeout fires, seq 1 given up
  ASSERT_EQ(ctr("pvm.seq.gaps_skipped"), 1u);
  task->accept(forged(1, 10));  // too late: the window moved past it
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{20}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 1u);
}

TEST_F(SequencerFixture, StragglerClosingTheGapBeforeTimeoutCancelsSkip) {
  start_collector(2);
  task->accept(forged(2, 20));
  // The straggler lands well before the gap deadline.
  eng.schedule_in(vm.reorder_gap_timeout() / 4,
                  [&] { task->accept(forged(1, 10)); });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 0u);
}

TEST_F(SequencerFixture, UnsequencedFramesBypassTheWindow) {
  // seq 0 marks daemon-forged frames (exit notifies): no dedup, no holds.
  start_collector(2);
  task->accept(forged(0, 7));
  task->accept(forged(0, 7));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{7, 7}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 0u);
  EXPECT_EQ(ctr("pvm.seq.reordered_held"), 0u);
}

TEST_F(SequencerFixture, WindowCapOverflowAbandonsTheGapUnderPressure) {
  // An adversarial (or wedged) peer pours frames past a gap that never
  // fills.  The PvmTuning cap must bound the reorder buffer: overflow
  // abandons the gap immediately — same semantics as the gap timeout, but
  // triggered by memory pressure — and delivery resumes in order.
  PvmTuning t;
  t.reorder_window_cap = 4;
  vm.set_tuning(t);
  start_collector(6);
  for (std::uint64_t s = 2; s <= 6; ++s)
    task->accept(forged(s, static_cast<int>(s) * 10));  // seq 1 never sent
  eng.run();
  // The 5th parked frame overflowed the 4-frame window: gap given up, all
  // held frames drained in order, nothing left parked.
  EXPECT_EQ(got, (std::vector<int>{20, 30, 40, 50, 60}));
  EXPECT_EQ(ctr("pvm.seq.window_evicted"), 1u);
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 1u);
  EXPECT_EQ(task->held_messages(), 0u);

  // The missing frame straggling in later is dropped as a replay (exactly
  // once), and the stream keeps flowing past it.
  task->accept(forged(1, 10));
  task->accept(forged(7, 70));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{20, 30, 40, 50, 60, 70}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 1u);
  EXPECT_EQ(ctr("pvm.seq.window_evicted"), 1u);  // no further evictions
}

TEST_F(SequencerFixture, TuningRejectsZeroWindowCap) {
  PvmTuning t;
  t.reorder_window_cap = 0;
  EXPECT_THROW(vm.set_tuning(t), ContractError);
}

TEST_F(SequencerFixture, WindowsArePerSender) {
  start_collector(2);
  task->accept(forged(1, 10, Tid::make(2, 30)));
  task->accept(forged(1, 11, Tid::make(2, 31)));  // same seq, other sender
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 11}));
  EXPECT_EQ(ctr("pvm.seq.duplicates_dropped"), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end over the adversarial fabric: real tasks, real daemons.

struct AdversarialPvmFixture : WorknetFixture {
  std::vector<int> got;
  Tid receiver_tid;
  static constexpr int kMsgs = 20;

  /// Receiver on host2, sender on host1; the adversary switches on only
  /// after both are enrolled, so spawn RPCs stay on the quiet network.
  void run_chatter(net::AdversaryParams adv) {
    vm.register_program("rx", [this](Task& t) -> sim::Co<void> {
      for (int i = 0; i < kMsgs; ++i) {
        Message m = co_await t.recv(kAny, 9);
        Buffer b(*m.body);
        got.push_back(b.upk_int());
      }
    });
    vm.register_program("tx", [this](Task& t) -> sim::Co<void> {
      co_await sim::Delay(t.system().engine(), 1.0);  // adversary armed at 0.5
      for (int i = 0; i < kMsgs; ++i) {
        t.initsend().pk_int(i);
        co_await t.send(receiver_tid, 9);
      }
    });
    eng.schedule_at(0.5, [this, adv] { net.set_adversary(adv); });
    auto body = [this]() -> sim::Proc {
      auto rx = co_await vm.spawn("rx", 1, "host2");
      receiver_tid = rx[0];
      co_await vm.spawn("tx", 1, "host1");
    };
    sim::spawn(eng, body());
    run_all();
  }

  [[nodiscard]] std::uint64_t ctr(const char* name) {
    return vm.metrics().counter(name).value();
  }

  [[nodiscard]] static std::vector<int> in_order() {
    std::vector<int> v;
    for (int i = 0; i < kMsgs; ++i) v.push_back(i);
    return v;
  }
};

TEST_F(AdversarialPvmFixture, DuplicatedFramesDeliverExactlyOnce) {
  run_chatter({.duplicate_probability = 0.5});
  EXPECT_EQ(got, in_order());
  EXPECT_GT(net.datagrams().duplicates_injected(), 0u);
  EXPECT_GT(ctr("pvm.seq.duplicates_dropped"), 0u);
}

TEST_F(AdversarialPvmFixture, ReorderedFramesReleaseInSendOrder) {
  run_chatter({.reorder_probability = 0.4, .reorder_horizon = 0.05});
  EXPECT_EQ(got, in_order());
  EXPECT_GT(net.datagrams().reorders_injected(), 0u);
  EXPECT_GT(ctr("pvm.seq.reordered_held"), 0u);
  // Horizon is far below the gap timeout: every straggler arrives in time.
  EXPECT_EQ(ctr("pvm.seq.gaps_skipped"), 0u);
}

TEST_F(AdversarialPvmFixture, CorruptionIsCaughtByTheFrameChecksum) {
  // Checksums on (the default): every flipped frame is detected at the
  // receiving daemon, retransmitted, and the app sees pristine data.
  run_chatter({.corrupt_probability = 0.1});
  EXPECT_EQ(got, in_order());
  EXPECT_GT(net.datagrams().corrupt_injected(), 0u);
  EXPECT_GT(net.datagrams().corrupt_dropped(), 0u);
  EXPECT_EQ(net.datagrams().corrupt_delivered(), 0u);
}

TEST_F(AdversarialPvmFixture, WithoutChecksumsGarbageReachesTheApp) {
  // The negative control: disable the frame checksum and the same flips
  // sail through — proof the CRC is what was protecting the payload.
  vm.set_wire_checksums(false);
  run_chatter({.corrupt_probability = 0.1});
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMsgs));
  EXPECT_GT(net.datagrams().corrupt_delivered(), 0u);
  std::size_t mismatches = 0;
  for (int i = 0; i < kMsgs; ++i)
    if (got[static_cast<std::size_t>(i)] != i) ++mismatches;
  EXPECT_EQ(mismatches, net.datagrams().corrupt_delivered());
}

TEST_F(AdversarialPvmFixture, FullAdversaryStillDeliversExactlyOnceInOrder) {
  run_chatter({.duplicate_probability = 0.3,
               .reorder_probability = 0.3,
               .reorder_horizon = 0.05,
               .corrupt_probability = 0.05});
  EXPECT_EQ(got, in_order());
  EXPECT_GT(net.datagrams().duplicates_injected(), 0u);
  EXPECT_GT(net.datagrams().reorders_injected(), 0u);
  EXPECT_GT(net.datagrams().corrupt_injected(), 0u);
  EXPECT_EQ(net.datagrams().corrupt_delivered(), 0u);
}

}  // namespace
}  // namespace cpe::pvm
