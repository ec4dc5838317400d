#include "mpvm/mpvm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/pvm_fixture.hpp"

namespace cpe::mpvm {
namespace {

using pvm::kAny;
using pvm::Message;
using pvm::Task;
using pvm::Tid;

struct MpvmTest : cpe::test::WorknetFixture {
  Mpvm mpvm{vm};
};

TEST_F(MpvmTest, ShimChargesPerCallOverhead) {
  EXPECT_NE(vm.shim(), nullptr);
  // Identical sends cost slightly more under MPVM than stock PVM; checked
  // end-to-end by the Table 1 bench.  Here: the shim reports nonzero cost.
  vm.register_program("noop", [](Task&) -> sim::Co<void> { co_return; });
  auto body = [&]() -> sim::Proc { co_await vm.spawn("noop", 1); };
  sim::spawn(eng, body());
  run_all();
  Task* t = vm.all_tasks().front();
  EXPECT_GT(vm.shim()->send_overhead(*t), 0.0);
  EXPECT_GT(vm.shim()->recv_overhead(*t), 0.0);
}

TEST_F(MpvmTest, MigrateComputingTaskResumesAndCompletes) {
  double finished_at = -1;
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 100'000;
    co_await t.compute(20.0);
    finished_at = eng.now();
    EXPECT_EQ(&t.pvmd().host(), &host2);  // really moved
  });
  std::optional<MigrationStats> stats;
  auto driver = [&]() -> sim::Proc {
    auto tids = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 5.0);
    stats = co_await mpvm.migrate(tids[0], host2);
  };
  sim::spawn(eng, driver());
  run_all();
  ASSERT_TRUE(stats.has_value());
  // Work pauses during the migration and resumes on host2: total runtime =
  // 20s of work + the protocol's dead time.
  EXPECT_GT(finished_at, 20.0);
  EXPECT_LT(finished_at, 20.0 + 3.0);
  EXPECT_GT(stats->obtrusiveness(), 0.0);
  EXPECT_GE(stats->migration_time(), stats->obtrusiveness());
}

TEST_F(MpvmTest, MigrateTaskBlockedInRecv) {
  // The paper re-implemented pvm_recv precisely to allow this (§4.1.1).
  bool got = false;
  vm.register_program("receiver", [&](Task& t) -> sim::Co<void> {
    co_await t.recv(kAny, 7);
    got = true;
    EXPECT_EQ(&t.pvmd().host(), &host2);
  });
  vm.register_program("sender", [&](Task& t) -> sim::Co<void> {
    co_await sim::Delay(eng, 30.0);  // long after the migration
    t.initsend().pk_int(1);
    co_await t.send(Tid::make(0, 1), 7);
  });
  auto driver = [&]() -> sim::Proc {
    auto r = co_await vm.spawn("receiver", 1, "host1");
    co_await vm.spawn("sender", 1, "host2");
    co_await sim::Delay(eng, 5.0);
    co_await mpvm.migrate(r[0], host2);
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_TRUE(got);
}

TEST_F(MpvmTest, UnreceivedMailboxMessagesSurviveMigration) {
  // Messages delivered before the migration but not yet received must move
  // with the process (they are part of its state).
  std::vector<int> got;
  vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    co_await sim::Delay(eng, 20.0);  // messages pile up; migration happens
    for (int i = 0; i < 3; ++i) {
      co_await t.recv(kAny, 5);
      got.push_back(t.rbuf().upk_int());
    }
  });
  vm.register_program("feeder", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 3; ++i) {
      t.initsend().pk_int(i);
      co_await t.send(Tid::make(0, 1), 5);
    }
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("victim", 1, "host1");
    co_await vm.spawn("feeder", 1, "host2");
    co_await sim::Delay(eng, 5.0);
    MigrationStats s = co_await mpvm.migrate(v[0], host2);
    EXPECT_GT(s.state_bytes, 0u);
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

TEST_F(MpvmTest, SendersBlockDuringMigrationOnly) {
  // §2.1: "Only processes sending a message to the migrating process are
  // blocked."  A bystander pair keeps communicating throughout.
  std::vector<double> sender_send_times;
  int bystander_roundtrips = 0;
  vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 3'000'000;  // ~3s transfer
    for (int i = 0; i < 2; ++i) co_await t.recv(kAny, 1);
  });
  vm.register_program("sender", [&](Task& t) -> sim::Co<void> {
    // First send before the migration, second lands mid-migration.
    t.initsend().pk_int(0);
    co_await t.send(Tid::make(0, 1), 1);
    co_await sim::Delay(eng, 6.0);  // migration starts at t=5
    t.initsend().pk_int(1);
    co_await t.send(Tid::make(0, 1), 1);  // must block until restart
    sender_send_times.push_back(eng.now());
  });
  vm.register_program("bystander_a", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 40; ++i) {
      t.initsend().pk_int(i);
      co_await t.send(Tid::make(2, 1), 2);
      co_await t.recv(kAny, 3);
      ++bystander_roundtrips;
    }
  });
  vm.register_program("bystander_b", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 40; ++i) {
      Message m = co_await t.recv(kAny, 2);
      t.initsend().pk_int(i);
      co_await t.send(m.src, 3);
    }
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("victim", 1, "host1");
    co_await vm.spawn("sender", 1, "host2");
    co_await vm.spawn("bystander_b", 1, "sparc1");  // t2.1
    co_await vm.spawn("bystander_a", 1, "sparc1");  // t2.2
    co_await sim::Delay(eng, 5.0);
    MigrationStats s = co_await mpvm.migrate(v[0], host2);
    // The blocked sender resumed only after the restart broadcast reached
    // it — i.e. strictly after the state left the source host.
    EXPECT_EQ(sender_send_times.size(), 1u);
    if (!sender_send_times.empty()) {
      EXPECT_GE(sender_send_times[0], s.transfer_done);
    }
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_EQ(bystander_roundtrips, 40);
}

TEST_F(MpvmTest, MessagesToOldTidArriveAfterMigration) {
  // A task that learned the victim's tid before migration keeps using it;
  // the library re-mapping + daemon forwarding must still deliver.
  int received = 0;
  vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 6; ++i) {
      co_await t.recv(kAny, 9);
      ++received;
    }
  });
  vm.register_program("talker", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 6; ++i) {
      t.initsend().pk_int(i);
      co_await t.send(Tid::make(0, 1), 9);  // always the original tid
      co_await sim::Delay(eng, 4.0);
    }
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("victim", 1, "host1");
    co_await vm.spawn("talker", 1, "host2");
    co_await sim::Delay(eng, 5.0);
    co_await mpvm.migrate(v[0], host2);
    co_await sim::Delay(eng, 6.0);
    co_await mpvm.migrate(v[0], host1);  // and back again
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_EQ(received, 6);
}

TEST_F(MpvmTest, PerPairSequencePreservedAcrossMigration) {
  // DESIGN.md invariant 1: the delivered sequence equals the sent sequence,
  // with no loss or duplication, despite a migration mid-stream.
  std::vector<int> delivered;
  vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 30; ++i) {
      co_await t.recv(kAny, 4);
      delivered.push_back(t.rbuf().upk_int());
    }
  });
  vm.register_program("stream", [&](Task& t) -> sim::Co<void> {
    for (int i = 0; i < 30; ++i) {
      t.initsend().pk_int(i);
      co_await t.send(Tid::make(0, 1), 4);
      co_await sim::Delay(eng, 0.3);
    }
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("victim", 1, "host1");
    co_await vm.spawn("stream", 1, "host2");
    co_await sim::Delay(eng, 3.0);
    co_await mpvm.migrate(v[0], host2);
  };
  sim::spawn(eng, driver());
  run_all();
  std::vector<int> expect(30);
  for (int i = 0; i < 30; ++i) expect[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(delivered, expect);
}

TEST_F(MpvmTest, MigrationWaitsForLibraryExit) {
  // A task inside the run-time library cannot be migrated; the protocol
  // waits for it to leave (§2.1).
  vm.register_program("libhog", [&](Task& t) -> sim::Co<void> {
    {
      auto guard = t.process().enter_library();
      co_await t.process().compute(10.0);  // 10s inside the library
    }
    co_await t.process().compute(10.0);  // migratable application work
  });
  std::optional<MigrationStats> stats;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("libhog", 1, "host1");
    co_await sim::Delay(eng, 2.0);
    stats = co_await mpvm.migrate(v[0], host2);
  };
  sim::spawn(eng, driver());
  run_all();
  ASSERT_TRUE(stats.has_value());
  // Migration could not freeze the task before it left the library at
  // ~t=10.38 (spawn offset); the event arrived at t=2.38.
  EXPECT_GT(stats->frozen_time - stats->event_time, 7.0);
}

TEST_F(MpvmTest, IncompatibleArchitectureRefused) {
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(30.0);
  });
  bool threw = false;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 1.0);
    try {
      co_await mpvm.migrate(v[0], sparc);  // HPPA -> SPARC: refused (§3.3)
    } catch (const MigrationError&) {
      threw = true;
    }
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_TRUE(threw);
}

TEST_F(MpvmTest, MigrateToSameHostRefused) {
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(5.0);
  });
  bool threw = false;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("worker", 1, "host1");
    try {
      co_await mpvm.migrate(v[0], host1);
    } catch (const MigrationError&) {
      threw = true;
    }
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_TRUE(threw);
}

TEST_F(MpvmTest, MigrateUnknownTaskRefused) {
  auto driver = [&]() -> sim::Proc {
    co_await mpvm.migrate(Tid::make(0, 77), host2);
  };
  sim::spawn(eng, driver());
  EXPECT_THROW(eng.run(), MigrationError);
}

TEST_F(MpvmTest, ObtrusivenessScalesWithStateSize) {
  auto run_with_bytes = [&](std::size_t bytes) {
    sim::Engine e;
    net::Network n(e);
    os::Host a(e, n, os::HostConfig("a"));
    os::Host b(e, n, os::HostConfig("b"));
    pvm::PvmSystem v(e, n);
    v.add_host(a);
    v.add_host(b);
    Mpvm m(v);
    v.register_program("worker", [bytes](Task& t) -> sim::Co<void> {
      t.process().image().data_bytes = bytes;
      co_await t.compute(200.0);
    });
    double obtr = -1;
    auto driver = [&]() -> sim::Proc {
      auto tids = co_await v.spawn("worker", 1, "a");
      co_await sim::Delay(e, 2.0);
      MigrationStats s = co_await m.migrate(tids[0], b);
      obtr = s.obtrusiveness();
    };
    sim::spawn(e, driver());
    e.run_until(100.0);
    return obtr;
  };
  const double small = run_with_bytes(300'000);
  const double large = run_with_bytes(3'000'000);
  EXPECT_GT(small, 0.8);   // fixed cost floor (skeleton start etc.)
  EXPECT_GT(large, small + 2.0);  // ~2.7s more for 2.7 MB at ~1 MB/s
}

TEST_F(MpvmTest, PaperTable2Row1Shape) {
  // 0.6 MB data size -> the slave holds 0.3 MB; paper: obtrusiveness 1.17 s,
  // migration 1.39 s.  Allow 20%.
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 300'000;
    t.process().image().stack_bytes = 0;     // paper counts data only
    t.process().image().context_bytes = 0;
    co_await t.compute(100.0);
  });
  std::optional<MigrationStats> stats;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 2.0);
    stats = co_await mpvm.migrate(v[0], host2);
  };
  sim::spawn(eng, driver());
  eng.run_until(50.0);
  ASSERT_TRUE(stats.has_value());
  EXPECT_NEAR(stats->obtrusiveness(), 1.17, 0.25);
  EXPECT_NEAR(stats->migration_time(), 1.39, 0.30);
}

TEST_F(MpvmTest, ConcurrentMigrationsOfDifferentTasks) {
  int finished = 0;
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 200'000;
    co_await t.compute(30.0);
    ++finished;
  });
  auto driver = [&]() -> sim::Proc {
    auto a = co_await vm.spawn("worker", 1, "host1");
    auto b = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 2.0);
    // Overlapping migrations of two different tasks to the same target.
    // (Captureless lambda: a spawned coroutine must not outlive its
    // closure object.)
    auto m1 = [](Mpvm* mp, Tid v, os::Host* dst) -> sim::Proc {
      co_await mp->migrate(v, *dst);
    };
    sim::spawn(eng, m1(&mpvm, a[0], &host2));
    sim::spawn(eng, m1(&mpvm, b[0], &host2));
  };
  sim::spawn(eng, driver());
  run_all();
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(mpvm.history().size(), 2u);
}

TEST_F(MpvmTest, DoubleMigrationOfSameTaskRefused) {
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 5'000'000;  // slow migration
    co_await t.compute(100.0);
  });
  bool threw = false;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 1.0);
    auto racer = [](Mpvm* mp, Tid victim, os::Host* dst) -> sim::Proc {
      co_await mp->migrate(victim, *dst);
    };
    sim::spawn(eng, racer(&mpvm, v[0], &host2));
    co_await sim::Delay(eng, 1.0);  // first migration still in flight
    try {
      co_await mpvm.migrate(v[0], host2);
    } catch (const MigrationError&) {
      threw = true;
    }
  };
  sim::spawn(eng, driver());
  eng.run_until(60.0);
  EXPECT_TRUE(threw);
}

TEST_F(MpvmTest, TraceRecordsAllFourStages) {
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    co_await t.compute(20.0);
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 1.0);
    co_await mpvm.migrate(v[0], host2);
  };
  sim::spawn(eng, driver());
  run_all();
  for (const char* stage :
       {"stage=event", "stage=frozen", "stage=flushed", "stage=skeleton",
        "stage=transferred", "stage=restarted"}) {
    EXPECT_NE(vm.trace().find("mpvm", stage), nullptr) << stage;
  }
}

TEST_F(MpvmTest, ComputeProgressPausesDuringMigration) {
  // The frozen burst makes no progress while the protocol runs.
  vm.register_program("worker", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 2'000'000;
    co_await t.compute(10.0);
  });
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("worker", 1, "host1");
    co_await sim::Delay(eng, 2.0);
    MigrationStats s = co_await mpvm.migrate(v[0], host2);
    // Right after migration, host2 has the burst, host1 does not.
    EXPECT_EQ(host1.cpu().job_count(), 0u);
    EXPECT_EQ(host2.cpu().job_count(), 1u);
    (void)s;
  };
  sim::spawn(eng, driver());
  run_all();
}

TEST_F(MpvmTest, LostFlushAckIsRetriedOnceBeforeCharging) {
  // A peer's workstation wedges just as the flush round goes out and stays
  // wedged past the first ack window — but not past the retry's.  One lost
  // ack must cost one flush retry, not the whole migration.
  mpvm.set_timeouts(MpvmTimeouts{.flush_ack = 0.5, .transfer = 30.0});
  bool victim_done = false, peer_done = false;
  const os::Host* victim_final = nullptr;
  // The peer greets the victim once so they are correspondents — the scoped
  // flush round only targets tasks the victim has exchanged messages with.
  vm.register_program("victim", [&](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 100'000;
    co_await t.recv(kAny, 9);
    co_await t.compute(20.0);
    victim_done = true;
    victim_final = &t.pvmd().host();
  });
  vm.register_program("peer", [&](Task& t) -> sim::Co<void> {
    t.initsend().pk_int(1);
    co_await t.send(Tid::make(0, 1), 9);
    co_await t.compute(12.0);
    peer_done = true;
  });
  // Wedge the peer's workstation at the instant the flush round goes out
  // (the kFrozen stage notification fires synchronously just before it), and
  // thaw it 0.85 s later: past the first 0.5 s ack window, inside the
  // retry's, and still inside the datagram layer's 1 s retransmit budget.
  mpvm.add_stage_observer([&](pvm::Tid, MigrationStage s) {
    if (s != MigrationStage::kFrozen || sparc.frozen()) return;
    sparc.freeze();
    eng.schedule_in(0.85, [&] { sparc.unfreeze(); });
  });
  std::optional<MigrationStats> st;
  auto driver = [&]() -> sim::Proc {
    auto v = co_await vm.spawn("victim", 1, "host1");
    co_await vm.spawn("peer", 1, "sparc1");
    co_await sim::Delay(eng, 1.0);
    st = co_await mpvm.migrate(v[0], host2);
  };
  sim::spawn(eng, driver());
  run_all();
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->ok);  // the retry saved the migration
  EXPECT_EQ(mpvm.flush_retries(), 1u);
  EXPECT_NE(vm.trace().find("mpvm", "stage=flush-retry"), nullptr);
  EXPECT_TRUE(victim_done);
  EXPECT_EQ(victim_final, &host2);
  EXPECT_TRUE(peer_done);
  EXPECT_EQ(mpvm.history().size(), 1u);
}

/// The logical tids of a daemon's task list, in list order.
std::vector<std::int32_t> tids_on(const pvm::Pvmd& d) {
  std::vector<std::int32_t> out;
  for (const Task* t : d.tasks()) out.push_back(t->tid().raw());
  return out;
}

/// The registry scan the per-daemon list replaces: live tasks on `host`,
/// in all_tasks() (logical tid) order.
std::vector<std::int32_t> scanned_on(const pvm::PvmSystem& vm,
                                     const os::Host& host) {
  std::vector<std::int32_t> out;
  for (const Task* t : vm.all_tasks())
    if (!t->exited() && &t->pvmd().host() == &host)
      out.push_back(t->tid().raw());
  return out;
}

TEST_F(MpvmTest, DaemonTaskListTracksSpawnExitMigrationAndCrash) {
  vm.register_program("long", [](Task& t) -> sim::Co<void> {
    t.process().image().data_bytes = 10'000;
    co_await t.compute(60.0);
  });
  vm.register_program("short", [](Task& t) -> sim::Co<void> {
    co_await t.compute(2.0);
  });
  pvm::Pvmd& d1 = *vm.daemon_on(host1);
  pvm::Pvmd& d2 = *vm.daemon_on(host2);
  pvm::Pvmd& d3 = *vm.daemon_on(sparc);
  std::vector<Tid> on1, on2;
  auto check_all = [&] {
    for (const pvm::Pvmd* d : {&d1, &d2, &d3}) {
      const std::vector<std::int32_t> got = tids_on(*d);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
      EXPECT_EQ(got, scanned_on(vm, d->host())) << d->host().name();
    }
  };
  auto driver = [&]() -> sim::Proc {
    on2 = co_await vm.spawn("long", 2, "host2");
    on1 = co_await vm.spawn("long", 2, "host1");
    co_await vm.spawn("short", 1, "host1");
    check_all();
    EXPECT_EQ(d1.tasks().size(), 3u);
    co_await sim::Delay(eng, 10.0);  // the short task has exited
    check_all();
    EXPECT_EQ(d1.tasks().size(), 2u);
    // host2's first task migrates in: it joins host1's list in logical-tid
    // order and leaves host2's.
    const MigrationStats st = co_await mpvm.migrate(on2[0], host1);
    EXPECT_TRUE(st.ok);
    check_all();
    EXPECT_EQ(d1.tasks().size(), 3u);
    EXPECT_EQ(tids_on(d2), std::vector<std::int32_t>{on2[1].raw()});
    // A crash loses host2's remaining task: it leaves the list but stays in
    // the registry, which is why crash handling still scans all_tasks().
    host2.crash();
    EXPECT_TRUE(d2.tasks().empty());
    const Task* lost = vm.find_logical(on2[1]);
    EXPECT_TRUE(lost != nullptr && lost->exited());
    check_all();
    EXPECT_EQ(vm.down_hosts(), 1u);
    host2.recover();
    EXPECT_EQ(vm.down_hosts(), 0u);
    for (const Tid t : on1) vm.kill(t);
    vm.kill(on2[0]);
    check_all();
    EXPECT_TRUE(d1.tasks().empty());
  };
  sim::spawn(eng, driver());
  run_all();
}

}  // namespace
}  // namespace cpe::mpvm
