// The PVM virtual machine: per-host daemons (pvmd), the task registry,
// message routing, the group server, and the extension points the migration
// systems hook into.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/flat_map.hpp"

#include "calib/costs.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "os/host.hpp"
#include "pvm/task.hpp"
#include "sim/channel.hpp"
#include "sim/trace.hpp"

namespace cpe::pvm {

class PvmSystem;

/// Well-known datagram port of every pvmd.
inline constexpr std::uint16_t kPvmdPort = 1023;

/// Message tags >= kControlTagBase are reserved for the run-time systems
/// (MPVM flush/restart, UPVM transport, ADM events use their own ranges).
inline constexpr int kControlTagBase = 1 << 20;

/// VM-wide resource-bound knobs (validated at set_tuning).
struct PvmTuning {
  /// Hard cap on frames a receiver holds per sender stream while waiting
  /// for a sequence gap to fill (Task::accept).  On overflow the gap is
  /// abandoned immediately — same semantics as the gap timeout, counted in
  /// pvm.seq.window_evicted — so an adversarial or wedged peer cannot grow
  /// the reorder buffer without bound.
  std::size_t reorder_window_cap = 256;
};

/// Per-call library costs pluggable by the migration systems: MPVM installs
/// a shim charging re-entrancy-flag and tid-remap overhead (paper §4.1.1).
class LibraryShim {
 public:
  virtual ~LibraryShim() = default;
  /// Extra CPU per pvm_send / pvm_recv call.
  [[nodiscard]] virtual sim::Time send_overhead(const Task&) const {
    return 0;
  }
  [[nodiscard]] virtual sim::Time recv_overhead(const Task&) const {
    return 0;
  }
};

/// One PVM daemon per host: local task table, outgoing message pump (the
/// single-threaded pvmd serializes everything leaving its host), local
/// delivery, and task spawning.
class Pvmd {
 public:
  Pvmd(PvmSystem& sys, os::Host& host, std::uint32_t index);
  Pvmd(const Pvmd&) = delete;
  Pvmd& operator=(const Pvmd&) = delete;
  ~Pvmd();

  [[nodiscard]] os::Host& host() const noexcept { return *host_; }
  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] PvmSystem& system() const noexcept { return *sys_; }

  [[nodiscard]] Tid allocate_tid() {
    return Tid::make(index_, next_task_num_++);
  }

  void attach(Task& t);
  void detach(Task& t);
  [[nodiscard]] Task* local_by_current(Tid current) const;
  [[nodiscard]] std::size_t local_task_count() const noexcept {
    return local_.size();
  }
  /// The tasks attached here (live ones: exit, kill and crash loss detach),
  /// sorted by logical tid — the same order as PvmSystem::all_tasks(), so a
  /// per-host scan visits tasks exactly as a filtered registry scan would.
  [[nodiscard]] const std::vector<Task*>& tasks() const noexcept {
    return by_tid_;
  }

  /// Queue a message for a remote host; the pump sends in FIFO order.
  void enqueue_remote(Message m, net::NodeId dst_node);

  /// Deliver to a task on this host (charges the local-socket hop).
  /// `hops` guards against forwarding loops.
  void deliver_local(Message m, int hops = 0);

  /// Bytes queued behind the outgoing pump (diagnostics).
  [[nodiscard]] std::size_t outgoing_backlog() const noexcept {
    return outgoing_.size();
  }

 private:
  struct Outgoing {
    Message msg;
    net::NodeId dst_node = 0;
    Outgoing() {}
    Outgoing(Message m, net::NodeId n) : msg(std::move(m)), dst_node(n) {}
  };

  struct Inbound {
    Message msg;
    sim::Time cost = 0;
    int hops = 0;
    Inbound() {}
    Inbound(Message m, sim::Time c, int h) : msg(std::move(m)), cost(c),
                                             hops(h) {}
  };

  [[nodiscard]] sim::Co<void> pump();
  [[nodiscard]] sim::Co<void> inbound_pump();
  void receive_datagram(net::Datagram d);
  void dispatch(Message m, int hops);

  PvmSystem* sys_;
  os::Host* host_;
  net::NodeId node_ = 0;  ///< cached: valid even after the Host is destroyed
  std::uint32_t index_;
  std::uint32_t next_task_num_ = 1;
  util::FlatMap<std::int32_t, Task*> local_;
  std::vector<Task*> by_tid_;  ///< local_'s tasks, sorted by logical tid
  sim::Channel<Outgoing> outgoing_;
  sim::Channel<Inbound> inbound_;
  sim::ProcHandle pump_proc_;
  sim::ProcHandle inbound_proc_;
};

/// Central coordinator for dynamic groups (the pvmgs task in real PVM).
/// Round-trip costs are charged per operation; membership is by logical tid.
class GroupServer {
 public:
  GroupServer(sim::Engine& eng, sim::Time rtt) : eng_(eng), rtt_(rtt) {}

  [[nodiscard]] sim::Co<int> join(const std::string& group, Tid member);
  [[nodiscard]] sim::Co<void> leave(const std::string& group, Tid member);
  [[nodiscard]] sim::Co<void> barrier(const std::string& group, int count);
  [[nodiscard]] std::vector<Tid> members(const std::string& group) const;
  [[nodiscard]] int instance_of(const std::string& group, Tid member) const;
  [[nodiscard]] std::size_t size(const std::string& group) const;

 private:
  struct Group {
    std::vector<Tid> members;  ///< index == instance number
    int barrier_arrived = 0;
    std::unique_ptr<sim::Trigger> barrier_release;
  };
  Group& get(const std::string& name);

  sim::Engine& eng_;
  sim::Time rtt_;
  std::unordered_map<std::string, Group> groups_;
};

class PvmSystem {
 public:
  PvmSystem(sim::Engine& eng, net::Network& net,
            calib::CostModel costs = calib::hp720_testbed());
  PvmSystem(const PvmSystem&) = delete;
  PvmSystem& operator=(const PvmSystem&) = delete;
  /// Halts every live task program first, so coroutines parked in mailboxes
  /// and gates unwind before those structures are destroyed.
  ~PvmSystem();

  [[nodiscard]] sim::Engine& engine() const noexcept { return eng_; }
  [[nodiscard]] net::Network& network() const noexcept { return *net_; }
  [[nodiscard]] const calib::CostModel& costs() const noexcept {
    return costs_;
  }
  [[nodiscard]] sim::TraceLog& trace() noexcept { return trace_; }
  /// VM-wide metric store.  Every subsystem (MPVM/UPVM/ADM/GS) records its
  /// counters and stage histograms here; a pull collector snapshots the
  /// net:: transport totals at export time.  See DESIGN.md §9.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// Causal span tracer (DESIGN.md §10): migration protocols record their
  /// stage spans here; routing stamps trace contexts onto messages and
  /// advances the per-host Lamport clocks.
  [[nodiscard]] obs::SpanTracer& spans() noexcept { return spans_; }
  [[nodiscard]] const obs::SpanTracer& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] GroupServer& groups() noexcept { return groups_; }

  /// Add a workstation to the virtual machine (starts its pvmd).
  Pvmd& add_host(os::Host& host);
  [[nodiscard]] const std::vector<std::unique_ptr<Pvmd>>& daemons()
      const noexcept {
    return daemons_;
  }
  [[nodiscard]] Pvmd* daemon_on(const os::Host& host) const;
  [[nodiscard]] Pvmd* daemon_at(net::NodeId node) const;
  /// VM hosts currently crashed (kept by the crash/recover observer that
  /// add_host registers).  Zero means every daemon's host is up.
  [[nodiscard]] std::size_t down_hosts() const noexcept { return down_hosts_; }

  /// Register an executable: what pvm_spawn("name", ...) starts.
  void register_program(const std::string& name, TaskMain main);
  [[nodiscard]] bool has_program(const std::string& name) const;

  /// Spawn from outside the VM (the PVM console).  `where`: host name, or
  /// empty for round-robin placement.
  [[nodiscard]] sim::Co<std::vector<Tid>> spawn(const std::string& program,
                                                int count,
                                                const std::string& where = {},
                                                Tid parent = Tid());

  // -- Task registry --------------------------------------------------------
  [[nodiscard]] Task* find_logical(Tid logical) const;
  [[nodiscard]] Task* find_current(Tid current) const;
  /// Follow the forwarding chain from a possibly-stale routing tid.
  [[nodiscard]] Tid resolve_current(Tid maybe_stale) const;
  /// Every registered task, sorted by logical tid (a stable order: the GS
  /// victim scans and checkpoint sweeps iterate this, and determinism
  /// invariant 8 extends to "same decision every run").
  [[nodiscard]] std::vector<Task*> all_tasks() const;

  // -- Routing --------------------------------------------------------------
  /// Hand a message from `from` to the transport (the back half of
  /// pvm_send, after the library-side costs were charged).
  void route(Task& from, Message m);

  /// True when a send from `from` to `dst` stays on the sender's host (the
  /// library charges the sender-side local-socket copy in that case).
  [[nodiscard]] bool is_local(const Task& from, Tid dst) const;

  // -- Migration support (library level) -------------------------------------
  /// Re-home `task` onto `new_host`'s pvmd: allocates a new routing tid,
  /// installs forwarding from the old one, and updates the daemon tables.
  /// Returns the new routing tid.  The caller moves the os::Process.
  Tid retid(Task& task, os::Host& new_host);

  /// Relocation (fencing) epoch of `logical`: bumped once per completed
  /// relocation — MPVM restart or checkpoint restart/recovery — and carried
  /// by every message announcing the new mapping, so a peer can drop
  /// announcements from superseded relocations (Task::learn_mapping).
  std::uint64_t bump_relocation_epoch(Tid logical) {
    return ++reloc_epoch_[logical.raw()];
  }
  [[nodiscard]] std::uint64_t relocation_epoch(Tid logical) const {
    auto it = reloc_epoch_.find(logical.raw());
    return it == reloc_epoch_.end() ? 0 : it->second;
  }

  // -- Adversarial-network defenses (DESIGN.md §7) ---------------------------
  /// Frame checksums on the daemon wire path (default on): the sending pump
  /// stamps a CRC-32 of the body onto every frame; corruption injected by
  /// the fabric is detected against it and recovered by retransmission.
  /// Turning this off reproduces the undefended stack — injected corruption
  /// reaches applications as garbled payloads.
  void set_wire_checksums(bool on) noexcept { wire_checksums_ = on; }
  [[nodiscard]] bool wire_checksums() const noexcept {
    return wire_checksums_;
  }
  /// How long a receiving task holds out-of-order frames before declaring
  /// the missing ones lost and skipping the gap (Task::accept).  Must
  /// comfortably exceed the transport's retransmission recovery (default
  /// retry budget: 20 × 50 ms).
  void set_reorder_gap_timeout(sim::Time t) noexcept {
    CPE_EXPECTS(t > 0);
    reorder_gap_timeout_ = t;
  }
  [[nodiscard]] sim::Time reorder_gap_timeout() const noexcept {
    return reorder_gap_timeout_;
  }
  // Not noexcept: CPE_EXPECTS throws ContractError on a bad knob.
  void set_tuning(const PvmTuning& t) {
    CPE_EXPECTS(t.reorder_window_cap > 0);
    tuning_ = t;
  }
  [[nodiscard]] const PvmTuning& tuning() const noexcept { return tuning_; }

  /// Per-call overhead shim (installed by MPVM).
  void set_shim(std::unique_ptr<LibraryShim> shim) { shim_ = std::move(shim); }
  [[nodiscard]] const LibraryShim* shim() const noexcept {
    return shim_.get();
  }

  /// Invoked for every newly spawned task, before its program starts.  The
  /// migration systems use this to link their handlers into each task — the
  /// paper's "signal handlers that are transparently linked into the
  /// application".
  void set_task_observer(std::function<void(Task&)> obs) {
    task_observer_ = std::move(obs);
  }

  /// Invoked when a daemon forwards a message for a task that no longer
  /// lives on it (the message raced the task's migration).  Arguments: the
  /// message about to be forwarded, the task it is for (already re-homed),
  /// and the daemon doing the forwarding.  MPVM's residual-forwarding stub
  /// hangs off this to trace forwards and teach stale senders the new
  /// mapping (MOSIX home-node style).
  using ForwardObserver = std::function<void(const Message&, Task&, Pvmd&)>;
  void set_forward_observer(ForwardObserver obs) {
    forward_observer_ = std::move(obs);
  }

  // -- Lifecycle ------------------------------------------------------------
  void on_task_exit(Task& t);

  /// Host-crash fallout at the VM level: tasks whose process died are marked
  /// exited (firing pvm_notify watches); crash-recoverable tasks are left
  /// registered but stranded, awaiting checkpoint-driven recovery.
  /// Registered automatically as a Host observer by add_host().
  void handle_host_crash(os::Host& host);

  /// pvm_kill: forcibly terminate a task (its program aborts at the current
  /// suspension point).  Returns false when the tid is unknown or already
  /// exited.
  bool kill(Tid logical);

  /// pvm_notify(PvmTaskExit): when `observed` exits (or is killed), deliver
  /// a message with tag `tag` to `observer`.  Body: the observed tid, then
  /// an int that is 1 when the task was lost in a host crash, 0 for a
  /// normal exit or kill.  Fires immediately if the task has already exited.
  void notify_exit(Tid observer, Tid observed, int tag);
  [[nodiscard]] sim::Co<void> wait_exit(Tid logical);
  [[nodiscard]] sim::Co<void> wait_all_exited();
  [[nodiscard]] std::size_t live_task_count() const noexcept {
    return live_tasks_;
  }

  // -- Stats ----------------------------------------------------------------
  [[nodiscard]] std::uint64_t messages_routed() const noexcept {
    return messages_routed_;
  }
  [[nodiscard]] std::uint64_t bytes_routed() const noexcept {
    return bytes_routed_;
  }

 private:
  friend class Pvmd;
  friend class Task;

  [[nodiscard]] sim::Co<Task*> spawn_one(const std::string& program,
                                         Pvmd& pvmd, Tid parent);
  void fire_exit_watches(Task& t, bool crashed = false);

  sim::Engine& eng_;
  net::Network* net_;
  calib::CostModel costs_;
  sim::TraceLog trace_;
  obs::MetricsRegistry metrics_;
  obs::SpanTracer spans_;
  /// Cached hot-path counters (route() runs per message; no map lookups).
  obs::Counter* msgs_routed_ctr_ = nullptr;
  obs::Counter* bytes_routed_ctr_ = nullptr;
  obs::Counter* seq_duplicates_ctr_ = nullptr;
  obs::Counter* seq_held_ctr_ = nullptr;
  obs::Counter* seq_gaps_ctr_ = nullptr;
  obs::Counter* seq_window_evicted_ctr_ = nullptr;
  obs::Counter* crc_dropped_ctr_ = nullptr;
  bool wire_checksums_ = true;
  sim::Time reorder_gap_timeout_ = 2.0;
  PvmTuning tuning_;
  /// Dice for picking which payload bit an injected corruption flips
  /// (deterministic: the corrupt hook must not perturb the network's
  /// random streams).
  sim::Rng corrupt_rng_{0x5eedc0de};
  GroupServer groups_;
  std::vector<std::unique_ptr<Pvmd>> daemons_;
  std::unordered_map<std::string, TaskMain> programs_;
  // Flat open-addressing registries (util::FlatMap): looked up per routed
  // message.  Iteration order is unspecified; all_tasks() sorts.
  util::FlatMap<std::int32_t, std::unique_ptr<Task>> by_logical_;
  util::FlatMap<std::int32_t, std::int32_t> current_to_logical_;
  util::FlatMap<std::int32_t, std::int32_t> forward_;
  util::FlatMap<std::int32_t, std::uint64_t> reloc_epoch_;
  std::unique_ptr<LibraryShim> shim_;
  std::function<void(Task&)> task_observer_;
  ForwardObserver forward_observer_;
  std::size_t next_spawn_host_ = 0;
  std::size_t live_tasks_ = 0;
  std::size_t down_hosts_ = 0;
  struct ExitWatch {
    std::int32_t observer = 0;
    std::int32_t observed = 0;
    int tag = 0;
  };
  std::vector<ExitWatch> exit_watches_;
  sim::Trigger all_exited_;
  std::uint64_t messages_routed_ = 0;
  std::uint64_t bytes_routed_ = 0;
};

}  // namespace cpe::pvm
