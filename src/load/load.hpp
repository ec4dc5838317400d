// Decentralized load sensing and dissemination (DESIGN.md §11).
//
// The paper's Global Scheduler "watches workstation ownership and load";
// the naive reproduction polls every host centrally.  This subsystem
// replaces the poll with the MOSIX recipe: each host runs a LoadSensor
// that folds its CpuScheduler's runnable set into a smoothed load index,
// and a LoadExchange agent that gossips a small vector of the freshest
// entries it knows to a few random peers.  Every host then holds an
// eventually-consistent *partial* load map — stale entries are stamped so
// consumers can discount or drop them — and the GS reads the map local to
// wherever it runs instead of touching every CPU each tick.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace cpe::load {

/// Well-known datagram port of the per-host load-exchange agent.  (pvmds
/// own 1023, the replicated-GS wire owns 1022.)
inline constexpr std::uint16_t kLoadPort = 1021;

/// One host's load as known somewhere on the worknet.  `stamp` is the
/// virtual time the *origin* sensor took the sample; age = now - stamp.
///
/// User-provided constructors (not an aggregate), per net::Datagram's
/// GCC 12 note.
struct LoadEntry {
  std::string host;        ///< origin host name
  double index = 0;        ///< smoothed load index (sensor EWMA)
  double instant = 0;      ///< raw runnable count at the sample instant
  int external_jobs = 0;   ///< owner jobs in that count
  bool owner_active = false;
  bool up = true;
  sim::Time stamp = 0;     ///< origin sample time

  LoadEntry() noexcept {}
  LoadEntry(std::string host_, double index_, double instant_,
            int external_jobs_, bool owner_active_, bool up_,
            sim::Time stamp_)
      : host(std::move(host_)),
        index(index_),
        instant(instant_),
        external_jobs(external_jobs_),
        owner_active(owner_active_),
        up(up_),
        stamp(stamp_) {}
};

/// A LoadEntry without its origin name and stamp: one slot of an exchange
/// agent's dense load table, and of a gossip datagram.
struct LoadSample {
  double index = 0;
  double instant = 0;
  int external_jobs = 0;
  bool owner_active = false;
  bool up = true;

  LoadSample() noexcept {}
  LoadSample(double index_, double instant_, int external_jobs_,
             bool owner_active_, bool up_) noexcept
      : index(index_),
        instant(instant_),
        external_jobs(external_jobs_),
        owner_active(owner_active_),
        up(up_) {}
};

/// Wire charge of one gossip datagram: a fixed header.  The wire model also
/// prices 30 B per entry (8 B index + 8 B instant + 8 B stamp + 4 B external
/// + 2 B flags) plus the origin and entry host names, but that is not
/// charged: see LoadExchange::gossip_round.
inline constexpr std::size_t kGossipHeaderBytes = 16;

}  // namespace cpe::load
