// Recovery-equivalence and recovery-time oracle: given the durable disk
// state a crash left behind (the data and log windows of the crashed images,
// frozen with DiskImage::CopyDurableWindow), recover it twice — once with
// one redo stream, once with the deployment's stream count — on throwaway
// device clones, and demand that both produce the same committed contents,
// the same in-doubt 2PC set, the same replay-work counters, and finish
// inside a virtual-time budget.
//
// The clones make the probe side-effect free: the testbed's own devices
// (and whatever its own recovery is about to do to them) are untouched, so
// the oracle can run inside every chaos episode without perturbing it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/storage/disk_image.h"

namespace rlfault {

// What one recovery of the cloned crash state observed.
struct RecoveryProbe {
  uint64_t content_hash = 0;     // Database::ContentHash after recovery
  uint64_t committed_count = 0;
  std::vector<uint64_t> in_doubt_global_ids;
  int64_t recovered_records = 0;
  int64_t redo_skipped_by_horizon = 0;
  rlsim::Duration recovery_time;  // virtual time inside Database::Open
};

struct RecoveryEquivalence {
  RecoveryProbe one_stream;  // RecoveryOptions{partitions = 1}
  RecoveryProbe configured;  // the deployment's RecoveryOptions{partitions}

  // The contents and the replay-work accounting must agree; the stream
  // counts may only differ in virtual recovery time.
  bool equivalent() const {
    return one_stream.content_hash == configured.content_hash &&
           one_stream.committed_count == configured.committed_count &&
           one_stream.in_doubt_global_ids == configured.in_doubt_global_ids &&
           one_stream.recovered_records == configured.recovered_records &&
           one_stream.redo_skipped_by_horizon ==
               configured.redo_skipped_by_horizon;
  }
  bool within_budget(rlsim::Duration budget) const {
    return one_stream.recovery_time <= budget &&
           configured.recovery_time <= budget;
  }
  std::string Summary() const;
};

// Clones `data` (the engine's data device, its LBA 0 at sector 0) and `log`
// (its log device) onto fresh SSD-backed devices and runs the two recovery
// probes back-to-back in `sim`. `db` holds the engine options of the
// database that wrote the images (profile and pool geometry must match); the
// second probe recovers with db.recovery.partitions streams, the first with
// one. Throws whatever a genuinely unrecoverable image makes Database::Open
// throw.
rlsim::Task<RecoveryEquivalence> CheckRecoveryEquivalence(
    rlsim::Simulator& sim, const rlstor::DiskImage& data,
    const rlstor::DiskImage& log, rldb::DbOptions db);

}  // namespace rlfault
