#include "src/faults/recovery_oracle.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "src/db/cpu_context.h"
#include "src/sim/check.h"
#include "src/storage/block_device.h"
#include "src/storage/disk_model.h"

namespace rlfault {
namespace {

using rlsim::Task;

// A fresh powered device holding the durable contents of `image`.
std::unique_ptr<rlstor::SimBlockDevice> Clone(rlsim::Simulator& sim,
                                              const rlstor::DiskImage& image,
                                              const char* name) {
  rlstor::SimBlockDevice::Options opts;
  opts.geometry.sector_count = image.sector_count();
  opts.name = name;
  auto dev = std::make_unique<rlstor::SimBlockDevice>(
      sim, opts, rlstor::MakeDefaultSsd());
  dev->image().CopyDurableWindow(image, 0, image.sector_count());
  return dev;
}

Task<RecoveryProbe> RunProbe(rlsim::Simulator& sim,
                             const rlstor::DiskImage& data,
                             const rlstor::DiskImage& log,
                             const rldb::DbOptions& options,
                             uint32_t partitions, const char* tag) {
  auto data_dev = Clone(sim, data, tag);
  auto log_dev = Clone(sim, log, tag);

  rldb::NativeCpu cpu(sim);
  rldb::DbOptions dbo = options;
  dbo.recovery.partitions = partitions;

  const rlsim::TimePoint open_start = sim.now();
  auto db =
      co_await rldb::Database::Open(sim, cpu, *data_dev, *log_dev, dbo);

  RecoveryProbe probe;
  probe.recovery_time = sim.now() - open_start;
  probe.content_hash = co_await db->ContentHash();
  probe.committed_count = co_await db->CommittedCount();
  probe.in_doubt_global_ids = db->InDoubtGlobalIds();
  probe.recovered_records = db->stats().recovered_records.value();
  probe.redo_skipped_by_horizon = db->stats().redo_skipped_by_horizon.value();
  RL_CHECK_MSG(db->stats().journal_header_reads.value() == 1,
               "recovery must read the journal header exactly once, read "
                   << db->stats().journal_header_reads.value() << " times");
  co_await db->CheckTreeStructure();
  co_await db->Close();
  co_return probe;
}

}  // namespace

std::string RecoveryEquivalence::Summary() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "k1{hash=%016llx n=%llu replayed=%lld skipped=%lld t=%lldus} "
      "kcfg{hash=%016llx n=%llu replayed=%lld skipped=%lld t=%lldus}",
      static_cast<unsigned long long>(one_stream.content_hash),
      static_cast<unsigned long long>(one_stream.committed_count),
      static_cast<long long>(one_stream.recovered_records),
      static_cast<long long>(one_stream.redo_skipped_by_horizon),
      static_cast<long long>(one_stream.recovery_time.micros()),
      static_cast<unsigned long long>(configured.content_hash),
      static_cast<unsigned long long>(configured.committed_count),
      static_cast<long long>(configured.recovered_records),
      static_cast<long long>(configured.redo_skipped_by_horizon),
      static_cast<long long>(configured.recovery_time.micros()));
  return buf;
}

Task<RecoveryEquivalence> CheckRecoveryEquivalence(
    rlsim::Simulator& sim, const rlstor::DiskImage& data,
    const rlstor::DiskImage& log, rldb::DbOptions db) {
  RecoveryEquivalence eq;
  eq.one_stream =
      co_await RunProbe(sim, data, log, db, /*partitions=*/1, "oracle-k1");
  eq.configured = co_await RunProbe(sim, data, log, db,
                                    db.recovery.partitions, "oracle-kcfg");
  co_return eq;
}

}  // namespace rlfault
