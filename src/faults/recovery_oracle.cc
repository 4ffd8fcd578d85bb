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

// A fresh powered device whose durable medium holds a window of the source
// image's durable sectors: [first_lba, first_lba + sector_count) shifted
// down to LBA 0. Volatile-cache contents are deliberately dropped — the
// clone is exactly what the crash left on stable storage (torn sectors read
// back their corruption pattern and land in the clone as such).
std::unique_ptr<rlstor::SimBlockDevice> CloneDurableWindow(
    rlsim::Simulator& sim, const rlstor::DiskImage& src, uint64_t first_lba,
    uint64_t sector_count, const char* name) {
  rlstor::SimBlockDevice::Options opts;
  opts.geometry.sector_count = sector_count;
  opts.name = name;
  auto dev = std::make_unique<rlstor::SimBlockDevice>(
      sim, opts, rlstor::MakeDefaultSsd());
  std::vector<uint8_t> buf(rlstor::kSectorSize);
  for (const uint64_t sector : src.DurableSectorList()) {
    if (sector < first_lba || sector >= first_lba + sector_count) {
      continue;
    }
    src.ReadDurable(sector, buf);
    dev->image().WriteDurable(sector - first_lba, buf);
  }
  return dev;
}

Task<RecoveryProbe> RunProbe(rlsim::Simulator& sim,
                             const rlstor::DiskImage& data_image,
                             const rlstor::DiskImage& log_image,
                             const RecoveryOracleOptions& options,
                             uint32_t partitions, const char* tag) {
  auto data_dev = CloneDurableWindow(
      sim, data_image, options.data_first_lba,
      data_image.sector_count() - options.data_first_lba, tag);
  auto log_dev =
      CloneDurableWindow(sim, log_image, 0, options.log_sector_count, tag);

  rldb::NativeCpu cpu(sim);
  rldb::DbOptions dbo = options.db;
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
    rlsim::Simulator& sim, const rlstor::DiskImage& data_image,
    const rlstor::DiskImage& log_image, RecoveryOracleOptions options) {
  RL_CHECK(options.log_sector_count > 0);
  RL_CHECK(options.data_first_lba < data_image.sector_count());
  RecoveryEquivalence eq;
  eq.one_stream = co_await RunProbe(sim, data_image, log_image, options,
                                    /*partitions=*/1, "oracle-k1");
  eq.configured = co_await RunProbe(sim, data_image, log_image, options,
                                    options.db.recovery.partitions,
                                    "oracle-kcfg");
  co_return eq;
}

}  // namespace rlfault
