// Per-layer observations, read from outside the program: counters through
// each layer object's public stats() accessor (as deltas across the
// measured window, never via Reset()), whole-run histograms and
// configuration as gauges, and span statistics from a traced pass.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/harness/fleet_testbed.h"
#include "src/harness/testbed.h"
#include "src/obs/span_tracer.h"

namespace perfbench {

// Every counter the benchmark reads. Database counters restart with each
// engine incarnation (recovery builds a new Database), so they are read
// separately from the device counters, which live as long as the testbed.
#define PERFBENCH_DB_COUNTERS(X) \
  X(wal_records)                 \
  X(wal_flush_cycles)            \
  X(wal_bytes)                   \
  X(lock_waits)                  \
  X(lock_timeouts)               \
  X(pool_fetches)                \
  X(pool_hits)                   \
  X(pool_reads)                  \
  X(pool_writes)                 \
  X(checkpoints)                 \
  X(recovered_records)           \
  X(redo_installed_ops)          \
  X(repaired_from_journal)

#define PERFBENCH_DEVICE_COUNTERS(X) \
  X(vmm_log_requests)                \
  X(rapilog_acked_writes)            \
  X(rapilog_absorbed_writes)         \
  X(rapilog_drained_writes)          \
  X(rapilog_emergency_flushes)       \
  X(log_writes)                      \
  X(log_flushes)                     \
  X(data_reads)                      \
  X(data_writes)                     \
  X(failed_requests)                 \
  X(coord_cross_shard)               \
  X(coord_votes_no)                  \
  X(coord_vote_timeouts)             \
  X(coord_decision_resends)          \
  X(net_messages)                    \
  X(net_bytes)

struct LayerCounters {
#define PERFBENCH_FIELD(name) int64_t name = 0;
  PERFBENCH_DB_COUNTERS(PERFBENCH_FIELD)
  PERFBENCH_DEVICE_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD

  LayerCounters& operator+=(const LayerCounters& other);
  LayerCounters operator-(const LayerCounters& other) const;
};

// Database counters of one engine incarnation (device fields stay 0).
LayerCounters ReadDb(const rldb::Database& db);
// Device, trusted-layer and fleet counters (database fields stay 0). On a
// shared spindle the log and data disk are one device, counted once as log.
LayerCounters ReadDevices(rlharness::Testbed& bed);
LayerCounters ReadFleet(rlharness::FleetTestbed& fleet);

// Whole-run values: histogram percentiles (bucketed, warmup included) for
// layers that emit no span, plus configuration such as the RapiLog budget.
struct LayerGauges {
  double rapilog_budget_kib = 0;
  double rapilog_occupancy_p99_kib = 0;
  double lock_wait_p99_us = 0;
  double net_delivery_p50_us = 0;
  std::vector<double> backlog_at_cut_kib;
};

// Reads the gauges of `beds` (merged) and, for a fleet, of its fabric.
// Leaves backlog_at_cut_kib alone: the powercut pass fills it at each cut.
void ReadGauges(const std::vector<rlharness::Testbed*>& beds,
                const rlnet::NetworkFabric* fabric, LayerGauges& out);

// Span statistics over the spans that begin inside the measured window.
struct KindStats {
  int64_t count = 0;
  int64_t self_ns = 0;  // duration minus the time its child spans cover
  int64_t cp_ns = 0;    // time on the critical path of bench-txn roots
};

struct SpanSummary {
  int64_t spans = 0;
  int64_t cp_total_ns = 0;  // summed bench-txn root durations
  std::map<std::string, KindStats> kinds;
  // Exact durations of the spans behind the per-layer latency metrics.
  std::vector<int64_t> commit_wait_ns;  // wal commit-wait
  std::vector<int64_t> buffer_ack_ns;   // rapilog buffer-ack
  std::vector<int64_t> log_vblk_ns;     // guest log vblk requests
  std::vector<int64_t> log_write_ns;    // io-write on the physical log disk
  std::vector<int64_t> log_flush_ns;    // io-flush on the physical log disk
};

SpanSummary SummarizeSpans(const rlobs::SpanTracer& tracer, int64_t begin_ns,
                           int64_t end_ns, const std::string& log_disk_name);

// The module a span kind belongs to, for grouping "span.<module>.<kind>".
std::string SpanModule(const std::string& kind);

}  // namespace perfbench
