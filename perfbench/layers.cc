#include "perfbench/layers.h"

#include <algorithm>

#include "src/obs/critical_path.h"

namespace perfbench {

LayerCounters& LayerCounters::operator+=(const LayerCounters& other) {
#define PERFBENCH_ADD(name) name += other.name;
  PERFBENCH_DB_COUNTERS(PERFBENCH_ADD)
  PERFBENCH_DEVICE_COUNTERS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  return *this;
}

LayerCounters LayerCounters::operator-(const LayerCounters& other) const {
  LayerCounters out = *this;
#define PERFBENCH_SUB(name) out.name -= other.name;
  PERFBENCH_DB_COUNTERS(PERFBENCH_SUB)
  PERFBENCH_DEVICE_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return out;
}

LayerCounters ReadDb(const rldb::Database& db) {
  LayerCounters c;
  const auto& wal = db.log_writer().stats();
  c.wal_records = wal.records_appended.value();
  c.wal_flush_cycles = wal.flush_cycles.value();
  c.wal_bytes = wal.bytes_written.value();
  const auto& locks = db.locks().stats();
  c.lock_waits = locks.waits.value();
  c.lock_timeouts = locks.timeouts.value();
  const auto& pool = db.pool().stats();
  c.pool_fetches = pool.fetches.value();
  c.pool_hits = pool.hits.value();
  c.pool_reads = pool.page_reads.value();
  c.pool_writes = pool.page_writes.value();
  const auto& stats = db.stats();
  c.checkpoints = stats.checkpoints.value();
  c.recovered_records = stats.recovered_records.value();
  c.redo_installed_ops = stats.redo_installed_ops.value();
  c.repaired_from_journal = stats.repaired_from_journal.value();
  return c;
}

LayerCounters ReadDevices(rlharness::Testbed& bed) {
  LayerCounters c;
  if (const rlvmm::VirtualBlockDevice* vblk = bed.guest_log_dev()) {
    c.vmm_log_requests = vblk->stats().reads.value() +
                         vblk->stats().writes.value() +
                         vblk->stats().flushes.value();
  }
  if (const rapilog::RapiLogDevice* rl = bed.rapilog()) {
    c.rapilog_acked_writes = rl->stats().acked_writes.value();
    c.rapilog_absorbed_writes = rl->stats().absorbed_writes.value();
    c.rapilog_drained_writes = rl->stats().drained_writes.value();
    c.rapilog_emergency_flushes = rl->stats().emergency_flushes.value();
  }
  const rlstor::SimBlockDevice& log = bed.log_disk_physical();
  const rlstor::SimBlockDevice& data = bed.data_disk();
  c.log_writes = log.stats().writes.value();
  c.log_flushes = log.stats().flushes.value();
  c.data_reads = data.stats().reads.value();
  c.data_writes = data.stats().writes.value();
  c.failed_requests = data.stats().failed_requests.value();
  if (&log != &data) {
    c.failed_requests += log.stats().failed_requests.value();
  }
  return c;
}

LayerCounters ReadFleet(rlharness::FleetTestbed& fleet) {
  LayerCounters c;
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    c += ReadDevices(fleet.shard(i));
    if (const rldb::Database* db = fleet.shard_db(i)) {
      c += ReadDb(*db);
    }
  }
  const auto& coord = fleet.coordinator().stats();
  c.coord_cross_shard = coord.cross_shard.value();
  c.coord_votes_no = coord.votes_no.value();
  c.coord_vote_timeouts = coord.vote_timeouts.value();
  c.coord_decision_resends = coord.decision_resends.value();
  const auto& net = fleet.fabric().stats();
  c.net_messages = net.messages_sent.value();
  c.net_bytes = net.bytes_sent.value();
  return c;
}

namespace {

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

void ReadGauges(const std::vector<rlharness::Testbed*>& beds,
                const rlnet::NetworkFabric* fabric, LayerGauges& out) {
  rlsim::Histogram occupancy;
  rlsim::Histogram lock_wait;
  out.rapilog_budget_kib = 0;
  for (rlharness::Testbed* bed : beds) {
    if (const rapilog::RapiLogDevice* rl = bed->rapilog()) {
      occupancy.Merge(rl->stats().buffer_occupancy);
      out.rapilog_budget_kib +=
          static_cast<double>(rl->max_buffer_bytes()) / 1024.0;
    }
    if (bed->db_open()) {
      lock_wait.Merge(bed->db().locks().stats().wait_time);
    }
  }
  // Budgets are per device; report the mean so it compares with occupancy.
  if (!beds.empty()) {
    out.rapilog_budget_kib /= static_cast<double>(beds.size());
  }
  out.rapilog_occupancy_p99_kib =
      occupancy.empty() ? 0
                        : static_cast<double>(occupancy.Percentile(99)) / 1024.0;
  out.lock_wait_p99_us = lock_wait.empty() ? 0 : Us(lock_wait.Percentile(99));
  if (fabric != nullptr && !fabric->stats().delivery_latency.empty()) {
    out.net_delivery_p50_us =
        Us(fabric->stats().delivery_latency.Percentile(50));
  }
}

std::string SpanModule(const std::string& kind) {
  if (kind == "commit-wait" || kind == "flush-cycle" ||
      kind.starts_with("recover") || kind.starts_with("redo-")) {
    return "db";
  }
  if (kind == "buffer-ack" || kind == "drain-write") {
    return "rapilog";
  }
  if (kind.starts_with("io-")) {
    return "storage";
  }
  if (kind.starts_with("vblk-")) {
    return "vmm";
  }
  if (kind.starts_with("2pc-") || kind.starts_with("shard-")) {
    return "shard";
  }
  if (kind == "bench-txn") {
    return "bench";
  }
  return "other";
}

SpanSummary SummarizeSpans(const rlobs::SpanTracer& tracer, int64_t begin_ns,
                           int64_t end_ns, const std::string& log_disk_name) {
  using Type = rlobs::SpanTracer::EventType;
  struct Span {
    int64_t begin = 0;
    int64_t end = -1;  // -1: never closed
    uint64_t parent = 0;
    uint16_t actor = 0;
    uint16_t kind = 0;
  };
  // Span ids are allocated densely from 1 by the simulator.
  std::vector<Span> spans(1);
  for (const auto& r : tracer.records()) {
    if (r.type == Type::kBegin) {
      if (spans.size() <= r.span_id) {
        spans.resize(r.span_id + 1);
      }
      spans[r.span_id] = Span{r.at_ns, -1, r.parent, r.actor, r.kind};
    } else if (r.type == Type::kEnd && r.span_id < spans.size()) {
      spans[r.span_id].end = r.at_ns;
    }
  }
  const auto in_window = [&](const Span& s) {
    return s.end >= 0 && s.begin >= begin_ns && s.begin < end_ns;
  };

  // Child coverage per parent: union of child intervals clipped to the
  // parent, swept in (parent, begin) order.
  struct Child {
    uint64_t parent;
    int64_t begin;
    int64_t end;
  };
  std::vector<Child> children;
  for (uint64_t id = 1; id < spans.size(); ++id) {
    const Span& s = spans[id];
    if (s.parent != 0 && s.parent < spans.size() && s.end >= 0) {
      children.push_back(Child{s.parent, s.begin, s.end});
    }
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.begin < b.begin;
            });
  std::vector<int64_t> covered(spans.size(), 0);
  for (size_t i = 0; i < children.size();) {
    const uint64_t p = children[i].parent;
    const Span& parent = spans[p];
    int64_t run_begin = 0;
    int64_t run_end = -1;
    for (; i < children.size() && children[i].parent == p; ++i) {
      const int64_t b = std::max(children[i].begin, parent.begin);
      const int64_t e = std::min(children[i].end, parent.end);
      if (e <= b) {
        continue;
      }
      if (b > run_end) {
        covered[p] += std::max<int64_t>(0, run_end - run_begin);
        run_begin = b;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    covered[p] += std::max<int64_t>(0, run_end - run_begin);
  }

  SpanSummary out;
  const std::string kBenchTxn = "bench-txn";
  std::vector<uint64_t> root(spans.size(), 0);
  for (uint64_t id = 1; id < spans.size(); ++id) {
    const Span& s = spans[id];
    // Parents begin before their children, so their root is already known.
    root[id] = (s.parent != 0 && s.parent < id) ? root[s.parent] : id;
    if (!in_window(s)) {
      continue;
    }
    const std::string& kind = tracer.name(s.kind);
    const std::string& actor = tracer.name(s.actor);
    const int64_t dur = s.end - s.begin;
    ++out.spans;
    KindStats& k = out.kinds[kind];
    ++k.count;
    k.self_ns += dur - covered[id];
    if (kind == "commit-wait") {
      out.commit_wait_ns.push_back(dur);
    } else if (kind == "buffer-ack") {
      out.buffer_ack_ns.push_back(dur);
    } else if (kind.starts_with("vblk-") && actor == "guest-log-vblk") {
      out.log_vblk_ns.push_back(dur);
    } else if (kind == "io-write" && actor == log_disk_name) {
      out.log_write_ns.push_back(dur);
    } else if (kind == "io-flush" && actor == log_disk_name) {
      out.log_flush_ns.push_back(dur);
    }
  }

  // Critical paths of the client-rooted trees that begin in the window.
  std::vector<rlobs::SpanNode> nodes;
  for (uint64_t id = 1; id < spans.size(); ++id) {
    const Span& r = spans[root[id]];
    if (spans[id].end < 0 || !in_window(r) ||
        tracer.name(r.kind) != kBenchTxn) {
      continue;
    }
    const Span& s = spans[id];
    nodes.push_back(rlobs::SpanNode{id, s.parent, s.begin, s.end,
                                    tracer.name(s.actor),
                                    tracer.name(s.kind)});
  }
  const rlobs::CriticalPathReport report = rlobs::AnalyzeCriticalPaths(nodes);
  for (const rlobs::CriticalPathClass& cls : report.classes) {
    if (cls.root_kind != kBenchTxn) {
      continue;
    }
    out.cp_total_ns += cls.total_ns;
    for (const rlobs::CriticalEdge& edge : cls.edges) {
      out.kinds[edge.kind].cp_ns += edge.total_ns;
    }
  }
  return out;
}

}  // namespace perfbench
