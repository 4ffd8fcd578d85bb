// perfbench_driver: runs one named workload from a seed, checks its outputs
// and prints every metric by name with its unit. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 1 runs the workload twice from the same seed, untraced and then
// under an rlobs::SpanTracer, requires every virtual-time result to match
// exactly (tracing is hash-neutral), and reports the layers from the traced
// pass. Exit status is 0 only if every correctness check passed.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {

double HostSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void Mix(uint64_t& digest, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (i * 8)) & 0xff;
    digest *= 1099511628211ull;
  }
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t h = 1469598103934665603ull;
  Mix(h, seed);
  Mix(h, stream);
  return h;
}

int64_t ExactPercentile(std::vector<int64_t>& samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  // Nearest rank: ceil(p/100 * n), 1-based.
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(p / 100.0 * n);
  if (static_cast<double>(rank) < p / 100.0 * n) {
    ++rank;
  }
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

int64_t SamplesAbove(std::vector<int64_t>& samples, double p) {
  const int64_t v = ExactPercentile(samples, p);
  return static_cast<int64_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), v));
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void Fail(PassResult& out, std::string what) {
  out.correct = false;
  out.errors.push_back(std::move(what));
}

size_t RunSegment(rlsim::Simulator& sim, PassResult& out,
                  rlsim::TimePoint deadline) {
  try {
    // Run() leaves the clock at the last event; RunUntil() moves it to the
    // deadline when the queue drains first.
    return deadline == rlsim::TimePoint::Max() ? sim.Run()
                                               : sim.RunUntil(deadline);
  } catch (const std::exception& e) {
    Fail(out, std::string("simulation failed: ") + e.what());
    return 0;
  }
}

void Accumulate(PassResult& total, PassResult round) {
  total.correct = total.correct && round.correct;
  for (std::string& e : round.errors) {
    total.errors.push_back(std::move(e));
  }
  total.attempted += round.attempted;
  total.committed += round.committed;
  total.lock_aborts += round.lock_aborts;
  total.tpc_aborts += round.tpc_aborts;
  total.unknown += round.unknown;
  total.lost_acked += round.lost_acked;
  total.cuts += round.cuts;
  total.clients = round.clients;
  total.window_s += round.window_s;
  const auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(total.latency_ns, round.latency_ns);
  append(total.recovery_ns, round.recovery_ns);
  Mix(total.digest, round.digest);
  total.window_host_s += round.window_host_s;
  total.load_host_s += round.load_host_s;
  append(total.recovery_host_s, round.recovery_host_s);
  total.window_events += round.window_events;
  total.layers += round.layers;
  LayerGauges& g = total.gauges;
  g.rapilog_budget_kib += round.gauges.rapilog_budget_kib;
  g.rapilog_occupancy_p99_kib += round.gauges.rapilog_occupancy_p99_kib;
  g.lock_wait_p99_us += round.gauges.lock_wait_p99_us;
  g.net_delivery_p50_us += round.gauges.net_delivery_p50_us;
  append(g.backlog_at_cut_kib, round.gauges.backlog_at_cut_kib);
  SpanSummary& sp = total.spans;
  sp.spans += round.spans.spans;
  sp.cp_total_ns += round.spans.cp_total_ns;
  for (const auto& [kind, k] : round.spans.kinds) {
    KindStats& to = sp.kinds[kind];
    to.count += k.count;
    to.self_ns += k.self_ns;
    to.cp_ns += k.cp_ns;
  }
  append(sp.commit_wait_ns, round.spans.commit_wait_ns);
  append(sp.buffer_ack_ns, round.spans.buffer_ack_ns);
  append(sp.log_vblk_ns, round.spans.log_vblk_ns);
  append(sp.log_write_ns, round.spans.log_write_ns);
  append(sp.log_flush_ns, round.spans.log_flush_ns);
}

namespace {

struct Workload {
  const char* name;
  std::function<PassResult(const PassOptions&)> run;
  // Measured window of one round: virtual seconds, or power cuts.
  double window;
  // Rounds per --seconds, sized so that an untraced run takes about
  // --seconds of host time on a 4-core x86-64 container.
  double rounds_per_second;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"oltp-hdd", [](const PassOptions& o) { return RunOltp(o, false); },
       3.0, 0.34},
      {"oltp-ssdlog", [](const PassOptions& o) { return RunOltp(o, true); },
       3.0, 0.34},
      {"fleet-2pc", RunFleet, 2.0, 0.43},
      {"powercut-recover", RunPowercut, 3.0, 0.27},
  };
  return kWorkloads;
}

// The end-to-end metrics the final line carries under --trace 0; the same
// names, units and directions are recorded in BENCHMARK.json.
// commit_p99_us and host_us_per_txn are printed but not gated: across seeds
// their spread on the OLTP workloads exceeds any bound the benchmark may set.
// commit_p50_us is printed but not gated either: it reads the same on every
// seed of powercut-recover, so commit_iqm_us stands for it (see README.md).
const char* const kGatedEndToEnd[] = {
    "txn_per_s", "commit_iqm_us", "setup_s", "peak_rss_mib",
};

// Span kinds the tree emits, reported as span.<module>.<kind>.*.
const char* const kSpanKinds[] = {
    "bench-txn",     "commit-wait",    "flush-cycle",    "recover",
    "recover-scan",  "redo-sequential", "redo-partitioned", "redo-install",
    "buffer-ack",    "drain-write",    "vblk-read",      "vblk-write",
    "vblk-flush",    "io-read",        "io-write",       "io-flush",
    "2pc-execute",   "2pc-prepare",    "2pc-decide",     "shard-prepare",
    "shard-execute", "shard-decision", "shard-resolve",  "shard-query",
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // printed on the human-readable line only
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                              std::move(note)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) {
        return &m;
      }
    }
    return nullptr;
  }

 private:
  std::vector<Metric> metrics_;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Interquartile mean: the mean of the middle half of the samples (sorted in
// place). The uncontended commit path costs the same virtual time on every
// seed, so the median can sit on that one value run after run; the mean of
// the middle half also weighs how often each path is taken.
double InterquartileMeanUs(std::vector<int64_t>& samples) {
  std::sort(samples.begin(), samples.end());
  const size_t lo = samples.size() / 4;
  const size_t hi = samples.size() - lo;
  if (hi <= lo) {
    return 0;
  }
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) {
    sum += static_cast<double>(samples[i]);
  }
  return sum / static_cast<double>(hi - lo) / 1e3;
}
std::string Count(int64_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

// Host time of the client phases per committed transaction.
double HostUsPerTxn(const PassResult& r) {
  return Ratio(r.load_host_s * 1e6, static_cast<double>(r.committed));
}

// Per-round values, printed so the spread inside one run is visible.
struct RoundSeries {
  std::vector<double> txn_per_s;
  std::vector<double> p99_us;
  std::vector<double> host_us_per_txn;
  std::vector<double> setup_s;

  void Add(PassResult& r) {
    txn_per_s.push_back(Ratio(static_cast<double>(r.committed), r.window_s));
    p99_us.push_back(Us(ExactPercentile(r.latency_ns, 99)));
    host_us_per_txn.push_back(HostUsPerTxn(r));
    setup_s.push_back(r.setup_s);
  }
};

// Virtual-time metrics pool every round's samples; setup_s is the median
// over the rounds.
void AddEndToEnd(PassResult& r, const RoundSeries& rounds,
                 double peak_rss_mib, Report& rep) {
  const std::string n = Count(static_cast<int64_t>(r.latency_ns.size()),
                              "samples");
  rep.Add("txn_per_s", Ratio(static_cast<double>(r.committed), r.window_s),
          "txn/s",
          std::to_string(r.clients) + " clients, " +
              Count(r.committed, "commits") + " in " +
              std::to_string(r.window_s) + " virtual s");
  rep.Add("commit_p50_us", Us(ExactPercentile(r.latency_ns, 50)), "us", n);
  rep.Add("commit_iqm_us", InterquartileMeanUs(r.latency_ns), "us",
          "mean of the middle half of " + n);
  // A p99 with fewer than ten samples beyond it is not reported.
  const int64_t beyond_p99 = SamplesAbove(r.latency_ns, 99);
  if (beyond_p99 >= 10) {
    rep.Add("commit_p99_us", Us(ExactPercentile(r.latency_ns, 99)), "us",
            n + ", " + Count(beyond_p99, "beyond"));
  }
  const int64_t failed = r.lock_aborts + r.tpc_aborts + r.unknown + r.lost_acked;
  rep.Add("failed_frac", Ratio(static_cast<double>(failed),
                               static_cast<double>(r.attempted)),
          "fraction",
          Count(r.lock_aborts, "lock aborts") + ", " +
              Count(r.tpc_aborts, "2pc aborts") + ", " +
              Count(r.unknown, "unknown") + ", " +
              Count(r.attempted, "attempted"));
  rep.Add("lost_acked_writes", static_cast<double>(r.lost_acked), "writes");
  if (r.cuts > 0) {
    std::vector<double> rec_ms;
    for (const int64_t ns : r.recovery_ns) {
      rec_ms.push_back(static_cast<double>(ns) / 1e6);
    }
    std::vector<double> host_ms;
    for (const double s : r.recovery_host_s) {
      host_ms.push_back(s * 1e3);
    }
    rep.Add("recovery_ms", Median(rec_ms), "ms", Count(r.cuts, "cuts"));
    rep.Add("host_ms_per_recovery", Median(host_ms), "ms",
            Count(r.cuts, "cuts"));
  }
  rep.Add("host_us_per_txn", HostUsPerTxn(r), "us");
  rep.Add("setup_s", Median(rounds.setup_s), "s",
          "median of " + std::to_string(rounds.setup_s.size()) + " rounds");
  rep.Add("peak_rss_mib", peak_rss_mib, "MiB");
}

void AddPerLayer(PassResult& r, double untraced_host_us_per_txn, Report& rep) {
  const LayerCounters& c = r.layers;
  const double txns = static_cast<double>(r.committed);
  const auto per_txn = [txns](int64_t n) {
    return Ratio(static_cast<double>(n), txns);
  };
  const auto pct_us = [](std::vector<int64_t>& v, double p) {
    return Us(ExactPercentile(v, p));
  };
  SpanSummary& sp = r.spans;
  const auto cp_share = [&sp](const char* kind) {
    const auto it = sp.kinds.find(kind);
    return it == sp.kinds.end()
               ? 0.0
               : Ratio(static_cast<double>(it->second.cp_ns),
                       static_cast<double>(sp.cp_total_ns));
  };

  rep.Add("txn.committed", txns, "count", "base of every per-txn ratio");
  rep.Add("sim.events_per_txn", per_txn(r.window_events), "events/txn");
  rep.Add("sim.host_ns_per_event",
          Ratio(r.window_host_s * 1e9, static_cast<double>(r.window_events)),
          "ns", Count(r.window_events, "events"));

  rep.Add("shard.cross_frac",
          Ratio(static_cast<double>(c.coord_cross_shard),
                static_cast<double>(r.attempted)),
          "fraction", Count(r.attempted, "attempted"));
  rep.Add("shard.votes_no_per_ktxn", per_txn(c.coord_votes_no) * 1000,
          "1/ktxn");
  rep.Add("shard.vote_timeouts", static_cast<double>(c.coord_vote_timeouts),
          "count");
  rep.Add("shard.decision_resends",
          static_cast<double>(c.coord_decision_resends), "count");
  rep.Add("shard.decide_cp_share", cp_share("2pc-decide"), "fraction");
  rep.Add("shard.prepare_cp_share",
          cp_share("2pc-prepare") + cp_share("shard-prepare"), "fraction");
  rep.Add("shard.execute_cp_share", cp_share("shard-execute"), "fraction");

  rep.Add("net.msgs_per_txn", per_txn(c.net_messages), "msgs/txn");
  rep.Add("net.bytes_per_txn", per_txn(c.net_bytes), "B/txn");
  rep.Add("net.delivery_p50_us", r.gauges.net_delivery_p50_us, "us",
          "whole run, bucketed");

  rep.Add("db.wal.commit_wait_p50_us", pct_us(sp.commit_wait_ns, 50), "us",
          Count(static_cast<int64_t>(sp.commit_wait_ns.size()), "waits"));
  rep.Add("db.wal.commit_wait_p99_us", pct_us(sp.commit_wait_ns, 99), "us");
  rep.Add("db.wal.flushes", static_cast<double>(c.wal_flush_cycles), "count");
  rep.Add("db.wal.records_per_flush",
          Ratio(static_cast<double>(c.wal_records),
                static_cast<double>(c.wal_flush_cycles)),
          "records");
  rep.Add("db.wal.bytes_per_txn", per_txn(c.wal_bytes), "B/txn");
  rep.Add("db.lock.waits_per_txn", per_txn(c.lock_waits), "waits/txn");
  rep.Add("db.lock.wait_p99_us", r.gauges.lock_wait_p99_us, "us",
          "whole run, bucketed");
  rep.Add("db.lock.timeouts", static_cast<double>(c.lock_timeouts), "count");
  rep.Add("db.pool.fetches", static_cast<double>(c.pool_fetches), "count");
  rep.Add("db.pool.hit_ratio",
          Ratio(static_cast<double>(c.pool_hits),
                static_cast<double>(c.pool_fetches)),
          "fraction");
  rep.Add("db.pool.reads_per_txn", per_txn(c.pool_reads), "pages/txn");
  rep.Add("db.pool.writes_per_txn", per_txn(c.pool_writes), "pages/txn");
  rep.Add("db.checkpoints", static_cast<double>(c.checkpoints), "count");
  rep.Add("db.checkpoints_per_ktxn", per_txn(c.checkpoints) * 1000, "1/ktxn");
  rep.Add("db.recovered_records", static_cast<double>(c.recovered_records),
          "records");
  rep.Add("db.redo_installed_ops", static_cast<double>(c.redo_installed_ops),
          "ops");
  rep.Add("db.repaired_from_journal",
          static_cast<double>(c.repaired_from_journal), "pages");

  rep.Add("vmm.log_requests_per_txn", per_txn(c.vmm_log_requests), "req/txn");
  rep.Add("vmm.log_request_p50_us", pct_us(sp.log_vblk_ns, 50), "us");

  rep.Add("rapilog.ack_p50_us", pct_us(sp.buffer_ack_ns, 50), "us",
          Count(static_cast<int64_t>(sp.buffer_ack_ns.size()), "acks"));
  rep.Add("rapilog.ack_p99_us", pct_us(sp.buffer_ack_ns, 99), "us");
  rep.Add("rapilog.occupancy_p99_kib", r.gauges.rapilog_occupancy_p99_kib,
          "KiB", "whole run, bucketed");
  rep.Add("rapilog.budget_kib", r.gauges.rapilog_budget_kib, "KiB");
  rep.Add("rapilog.acked_writes", static_cast<double>(c.rapilog_acked_writes),
          "count");
  rep.Add("rapilog.absorbed_frac",
          Ratio(static_cast<double>(c.rapilog_absorbed_writes),
                static_cast<double>(c.rapilog_acked_writes)),
          "fraction");
  rep.Add("rapilog.drain_writes_per_txn", per_txn(c.rapilog_drained_writes),
          "writes/txn");
  rep.Add("rapilog.backlog_at_cut_kib", Median(r.gauges.backlog_at_cut_kib),
          "KiB", Count(r.cuts, "cuts"));
  rep.Add("rapilog.emergency_flushes",
          static_cast<double>(c.rapilog_emergency_flushes), "count");

  rep.Add("storage.log.writes_per_txn", per_txn(c.log_writes), "writes/txn");
  rep.Add("storage.log.flushes_per_txn", per_txn(c.log_flushes),
          "flushes/txn");
  rep.Add("storage.log.write_p50_us", pct_us(sp.log_write_ns, 50), "us");
  rep.Add("storage.log.flush_p50_us", pct_us(sp.log_flush_ns, 50), "us");
  rep.Add("storage.data.reads_per_txn", per_txn(c.data_reads), "reads/txn");
  rep.Add("storage.data.writes_per_txn", per_txn(c.data_writes),
          "writes/txn");
  rep.Add("storage.failed_requests", static_cast<double>(c.failed_requests),
          "count");

  rep.Add("trace.overhead_frac",
          Ratio(HostUsPerTxn(r), untraced_host_us_per_txn) - 1.0, "fraction",
          "host_us_per_txn traced vs untraced");
  rep.Add("trace.spans", static_cast<double>(sp.spans), "count");
  for (const char* kind : kSpanKinds) {
    const auto it = sp.kinds.find(kind);
    const KindStats k = it == sp.kinds.end() ? KindStats{} : it->second;
    const std::string prefix = "span." + SpanModule(kind) + "." + kind;
    rep.Add(prefix + ".count", static_cast<double>(k.count), "count");
    rep.Add(prefix + ".self_ms", static_cast<double>(k.self_ns) / 1e6, "ms");
    rep.Add(prefix + ".cp_share", cp_share(kind), "fraction");
  }
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintHuman(const Report& rep) {
  for (const Metric& m : rep.metrics()) {
    std::printf("  %-34s %14.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const Report& rep, const std::vector<std::string>& names) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const std::string& name : names) {
    const Metric* m = rep.Find(name);
    if (m == nullptr) {
      continue;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m->name.c_str(), m->value, m->unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

// Virtual-time results the traced pass must reproduce exactly.
bool SameVirtualResults(const PassResult& a, const PassResult& b) {
  return a.digest == b.digest && a.attempted == b.attempted &&
         a.committed == b.committed && a.lost_acked == b.lost_acked &&
         a.recovery_ns == b.recovery_ns && a.window_s == b.window_s &&
         a.window_events == b.window_events;
}

}  // namespace

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0' && end != value;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0 && seconds <= 3600)) {
        return Usage("--seconds wants a number in (0, 3600]");
      }
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") == 0   ? 0
              : std::strcmp(value, "1") == 0 ? 1
                                             : -1;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload_name == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr || !have_seed || seconds <= 0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  // A traced run runs every round twice (untraced, then traced), so it
  // measures half as many rounds to take about the same time.
  const int rounds = std::max(
      1, static_cast<int>(seconds * workload->rounds_per_second /
                              (trace == 1 ? 2 : 1) +
                          0.5));
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d rounds=%d\n",
              workload->name, seed, seconds, trace, rounds);

  // Each round is an independent simulation from its own derived seed: a
  // fresh testbed, set up, warmed up and measured for one fixed window.
  PassResult result;
  PassResult traced;
  RoundSeries series;
  for (int k = 0; k < rounds; ++k) {
    PassOptions options;
    options.seed = DeriveSeed(seed, static_cast<uint64_t>(k));
    options.window = workload->window;
    PassResult r = workload->run(options);
    series.Add(r);
    if (trace == 1) {
      options.trace = true;
      PassResult t = workload->run(options);
      if (!SameVirtualResults(r, t)) {
        t.correct = false;
        t.errors.push_back("round " + std::to_string(k) +
                           ": traced pass diverged from the untraced pass");
      }
      Accumulate(traced, std::move(t));
    }
    Accumulate(result, std::move(r));
  }
  for (LayerGauges* g : {&result.gauges, &traced.gauges}) {
    g->rapilog_budget_kib /= rounds;
    g->rapilog_occupancy_p99_kib /= rounds;
    g->lock_wait_p99_us /= rounds;
    g->net_delivery_p50_us /= rounds;
  }
  const double peak_rss = PeakRssMib();
  const bool correct = result.correct && traced.correct;
  std::vector<std::string> errors = result.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());

  Report e2e;
  AddEndToEnd(result, series, peak_rss, e2e);
  std::printf("end-to-end (%s):\n", workload->name);
  PrintHuman(e2e);
  std::printf("  latency ladder (us):");
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    std::printf(" p%g=%.6g", p, Us(ExactPercentile(result.latency_ns, p)));
  }
  std::printf("\n");
  std::printf(
      "  per round: txn_per_s / commit_p99_us / host_us_per_txn / setup_s\n");
  for (size_t k = 0; k < series.txn_per_s.size(); ++k) {
    std::printf("    %zu: %.6g / %.6g / %.6g / %.4g\n", k, series.txn_per_s[k],
                series.p99_us[k], series.host_us_per_txn[k],
                series.setup_s[k]);
  }

  Report layers;
  if (trace == 1) {
    AddPerLayer(traced, HostUsPerTxn(result), layers);
    std::printf("per layer (traced passes):\n");
    PrintHuman(layers);
  }

  const int64_t failed =
      result.lock_aborts + result.tpc_aborts + result.unknown + result.lost_acked;
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::vector<std::string> names;
  if (trace == 0) {
    names.assign(std::begin(kGatedEndToEnd), std::end(kGatedEndToEnd));
    PrintJson(correct, result.attempted, failed, e2e, names);
  } else {
    for (const Metric& m : layers.metrics()) {
      names.push_back(m.name);
    }
    PrintJson(correct, result.attempted, failed, layers, names);
  }
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
