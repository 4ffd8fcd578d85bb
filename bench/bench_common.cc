#include "bench/bench_common.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "src/harness/parallel_runner.h"
#include "src/obs/metrics_snapshot.h"

namespace rlbench {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

namespace {

// Registers the commit-path and workload stats a snapshot series should
// track. The registry does not own anything; every registrant is a member of
// `bed`/`clients`, which outlive the simulation.
void RegisterBenchStats(rlharness::Testbed& bed, rlwork::ClientDriver& clients,
                        rlsim::StatsRegistry& registry) {
  registry.RegisterCounter("tpcc.committed", &clients.stats().committed);
  registry.RegisterCounter("tpcc.lock_aborts", &clients.stats().aborted);
  registry.RegisterHistogram("tpcc.txn_latency", &clients.stats().txn_latency,
                             /*as_duration=*/true);
  const rldb::LogWriter::Stats& wal = bed.db().log_writer().stats();
  registry.RegisterCounter("wal.flush_cycles", &wal.flush_cycles);
  registry.RegisterCounter("wal.blocks_written", &wal.blocks_written);
  registry.RegisterHistogram("wal.commit_wait", &wal.commit_wait,
                             /*as_duration=*/true);
  if (bed.guest_log_dev() != nullptr) {
    registry.RegisterHistogram("vblk.log.request_latency",
                               &bed.guest_log_dev()->stats().request_latency,
                               /*as_duration=*/true);
  }
  if (bed.rapilog() != nullptr) {
    registry.RegisterHistogram("rapilog.ack_latency",
                               &bed.rapilog()->stats().ack_latency,
                               /*as_duration=*/true);
    registry.RegisterHistogram("rapilog.buffer_occupancy",
                               &bed.rapilog()->stats().buffer_occupancy);
  }
  registry.RegisterHistogram("logdisk.write_latency",
                             &bed.log_disk_physical().stats().write_latency,
                             /*as_duration=*/true);
  registry.RegisterHistogram("logdisk.flush_latency",
                             &bed.log_disk_physical().stats().flush_latency,
                             /*as_duration=*/true);
  bed.RegisterReplicationStats(registry);
}

// Restarts the per-stage histograms at the warmup boundary so StageStats
// covers the same steady-state window as the workload counters.
void ResetStageStats(rlharness::Testbed& bed) {
  bed.db().log_writer().stats().commit_wait.Reset();
  if (bed.guest_log_dev() != nullptr) {
    bed.guest_log_dev()->stats().request_latency.Reset();
  }
  if (bed.rapilog() != nullptr) {
    bed.rapilog()->stats().ack_latency.Reset();
  }
  bed.log_disk_physical().stats().write_latency.Reset();
  bed.log_disk_physical().stats().flush_latency.Reset();
}

void CollectStageStats(rlharness::Testbed& bed, StageStats& out) {
  out.guest_commit_wait = bed.db().log_writer().stats().commit_wait;
  if (bed.guest_log_dev() != nullptr) {
    out.vmm_request = bed.guest_log_dev()->stats().request_latency;
  }
  if (bed.rapilog() != nullptr) {
    out.buffer_ack = bed.rapilog()->stats().ack_latency;
  }
  out.medium_write = bed.log_disk_physical().stats().write_latency;
  out.device_flush = bed.log_disk_physical().stats().flush_latency;
}

// Parses `text` as a whole unsigned decimal number; false on anything
// else, such as "abc", "-1", "4x" or a number past 2^64 - 1.
bool ParseUint(const char* text, uint64_t* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtoull(text, &end, 10);
  return text[0] >= '0' && text[0] <= '9' && *end == '\0' && errno == 0;
}

}  // namespace

rlharness::TestbedOptions DefaultTestbed(rlharness::DeploymentMode mode,
                                         rlharness::DiskSetup disks,
                                         const rldb::EngineProfile& profile) {
  rlharness::TestbedOptions opt;
  opt.mode = mode;
  opt.disks = disks;
  opt.db.profile = profile;
  opt.db.pool_pages = 2048;
  opt.db.journal_pages = 1200;
  opt.db.profile.checkpoint_dirty_pages = 512;
  // A database server under OLTP load draws well below the PSU rating;
  // 120 W against a 400 W supply gives a ~53 ms hold-up window.
  opt.psu.system_load_watts = 120;
  return opt;
}

rlwork::TpccConfig DefaultTpcc() {
  rlwork::TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.districts_per_warehouse = 8;
  cfg.customers_per_district = 50;
  cfg.items = 1000;
  cfg.think_time = rlsim::Duration::Micros(300);
  return cfg;
}

RunResult RunTpcc(const TpccRunConfig& config) {
  Simulator sim(config.seed);
  sim.set_tracer(config.sink);
  rlharness::Testbed bed(sim, config.testbed);
  rlwork::TpccLite tpcc(sim, config.tpcc);
  rlwork::ClientDriver clients(sim);
  RunResult result;
  rlsim::StatsRegistry registry;
  std::optional<rlobs::MetricsSnapshotter> snapshotter;
  if (config.snapshot_every > Duration::Zero()) {
    snapshotter.emplace(sim, registry, config.snapshot_every);
  }

  sim.Spawn([](Simulator& s, rlharness::Testbed& b, rlwork::TpccLite& w,
               rlwork::ClientDriver& d, const TpccRunConfig& cfg,
               RunResult& out, rlsim::StatsRegistry& reg,
               rlobs::MetricsSnapshotter* snap) -> Task<void> {
    co_await b.Start();
    co_await w.LoadInitial(b.db());
    d.Spawn(cfg.clients, w.Clients(b.db()));
    co_await s.Sleep(cfg.warmup);
    // Steady state: restart the measurement window.
    d.ResetStats();
    ResetStageStats(b);
    if (snap != nullptr) {
      RegisterBenchStats(b, d, reg);
      snap->Start();
    }
    const rlsim::TimePoint t0 = s.now();
    co_await s.Sleep(cfg.measure);
    const double seconds = (s.now() - t0).ToSecondsF();
    d.Stop();
    if (snap != nullptr) {
      snap->Stop();
    }

    const rlwork::ClientDriver::Stats& st = d.stats();
    out.committed = st.committed.value();
    out.lock_aborts = st.aborted.value();
    out.txns_per_sec = static_cast<double>(out.committed) / seconds;
    out.new_orders_per_sec =
        static_cast<double>(
            st.committed_by_kind[rlwork::TpccLite::kNewOrder].value()) /
        seconds;
    out.p50 = st.txn_latency.PercentileDuration(50);
    out.p95 = st.txn_latency.PercentileDuration(95);
    out.p99 = st.txn_latency.PercentileDuration(99);
    out.mean =
        rlsim::Duration::Nanos(static_cast<int64_t>(st.txn_latency.Mean()));
    CollectStageStats(b, out.stages);
  }(sim, bed, tpcc, clients, config, result, registry,
    snapshotter ? &*snapshotter : nullptr));

  sim.Run();
  sim.set_tracer(nullptr);
  if (snapshotter) {
    result.snapshots_json = snapshotter->ToJson();
  }
  return result;
}

std::vector<RunResult> RunTpccMany(const std::vector<TpccRunConfig>& configs,
                                   int jobs) {
  return rlharness::RunJobs<RunResult>(
      jobs, configs.size(), [&configs](size_t i) {
        return RunTpcc(configs[i]);
      });
}

void Table::Row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::Print() {
  std::vector<size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) {
      widths.resize(row.size(), 0);
    }
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      // No padding after the last cell: keeps lines free of trailing blanks.
      if (c + 1 == row.size()) {
        std::printf("%s", row[c].c_str());
      } else {
        std::printf("%-*s", static_cast<int>(widths[c]) + 2, row[c].c_str());
      }
    }
    std::printf("\n");
  }
  rows_.clear();
}

Flag Uint(const char* name, uint64_t* value, uint64_t max) {
  std::string wanted = "a whole number";
  if (max != UINT64_MAX) {
    wanted += " up to " + std::to_string(max);
  }
  return {name, "N", wanted, [value, max](const char* text) {
            uint64_t v = 0;
            if (!ParseUint(text, &v) || v > max) {
              return false;
            }
            *value = v;
            return true;
          }};
}

Flag Jobs(const char* name, int* value) {
  return {name, "N", "a whole number", [value](const char* text) {
            uint64_t n = 0;
            if (!ParseUint(text, &n)) {
              return false;
            }
            *value = n == 0 ? rlharness::DefaultJobs()
                            : static_cast<int>(std::min<uint64_t>(n, INT_MAX));
            return true;
          }};
}

Flag Fraction(const char* name, double* value) {
  return {name, "X", "a fraction in [0, 1]", [value](const char* text) {
            char* end = nullptr;
            const double v = std::strtod(text, &end);
            if (!((text[0] >= '0' && text[0] <= '9') || text[0] == '.') ||
                *end != '\0' || !(v >= 0.0 && v <= 1.0)) {
              return false;
            }
            *value = v;
            return true;
          }};
}

Flag Choice(const char* name, std::vector<std::string> choices,
            std::string* value) {
  std::string metavar;
  for (const std::string& c : choices) {
    metavar += (metavar.empty() ? "" : "|") + c;
  }
  return {name, metavar, "one of " + metavar,
          [choices = std::move(choices), value](const char* text) {
            if (std::find(choices.begin(), choices.end(), text) ==
                choices.end()) {
              return false;
            }
            *value = text;
            return true;
          }};
}

Flag Path(const char* name, std::string* value, const char* metavar) {
  return {name, metavar, "a path", [value](const char* text) {
            *value = text;
            return true;
          }};
}

Flag Switch(const char* name, bool* value) {
  return {name, "", "", [value](const char*) {
            *value = true;
            return true;
          }};
}

std::string ParseFlags(int argc, char** argv, const char* program,
                       const std::vector<Flag>& flags) {
  std::string usage = std::string("usage: ") + program;
  for (const Flag& f : flags) {
    usage += " [" + f.name + (f.metavar.empty() ? "" : " " + f.metavar) + "]";
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&arg](const Flag& f) {
                                     return f.name == arg;
                                   });
    if (flag == flags.end()) {
      UsageError("unknown argument: " + arg, usage);
    }
    if (flag->metavar.empty()) {
      flag->set(nullptr);
      continue;
    }
    if (i + 1 == argc) {
      UsageError(arg + " needs a value", usage);
    }
    const char* value = argv[++i];
    if (!flag->set(value)) {
      UsageError(arg + ": '" + value + "' is not " + flag->wanted, usage);
    }
  }
  return usage;
}

void UsageError(const std::string& message, const std::string& usage) {
  std::fprintf(stderr, "%s\n%s\n", message.c_str(), usage.c_str());
  std::exit(2);
}

void BenchJsonWriter::Add(const std::string& name, double value,
                          const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void BenchJsonWriter::AddRaw(const std::string& name,
                             const std::string& json) {
  raw_.emplace_back(name, json);
}

std::string BenchJsonWriter::ToString() const {
  std::string out = "{\"metrics\":[";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) {
      out += ",";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", m.value);
    out += "{\"name\":\"" + m.name + "\",\"value\":" + buf + ",\"unit\":\"" +
           m.unit + "\"}";
  }
  out += "]";
  for (const auto& [name, json] : raw_) {
    out += ",\"" + name + "\":" + json;
  }
  out += "}\n";
  return out;
}

bool BenchJsonWriter::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << ToString();
  return true;
}

}  // namespace rlbench
