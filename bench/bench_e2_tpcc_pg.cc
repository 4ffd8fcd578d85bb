// E2 — TPC-C throughput vs multiprogramming level, PostgreSQL-like engine.
#include "bench/bench_tpcc_sweep.h"

int main(int argc, char** argv) {
  int jobs = 1;
  rlbench::ParseFlags(argc, argv, "bench_e2_tpcc_pg",
                      {rlbench::Jobs("--jobs", &jobs)});
  rlbench::RunTpccClientSweep("E2", rldb::PostgresLikeProfile(), jobs);
  return 0;
}
