// E3 — TPC-C throughput vs multiprogramming level, InnoDB-like engine.
#include "bench/bench_tpcc_sweep.h"

int main(int argc, char** argv) {
  int jobs = 1;
  rlbench::ParseFlags(argc, argv, "bench_e3_tpcc_innodb",
                      {rlbench::Jobs("--jobs", &jobs)});
  rlbench::RunTpccClientSweep("E3", rldb::InnodbLikeProfile(), jobs);
  return 0;
}
