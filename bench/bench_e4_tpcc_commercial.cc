// E4 — TPC-C throughput vs multiprogramming level, commercial-like engine.
#include "bench/bench_tpcc_sweep.h"

int main(int argc, char** argv) {
  int jobs = 1;
  rlbench::ParseFlags(argc, argv, "bench_e4_tpcc_commercial",
                      {rlbench::Jobs("--jobs", &jobs)});
  rlbench::RunTpccClientSweep("E4", rldb::CommercialLikeProfile(), jobs);
  return 0;
}
