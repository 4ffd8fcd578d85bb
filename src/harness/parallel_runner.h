// Deterministic fan-out of independent simulation jobs.
//
// The evaluation is a matrix of independent seeded runs (chaos episodes,
// bench sweep cells, divergence-audit pairs, nightly seed walks). Each job
// constructs its own Simulator/Testbed from its own (seed, config) — no
// shared mutable state by construction — so jobs can execute on real OS
// threads without touching the single-threaded determinism of any one
// simulation. Determinism of the *aggregate* comes from the reduction, not
// the execution order: results land in a slot indexed by job number and are
// consumed in job-index order, so output is byte-identical for --jobs 1 and
// --jobs 32.
//
// This is deliberately not a work-stealing scheduler: workers pull the next
// job index from one atomic counter and write only to their own result slot.
// There is nothing to steal, no locks, and no cross-job communication — the
// whole point is that the no-shared-state claim is checkable (rapicheck SL007
// bans threads everywhere else in src/; TSan runs the chaos driver in CI).
//
// Threads are allowed in THIS file only (and tools/); see SL007.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace rlharness {

// Worker-thread count for --jobs 0 / "use the machine": hardware
// concurrency, at least 1.
int DefaultJobs();

// Runs fn(0) .. fn(n-1) on min(max(jobs, 1), n) threads (jobs <= 1 runs
// inline on the caller with no threads at all). Every job runs exactly once
// regardless of other jobs' failures; if any job threw, the exception of the
// LOWEST job index is rethrown after all jobs finish — the same exception a
// sequential loop that kept going would surface. fn must not share mutable
// state across invocations.
void RunIndexedJobs(int jobs, size_t n, const std::function<void(size_t)>& fn);

// Typed fan-out: results[i] = fn(i), merged in job-index order. R must be
// default-constructible and movable.
template <typename R, typename Fn>
std::vector<R> RunJobs(int jobs, size_t n, Fn&& fn) {
  std::vector<R> results(n);
  RunIndexedJobs(jobs, n, [&results, &fn](size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace rlharness
