// The benchmark's workloads. Each fills `out` with every metric it measures
// (end-to-end values from untraced windows; with args.trace also the
// per-layer attribution of a separate traced window) and records
// correctness problems. perfbench/run.py prints the metrics BENCHMARK.json
// lists for the run's mode.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench_common.h"

namespace perfbench {

/// Closed-loop wire analytics: 3 connections of shareable lineitem
/// aggregations against an in-process SocketServer.
void RunServeOlap(const Args& args, RunOutcome* out);

/// HTAP under scan load: 3 closed-loop analytic connections plus an
/// open-loop OLTP stream at a fixed arrival rate over 1 pipelined
/// connection.
void RunServeHtap(const Args& args, RunOutcome* out);

/// The paper's advise -> migrate -> replay loop, in-process on a TPC-H
/// database of its own: once untraced (advise_s, migrate_s, replay_s) and
/// once traced (executor spans, advisor phases, cost-model accuracy,
/// migration steps), one set-up each. Adds exactly those per-layer metrics
/// to `out`, with the loop's operations and correctness problems. Every
/// traced run carries it: its wall-clock numbers swing with the host too
/// much to be a benchmark workload of their own (see README.md).
void AddAdviseLoopLayers(uint64_t seed, RunOutcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
