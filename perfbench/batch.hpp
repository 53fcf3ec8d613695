// batch.hpp — the three batch workloads. Each runs inside a forked child
// (see main.cpp) and repeats its timed part for options.seconds; every
// call into the library sits inside a span.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// signature world: build → tracker crawl → compact → snapshot save →
/// snapshot open → the five analysis passes, all timed.
void pipeline_signature(const Options& options, Tracer& tracer, Report& report);

/// spoofed world built and tracker-crawled in set-up; timed: DHT overlay
/// build → DHT crawl → tracker-vs-DHT cross-check.
void dht_crosscheck(const Options& options, Tracer& tracer, Report& report);

/// Set-up half of analysis_scale (its own child): generates the synthetic
/// world, then compacts and snapshots it several times.
void analysis_setup(const Options& options, Tracer& tracer, Report& report);
/// Timed half: opens the snapshot and runs the passes. `facts` are the
/// set-up child's ground truth (distinct IPs, snapshot path digest).
void analysis_run(const Options& options, const Report& facts, Tracer& tracer,
                  Report& report);

/// The snapshot file analysis_setup writes for `options`.
std::string analysis_snapshot_path(const Options& options);

}  // namespace perfbench
