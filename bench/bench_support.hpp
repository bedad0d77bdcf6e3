#pragma once

// Shared scaffolding for the figure-regeneration benches. Each bench binary
// reproduces one table or figure of the DAC'15 paper: it trains the pipeline
// the way §5.2 describes, runs the relevant scenario, prints the series the
// paper plots (plus an ASCII rendition), writes a CSV next to the binary and
// reports paper-vs-measured in a compact table.
//
// Environment knobs:
//   MHM_BENCH_FAST=1  — shrink the training plan (coarser cells, fewer runs)
//                       so the whole bench suite runs in seconds. Default is
//                       the paper-faithful scale (δ = 2 KB, 10 runs x 3 s).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attacks/attacks.hpp"
#include "common/ascii_plot.hpp"
#include "common/csv.hpp"
#include "pipeline/experiment.hpp"

namespace mhm::bench {

/// True when MHM_BENCH_FAST=1 is set.
bool fast_mode();

/// System configuration used by the benches (paper default, or coarsened
/// in fast mode).
sim::SystemConfig bench_config(std::uint64_t seed = 1);

/// Profiling plan (§5.2: 10 sets x 3 s; shrunk in fast mode).
pipeline::ProfilingPlan bench_plan();

/// Detector options (9 eigenmemories, J = 5, 10 EM restarts as in §5.2).
AnomalyDetector::Options bench_detector_options();

/// Train (or reuse a cached) pipeline at bench scale. The cache avoids
/// retraining when one binary reproduces several figures.
const pipeline::TrainedPipeline& trained_pipeline();

/// run_scenario() scored through a fresh session on `pipe`'s model.
pipeline::ScenarioRun scored_scenario(const sim::SystemConfig& config,
                                      attacks::AttackScenario* attack,
                                      SimTime trigger_time, SimTime duration,
                                      const pipeline::TrainedPipeline& pipe,
                                      std::uint64_t seed);

/// SPE threshold calibrated as θ_p is: the (1 − p) quantile of the
/// Verdict::spe that `pipe`'s model gives its validation maps.
double spe_threshold(const pipeline::TrainedPipeline& pipe, double p);

/// Print a section header.
void print_header(const std::string& title);

/// Print the paper-vs-measured comparison rows.
struct PaperComparison {
  std::string quantity;
  std::string paper;
  std::string measured;
};
void print_comparison(const std::vector<PaperComparison>& rows);

/// Print the standard detection summary of a scenario run under both
/// thresholds, plus an ASCII density plot shaped like the paper's figure.
void print_detection_figure(const pipeline::ScenarioRun& run,
                            const pipeline::TrainedPipeline& pipe,
                            const std::string& title);

/// Dump (interval, log10 density, volume) rows to `<name>.csv`.
void write_series_csv(const std::string& name,
                      const pipeline::ScenarioRun& run);

/// Zero the process-wide `detector.analysis_ns` registry histogram so the
/// next analysis_mean_us() reading covers only the run that follows (the
/// per-detector RunningStats accumulator this replaced was removed).
void reset_analysis_time();

/// Mean analysis time in microseconds accumulated since the last
/// reset_analysis_time() (0 when nothing was recorded, e.g. MHM_OBS=0).
double analysis_mean_us();

}  // namespace mhm::bench
