#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "pipeline/experiment.hpp"

namespace perfbench {

Outcome run_secure_core(const RunArgs& args, const RunDir& dir);
Outcome run_drift(const RunArgs& args, const RunDir& dir);
Outcome run_fleet(const RunArgs& args);

/// The §5.2 profiling plan every workload trains with: 10 runs × 3 s,
/// seeds 100–109 (validation 1110–1111), exactly as the paper-scale benches.
mhm::pipeline::ProfilingPlan paper_plan();
/// 9 eigenmemories, J = 5, 10 EM restarts, θ at p = 0.01.
mhm::AnomalyDetector::Options paper_options();

/// Wall time of the training pipeline's stages, each timed around its own
/// public call (traced runs only — this repeats the whole training).
struct TrainStages {
  double collect_s = 0.0;
  double pca_s = 0.0;
  double eigensolve_s = 0.0;
  double gmm_s = 0.0;
  double calibrate_s = 0.0;
};
TrainStages time_training_stages(const mhm::sim::SystemConfig& config);

/// Bitwise equality of two verdicts, ignoring the wall-clock stamp.
bool same_verdict(const mhm::Verdict& a, const mhm::Verdict& b);

/// Seed of stream `index` of a workload run; disjoint from the profiling
/// plan's seeds.
std::uint64_t stream_seed(std::uint64_t run_seed, std::uint64_t index);

}  // namespace perfbench
