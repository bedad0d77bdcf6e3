// offline_workflow — the production deployment cycle end to end, using
// every persistence and robustness feature of the library:
//
//   1. RECORD  normal behaviour once, in a trusted environment, and save
//              the raw MHM trace (core/trace_io).
//   2. TRAIN   two candidate detectors offline from the same trace with
//              different hyper-parameters; pick by held-out likelihood.
//   3. SHIP    the winning model to the "secure core" (core/model_io —
//              here: a file round-trip standing in for flashing it).
//   4. DEPLOY  monitor a live (attacked) system with the loaded model, a
//              2-of-3 temporal AlarmFilter, the verdicts' SPE residual as a
//              companion statistic, and post-alarm forensics that rank
//              cells against the training baseline (obs::rank_cells_by_z,
//              the decision journal's ranking).

#include <cstdio>
#include <filesystem>

#include "attacks/attacks.hpp"
#include "common/ascii_plot.hpp"
#include "common/stats.hpp"
#include "core/alarm_filter.hpp"
#include "core/model_io.hpp"
#include "core/trace_io.hpp"
#include "obs/journal.hpp"
#include "pipeline/experiment.hpp"

int main() {
  using namespace mhm;
  namespace fs = std::filesystem;

  const fs::path work_dir = fs::temp_directory_path() / "mhm_offline_demo";
  fs::create_directories(work_dir);
  const std::string trace_path = (work_dir / "normal.mhmt").string();
  const std::string model_path = (work_dir / "detector.mhm").string();

  sim::SystemConfig config = sim::SystemConfig::paper_default(/*seed=*/1);
  config.monitor.granularity = 8 * 1024;

  // ---- 1. record -------------------------------------------------------
  std::printf("[1/4] recording normal behaviour...\n");
  pipeline::ProfilingPlan plan;
  plan.runs = 5;
  plan.run_duration = 2 * kSecond;
  RecordedTrace recorded;
  recorded.config = config.monitor;
  recorded.maps = pipeline::collect_normal_trace(config, plan);
  save_trace_file(recorded, trace_path);
  std::printf("      %zu MHMs -> %s\n", recorded.maps.size(),
              trace_path.c_str());

  // ---- 2. train offline, compare hyper-parameters ----------------------
  std::printf("[2/4] training candidates offline...\n");
  const RecordedTrace loaded = load_trace_file(trace_path);
  const auto split = loaded.maps.begin() +
                     static_cast<std::ptrdiff_t>(loaded.maps.size() * 4 / 5);
  const HeatMapTrace training(loaded.maps.begin(), split);
  const HeatMapTrace validation(split, loaded.maps.end());

  auto candidate = [&](std::size_t components, std::size_t j) {
    AnomalyDetector::Options opts;
    opts.pca.components = components;
    opts.gmm.components = j;
    opts.gmm.restarts = 4;
    return AnomalyDetector::train(training, validation, opts);
  };
  const AnomalyDetector small = candidate(5, 3);
  const AnomalyDetector large = candidate(9, 5);

  auto heldout_ll = [&](const AnomalyDetector& det) {
    engine::Session session =
        engine::DetectionEngine(det.snapshot()).new_session();
    double total = 0.0;
    for (const auto& m : validation) total += session.analyze(m).log10_density;
    return total / static_cast<double>(validation.size());
  };
  const double ll_small = heldout_ll(small);
  const double ll_large = heldout_ll(large);
  const AnomalyDetector& winner = ll_large >= ll_small ? large : small;
  std::printf("      held-out mean log10 density: L'=5/J=3 -> %.2f, "
              "L'=9/J=5 -> %.2f; shipping the %s model\n",
              ll_small, ll_large, &winner == &large ? "larger" : "smaller");

  // ---- 3. ship ----------------------------------------------------------
  std::printf("[3/4] shipping model to the secure core...\n");
  save_model_file(DetectorModel::from_snapshot(*winner.snapshot()),
                  model_path);
  const auto deployed = load_model_file(model_path).to_snapshot();
  engine::Session session = engine::DetectionEngine(deployed).new_session();

  // ---- 4. deploy with filter + SPE + forensics --------------------------
  std::printf("[4/4] monitoring a live system (shellcode at t = 2 s)...\n\n");
  // SPE threshold: the 0.99 quantile of the validation maps' SPE.
  engine::Session validation_session =
      engine::DetectionEngine(deployed).new_session();
  std::vector<double> validation_spe;
  for (const auto& m : validation) {
    validation_spe.push_back(validation_session.analyze(m).spe);
  }
  const double spe_theta = quantile(validation_spe, 1.0 - 0.01);
  // The shipped model carries no per-cell baseline (it is not serialized);
  // forensics rank cells against the trained winner's.
  const CellBaseline& baseline = *winner.snapshot()->baseline;
  std::vector<obs::CellContribution> top_cells;

  sim::SystemConfig live = config;
  live.seed = 2026;
  sim::System system(live);
  attacks::ShellcodeAttack attack("bitcount");
  attack.arm(system, 2 * kSecond);

  AlarmFilter filter(2, 3);
  std::size_t confirmed_alarms = 0;
  bool forensics_printed = false;
  system.set_interval_observer([&](const HeatMap& map) {
    const Verdict v = session.analyze(map);
    const bool spe_alarm = v.spe > spe_theta;
    const bool raw_alarm = v.anomalous || spe_alarm;
    if (filter.feed(raw_alarm)) {
      ++confirmed_alarms;
      if (!forensics_printed) {
        forensics_printed = true;
        std::printf("CONFIRMED anomaly at interval %llu "
                    "(log10 Pr = %.1f, SPE %s threshold)\n",
                    static_cast<unsigned long long>(map.interval_index),
                    v.log10_density,
                    spe_alarm ? "above" : "below");
        std::printf("top deviant cells:\n");
        obs::rank_cells_by_z(map.as_vector(), baseline.mean, baseline.stddev,
                             5, top_cells);
        for (const auto& dev : top_cells) {
          std::printf("  cell %4zu: observed %7.0f, expected %7.0f "
                      "(z = %+.1f)\n",
                      dev.cell, dev.observed, dev.expected, dev.z_score);
        }
      }
    }
  });
  system.run_for(4 * kSecond);

  std::printf("\nconfirmed (2-of-3 filtered) alarm intervals: %zu of %zu\n",
              confirmed_alarms, system.trace().size());
  std::printf("artifacts kept in %s\n", work_dir.string().c_str());
  return 0;
}
