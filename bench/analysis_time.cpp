// Reproduces §5.4 (Analysis Time): the time to decide whether a newly
// observed MHM is normal. The paper measures, on its simulated secure core,
//   * L = 1472, L' = 9, J = 5  ->  358 us
//   * delta = 8 KB  (L = 368)  ->  100 us
//   * L' = 5                   ->  216 us
// each over 1,000 MHM samples. We measure the same three configurations
// with google-benchmark. Absolute numbers differ (host CPU vs simulated
// ARM), but the ordering and the "analysis << 10 ms interval" property must
// hold: time grows with L (projection work) and with L' (density work).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <optional>

#include "obs/metrics.hpp"
#include "pipeline/experiment.hpp"

namespace {

using namespace mhm;

struct Setup {
  std::optional<engine::Session> session;
  std::vector<std::vector<double>> probes;
};

/// Train a model for a given (granularity, L'), open a session on it and
/// pre-generate probe MHMs from a fresh normal run.
Setup make_setup(std::uint64_t granularity, std::size_t components) {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default(/*seed=*/1);
  cfg.monitor.granularity = granularity;

  pipeline::ProfilingPlan plan;
  plan.runs = 4;
  plan.run_duration = 2 * kSecond;

  AnomalyDetector::Options opts;
  opts.pca.components = components;
  opts.gmm.components = 5;
  opts.gmm.restarts = 3;

  pipeline::TrainedPipeline pipe = pipeline::train_pipeline(cfg, plan, opts);

  Setup setup;
  setup.session.emplace(pipe.make_engine().new_session());
  pipeline::ScenarioRun probe_run = pipeline::run_scenario(
      cfg, nullptr, 0, 1 * kSecond, nullptr, /*seed=*/4711);
  for (const auto& m : probe_run.maps) setup.probes.push_back(m.as_vector());
  return setup;
}

Setup& setup_for(int id) {
  // One cached setup per benchmarked configuration.
  static Setup s0 = make_setup(2048, 9);   // paper main: L=1472, L'=9
  static Setup s1 = make_setup(8192, 9);   // coarse: L=368
  static Setup s2 = make_setup(2048, 5);   // fewer eigenmemories: L'=5
  switch (id) {
    case 0: return s0;
    case 1: return s1;
    default: return s2;
  }
}

// Manual time: each iteration reports the verdict's own analysis_time —
// projection + density, the §5.4 region — not the session's observation.
void BM_Analyze(benchmark::State& state) {
  Setup& setup = setup_for(static_cast<int>(state.range(0)));
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto& probe = setup.probes[i % setup.probes.size()];
    const Verdict v = setup.session->analyze(probe, i++);
    state.SetIterationTime(
        std::chrono::duration<double>(v.analysis_time).count());
  }
  state.SetLabel(state.range(0) == 0   ? "L=1472 L'=9 J=5 (paper: 358us)"
                 : state.range(0) == 1 ? "L=368 L'=9 J=5 (paper ~100us at 8KB)"
                                       : "L=1472 L'=5 J=5 (paper: 216us)");
}

BENCHMARK(BM_Analyze)->Arg(0)->Arg(1)->Arg(2)->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("§5.4 — analysis time per MHM (paper, on simulated secure "
              "core: 358 us / 100 us / 216 us)\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Paper-style summary over 1,000 samples per configuration.
  std::printf("\nsummary over 1,000 analyses each:\n");
  const char* names[] = {"L=1472, L'=9, J=5", "L=368,  L'=9, J=5",
                         "L=1472, L'=5, J=5"};
  const double paper_us[] = {358.0, 100.0, 216.0};
  for (int c = 0; c < 3; ++c) {
    Setup& setup = setup_for(c);
    obs::Histogram& hist = StreamObserver::analysis_time_histogram();
    hist.reset();  // Scope the process-wide histogram to this configuration.
    for (int i = 0; i < 1000; ++i) {
      (void)setup.session->analyze(setup.probes[i % setup.probes.size()],
                                   static_cast<std::uint64_t>(i));
    }
    const std::uint64_t samples = hist.count();
    const double mean_us =
        samples > 0 ? hist.sum() / static_cast<double>(samples) / 1000.0 : 0.0;
    std::printf("  %-20s paper %6.0f us | measured %8.2f us (mean of %zu)\n",
                names[c], paper_us[c], mean_us,
                static_cast<std::size_t>(samples));
  }
  std::printf("ordering check: time(L=1472) > time(L=368); "
              "time(L'=9) > time(L'=5); all << 10 ms interval\n");
  return 0;
}
