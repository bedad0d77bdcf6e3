// Reproduces §5.2 (training) and Figure 6 (dimensionality reduction):
//  * profile 10 x 3 s of normal runs -> 3,000 MHMs of 1,472 cells,
//  * eigenmemory analysis: how many components cover the variance targets
//    (the paper keeps 9, which account for > 99.99 % of the variance),
//  * Figure 6's decomposition example with 16 eigenmemories,
//  * GMM training with J = 5 and 10 EM restarts.

#include <cmath>
#include <cstdio>

#include "bench_support.hpp"
#include "common/csv.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("§5.2 / Figure 6 — training and eigenmemory analysis");
  const pipeline::TrainedPipeline& pipe = trained_pipeline();
  const Eigenmemory& em = pipe.det().eigenmemory();

  const std::size_t expected_maps = fast_mode() ? 900 : 3000;
  print_comparison({
      {"training MHMs", "3,000 (10 sets x 3 s / 10 ms)",
       std::to_string(pipe.training.size()) +
           (fast_mode() ? " (fast mode)" : "")},
      {"cells per MHM (L)", "1,472",
       std::to_string(pipe.training.front().cell_count())},
      {"eigenmemories kept (L')", "9", std::to_string(em.components())},
      {"variance explained by L'", "> 99.99 %",
       fmt_double(100.0 * em.variance_explained(), 4) + " %"},
      {"GMM components (J)", "5",
       std::to_string(pipe.det().gmm().component_count())},
      {"theta_0.5 (log10)", "(not reported)",
       fmt_double(pipe.theta_05.log10_value, 2)},
      {"theta_1 (log10)", "(not reported)",
       fmt_double(pipe.theta_1.log10_value, 2)},
  });
  (void)expected_maps;

  // The serving model trains through fit_topk, whose spectrum holds only
  // the Ritz values it iterated on. The figure's oracle is an explicit
  // exact fit — it also supplies the 16-eigenmemory decomposition below.
  Eigenmemory::Options opts16;
  opts16.components = 16;
  std::vector<std::vector<double>> raw;
  for (const auto& m : pipe.training) raw.push_back(m.as_vector());
  const Eigenmemory em16 = Eigenmemory::fit(raw, opts16);

  // --- variance explained versus number of eigenmemories ---
  std::printf("\nVariance explained by the k leading eigenmemories:\n");
  TextTable var_table({"k", "variance explained", "cumulative %"});
  const auto& spectrum = em16.spectrum();
  double total = 0.0;
  for (double v : spectrum) total += v;
  double cum = 0.0;
  CsvWriter spectrum_csv("fig6_spectrum.csv");
  spectrum_csv.header({"k", "eigenvalue", "cumulative_fraction"});
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    cum += spectrum[k];
    spectrum_csv.row()
        .col(static_cast<std::uint64_t>(k + 1))
        .col(spectrum[k])
        .col(total > 0 ? cum / total : 1.0);
    if (k < 16) {
      var_table.add_row({std::to_string(k + 1), fmt_double(spectrum[k], 1),
                         fmt_double(100.0 * cum / total, 4)});
    }
  }
  std::fputs(var_table.str().c_str(), stdout);
  std::printf("[bench] wrote fig6_spectrum.csv\n");

  // --- Figure 6: reconstruct one MHM from 16 eigenmemories ---
  print_header("Figure 6 — reconstructing an MHM from 16 eigenmemories");
  const auto& sample = raw[raw.size() / 2];
  const auto weights = em16.project(sample);
  std::printf("reduced MHM M' (16 weights, the contribution of each primary "
              "activity):\n  [");
  for (std::size_t k = 0; k < weights.size(); ++k) {
    std::printf("%s%.1f", k ? ", " : "", weights[k]);
  }
  std::printf("]\n");
  std::printf("relative reconstruction error with 16 eigenmemories: %.4f\n",
              em16.reconstruction_error(sample));
  std::printf("relative reconstruction error with %zu eigenmemories: %.4f\n",
              em.components(), em.reconstruction_error(sample));

  // Mean MHM and first eigenmemory rendered the way Figure 6 shows them.
  HeatMapPlotOptions hm;
  hm.width = 92;
  hm.rows = 8;
  hm.title = "mean MHM (Psi)";
  std::vector<std::uint64_t> mean_cells(em.mean().size());
  for (std::size_t i = 0; i < mean_cells.size(); ++i) {
    mean_cells[i] = static_cast<std::uint64_t>(std::max(0.0, em.mean()[i]));
  }
  std::fputs(render_heat_map(mean_cells, hm).c_str(), stdout);

  hm.title = "eigenmemory u1 (|weight| per cell) — the most significant "
             "primary activity";
  std::vector<std::uint64_t> u1(em.basis().cols());
  for (std::size_t i = 0; i < u1.size(); ++i) {
    u1[i] = static_cast<std::uint64_t>(1e6 * std::abs(em.basis()(0, i)));
  }
  std::fputs(render_heat_map(u1, hm).c_str(), stdout);

  // --- GMM training summary ---
  print_header("§5.2 — GMM patterns (J = 5)");
  TextTable gmm_table({"component", "weight", "|mean|", "log10 det(Sigma)"});
  for (std::size_t j = 0; j < pipe.det().gmm().component_count(); ++j) {
    const auto& comp = pipe.det().gmm().components()[j];
    double norm = 0.0;
    for (double v : comp.mean) norm += v * v;
    const linalg::Cholesky chol(comp.covariance, 1e-9);
    gmm_table.add_row({std::to_string(j), fmt_double(comp.weight, 3),
                       fmt_double(std::sqrt(norm), 1),
                       fmt_double(chol.log_det() / std::log(10.0), 2)});
  }
  std::fputs(gmm_table.str().c_str(), stdout);
  return 0;
}
