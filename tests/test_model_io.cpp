#include "core/model_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/detector.hpp"
#include "engine/engine.hpp"

namespace mhm {
namespace {

/// Small trained detector shared across tests.
struct Fixture {
  AnomalyDetector detector;

  static Fixture make() {
    Rng rng(1);
    auto sample = [&](double shift) {
      std::vector<double> x(12);
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = shift + 10.0 * static_cast<double>(i % 4) + rng.normal(0.0, 1.0);
      }
      return x;
    };
    std::vector<std::vector<double>> train;
    std::vector<std::vector<double>> valid;
    for (int i = 0; i < 300; ++i) train.push_back(sample(i % 3 * 5.0));
    for (int i = 0; i < 150; ++i) valid.push_back(sample(i % 3 * 5.0));
    AnomalyDetector::Options opts;
    opts.pca.components = 4;
    opts.gmm.components = 3;
    opts.gmm.restarts = 2;
    return Fixture{AnomalyDetector::train(train, valid, opts)};
  }
};

TEST(ModelIo, RoundTripPreservesScores) {
  const Fixture fx = Fixture::make();
  const DetectorModel model =
      DetectorModel::from_snapshot(*fx.detector.snapshot());

  std::stringstream buffer;
  save_model(model, buffer);
  const DetectorModel loaded = load_model(buffer);
  const auto restored = loaded.to_snapshot();
  engine::Session original_session =
      engine::DetectionEngine(fx.detector.snapshot()).new_session();
  engine::Session restored_session =
      engine::DetectionEngine(restored).new_session();

  Rng rng(2);
  for (std::uint64_t i = 0; i < 50; ++i) {
    std::vector<double> probe(12);
    for (double& v : probe) v = rng.uniform(0.0, 40.0);
    EXPECT_DOUBLE_EQ(original_session.analyze(probe, i).log10_density,
                     restored_session.analyze(probe, i).log10_density)
        << "probe " << i;
  }
  EXPECT_DOUBLE_EQ(fx.detector.primary_threshold().log10_value,
                   restored->primary.log10_value);
  EXPECT_DOUBLE_EQ(fx.detector.primary_threshold().p, restored->primary.p);
}

TEST(ModelIo, RoundTripPreservesEigenmemory) {
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_eigenmemory(fx.detector.eigenmemory(), buffer);
  const Eigenmemory em = load_eigenmemory(buffer);
  EXPECT_EQ(em.input_dim(), fx.detector.eigenmemory().input_dim());
  EXPECT_EQ(em.components(), fx.detector.eigenmemory().components());
  EXPECT_EQ(em.mean(), fx.detector.eigenmemory().mean());
  EXPECT_EQ(em.eigenvalues(), fx.detector.eigenmemory().eigenvalues());
  EXPECT_DOUBLE_EQ(em.variance_explained(),
                   fx.detector.eigenmemory().variance_explained());
}

TEST(ModelIo, RoundTripPreservesGmm) {
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_gmm(fx.detector.gmm(), buffer);
  const Gmm gmm = load_gmm(buffer);
  ASSERT_EQ(gmm.component_count(), fx.detector.gmm().component_count());
  const std::vector<double> probe(4, 1.0);
  EXPECT_DOUBLE_EQ(gmm.log_density(probe),
                   fx.detector.gmm().log_density(probe));
}

TEST(ModelIo, FileRoundTrip) {
  const Fixture fx = Fixture::make();
  const std::string path =
      (std::filesystem::temp_directory_path() / "mhm_model_test.bin").string();
  save_model_file(DetectorModel::from_snapshot(*fx.detector.snapshot()),
                  path);
  const engine::DetectionEngine restored(load_model_file(path).to_snapshot());
  const std::vector<double> probe(12, 3.0);
  EXPECT_DOUBLE_EQ(
      engine::DetectionEngine(fx.detector.snapshot())
          .new_session()
          .analyze(probe, 0)
          .log10_density,
      restored.new_session().analyze(probe, 0).log10_density);
  std::filesystem::remove(path);
}

/// A model whose eigenmemory comes from fit_topk's randomized route, so its
/// spectrum holds only the k + oversample Ritz values and the spectrum sum
/// falls short of the total variance.
DetectorModel randomized_route_model() {
  Rng rng(3);
  std::vector<std::vector<double>> patterns(12, std::vector<double>(48));
  for (auto& p : patterns) {
    for (double& v : p) v = rng.uniform(-1.0, 1.0);
  }
  std::vector<std::vector<double>> train(400, std::vector<double>(48, 0.0));
  for (auto& x : train) {
    for (const auto& p : patterns) {
      const double w = rng.uniform(0.0, 3.0);
      for (std::size_t i = 0; i < x.size(); ++i) x[i] += w * p[i];
    }
    for (double& v : x) v += rng.normal(0.0, 0.5);
  }
  Eigenmemory::TopkOptions topk;
  topk.components = 3;
  topk.gram_limit = 16;  // below min(N, L): the randomized route
  DetectorModel model;
  model.eigenmemory = Eigenmemory::fit_topk(train, topk);
  Gmm::Options gmm;
  gmm.components = 2;
  gmm.restarts = 1;
  model.gmm = Gmm::fit(model.eigenmemory.project_all(train), gmm);
  model.validation_scores = {-3.0, -2.0, -1.0};
  return model;
}

TEST(ModelIo, RegistryRoundTripKeepsVarianceExplained) {
  const DetectorModel model = randomized_route_model();
  const Eigenmemory& em = model.eigenmemory;
  double spectrum_sum = 0.0;
  for (double v : em.spectrum()) spectrum_sum += v;
  ASSERT_LT(spectrum_sum, em.total_variance());  // truncated spectrum

  const auto dir = std::filesystem::temp_directory_path() /
                   "mhm_registry_variance_test";
  std::filesystem::remove_all(dir);
  ModelRegistry registry(dir.string());
  const std::uint64_t version = registry.save(model);
  const DetectorModel loaded = registry.load(version);
  EXPECT_EQ(loaded.eigenmemory.total_variance(), em.total_variance());
  EXPECT_EQ(loaded.eigenmemory.variance_explained(), em.variance_explained());
  EXPECT_EQ(loaded.eigenmemory.spectrum(), em.spectrum());
  std::filesystem::remove_all(dir);
}

// Two registries on one directory, saving from two threads: every save
// claims its own version and every version loads back whole.
TEST(ModelIo, ConcurrentRegistriesClaimDistinctVersions) {
  const Fixture fx = Fixture::make();
  const DetectorModel model =
      DetectorModel::from_snapshot(*fx.detector.snapshot());
  std::stringstream expected;
  save_model(model, expected);

  const auto dir = std::filesystem::temp_directory_path() /
                   "mhm_registry_concurrent_test";
  std::filesystem::remove_all(dir);
  ModelRegistry a(dir.string());
  ModelRegistry b(dir.string());
  constexpr int kSaves = 8;
  std::vector<std::uint64_t> got_a;
  std::vector<std::uint64_t> got_b;
  std::thread ta([&] {
    for (int i = 0; i < kSaves; ++i) got_a.push_back(a.save(model));
  });
  std::thread tb([&] {
    for (int i = 0; i < kSaves; ++i) got_b.push_back(b.save(model));
  });
  ta.join();
  tb.join();

  std::vector<std::uint64_t> all = got_a;
  all.insert(all.end(), got_b.begin(), got_b.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(a.list(), all);
  for (const std::uint64_t v : all) {
    std::stringstream bytes;
    save_model(b.load(v), bytes);
    EXPECT_EQ(bytes.str(), expected.str()) << "version " << v;
  }
  // Nothing but the published versions is left behind.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, all.size());
  std::filesystem::remove_all(dir);
}

// A save cut short by a crash leaves a truncated temporary file; the
// registry neither lists nor loads it, and later saves carry on.
TEST(ModelIo, TruncatedTempFileDoesNotBreakLoadLatest) {
  const Fixture fx = Fixture::make();
  const DetectorModel model =
      DetectorModel::from_snapshot(*fx.detector.snapshot());
  std::stringstream bytes;
  save_model(model, bytes);
  const std::string full = bytes.str();

  const auto dir = std::filesystem::temp_directory_path() /
                   "mhm_registry_torn_temp_test";
  std::filesystem::remove_all(dir);
  ModelRegistry registry(dir.string());
  ASSERT_EQ(registry.save(model), 1u);
  {
    std::ofstream torn(dir / ".model-1-0.tmp", std::ios::binary);
    torn.write(full.data(), static_cast<std::streamsize>(full.size() / 2));
  }
  EXPECT_EQ(registry.list(), std::vector<std::uint64_t>{1});
  std::stringstream loaded;
  save_model(registry.load_latest(), loaded);
  EXPECT_EQ(loaded.str(), full);
  EXPECT_EQ(registry.save(model), 2u);
  EXPECT_EQ(registry.latest_version(), std::optional<std::uint64_t>{2});
  std::filesystem::remove_all(dir);
}

TEST(ModelIo, LoadsVersionOneWithSpectrumSumAsTotal) {
  // Rewrite a current file into the version-1 layout: version word 1 and no
  // total-variance word after the spectrum.
  const DetectorModel model = randomized_route_model();
  const Eigenmemory& em = model.eigenmemory;
  std::stringstream buffer;
  save_model(model, buffer);
  std::string bytes = buffer.str();
  bytes[4] = 1;
  const std::size_t l = em.input_dim();
  const std::size_t k = em.components();
  const std::size_t total_at = 8 + 4 + 8 + 8 + (8 + 8 * l) + 8 * k * l +
                               (8 + 8 * k) + (8 + 8 * em.spectrum().size());
  double stored;
  std::memcpy(&stored, bytes.data() + total_at, sizeof stored);
  ASSERT_EQ(stored, em.total_variance());
  bytes.erase(total_at, 8);

  std::stringstream v1(bytes);
  const DetectorModel loaded = load_model(v1);
  double spectrum_sum = 0.0;
  for (double v : em.spectrum()) spectrum_sum += v;
  EXPECT_EQ(loaded.eigenmemory.total_variance(), spectrum_sum);
  EXPECT_EQ(loaded.eigenmemory.eigenvalues(), em.eigenvalues());
}

TEST(ModelIo, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOPE and then some bytes";
  EXPECT_THROW(load_model(buffer), SerializationError);
}

TEST(ModelIo, RejectsUnsupportedVersion) {
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_model(DetectorModel::from_snapshot(*fx.detector.snapshot()), buffer);
  std::string bytes = buffer.str();
  bytes[4] = 0x7F;  // clobber the version field
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_model(corrupted), SerializationError);
}

TEST(ModelIo, RejectsTruncatedStream) {
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_model(DetectorModel::from_snapshot(*fx.detector.snapshot()), buffer);
  const std::string bytes = buffer.str();
  for (std::size_t cut : {std::size_t{3}, std::size_t{9}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(load_model(truncated), SerializationError) << "cut=" << cut;
  }
}

TEST(ModelIo, RejectsCorruptGmmWeights) {
  // Corrupt the first component's weight bits inside a serialized GMM
  // payload: load_gmm revalidates through from_components and must reject.
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_gmm(fx.detector.gmm(), buffer);
  std::string bytes = buffer.str();
  // Layout: tag(4) + dim(8) + count(8) + weight(8)...; overwrite the weight
  // with the bits of 7.0 so weights no longer sum to 1.
  const double bogus = 7.0;
  std::memcpy(bytes.data() + 20, &bogus, sizeof bogus);
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_gmm(corrupted), SerializationError);
}

TEST(ModelIo, MissingFileThrowsConfigError) {
  EXPECT_THROW(load_model_file("/nonexistent_zzz/model.bin"), ConfigError);
  const Fixture fx = Fixture::make();
  EXPECT_THROW(
      save_model_file(DetectorModel::from_snapshot(*fx.detector.snapshot()),
                      "/nonexistent_zzz/model.bin"),
      ConfigError);
}

TEST(GmmFromComponents, ValidatesInput) {
  EXPECT_THROW(Gmm::from_components({}), ConfigError);

  GmmComponent c;
  c.mean = {0.0, 0.0};
  c.covariance = linalg::Matrix::identity(2);
  c.weight = 0.7;  // does not sum to 1
  EXPECT_THROW(Gmm::from_components({c}), ConfigError);

  c.weight = 1.0;
  EXPECT_NO_THROW(Gmm::from_components({c}));

  GmmComponent bad = c;
  bad.covariance = linalg::Matrix::identity(3);  // dimension mismatch
  bad.weight = 0.5;
  GmmComponent good = c;
  good.weight = 0.5;
  EXPECT_THROW(Gmm::from_components({good, bad}), ConfigError);
}

TEST(EigenmemoryFromParts, ValidatesInput) {
  linalg::Matrix basis(1, 3, 0.0);
  basis(0, 0) = 1.0;
  EXPECT_NO_THROW(
      Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {2.0}, {2.0, 1.0, 0.0}));

  // Non-unit basis row.
  linalg::Matrix bad_basis(1, 3, 0.0);
  bad_basis(0, 0) = 2.0;
  EXPECT_THROW(Eigenmemory::from_parts({0.0, 0.0, 0.0}, bad_basis, {2.0},
                                       {2.0, 1.0, 0.0}),
               ConfigError);

  // Mismatched widths.
  EXPECT_THROW(
      Eigenmemory::from_parts({0.0, 0.0}, basis, {2.0}, {2.0, 1.0, 0.0}),
      ConfigError);
  // Negative eigenvalue.
  EXPECT_THROW(
      Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {-1.0}, {2.0, 1.0, 0.0}),
      ConfigError);
  // Spectrum shorter than retained values.
  EXPECT_THROW(Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {2.0}, {}),
               ConfigError);
  // Total variance: taken as given when present, else the spectrum sum;
  // negative or non-finite totals are rejected.
  EXPECT_EQ(Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {2.0}, {2.0}, 4.0)
                .variance_explained(),
            0.5);
  EXPECT_EQ(Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {2.0}, {2.0, 2.0})
                .total_variance(),
            4.0);
  EXPECT_THROW(
      Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {2.0}, {2.0}, -1.0),
      ConfigError);
  EXPECT_THROW(Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {2.0}, {2.0},
                                       std::nan("")),
               ConfigError);
}

TEST(AnomalyDetectorAssemble, ValidatesDimensions) {
  const Fixture fx = Fixture::make();
  // GMM over the wrong dimensionality must be rejected.
  GmmComponent c;
  c.mean = {0.0, 0.0};  // 2-D, but the eigenmemory has 4 components
  c.covariance = linalg::Matrix::identity(2);
  c.weight = 1.0;
  EXPECT_THROW(
      ModelSnapshot::assemble(fx.detector.eigenmemory(),
                              Gmm::from_components({c}),
                              ThresholdCalibrator({-1.0, -2.0}), 0.01),
      ConfigError);
}

}  // namespace
}  // namespace mhm
