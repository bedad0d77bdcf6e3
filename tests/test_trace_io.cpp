#include "core/trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "common/rng.hpp"
#include "core/detector.hpp"
#include "engine/engine.hpp"

namespace mhm {
namespace {

RecordedTrace make_trace(std::size_t maps, std::uint64_t seed) {
  RecordedTrace trace;
  trace.config.base = 0xC0008000;
  trace.config.size = 64 * 1024;
  trace.config.granularity = 4096;
  trace.config.interval = 10 * kMillisecond;
  Rng rng(seed);
  for (std::size_t m = 0; m < maps; ++m) {
    HeatMap map(trace.config.cell_count());
    map.interval_index = m;
    map.interval_start = m * trace.config.interval;
    for (std::size_t c = 0; c < map.cell_count(); ++c) {
      map.increment(c, rng.poisson(30.0));
    }
    trace.maps.push_back(std::move(map));
  }
  return trace;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const RecordedTrace original = make_trace(25, 1);
  std::stringstream buffer;
  save_trace(original, buffer);
  const RecordedTrace loaded = load_trace(buffer);

  EXPECT_EQ(loaded.config.base, original.config.base);
  EXPECT_EQ(loaded.config.size, original.config.size);
  EXPECT_EQ(loaded.config.granularity, original.config.granularity);
  EXPECT_EQ(loaded.config.interval, original.config.interval);
  ASSERT_EQ(loaded.maps.size(), original.maps.size());
  for (std::size_t m = 0; m < loaded.maps.size(); ++m) {
    EXPECT_EQ(loaded.maps[m].interval_index, original.maps[m].interval_index);
    EXPECT_EQ(loaded.maps[m].interval_start, original.maps[m].interval_start);
    EXPECT_EQ(loaded.maps[m].counts(), original.maps[m].counts()) << m;
  }
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  RecordedTrace trace = make_trace(0, 2);
  std::stringstream buffer;
  save_trace(trace, buffer);
  const RecordedTrace loaded = load_trace(buffer);
  EXPECT_TRUE(loaded.maps.empty());
  EXPECT_EQ(loaded.config.granularity, 4096u);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mhm_trace_test.bin").string();
  const RecordedTrace original = make_trace(10, 3);
  save_trace_file(original, path);
  const RecordedTrace loaded = load_trace_file(path);
  EXPECT_EQ(loaded.maps.size(), 10u);
  EXPECT_EQ(loaded.maps[5].counts(), original.maps[5].counts());
  std::filesystem::remove(path);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "XXXXjunkjunkjunk";
  EXPECT_THROW(load_trace(buffer), SerializationError);
}

TEST(TraceIo, RejectsWrongVersion) {
  std::stringstream buffer;
  save_trace(make_trace(3, 4), buffer);
  std::string bytes = buffer.str();
  bytes[4] = 0x42;
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_trace(corrupted), SerializationError);
}

TEST(TraceIo, RejectsTruncation) {
  std::stringstream buffer;
  save_trace(make_trace(5, 5), buffer);
  const std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() - 7));
  EXPECT_THROW(load_trace(truncated), SerializationError);
}

TEST(TraceIo, RejectsInconsistentMapSize) {
  RecordedTrace trace = make_trace(2, 6);
  trace.maps.push_back(HeatMap(3));  // wrong cell count for the config
  std::stringstream buffer;
  EXPECT_THROW(save_trace(trace, buffer), SerializationError);
}

TEST(TraceIo, RejectsInvalidStoredConfig) {
  std::stringstream buffer;
  save_trace(make_trace(1, 7), buffer);
  std::string bytes = buffer.str();
  // Zero out the granularity field (offset: 4 magic + 4 version + 16 = 24).
  for (int i = 0; i < 8; ++i) bytes[24 + i] = 0;
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_trace(corrupted), SerializationError);
}

TEST(TraceIo, MissingFileThrowsConfigError) {
  EXPECT_THROW(load_trace_file("/nonexistent_zzz/trace.bin"), ConfigError);
  EXPECT_THROW(save_trace_file(make_trace(1, 8), "/nonexistent_zzz/t.bin"),
               ConfigError);
}

TEST(TraceIo, LoadedTraceTrainsIdenticalDetector) {
  // The point of trace persistence: training from a reloaded trace must
  // produce bit-identical results to training from the live trace.
  const RecordedTrace original = make_trace(120, 9);
  std::stringstream buffer;
  save_trace(original, buffer);
  const RecordedTrace loaded = load_trace(buffer);

  AnomalyDetector::Options opts;
  opts.pca.components = 4;
  opts.gmm.components = 2;
  opts.gmm.restarts = 2;
  const HeatMapTrace valid(original.maps.begin() + 60, original.maps.end());
  const HeatMapTrace valid2(loaded.maps.begin() + 60, loaded.maps.end());
  const auto det_a = AnomalyDetector::train(original.maps, valid, opts);
  const auto det_b = AnomalyDetector::train(loaded.maps, valid2, opts);
  const auto score = [](const AnomalyDetector& det, const HeatMap& map) {
    return engine::DetectionEngine(det.snapshot())
        .new_session()
        .analyze(map)
        .log10_density;
  };
  EXPECT_DOUBLE_EQ(score(det_a, original.maps[0]),
                   score(det_b, loaded.maps[0]));
}

}  // namespace
}  // namespace mhm
