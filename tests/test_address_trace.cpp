#include "hw/address_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "hw/memometer.hpp"
#include "hw/trace_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace mhm::hw {
namespace {

TEST(AddressTrace, ParsesMinimalLines) {
  std::istringstream in("0 0x1000\n10 4096\n");
  MemoryBus bus;
  TraceRecorder rec;
  bus.attach(&rec);
  const auto stats = replay_address_trace(in, bus);
  EXPECT_EQ(stats.lines_parsed, 2u);
  EXPECT_EQ(stats.accesses, 2u);
  ASSERT_EQ(rec.bursts().size(), 2u);
  EXPECT_EQ(rec.bursts()[0].base, 0x1000u);
  EXPECT_EQ(rec.bursts()[1].base, 4096u);
  EXPECT_EQ(rec.bursts()[1].time, 10u);
  EXPECT_EQ(rec.bursts()[0].size_bytes, 4u);
  EXPECT_EQ(rec.bursts()[0].sweeps, 1u);
}

TEST(AddressTrace, RegistryCountsEveryReplayedBurst) {
  // No advance_time follows the replay (as in `mhm_tool ingest`); the
  // bursts are in the registry as soon as replay_address_trace returns.
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  obs::Counter& bursts = obs::Registry::instance().counter("hw.bus.bursts");
  const std::uint64_t before = bursts.value();
  std::istringstream in("0 0x1000\n5 0x1010 64 3\n10 4096\n");
  MemoryBus bus;
  TraceRecorder rec;
  bus.attach(&rec);
  (void)replay_address_trace(in, bus);
  EXPECT_EQ(bus.bursts_published(), 3u);
  EXPECT_EQ(bursts.value() - before, bus.bursts_published());
  obs::set_enabled(obs_was_enabled);
}

TEST(AddressTrace, ParsesOptionalSizeAndSweeps) {
  std::istringstream in("5 0x2000 64\n7 0x3000 128 3\n");
  MemoryBus bus;
  TraceRecorder rec;
  bus.attach(&rec);
  const auto stats = replay_address_trace(in, bus);
  EXPECT_EQ(rec.bursts()[0].size_bytes, 64u);
  EXPECT_EQ(rec.bursts()[0].sweeps, 1u);
  EXPECT_EQ(rec.bursts()[1].size_bytes, 128u);
  EXPECT_EQ(rec.bursts()[1].sweeps, 3u);
  EXPECT_EQ(stats.accesses, 16u + 96u);
  EXPECT_EQ(stats.first_time, 5u);
  EXPECT_EQ(stats.last_time, 7u);
}

TEST(AddressTrace, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# a comment\n\n   \n0 0x1000\n# another\n1 0x1004\n");
  MemoryBus bus;
  const auto stats = replay_address_trace(in, bus);
  EXPECT_EQ(stats.lines_parsed, 2u);
}

TEST(AddressTrace, HandlesWindowsLineEndings) {
  std::istringstream in("0 0x1000 8 2\r\n1 0x1008\r\n");
  MemoryBus bus;
  TraceRecorder rec;
  bus.attach(&rec);
  const auto stats = replay_address_trace(in, bus);
  EXPECT_EQ(stats.lines_parsed, 2u);
  EXPECT_EQ(rec.bursts()[0].sweeps, 2u);
}

TEST(AddressTrace, RejectsMalformedLines) {
  auto expect_throw = [](const std::string& text) {
    std::istringstream in(text);
    MemoryBus bus;
    EXPECT_THROW(replay_address_trace(in, bus), ConfigError) << text;
  };
  expect_throw("justoneword\n");
  expect_throw("0\n");
  expect_throw("notanumber 0x1000\n");
  expect_throw("0 nothex\n");
  expect_throw("0 0x1000 bad\n");
  expect_throw("0 0x1000 4 bad\n");
  expect_throw("0 0x1000 4 1 extra\n");
  expect_throw("0 0x1000 0\n");    // zero size
  expect_throw("0 0x1000 4 0\n");  // zero sweeps
}

TEST(AddressTrace, RejectsTimeGoingBackwards) {
  std::istringstream in("10 0x1000\n5 0x1000\n");
  MemoryBus bus;
  EXPECT_THROW(replay_address_trace(in, bus), ConfigError);
}

TEST(AddressTrace, ErrorMessagesCarryLineNumbers) {
  std::istringstream in("0 0x1000\n# ok\nbroken\n");
  MemoryBus bus;
  try {
    replay_address_trace(in, bus);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(AddressTrace, FeedsMemometerEndToEnd) {
  // Simulated external tool output: fetches inside and outside a monitored
  // 64 KB region at 0x1000; the Memometer must aggregate exactly as if the
  // traffic were live.
  MhmConfig cfg;
  cfg.base = 0x1000;
  cfg.size = 64 * 1024;
  cfg.granularity = 4096;
  cfg.interval = 10 * kMillisecond;

  std::ostringstream trace;
  trace << "# fetches in cell 2 and cell 5, one outside\n";
  trace << 1 * kMillisecond << " 0x" << std::hex << (0x1000 + 2 * 4096)
        << std::dec << " 4 10\n";
  trace << 2 * kMillisecond << " 0x" << std::hex << (0x1000 + 5 * 4096)
        << std::dec << " 8 1\n";
  trace << 3 * kMillisecond << " 0xF0000000\n";
  trace << 11 * kMillisecond << " 0x1000\n";  // next interval

  std::vector<HeatMap> maps;
  MemoryBus bus;
  Memometer meter(cfg, 0, [&](const HeatMap& m) { maps.push_back(m); });
  bus.attach(&meter);

  std::istringstream in(trace.str());
  const auto stats = replay_address_trace(in, bus);
  meter.finish(stats.last_time, /*deliver_partial=*/true);

  ASSERT_EQ(maps.size(), 2u);
  EXPECT_EQ(maps[0][2], 10u);
  EXPECT_EQ(maps[0][5], 2u);
  EXPECT_EQ(maps[0].total_accesses(), 12u);
  EXPECT_EQ(meter.accesses_filtered_out(), 1u);
  EXPECT_EQ(maps[1][0], 1u);
}

TEST(AddressTrace, RoundTripThroughWriter) {
  // Capture a synthetic stream, export it as text, re-import, compare.
  std::vector<AccessBurst> bursts = {
      {.time = 0, .base = 0x1000, .size_bytes = 4, .sweeps = 1},
      {.time = 100, .base = 0xC0008000, .size_bytes = 512, .sweeps = 7},
      {.time = 100, .base = 0xFFFF0000, .size_bytes = 32, .sweeps = 2},
  };
  std::ostringstream text;
  write_address_trace(bursts, text);

  std::istringstream in(text.str());
  MemoryBus bus;
  TraceRecorder rec;
  bus.attach(&rec);
  const auto stats = replay_address_trace(in, bus);
  EXPECT_EQ(stats.lines_parsed, bursts.size());
  ASSERT_EQ(rec.bursts().size(), bursts.size());
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    EXPECT_EQ(rec.bursts()[i].time, bursts[i].time) << i;
    EXPECT_EQ(rec.bursts()[i].base, bursts[i].base) << i;
    EXPECT_EQ(rec.bursts()[i].size_bytes, bursts[i].size_bytes) << i;
    EXPECT_EQ(rec.bursts()[i].sweeps, bursts[i].sweeps) << i;
  }
}

TEST(AddressTrace, MissingFileThrows) {
  MemoryBus bus;
  EXPECT_THROW(replay_address_trace_file("/nonexistent_zzz/trace.txt", bus),
               ConfigError);
}

TEST(AddressTrace, EmptyInputIsValid) {
  std::istringstream in("");
  MemoryBus bus;
  const auto stats = replay_address_trace(in, bus);
  EXPECT_EQ(stats.lines_parsed, 0u);
  EXPECT_EQ(stats.accesses, 0u);
}

}  // namespace
}  // namespace mhm::hw
