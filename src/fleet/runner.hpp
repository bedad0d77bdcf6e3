#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/engine.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/spec.hpp"
#include "sim/system.hpp"

namespace mhm::fleet {

/// Runs a FleetSpec: N heterogeneous simulated device streams scored
/// through one DetectionEngine and folded into a FleetAggregator.
///
/// Construction simulates one seeded sim::System per archetype (attacks
/// armed per the spec) and freezes each trace into a shared row store;
/// every device then replays its archetype's stream at a per-device offset
/// — device heterogeneity (task mix, jitter, phase, seed) costs a handful
/// of simulations, not N. Each device owns a full engine::Session (scoring
/// scratch, bounded journal, sized-down health monitor per the spec's
/// fleet preset), so the memory story is exactly the deployment's.
///
/// Scoring is sharded: devices split into contiguous shards, each round
/// pumps one interval per device by gathering zero-copy row spans — the
/// fleet specialization of the IntervalSource pull contract, minus the
/// per-interval HeatMap copy — into DetectionEngine::analyze_shard, then
/// folds the verdict chunk into the aggregator. Rounds are parallel_for
/// over shards with a barrier per round, and the shard layout depends only
/// on the spec — so the same spec + seed produces bit-identical aggregate
/// state (counters, severities, rollup, top-K) at any MHM_THREADS. Only
/// the intervals/sec rates are wall-clock and exempt.
class FleetRunner {
 public:
  /// `base_config` supplies everything the spec does not (monitor geometry,
  /// task set, snoop point); per-archetype seed/jitter/attack come from the
  /// spec. `model` must score the same cell count the config produces
  /// (throws ConfigError otherwise).
  FleetRunner(FleetSpec spec, const sim::SystemConfig& base_config,
              std::shared_ptr<const ModelSnapshot> model);
  ~FleetRunner();

  FleetRunner(const FleetRunner&) = delete;
  FleetRunner& operator=(const FleetRunner&) = delete;

  std::size_t device_count() const { return spec_.devices; }
  std::size_t shard_count() const { return shard_of_begin_.size() - 1; }
  const FleetSpec& spec() const { return spec_; }

  FleetAggregator& aggregator() { return *aggregator_; }
  const FleetAggregator& aggregator() const { return *aggregator_; }

  /// Score up to `rounds` more rounds (one interval per device per round,
  /// capped at the spec's interval budget). Returns intervals scored.
  std::uint64_t run_rounds(std::size_t rounds);

  /// Score every remaining round. Returns intervals scored.
  std::uint64_t run_all();

  bool done() const { return round_ >= spec_.intervals; }
  std::size_t rounds_completed() const { return round_; }

  /// The /fleet JSON body — bind to MonitorServer::set_fleet and to an
  /// armed IncidentStore's context (safe to call concurrently with
  /// run_rounds).
  std::string json() const { return aggregator_->json(); }

  /// Bench hook: false pumps and scores without touching the aggregator,
  /// isolating the aggregation overhead (the <2% obs contract leg measured
  /// by bench/fleet).
  void set_aggregation(bool enabled) { aggregate_ = enabled; }

 private:
  struct Archetype;

  void pump_shard_round(std::size_t shard, std::uint64_t round);
  void fold_shard(std::size_t shard);

  FleetSpec spec_;
  std::shared_ptr<const ModelSnapshot> model_;
  double threshold_ = 0.0;
  std::size_t input_dim_ = 0;

  std::vector<Archetype> archetypes_;
  std::vector<std::uint8_t> archetype_of_;  ///< Per device.
  std::vector<std::uint32_t> offset_of_;    ///< Per device stream offset.
  std::vector<std::size_t> shard_of_begin_;

  std::unique_ptr<engine::DetectionEngine> engine_;
  std::vector<engine::Session> sessions_;  ///< One per device.

  /// Per-shard pump scratch (workspace + gather arrays + fold buffers).
  struct ShardScratch;
  std::vector<std::unique_ptr<ShardScratch>> scratch_;

  std::unique_ptr<FleetAggregator> aggregator_;
  bool aggregate_ = true;
  std::size_t round_ = 0;
  std::uint64_t run_start_ns_ = 0;  ///< First run_rounds() call.
};

}  // namespace mhm::fleet
