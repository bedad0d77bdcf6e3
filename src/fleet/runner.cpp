#include "fleet/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "attacks/attacks.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/model_health.hpp"
#include "obs/prof.hpp"

namespace mhm::fleet {

namespace {

/// Devices per analyze_shard batch: bounds the SoA workspace to a few
/// hundred KB per shard while keeping the batch kernels in their sweet spot.
constexpr std::size_t kChunk = 256;

/// Largest per-device stream offset: clean devices replay their archetype's
/// trace shifted by [0, kMaxOffset) intervals, so 10k devices of one
/// archetype are 10k phase-distinct streams, not 10k copies.
constexpr std::uint32_t kMaxOffset = 16;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One simulated archetype, frozen into a shared row store: rows_[r] is the
/// r-th interval's heat map as doubles, ready to hand to analyze_shard as a
/// zero-copy span.
struct FleetRunner::Archetype {
  std::string name;
  bool attacked = false;
  std::vector<double> rows;  ///< row_count × L, row-major.
  std::size_t row_count = 0;
};

struct FleetRunner::ShardScratch {
  engine::ShardWorkspace workspace;
  std::vector<engine::Session*> sessions;
  std::vector<std::span<const double>> raws;
  std::vector<std::uint64_t> intervals;
  std::vector<Verdict> verdicts;
  std::vector<std::uint8_t> statuses;
};

FleetRunner::FleetRunner(FleetSpec spec,
                         const sim::SystemConfig& base_config,
                         std::shared_ptr<const ModelSnapshot> model)
    : spec_(std::move(spec)), model_(std::move(model)) {
  if (model_ == nullptr) throw ConfigError("FleetRunner: null model");
  threshold_ = model_->primary.log10_value;
  input_dim_ = model_->pca.input_dim();
  if (input_dim_ != base_config.monitor.cell_count()) {
    throw ConfigError(
        "FleetRunner: model cell count does not match the fleet's monitor "
        "geometry");
  }

  // --- simulate one seeded system per archetype, freeze its trace ---
  const std::size_t rows_needed = spec_.intervals + kMaxOffset;
  archetypes_.reserve(spec_.archetypes.size());
  for (std::size_t a = 0; a < spec_.archetypes.size(); ++a) {
    const ArchetypeSpec& as = spec_.archetypes[a];
    sim::SystemConfig config = base_config;
    config.seed = splitmix64(spec_.seed ^ (0xA5C1ULL + a));
    config.jitter_scale = as.jitter_scale;
    sim::System system(config);
    std::unique_ptr<attacks::AttackScenario> attack;
    if (!as.attack.empty()) {
      attack = attacks::make_scenario(as.attack);
      attack->arm(system, static_cast<SimTime>(as.trigger_interval) *
                              config.monitor.interval);
    }
    system.run_for(static_cast<SimTime>(rows_needed + 1) *
                   config.monitor.interval);
    const HeatMapTrace trace = system.take_trace();
    if (trace.size() < rows_needed) {
      throw ConfigError("FleetRunner: archetype '" + as.name +
                        "' produced too few intervals");
    }
    Archetype arch;
    arch.name = as.name;
    arch.attacked = attack != nullptr;
    arch.row_count = rows_needed;
    arch.rows.resize(rows_needed * input_dim_);
    std::vector<double> row;
    for (std::size_t r = 0; r < rows_needed; ++r) {
      trace[r].as_vector_into(row);
      MHM_ASSERT(row.size() == input_dim_,
                 "FleetRunner: archetype map size mismatch");
      std::copy(row.begin(), row.end(),
                arch.rows.begin() +
                    static_cast<std::ptrdiff_t>(r * input_dim_));
    }
    archetypes_.push_back(std::move(arch));
  }

  // --- deterministic per-device archetype pick + stream offset ---
  double total_weight = 0.0;
  for (const auto& as : spec_.archetypes) total_weight += as.weight;
  archetype_of_.resize(spec_.devices);
  offset_of_.resize(spec_.devices);
  for (std::size_t d = 0; d < spec_.devices; ++d) {
    const std::uint64_t h = splitmix64(spec_.seed ^ (d * 2 + 1));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53 * total_weight;
    double cum = 0.0;
    std::uint8_t pick = 0;
    for (std::size_t a = 0; a < spec_.archetypes.size(); ++a) {
      cum += spec_.archetypes[a].weight;
      if (u < cum) {
        pick = static_cast<std::uint8_t>(a);
        break;
      }
      pick = static_cast<std::uint8_t>(a);
    }
    archetype_of_[d] = pick;
    // Attacked archetypes stay at offset 0 so the trigger lands at the
    // spec's interval for every compromised device.
    offset_of_[d] = archetypes_[pick].attacked
                        ? 0
                        : static_cast<std::uint32_t>(
                              splitmix64(spec_.seed ^ (d * 2)) % kMaxOffset);
  }

  // --- contiguous shard layout, spec-determined (never thread-determined) ---
  const std::size_t shards = spec_.resolved_shards();
  shard_of_begin_.resize(shards + 1);
  for (std::size_t s = 0; s <= shards; ++s) {
    shard_of_begin_[s] = s * spec_.devices / shards;
  }

  // --- engine, one bounded session per device, per-shard scratch ---
  engine_ = std::make_unique<engine::DetectionEngine>(model_);
  engine::SessionOptions session_options =
      engine::SessionOptions::fleet_preset();
  session_options.journal_capacity = spec_.journal_capacity;
  session_options.health_max_events = spec_.health_max_events;
  sessions_.reserve(spec_.devices);
  for (std::size_t d = 0; d < spec_.devices; ++d) {
    sessions_.push_back(engine_->new_session(session_options));
  }
  scratch_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    scratch_.push_back(std::make_unique<ShardScratch>());
  }

  std::vector<std::string> names;
  names.reserve(archetypes_.size());
  for (const auto& a : archetypes_) names.push_back(a.name);
  aggregator_ = std::make_unique<FleetAggregator>(
      spec_, std::move(names), archetype_of_, shard_of_begin_);
  aggregator_->set_model_version(engine_->model_version());
}

FleetRunner::~FleetRunner() = default;

void FleetRunner::pump_shard_round(std::size_t shard, std::uint64_t round) {
  ShardScratch& sc = *scratch_[shard];
  const std::size_t begin = shard_of_begin_[shard];
  const std::size_t end = shard_of_begin_[shard + 1];
  // Profiler work delta for the whole round: the shard is owned by this
  // worker thread for the round's duration, so the per-thread counter delta
  // is exactly the shard's scoring cost (cycles or thread-CPU ns).
  const std::uint64_t work0 = obs::prof::thread_work_counter();
  for (std::size_t chunk = begin; chunk < end; chunk += kChunk) {
    const std::size_t chunk_end = std::min(end, chunk + kChunk);
    sc.sessions.clear();
    sc.raws.clear();
    sc.intervals.clear();
    sc.verdicts.clear();
    for (std::size_t d = chunk; d < chunk_end; ++d) {
      const Archetype& arch = archetypes_[archetype_of_[d]];
      const std::size_t row = (round + offset_of_[d]) % arch.row_count;
      sc.sessions.push_back(&sessions_[d]);
      sc.raws.emplace_back(arch.rows.data() + row * input_dim_, input_dim_);
      sc.intervals.push_back(round);
    }
    engine_->analyze_shard(sc.sessions, sc.raws, sc.intervals, sc.workspace,
                           aggregate_ ? &sc.verdicts : nullptr);
    if (aggregate_) {
      aggregator_->record_chunk(shard, chunk, sc.verdicts, threshold_);
    }
  }
  if (aggregate_) {
    const std::uint64_t work1 = obs::prof::thread_work_counter();
    if (work1 > work0) aggregator_->record_work(shard, work1 - work0);
  }
}

void FleetRunner::fold_shard(std::size_t shard) {
  ShardScratch& sc = *scratch_[shard];
  const std::size_t begin = shard_of_begin_[shard];
  const std::size_t end = shard_of_begin_[shard + 1];
  sc.statuses.clear();
  sc.statuses.reserve(end - begin);
  bool any_health = false;
  for (std::size_t d = begin; d < end; ++d) {
    const auto health = sessions_[d].model_health();
    if (health != nullptr) {
      any_health = true;
      sc.statuses.push_back(
          static_cast<std::uint8_t>(health->status()));
    } else {
      sc.statuses.push_back(0);
    }
  }
  const double elapsed =
      run_start_ns_ == 0
          ? 0.0
          : static_cast<double>(steady_ns() - run_start_ns_) * 1e-9;
  aggregator_->fold_shard(
      shard,
      any_health ? std::span<const std::uint8_t>(sc.statuses)
                 : std::span<const std::uint8_t>(),
      elapsed);
}

std::uint64_t FleetRunner::run_rounds(std::size_t rounds) {
  if (run_start_ns_ == 0) run_start_ns_ = steady_ns();
  std::uint64_t scored = 0;
  for (std::size_t r = 0; r < rounds && round_ < spec_.intervals; ++r) {
    const std::uint64_t round = round_;
    parallel_for(shard_count(), 1, [&](std::size_t s0, std::size_t s1) {
      for (std::size_t s = s0; s < s1; ++s) pump_shard_round(s, round);
    });
    ++round_;
    scored += spec_.devices;
    const bool last = round_ == spec_.intervals;
    if (aggregate_ && (round_ % spec_.health_refresh == 0 || last)) {
      parallel_for(shard_count(), 1, [&](std::size_t s0, std::size_t s1) {
        for (std::size_t s = s0; s < s1; ++s) fold_shard(s);
      });
    }
  }
  return scored;
}

std::uint64_t FleetRunner::run_all() {
  return run_rounds(spec_.intervals - round_);
}

}  // namespace mhm::fleet
