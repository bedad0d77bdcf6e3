#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <string>
#include <vector>

namespace mhm::fleet {

/// One device archetype: a class of simulated devices sharing a workload
/// shape. The fleet runner simulates one seeded system per archetype and
/// fans its interval stream out to every device of that archetype (each
/// device at its own stream offset), so a 10k-device fleet costs a handful
/// of simulations, not 10k.
struct ArchetypeSpec {
  std::string name;
  /// Relative share of the fleet's devices (weights are normalized).
  double weight = 1.0;
  /// Workload jitter multiplier for this archetype's simulated system
  /// (SystemConfig::jitter_scale) — heterogeneous fleets mix calm RTOS-like
  /// devices with noisy general-purpose ones.
  double jitter_scale = 1.0;
  /// Attack scenario armed on this archetype's system ("" = clean). The
  /// archetype's devices are the fleet's genuinely anomalous streams — the
  /// ones the top-K ranking must surface.
  std::string attack;
  /// Interval index at which the attack manifests.
  std::uint64_t trigger_interval = 10;
};

/// A declarative fleet: how many devices, how they shard, what they run and
/// how much observability memory each session may hold. Parsed from the
/// INI-like text format documented in docs/FILE_FORMATS.md ("Fleet spec").
struct FleetSpec {
  std::size_t devices = 64;
  /// Worker shards. 0 = pick a deterministic default from the device count
  /// (never from the thread count — shard layout is part of the determinism
  /// contract: same spec + seed ⇒ bit-identical aggregates at any
  /// MHM_THREADS).
  std::size_t shards = 0;
  /// Intervals each device contributes (one per round).
  std::size_t intervals = 50;
  std::uint64_t seed = 1;
  /// Bounded ranking size: the aggregator keeps the K most anomalous
  /// streams fleet-wide.
  std::size_t top_k = 10;
  /// Rounds between health-status folds (per-device OK/DRIFTING/
  /// MISCALIBRATED rollup + top-K recompute). The fold is the only
  /// O(devices) aggregation step; everything per-interval is O(1).
  std::size_t health_refresh = 8;

  // --- fleet-level incident grouping ---
  /// Min intervals between two incident marks of the same device — the
  /// fleet-side analogue of IncidentOptions::min_gap, so one attacked
  /// stream contributes one mark per wave, not one per alarmed interval.
  std::size_t incident_gap = 64;
  /// Co-temporal window: marks within this many intervals of each other
  /// chain into one fleet incident group (the "same wave hit N devices"
  /// forensics view served in /fleet's incident_groups).
  std::size_t incident_window = 16;

  // --- per-session observability bounds (the fleet preset) ---
  std::size_t journal_capacity = 32;
  std::size_t health_max_events = 4;

  /// Resident-memory budget per session, enforced by bench/fleet (exit
  /// non-zero on violation). Netdata budgets ~18 KB RAM per monitored
  /// metric at edge scale; 64 KB is the contract here (a session carries a
  /// journal ring and health sketches on top of its scoring scratch).
  std::size_t session_bytes_budget = 64 * 1024;

  /// Device archetypes; empty = one clean "steady" archetype.
  std::vector<ArchetypeSpec> archetypes;

  /// Shard count after resolving shards == 0 (deterministic in the spec
  /// alone: ceil(devices / 256) clamped to [1, 64]).
  std::size_t resolved_shards() const;

  /// Parse the text format (throws ConfigError on malformed lines, unknown
  /// keys, or impossible values).
  static FleetSpec parse(std::istream& in);
  static FleetSpec parse_string(const std::string& text);
  static FleetSpec load(const std::string& path);
};

}  // namespace mhm::fleet
