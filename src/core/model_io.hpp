#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/gmm.hpp"
#include "core/pca.hpp"
#include "core/snapshot.hpp"

namespace mhm {

/// Versioned binary serialization of trained models.
///
/// The paper's workflow separates profiling (pre-deployment, in a trusted
/// environment — §2 assumption iii) from detection (on the deployed secure
/// core). That split requires shipping the trained model: the eigenmemory
/// basis and mean, the GMM parameters and the calibrated thresholds. This
/// module provides a compact little-endian binary format for exactly that.
///
/// Format: magic "MHMM", format version, then tagged sections. Numbers are
/// fixed-width little-endian; doubles are raw IEEE-754 bits. Readers reject
/// unknown versions and truncated/corrupt payloads with SerializationError.
class SerializationError : public Error {
 public:
  explicit SerializationError(const std::string& what) : Error(what) {}
};

/// Serialized-model container: everything the secure core needs at runtime.
struct DetectorModel {
  Eigenmemory eigenmemory;
  Gmm gmm;
  std::vector<double> validation_scores;  ///< For re-deriving any θ_p.
  double primary_p = 0.01;

  /// Reassemble an immutable scoring snapshot (the engine-layer artifact);
  /// `version` becomes the Verdict::model_version stamp. The snapshot
  /// carries no CellBaseline — the raw training set is not serialized.
  std::shared_ptr<const ModelSnapshot> to_snapshot(
      std::uint64_t version = 0) const;

  /// Capture a snapshot (the CellBaseline, if any, is not serialized).
  static DetectorModel from_snapshot(const ModelSnapshot& snapshot);
};

/// Stream I/O.
void save_model(const DetectorModel& model, std::ostream& out);
DetectorModel load_model(std::istream& in);

/// File I/O convenience (throws SerializationError / ConfigError).
void save_model_file(const DetectorModel& model, const std::string& path);
DetectorModel load_model_file(const std::string& path);

/// Versioned on-disk model store: a directory of `model-NNNNNN.mhmm` files
/// with monotonically increasing version ids. This is the deployment
/// hand-off the paper's §2 workflow implies — profiling produces a model
/// artifact; the secure core (or `mhm_tool replay`, or a DetectionEngine
/// hot swap) loads it by version. save() never overwrites: it writes and
/// fsyncs a temporary `.model-*.tmp` file, then hard-links it to the
/// lowest free version above the latest, so concurrent writers (threads or
/// processes) get distinct versions and a crash mid-save leaves no
/// truncated model. Loads re-validate PCA↔GMM dimension compatibility so a
/// registry poisoned with mismatched sections is rejected with
/// SerializationError instead of producing a detector that throws later.
class ModelRegistry {
 public:
  /// Opens (and creates, if missing) the registry directory.
  explicit ModelRegistry(std::string directory);

  /// Persist a model under the next free version id; returns that id (≥ 1).
  /// Throws ConfigError when the file cannot be written or published.
  std::uint64_t save(const DetectorModel& model);

  /// Load one version (throws SerializationError if absent or invalid).
  DetectorModel load(std::uint64_t version) const;
  /// Load the highest version (throws SerializationError on empty registry).
  DetectorModel load_latest() const;
  /// Convenience: load + to_snapshot, stamped with the registry version.
  std::shared_ptr<const ModelSnapshot> load_snapshot(
      std::uint64_t version) const;
  std::shared_ptr<const ModelSnapshot> load_latest_snapshot() const;

  /// Stored version ids, ascending. Non-model files are ignored.
  std::vector<std::uint64_t> list() const;
  std::optional<std::uint64_t> latest_version() const;

  std::string path_for(std::uint64_t version) const;
  const std::string& directory() const { return directory_; }

 private:
  std::string directory_;
};

/// --- lower-level pieces, exposed for reuse and tests ---
/// Sections are written in the current format; `format_version` names the
/// layout a loaded section was written in (1 lacks the total variance).
void save_eigenmemory(const Eigenmemory& em, std::ostream& out);
Eigenmemory load_eigenmemory(std::istream& in,
                             std::uint32_t format_version = 2);
void save_gmm(const Gmm& gmm, std::ostream& out);
Gmm load_gmm(std::istream& in);

}  // namespace mhm
