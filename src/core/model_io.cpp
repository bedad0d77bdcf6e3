#include "core/model_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace mhm {

namespace {

constexpr char kMagic[4] = {'M', 'H', 'M', 'M'};
// Version 2 appends the total variance to the eigenmemory section; version 1
// files still load, with the total taken as the spectrum sum.
constexpr std::uint32_t kFormatVersion = 2;

// Section tags.
constexpr std::uint32_t kTagEigenmemory = 0x454D454D;  // "MEME"
constexpr std::uint32_t kTagGmm = 0x004D4D47;          // "GMM\0"
constexpr std::uint32_t kTagDetector = 0x00544544;     // "DET\0"

void write_u32(std::ostream& out, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void write_u64(std::ostream& out, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void write_f64(std::ostream& out, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  write_u64(out, bits);
}

void write_f64_span(std::ostream& out, std::span<const double> xs) {
  write_u64(out, xs.size());
  for (double x : xs) write_f64(out, x);
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw SerializationError("model_io: truncated stream (u32)");
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw SerializationError("model_io: truncated stream (u64)");
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

double read_f64(std::istream& in) {
  const std::uint64_t bits = read_u64(in);
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

std::vector<double> read_f64_vector(std::istream& in,
                                    std::uint64_t sanity_limit) {
  const std::uint64_t count = read_u64(in);
  if (count > sanity_limit) {
    throw SerializationError("model_io: implausible vector length " +
                             std::to_string(count));
  }
  std::vector<double> out(count);
  for (auto& v : out) v = read_f64(in);
  return out;
}

void expect_tag(std::istream& in, std::uint32_t tag, const char* what) {
  if (read_u32(in) != tag) {
    throw SerializationError(std::string("model_io: expected ") + what +
                             " section");
  }
}

/// Largest believable dimension in any serialized model (cells, samples).
constexpr std::uint64_t kSanityLimit = 1 << 24;

}  // namespace

void save_eigenmemory(const Eigenmemory& em, std::ostream& out) {
  write_u32(out, kTagEigenmemory);
  write_u64(out, em.input_dim());
  write_u64(out, em.components());
  write_f64_span(out, em.mean());
  for (std::size_t k = 0; k < em.components(); ++k) {
    for (double v : em.basis().row(k)) write_f64(out, v);
  }
  write_f64_span(out, em.eigenvalues());
  write_f64_span(out, em.spectrum());
  write_f64(out, em.total_variance());
}

Eigenmemory load_eigenmemory(std::istream& in, std::uint32_t format_version) {
  expect_tag(in, kTagEigenmemory, "eigenmemory");
  const std::uint64_t dim = read_u64(in);
  const std::uint64_t components = read_u64(in);
  if (dim == 0 || dim > kSanityLimit || components == 0 || components > dim) {
    throw SerializationError("model_io: implausible eigenmemory shape");
  }
  std::vector<double> mean = read_f64_vector(in, kSanityLimit);
  if (mean.size() != dim) {
    throw SerializationError("model_io: mean length mismatch");
  }
  linalg::Matrix basis(components, dim);
  for (std::size_t k = 0; k < components; ++k) {
    for (std::size_t i = 0; i < dim; ++i) basis(k, i) = read_f64(in);
  }
  std::vector<double> eigenvalues = read_f64_vector(in, kSanityLimit);
  std::vector<double> spectrum = read_f64_vector(in, kSanityLimit);
  std::optional<double> total_variance;
  if (format_version >= 2) total_variance = read_f64(in);
  return Eigenmemory::from_parts(std::move(mean), std::move(basis),
                                 std::move(eigenvalues), std::move(spectrum),
                                 total_variance);
}

void save_gmm(const Gmm& gmm, std::ostream& out) {
  write_u32(out, kTagGmm);
  write_u64(out, gmm.dimension());
  write_u64(out, gmm.component_count());
  for (const auto& comp : gmm.components()) {
    write_f64(out, comp.weight);
    write_f64_span(out, comp.mean);
    for (double v : comp.covariance.data()) write_f64(out, v);
  }
}

Gmm load_gmm(std::istream& in) {
  expect_tag(in, kTagGmm, "gmm");
  const std::uint64_t dim = read_u64(in);
  const std::uint64_t count = read_u64(in);
  if (dim == 0 || dim > kSanityLimit || count == 0 || count > kSanityLimit) {
    throw SerializationError("model_io: implausible GMM shape");
  }
  std::vector<GmmComponent> components(count);
  for (auto& comp : components) {
    comp.weight = read_f64(in);
    comp.mean = read_f64_vector(in, kSanityLimit);
    if (comp.mean.size() != dim) {
      throw SerializationError("model_io: GMM mean length mismatch");
    }
    comp.covariance = linalg::Matrix(dim, dim);
    for (double& v : comp.covariance.data()) v = read_f64(in);
  }
  try {
    return Gmm::from_components(std::move(components));
  } catch (const Error& e) {
    throw SerializationError(std::string("model_io: invalid GMM payload: ") +
                             e.what());
  }
}

std::shared_ptr<const ModelSnapshot> DetectorModel::to_snapshot(
    std::uint64_t version) const {
  return ModelSnapshot::assemble(eigenmemory, gmm,
                                 ThresholdCalibrator(validation_scores),
                                 primary_p, nullptr, version);
}

DetectorModel DetectorModel::from_snapshot(const ModelSnapshot& snapshot) {
  DetectorModel model;
  model.eigenmemory = snapshot.pca;
  model.gmm = snapshot.gmm;
  model.validation_scores = snapshot.calibrator.validation_scores();
  model.primary_p = snapshot.primary.p;
  return model;
}

void save_model(const DetectorModel& model, std::ostream& out) {
  out.write(kMagic, sizeof kMagic);
  write_u32(out, kFormatVersion);
  save_eigenmemory(model.eigenmemory, out);
  save_gmm(model.gmm, out);
  write_u32(out, kTagDetector);
  write_f64(out, model.primary_p);
  write_f64_span(out, model.validation_scores);
  if (!out) throw SerializationError("model_io: write failure");
}

DetectorModel load_model(std::istream& in) {
  char magic[4] = {};
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw SerializationError("model_io: bad magic (not an MHM model file)");
  }
  const std::uint32_t version = read_u32(in);
  if (version == 0 || version > kFormatVersion) {
    throw SerializationError("model_io: unsupported format version " +
                             std::to_string(version));
  }
  DetectorModel model;
  model.eigenmemory = load_eigenmemory(in, version);
  model.gmm = load_gmm(in);
  expect_tag(in, kTagDetector, "detector");
  model.primary_p = read_f64(in);
  if (!(model.primary_p > 0.0 && model.primary_p < 1.0)) {
    throw SerializationError("model_io: primary_p out of range");
  }
  model.validation_scores = read_f64_vector(in, kSanityLimit);
  if (model.validation_scores.empty()) {
    throw SerializationError("model_io: empty validation score set");
  }
  return model;
}

namespace {

/// Parse "model-NNNNNN.mhmm" → NNNNNN; nullopt for anything else.
std::optional<std::uint64_t> parse_registry_name(const std::string& name) {
  constexpr const char* kPrefix = "model-";
  constexpr const char* kSuffix = ".mhmm";
  const std::size_t prefix_len = std::strlen(kPrefix);
  const std::size_t suffix_len = std::strlen(kSuffix);
  if (name.size() <= prefix_len + suffix_len) return std::nullopt;
  if (name.compare(0, prefix_len, kPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t version = 0;
  for (std::size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    version = version * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return version;
}

}  // namespace

ModelRegistry::ModelRegistry(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec || !std::filesystem::is_directory(directory_)) {
    throw ConfigError("ModelRegistry: cannot open directory " + directory_);
  }
}

std::string ModelRegistry::path_for(std::uint64_t version) const {
  char name[32];
  std::snprintf(name, sizeof name, "model-%06" PRIu64 ".mhmm", version);
  return (std::filesystem::path(directory_) / name).string();
}

std::vector<std::uint64_t> ModelRegistry::list() const {
  std::vector<std::uint64_t> versions;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    if (!entry.is_regular_file()) continue;
    if (auto v = parse_registry_name(entry.path().filename().string())) {
      versions.push_back(*v);
    }
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

std::optional<std::uint64_t> ModelRegistry::latest_version() const {
  const auto versions = list();
  if (versions.empty()) return std::nullopt;
  return versions.back();
}

namespace {

/// Write `data` to `path`, replacing any file there, and fsync it. On any
/// failure the file is removed and ConfigError names the step.
void write_synced(const std::string& path, const std::string& data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw ConfigError("ModelRegistry: cannot create " + path + ": " +
                      std::strerror(errno));
  }
  int err = 0;
  std::size_t done = 0;
  while (err == 0 && done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n < 0 && errno != EINTR) {
      err = errno;
    }
  }
  if (err == 0 && ::fsync(fd) != 0) err = errno;
  ::close(fd);
  if (err != 0) {
    ::unlink(path.c_str());
    throw ConfigError("ModelRegistry: cannot write " + path + ": " +
                      std::strerror(err));
  }
}

}  // namespace

std::uint64_t ModelRegistry::save(const DetectorModel& model) {
  // The whole artifact reaches the disk under a temporary name that list()
  // ignores; link() then publishes it under the next free version. link()
  // never replaces an existing name, so writers sharing the directory never
  // claim one version, and a crash leaves at most a stray temporary file,
  // never a truncated model. The temporary name is unique among live
  // writers (pid, then a process-wide count); a file already under it is a
  // leftover of a dead process that had the same pid, and is overwritten.
  static std::atomic<std::uint64_t> temp_counter{0};
  const std::string temp =
      (std::filesystem::path(directory_) /
       (".model-" + std::to_string(::getpid()) + "-" +
        std::to_string(temp_counter.fetch_add(1)) + ".tmp"))
          .string();
  std::ostringstream bytes;
  save_model(model, bytes);
  write_synced(temp, bytes.str());

  std::uint64_t version = latest_version().value_or(0) + 1;
  while (::link(temp.c_str(), path_for(version).c_str()) != 0) {
    if (errno != EEXIST) {
      const int err = errno;
      ::unlink(temp.c_str());
      throw ConfigError("ModelRegistry: cannot publish " + path_for(version) +
                        ": " + std::strerror(err));
    }
    ++version;
  }
  ::unlink(temp.c_str());
  // Make the new name itself durable. The model is already published, so a
  // directory that cannot be opened here is not reported as a failed save.
  const int dir_fd = ::open(directory_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return version;
}

DetectorModel ModelRegistry::load(std::uint64_t version) const {
  const std::string path = path_for(version);
  if (!std::filesystem::is_regular_file(path)) {
    throw SerializationError("ModelRegistry: no version " +
                             std::to_string(version) + " in " + directory_);
  }
  DetectorModel model = load_model_file(path);
  // The sections deserialize independently; re-validate that they belong
  // together before anyone builds a scorer from them.
  if (model.gmm.dimension() != model.eigenmemory.components()) {
    throw SerializationError(
        "ModelRegistry: version " + std::to_string(version) +
        " has a GMM dimension incompatible with its eigenmemory basis");
  }
  return model;
}

DetectorModel ModelRegistry::load_latest() const {
  const auto latest = latest_version();
  if (!latest) {
    throw SerializationError("ModelRegistry: empty registry " + directory_);
  }
  return load(*latest);
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::load_snapshot(
    std::uint64_t version) const {
  return load(version).to_snapshot(version);
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::load_latest_snapshot()
    const {
  const auto latest = latest_version();
  if (!latest) {
    throw SerializationError("ModelRegistry: empty registry " + directory_);
  }
  return load_snapshot(*latest);
}

void save_model_file(const DetectorModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ConfigError("save_model_file: cannot open " + path);
  save_model(model, out);
  out.flush();
  if (!out) throw ConfigError("save_model_file: cannot write " + path);
}

DetectorModel load_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("load_model_file: cannot open " + path);
  return load_model(in);
}

}  // namespace mhm
