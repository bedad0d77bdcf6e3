#include "common.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace perfbench {

std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, format);
  const int n = std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  if (n < 0) return {};
  return std::string(buf, std::min(static_cast<std::size_t>(n), sizeof buf - 1));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

namespace {

std::size_t status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  const std::size_t len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, len) == 0) {
      kb = std::strtoull(line + len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

std::size_t peak_rss_bytes() { return status_kb("VmHWM:") * 1024; }
std::size_t rss_bytes() { return status_kb("VmRSS:") * 1024; }

void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

CpuTimes cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_share(const CpuTimes& since) {
  const CpuTimes now = cpu_times();
  const unsigned long long total = now.total - since.total;
  return total > 0 ? static_cast<double>(now.steal - since.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

// --- well-formedness checks ------------------------------------------------

namespace {

struct JsonCursor {
  const std::string& s;
  std::size_t i = 0;
  int depth = 0;

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool lit(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s.compare(i, n, word) != 0) return false;
    i += n;
    return true;
  }
  bool string() {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size()) {
      const char c = s[i++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (i >= s.size()) return false;
        const char e = s[i++];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k, ++i) {
            if (i >= s.size() ||
                !std::isxdigit(static_cast<unsigned char>(s[i]))) {
              return false;
            }
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    std::size_t digits = 0;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
      ++i;
      ++digits;
    }
    if (digits == 0) return false;
    if (i < s.size() && s[i] == '.') {
      ++i;
      std::size_t frac = 0;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
        ++frac;
      }
      if (frac == 0) return false;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      std::size_t exp = 0;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
        ++exp;
      }
      if (exp == 0) return false;
    }
    return i > start;
  }
  bool value() {
    if (++depth > 256) return false;
    ws();
    bool ok = false;
    if (i >= s.size()) {
      ok = false;
    } else if (s[i] == '{') {
      ++i;
      ws();
      if (i < s.size() && s[i] == '}') {
        ++i;
        ok = true;
      } else {
        while (true) {
          ws();
          if (!string()) break;
          ws();
          if (i >= s.size() || s[i] != ':') break;
          ++i;
          if (!value()) break;
          ws();
          if (i < s.size() && s[i] == ',') {
            ++i;
            continue;
          }
          if (i < s.size() && s[i] == '}') {
            ++i;
            ok = true;
          }
          break;
        }
      }
    } else if (s[i] == '[') {
      ++i;
      ws();
      if (i < s.size() && s[i] == ']') {
        ++i;
        ok = true;
      } else {
        while (true) {
          if (!value()) break;
          ws();
          if (i < s.size() && s[i] == ',') {
            ++i;
            continue;
          }
          if (i < s.size() && s[i] == ']') {
            ++i;
            ok = true;
          }
          break;
        }
      }
    } else if (s[i] == '"') {
      ok = string();
    } else if (s[i] == 't') {
      ok = lit("true");
    } else if (s[i] == 'f') {
      ok = lit("false");
    } else if (s[i] == 'n') {
      ok = lit("null");
    } else {
      ok = number();
    }
    --depth;
    return ok;
  }
};

bool prom_number(const std::string& tok) {
  if (tok == "+Inf" || tok == "-Inf" || tok == "NaN") return true;
  if (tok.empty()) return false;
  char* end = nullptr;
  std::strtod(tok.c_str(), &end);
  return end == tok.c_str() + tok.size();
}

}  // namespace

bool json_parses(const std::string& text) {
  JsonCursor c{text};
  if (!c.value()) return false;
  c.ws();
  return c.i == text.size();
}

bool prometheus_parses(const std::string& text) {
  std::size_t samples = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    std::size_t i = 0;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '_' || line[i] == ':')) {
      ++i;
    }
    if (i == 0) return false;
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string::npos) return false;
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') return false;
    std::string rest = line.substr(i + 1);
    const std::size_t sp = rest.find(' ');  // Optional timestamp.
    if (sp != std::string::npos) rest = rest.substr(0, sp);
    if (!prom_number(rest)) return false;
    ++samples;
  }
  return samples > 0;
}

// --- loopback HTTP --------------------------------------------------------

HttpResponse http_get(std::uint16_t port, const std::string& path) {
  HttpResponse out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return out;
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return out;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      ::close(fd);
      return out;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.compare(0, 9, "HTTP/1.1 ") != 0) {
    return out;
  }
  out.status = std::atoi(raw.c_str() + 9);
  out.body = raw.substr(head_end + 4);
  return out;
}

Scraper::Scraper(std::uint16_t port, std::vector<std::string> routes,
                 std::chrono::milliseconds period)
    : port_(port),
      routes_(std::move(routes)),
      period_(period),
      latencies_(routes_.size()) {}

Scraper::~Scraper() { stop(); }

void Scraper::start() {
  stop_ = false;
  thread_ = std::thread([this] { loop(); });
}

void Scraper::stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

double Scraper::p50_ms() const {
  double sum = 0.0;
  for (const auto& v : latencies_) sum += median(v);
  return sum / static_cast<double>(latencies_.size());
}

void Scraper::loop() {
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t k = 1; !stop_; ++k) {
    const Clock::time_point due = t0 + k * period_;
    while (!stop_ && Clock::now() < due) {
      std::this_thread::sleep_until(
          std::min(due, Clock::now() + std::chrono::milliseconds(20)));
    }
    if (stop_) break;
    const std::size_t r = (k - 1) % routes_.size();
    const Clock::time_point begin = Clock::now();
    const double lag_ms = us_between(due, begin) / 1000.0;
    max_lag_ms_ = std::max(max_lag_ms_, lag_ms);
    ++attempted_;
    const HttpResponse resp = http_get(port_, routes_[r]);
    const double ms = us_between(due, Clock::now()) / 1000.0;
    const bool body_ok = routes_[r] == "/metrics" ? prometheus_parses(resp.body)
                                                 : json_parses(resp.body);
    const bool late = lag_ms >= static_cast<double>(period_.count());
    if (resp.status != 200 || !body_ok || late) {
      ++failed_;
      std::fprintf(stderr,
                   "perfbench: scrape %s failed (status %d, body %s, "
                   "lag %.1f ms)\n",
                   routes_[r].c_str(), resp.status, body_ok ? "ok" : "bad",
                   lag_ms);
      continue;
    }
    latencies_[r].push_back(ms);
  }
}

// --- per-run directory ----------------------------------------------------

RunDir::RunDir() {
  namespace fs = std::filesystem;
  const fs::path base = fs::current_path() / ".bench_tmp";
  fs::create_directories(base);
  path_ = (base / ("run-" + std::to_string(::getpid()))).string();
  fs::remove_all(path_);
  fs::create_directories(path_);
}

RunDir::~RunDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  // Drop the parent too when no concurrent run still uses it.
  std::filesystem::remove(std::filesystem::path(path_).parent_path(), ec);
}

std::string RunDir::sub(const std::string& name) const {
  const std::string p = path_ + "/" + name;
  std::filesystem::create_directories(p);
  return p;
}

// --- layer table ------------------------------------------------------------

std::string layer_table(const std::vector<LayerRow>& rows,
                        double end_to_end_us, double traced_us) {
  std::string t = "per-layer attribution (us per interval)\n";
  t += fmt("  %-10s %-44s %12s %8s\n", "layer", "timed call", "us/interval",
           "share");
  double sum = 0.0;
  for (const auto& r : rows) sum += r.us;
  for (const auto& r : rows) {
    t += fmt("  %-10s %-44s %12.4f %7.1f%%\n", r.layer.c_str(), r.what.c_str(),
             r.us, sum > 0.0 ? 100.0 * r.us / sum : 0.0);
  }
  const double closure =
      end_to_end_us > 0.0 ? (sum - end_to_end_us) / end_to_end_us : 0.0;
  t += fmt("  %-55s %12.4f\n", "sum of layers", sum);
  t += fmt("  %-55s %12.4f\n", "end-to-end (untraced run)", end_to_end_us);
  t += fmt("  layers vs end-to-end: %+.2f%% (%s 10%%)\n", 100.0 * closure,
           std::fabs(closure) <= 0.10 ? "within" : "OUTSIDE");
  const double overhead =
      end_to_end_us > 0.0 ? (traced_us - end_to_end_us) / end_to_end_us : 0.0;
  t += fmt("  tracing overhead: traced run %.4f us/interval vs untraced "
           "%.4f (%+.2f%%)\n",
           traced_us, end_to_end_us, 100.0 * overhead);
  return t;
}

}  // namespace perfbench
