// perfbench: one benchmark workload per process.
//
//   perfbench --workload secure_core|fleet|drift --seed N --seconds S --trace 0|1
//
// Prints a fingerprint, the workload's report (and, traced, its per-layer
// table), then as the last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits non-zero when an output check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "obs/build_info.hpp"
#include "obs/prof.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// One line identifying host, build and run.
std::string fingerprint(const RunArgs& args) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  const mhm::obs::BuildInfo& b = mhm::obs::build_info();
  return fmt("fingerprint: nproc %u | cpu %s | compiler %s | simd %s | "
             "prof counters %s | git %s | MHM_THREADS %zu | workload %s | "
             "seed %llu | seconds %.0f | trace %d\n",
             std::thread::hardware_concurrency(), cpu.c_str(),
             b.compiler.c_str(), b.simd.c_str(),
             mhm::obs::prof::counter_source(), b.git.c_str(), args.threads,
             args.workload.c_str(), static_cast<unsigned long long>(args.seed),
             args.seconds, args.trace ? 1 : 0);
}

std::string metrics_json(const std::vector<Metric>& metrics, Outcome& out) {
  std::string j = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = m.value;
    if (!std::isfinite(v)) {
      out.errors.push_back("metric " + m.name + " is not finite");
      v = 0.0;
    }
    j += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
             i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  return j + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload secure_core|fleet|drift --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  args.process_start = Clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0.0 ||
      (args.workload != "secure_core" && args.workload != "fleet" &&
       args.workload != "drift")) {
    return usage();
  }
  // Thread width per workload (the library's MHM_THREADS): fixed, never
  // derived from nproc.
  args.threads = args.workload == "secure_core" ? 4 : 3;
  mhm::set_global_threads(args.threads);

  try {
    RunDir dir;
    std::fputs(fingerprint(args).c_str(), stdout);
    std::fflush(stdout);
    const CpuTimes cpu0 = cpu_times();
    Outcome out;
    if (args.workload == "secure_core") {
      out = run_secure_core(args, dir);
    } else if (args.workload == "drift") {
      out = run_drift(args, dir);
    } else {
      out = run_fleet(args);
    }
    out.report += fmt("host: %.2f%% of CPU time stolen by the hypervisor "
                      "during the run\n",
                      100.0 * steal_share(cpu0));
    std::fputs(out.report.c_str(), stdout);
    const std::string metrics =
        metrics_json(args.trace ? out.per_layer : out.end_to_end, out);
    for (const auto& e : out.errors) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                out.errors.empty() ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), metrics.c_str());
    std::fflush(stdout);
    return out.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
