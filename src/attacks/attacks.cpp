#include "attacks/attacks.hpp"

#include "common/error.hpp"

namespace mhm::attacks {

AppAdditionAttack::AppAdditionAttack(sim::TaskSpec app, SimTime exit_after)
    : app_(std::move(app)), exit_after_(exit_after) {
  app_.validate();
}

// The System owns every armed callback and may run it after the scenario
// object is gone, so callbacks capture the scenario's parameters by value,
// never `this`.

void AppAdditionAttack::arm(sim::System& system, SimTime trigger_time) {
  system.at(trigger_time, [app = app_, &system] { system.launch_task(app); });
  if (exit_after_ > 0) {
    system.at(trigger_time + exit_after_, [name = app_.name, &system] {
      system.kill_task(name);
    });
  }
}

ShellcodeAttack::ShellcodeAttack(std::string victim, bool spawn_shell)
    : victim_(std::move(victim)), spawn_shell_(spawn_shell) {}

void ShellcodeAttack::arm(sim::System& system, SimTime trigger_time) {
  system.at(trigger_time, [victim = victim_, spawn_shell = spawn_shell_,
                           &system] {
    // The payload executes inside the victim's next job: flip the ASLR
    // personality bit, make the payload page executable, then fork+exec a
    // shell. The exec replaces the host image, killing the original task
    // (modelled by kill_host = true, which also runs the do_exit path).
    system.inject_payload(
        victim,
        {"sys_personality", "sys_mprotect", "do_fork", "do_execve"},
        /*kill_host=*/true);
    if (spawn_shell) {
      // The spawned shell shows up shortly after as a low-rate process.
      system.at(system.now() + 5 * kMillisecond, [&system] {
        system.scheduler().add_task(sim::shell_task_spec(),
                                    /*emit_launch=*/false);
      });
    }
  });
}

RootkitAttack::RootkitAttack(SimTime hijack_overhead,
                             std::string hijacked_service)
    : hijack_overhead_(hijack_overhead),
      hijacked_service_(std::move(hijacked_service)) {}

void RootkitAttack::arm(sim::System& system, SimTime trigger_time) {
  system.at(trigger_time, [hijack_overhead = hijack_overhead_,
                           hijacked_service = hijacked_service_, &system] {
    // insmod: the module-loader kernel path runs once (the big visible
    // burst of Figure 9) and holds the CPU while relocating/linking,
    // delaying every task — the timing side effect real module loads have.
    system.run_service_now("load_module");
    system.scheduler().block_cpu(
        system.services().service("load_module").mean_duration);
    // From now on the hijacked syscall detours through module space: no
    // monitored fetches, only added latency before the original handler.
    system.set_service_latency(hijacked_service, hijack_overhead);
  });
}

std::unique_ptr<AttackScenario> make_scenario(const std::string& name) {
  if (name == "app_addition") return std::make_unique<AppAdditionAttack>();
  if (name == "shellcode") return std::make_unique<ShellcodeAttack>();
  if (name == "rootkit") return std::make_unique<RootkitAttack>();
  throw ConfigError("make_scenario: unknown scenario '" + name + "'");
}

}  // namespace mhm::attacks
