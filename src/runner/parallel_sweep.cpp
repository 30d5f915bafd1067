#include "runner/parallel_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>

#include "obs/obs.hpp"
#include "util/cli.hpp"

namespace witag::runner {

double steady_ms() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1e6;
}

double thread_cpu_ms() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  }
#endif
  return steady_ms();
}

std::size_t jobs_from_args(const util::Args& args) {
  const long jobs = args.get_int("jobs", 0);
  if (jobs < 0) return 1;
  return static_cast<std::size_t>(jobs);
}

SweepResult run_sweep(const std::vector<SweepTask>& tasks,
                      const SweepOptions& opts) {
  SweepResult result;
  result.jobs = opts.jobs == 0 ? default_jobs() : opts.jobs;
  // "Workers actually used": a pool never has more workers than tasks.
  if (!tasks.empty()) result.jobs = std::min(result.jobs, tasks.size());
  std::vector<double> task_ms(tasks.size(), 0.0);

  const double t0 = steady_ms();
  result.per_task = parallel_map(
      tasks.size(), result.jobs,
      [&](std::size_t i) -> core::Session::RunStats {
        const double start = steady_ms();
        const double trace_start =
            obs::trace_enabled() ? obs::Tracer::instance().now_us() : 0.0;
        core::Session session(tasks[i].config);
        core::Session::RunStats stats = session.run(tasks[i].rounds);
        task_ms[i] = steady_ms() - start;
        WITAG_COUNT("runner.tasks", 1);
        WITAG_HDR("runner.task_ms", task_ms[i]);
        if (obs::trace_enabled()) {
          // Recorded on the worker's own thread, so the Chrome trace
          // shows which worker lane ran which task.
          obs::complete_arg2("runner.task", trace_start, task_ms[i] * 1e3,
                             "index", static_cast<double>(i), "rounds",
                             static_cast<double>(tasks[i].rounds), "runner");
        }
        return stats;
      });
  result.wall_ms = steady_ms() - t0;

  for (const auto& stats : result.per_task) {
    result.merged.merge(stats.metrics);
    result.triggers_missed += stats.triggers_missed;
  }
  for (const double ms : task_ms) result.serial_estimate_ms += ms;
  return result;
}

}  // namespace witag::runner
