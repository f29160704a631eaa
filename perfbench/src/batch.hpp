// Synchronous query execution for the batch workloads (cv_batch,
// porto_relational).
//
// Untraced, a query goes through Privid::execute, the path an analyst's
// synchronous call takes. Traced, it goes through the pipeline
// Privid::execute runs internally — query::parse_query,
// Executor::prepare, PreparedQuery::run_task over every task (fanned over
// a ThreadPool like the executor does), PreparedQuery::assemble per phase,
// PreparedQuery::finish — with each call timed. executor.hpp documents
// Executor::run as exactly that pipeline, so both paths release the same
// values and charge the same ledgers.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "engine/privid.hpp"
#include "harness.hpp"

namespace perfbench {

class BatchSystem {
 public:
  // `clock` null = untraced. `threads` is the PROCESS parallelism.
  BatchSystem(LayerClock* clock, std::size_t threads, std::uint64_t noise_seed);

  void add_camera(privid::engine::CameraRegistration reg);
  void add_executable(const std::string& name, privid::engine::Executable exe);

  // Runs one query synchronously, cache off, budget charged, raw values
  // revealed for the checks.
  privid::engine::QueryResult execute(const std::string& text);

  double min_remaining(const std::string& camera,
                       privid::TimeInterval window) const;

  // Traced runs: wall time spent in PROCESS phases (the task fan-out), for
  // pool.busy_share = summed run_task time / (threads x this).
  double process_wall_ms() const { return process_wall_ns_ / 1e6; }
  std::size_t threads() const { return threads_; }

 private:
  LayerClock* clock_;
  std::size_t threads_;
  privid::engine::RunOptions opts_;
  privid::engine::Privid privid_;
  // Traced path: the same registrations Privid keeps internally.
  std::map<std::string, privid::engine::CameraState> cameras_;
  privid::engine::ExecutableRegistry registry_;
  privid::Rng noise_rng_;
  std::unique_ptr<privid::ThreadPool> pool_;
  std::uint64_t process_wall_ns_ = 0;
};

// The timed phase of a batch workload: whole rounds over `queries` until
// `seconds` have passed, each query and round timed into `log`. Returns
// each round's results, in query order.
std::vector<std::vector<privid::engine::QueryResult>> run_rounds(
    BatchSystem& sys, const std::vector<std::string>& queries, double seconds,
    RoundLog* log);

// The engine-layer metrics of a traced batch run, per round: the LayerClock
// totals divided by `rounds`, plus pool.busy_share from `sys`.
std::map<std::string, double> batch_layers(const LayerClock& clock,
                                           const BatchSystem& sys,
                                           double rounds,
                                           double rows_per_round);

}  // namespace perfbench
