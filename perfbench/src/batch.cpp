#include "batch.hpp"

#include <vector>

#include "query/parser.hpp"

namespace perfbench {

using namespace privid;

BatchSystem::BatchSystem(LayerClock* clock, std::size_t threads,
                         std::uint64_t noise_seed)
    : clock_(clock), threads_(threads), privid_(noise_seed),
      noise_rng_(noise_seed) {
  opts_.num_threads = threads;
  opts_.cache = engine::CacheMode::kOff;
  opts_.reveal_raw = true;
  opts_.charge_budget = true;
  if (clock_ != nullptr && threads > 1) {
    pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
}

void BatchSystem::add_camera(engine::CameraRegistration reg) {
  if (clock_ == nullptr) {
    privid_.register_camera(std::move(reg));
    return;
  }
  // What Privid::register_camera stores.
  engine::CameraState state;
  state.meta = std::move(reg.meta);
  state.content = std::move(reg.content);
  state.policy = reg.policy;
  state.epsilon_budget = reg.epsilon_budget;
  state.ledger = std::make_unique<BudgetLedger>(reg.epsilon_budget);
  const std::string id = state.meta.camera_id;
  cameras_.emplace(id, std::move(state));
}

void BatchSystem::add_executable(const std::string& name,
                                 engine::Executable exe) {
  if (clock_ == nullptr) {
    privid_.register_executable(name, std::move(exe));
  } else {
    registry_.add(name, std::move(exe));
  }
}

engine::QueryResult BatchSystem::execute(const std::string& text) {
  if (clock_ == nullptr) return privid_.execute(text, opts_);

  const query::ParsedQuery q =
      timed(clock_, kParse, [&] { return query::parse_query(text); });
  engine::Executor exec(&cameras_, &registry_, &noise_rng_, pool_.get());
  engine::PreparedQuery pq =
      timed(clock_, kPrepare, [&] { return exec.prepare(q, opts_); });
  for (std::size_t p = 0; p < pq.phase_count(); ++p) {
    std::vector<ColumnSlab> slots(pq.task_count(p));
    auto task = [&](std::size_t t) {
      slots[t] = timed(clock_, kRunTask, [&] { return pq.run_task(p, t); });
    };
    const Clock::time_point t0 = Clock::now();
    if (pool_) {
      pool_->parallel_for(slots.size(), task, threads_);
    } else {
      for (std::size_t t = 0; t < slots.size(); ++t) task(t);
    }
    process_wall_ns_ += ns_since(t0);
    timed(clock_, kAssemble, [&] { pq.assemble(p, std::move(slots)); });
  }
  return timed(clock_, kFinish, [&] { return pq.finish(); });
}

double BatchSystem::min_remaining(const std::string& camera,
                                  TimeInterval window) const {
  if (clock_ == nullptr) return privid_.min_remaining_budget(camera, window);
  const engine::CameraState& cam = cameras_.at(camera);
  return cam.ledger->min_remaining(
      {cam.meta.frame_at(window.begin), cam.meta.frame_at(window.end)});
}

std::vector<std::vector<engine::QueryResult>> run_rounds(
    BatchSystem& sys, const std::vector<std::string>& queries, double seconds,
    RoundLog* log) {
  std::vector<std::vector<engine::QueryResult>> rounds;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point r0 = Clock::now();
    std::vector<engine::QueryResult> results;
    std::vector<double> round_query_s;
    for (const std::string& q : queries) {
      const Clock::time_point q0 = Clock::now();
      results.push_back(sys.execute(q));
      round_query_s.push_back(seconds_since(q0));
    }
    log->round_s.push_back(seconds_since(r0));
    log->round_p99_s.push_back(quantile(round_query_s, 0.99));
    log->query_s.insert(log->query_s.end(), round_query_s.begin(),
                        round_query_s.end());
    rounds.push_back(std::move(results));
  } while (seconds_since(start) < seconds);
  return rounds;
}

std::map<std::string, double> batch_layers(const LayerClock& clock,
                                           const BatchSystem& sys,
                                           double rounds,
                                           double rows_per_round) {
  const double run_task = clock.total_ms(kRunTask);
  const double body = clock.total_ms(kBody);
  return {
      {"sandbox.body_ms", body / rounds},
      {"engine.prepare_ms", clock.total_ms(kPrepare) / rounds},
      {"engine.run_task_ms", run_task / rounds},
      {"engine.tasks", static_cast<double>(clock.count(kRunTask)) / rounds},
      {"engine.task_overhead_ms", (run_task - body) / rounds},
      {"pool.busy_share",
       run_task / (static_cast<double>(sys.threads()) * sys.process_wall_ms())},
      {"engine.assemble_ms", clock.total_ms(kAssemble) / rounds},
      {"engine.finish_ms", clock.total_ms(kFinish) / rounds},
      {"table.rows_assembled", rows_per_round},
      {"query.parse_ms", clock.total_ms(kParse) / rounds},
      {"sandbox.invocations",
       static_cast<double>(clock.count(kBody)) / rounds},
  };
}

}  // namespace perfbench
