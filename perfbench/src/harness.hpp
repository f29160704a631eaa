// Shared plumbing of the benchmark: the run's arguments, clocks, per-layer
// time accumulators, order statistics, peak memory and the result line.
//
// Every layer is timed from outside the library, around calls into the
// layer's public functions (the library itself is built unmodified). The
// per-layer accumulators are only touched by traced runs (--trace 1);
// untraced runs read the clock only around whole queries and rounds.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t ns_between(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

inline std::uint64_t ns_since(Clock::time_point t0) {
  return ns_between(t0, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// A benchmark output that disagrees with the independent recomputation.
// Thrown by the checks; main() turns it into "correct": false.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Layers timed from outside. Each traced call adds its duration to the
// calling thread's slot, so the PROCESS pool's threads never contend.
enum Layer : int {
  kParse,       // query::parse_query
  kPlan,        // Privid::plan
  kPrepare,     // Executor::prepare
  kRunTask,     // PreparedQuery::run_task
  kAssemble,    // PreparedQuery::assemble
  kFinish,      // PreparedQuery::finish
  kSubmit,      // QueryService::submit
  kBody,        // the registered Executable's body
  kDetect,      // ChunkView::detect_into
  kTrack,       // cv::Tracker::step
  kPortoVisits, // ChunkView::taxi_visits -> sim::PortoSynth::visits
  kSample,      // sim::Scene::candidates_at + Entity::box_at (replay)
  kSeedDraw,    // Rng seeding + first draw (replay)
  kLayerCount
};

class LayerClock {
 public:
  static constexpr int kSlots = 64;

  void add(Layer l, std::uint64_t ns, std::uint64_t n = 1) {
    Slot& s = slots_[slot_index()];
    s.ns[l] += ns;
    s.n[l] += n;
  }
  double total_ms(Layer l) const {
    std::uint64_t t = 0;
    for (const Slot& s : slots_) t += s.ns[l];
    return static_cast<double>(t) / 1e6;
  }
  std::uint64_t count(Layer l) const {
    std::uint64_t t = 0;
    for (const Slot& s : slots_) t += s.n[l];
    return t;
  }
  // Forgets set-up work. Only while no other thread is adding.
  void reset() { slots_ = {}; }

 private:
  struct alignas(64) Slot {
    std::array<std::uint64_t, kLayerCount> ns{};
    std::array<std::uint64_t, kLayerCount> n{};
  };
  static int slot_index() {
    static std::atomic<int> next{0};
    thread_local int idx = next.fetch_add(1) % kSlots;
    return idx;
  }
  std::array<Slot, kSlots> slots_{};
};

// Times one call into a layer when `clock` is non-null (traced runs).
template <typename Fn>
auto timed(LayerClock* clock, Layer layer, Fn&& fn) -> decltype(fn()) {
  if (clock == nullptr) return fn();
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    clock->add(layer, ns_since(t0));
  } else {
    auto out = fn();
    clock->add(layer, ns_since(t0));
    return out;
  }
}

// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Peak resident set size of this process, MB.
inline double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// What one run reports: the result line's fields plus the context lines
// printed before it.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::string> notes;  // "key: value" context lines

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& line) { notes.push_back(line); }
};

// The end-to-end metrics every workload reports from its rounds. A round
// is one pass over the workload's fixed query list (service_mix: one block
// of consecutive scheduled queries), so every metric is a per-round
// median and runs of different length stay comparable.
//
// query_p99_s: where a round is a fixed list of queries (the batch
// workloads), each round's own p99 (its slowest query, near enough),
// median over rounds; pooled over the run, its few samples above p99
// were whichever rounds the shared host stalled. service_mix leaves
// round_p99_s empty and pools every query of the run (README).
struct RoundLog {
  std::vector<double> round_s;     // wall time of each round
  std::vector<double> query_s;     // latency of each query
  std::vector<double> round_p99_s; // p99 of each round's queries
  double frames_per_round = 0;     // video frames PROCESS covers per round
  double tasks_per_round = 0;      // chunk x region tasks per round
};

inline void report_end_to_end(const RoundLog& log, double setup_s,
                              Report* r) {
  const double wall = median(log.round_s);
  r->metric("setup_s", setup_s, "s");
  r->metric("wall_s", wall, "s");
  r->metric("frames_per_s", log.frames_per_round / wall, "frames/s");
  r->metric("tasks_per_s", log.tasks_per_round / wall, "tasks/s");
  r->metric("query_p50_s", quantile(log.query_s, 0.50), "s");
  r->metric("query_p99_s",
            log.round_p99_s.empty() ? quantile(log.query_s, 0.99)
                                    : median(log.round_p99_s),
            "s");
  r->metric("peak_rss_mb", peak_rss_mb(), "MB");
  r->note("rounds: " + std::to_string(log.round_s.size()));
  r->note("queries: " + std::to_string(log.query_s.size()));
  r->note("query_p99_pooled_s: " + std::to_string(quantile(log.query_s, 0.99)));
}

// The per-layer metrics of a traced run, in BENCHMARK.json order. Every
// traced run prints all of them; a layer a workload does not exercise
// reads 0. Times and counts are per round unless the README says
// otherwise.
inline const std::vector<std::pair<std::string, std::string>>& layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"cv.detect_ms", "ms"},           {"cv.track_ms", "ms"},
      {"sim.sample_ms", "ms"},          {"rng.seed_draw_ns", "ns"},
      {"sandbox.body_ms", "ms"},        {"engine.prepare_ms", "ms"},
      {"engine.run_task_ms", "ms"},     {"engine.tasks", "count"},
      {"engine.task_overhead_ms", "ms"}, {"sim.porto_visits_ms", "ms"},
      {"pool.busy_share", "share"},     {"engine.assemble_ms", "ms"},
      {"engine.finish_ms", "ms"},       {"table.rows_assembled", "count"},
      {"query.parse_ms", "ms"},         {"engine.plan_ms", "ms"},
      {"service.submit_ms", "ms"},      {"sched.rounds", "count"},
      {"sched.queue_wait_ms", "ms"},    {"cache.hits", "count"},
      {"cache.misses", "count"},        {"cache.hit_ratio", "share"},
      {"cache.bytes", "bytes"},         {"dedup.leaders", "count"},
      {"dedup.followers", "count"},     {"dedup.wait_ms", "ms"},
      {"sandbox.invocations", "count"}, {"gen.late_ms", "ms"},
  };
  return names;
}

inline void report_layers(const std::map<std::string, double>& values,
                          Report* r) {
  for (const auto& [name, unit] : layer_names()) {
    auto it = values.find(name);
    r->metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const auto& entry : layer_names()) known |= entry.first == name;
    if (!known) throw std::logic_error("unlisted layer metric " + name);
  }
}

}  // namespace perfbench
