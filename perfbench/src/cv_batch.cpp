// cv_batch: one analyst runs the Case-1 counting queries (fig5/fig6
// pattern) synchronously — sequential PROCESS, cache off, budget charged —
// over the campus, highway and urban scenes, sweeping the chunk size. The
// executable body (scene sampling, the detector and its random tape, the
// SORT tracker) is nearly all of the query time, so this workload is the
// single-threaded CV baseline; the service, cache and relational layers do
// almost no work here.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

#include "batch.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "executables.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace privid;

namespace {

// The scenes are generated from fixed seeds and --seed varies the cameras'
// content seeds (the detector's random tape, hence every detection, track
// and count). A scene per --seed changed the number of people and cars in
// view, which moved wall_s by ~8% between seeds on its own (README).
constexpr std::array<std::uint64_t, 3> kSceneSeeds = {601, 602, 603};  // fig6's
constexpr double kBegin = 25200;   // 07:00, where every query's window starts
constexpr double kSceneHours = 1.5;  // recordings run 06:00-07:30
constexpr int kK = 2;
constexpr double kEpsilonC = 1e6;  // per-frame budget; never the limit here

struct Case {
  std::string camera;
  std::shared_ptr<const sim::Scene> scene;
  cv::DetectorConfig det;
  double rho;
  std::uint64_t content_seed;
};
constexpr double kRho[] = {17, 33, 20};  // campus, highway, urban (fig6)

// The fig6 sweep over chunk size and per-chunk output cap, each point over
// its own window length. The spread of query costs (1x to 5x) puts each
// round's p99 on its slowest windows, a cost the round repeats, rather
// than on a tail that a single scheduling hiccup decides.
struct Sweep {
  double chunk_s;
  std::size_t max_rows;
  double window_s;
};
constexpr Sweep kSweep[] = {
    {5, 2, 120}, {10, 5, 240}, {30, 10, 360}, {60, 25, 480}, {120, 25, 600}};
constexpr double kLongestWindow = kSweep[std::size(kSweep) - 1].window_s;

std::vector<Case> make_cases(std::uint64_t seed) {
  std::vector<Case> out;
  for (Case1Scene& s : case1_scenes(kSceneSeeds, kSceneHours)) {
    const std::size_t i = out.size();
    out.push_back({s.name, std::move(s.scene), s.det, kRho[i],
                   seed_mix(seed, 11 + i)});
  }
  return out;
}

std::string query_text(const Case& c, const Sweep& s) {
  auto num = [](double v) { return std::to_string(static_cast<long long>(v)); };
  return "SPLIT " + c.camera + " BEGIN " + num(kBegin) + " END " +
         num(kBegin + s.window_s) + " BY TIME " + num(s.chunk_s) +
         " STRIDE 0 INTO c;"
         "PROCESS c USING count_" + c.camera + " TIMEOUT 1 PRODUCING " +
         std::to_string(s.max_rows) +
         " ROWS WITH SCHEMA (entered:NUMBER=0) INTO t;"
         "SELECT COUNT(*) FROM t GROUP BY hour(chunk);";
}

engine::CameraContent content_of(const Case& c) {
  engine::CameraContent content;
  content.scene = c.scene;
  content.seed = c.content_seed;
  return content;
}

// The release raws per hour key, recounted on directly built ChunkViews
// with the library's own executable.
std::map<std::string, double> recount_hourly(const Case& c, const Sweep& s) {
  const engine::CameraContent content = content_of(c);
  engine::Executable exe = entering_counter(c.det, nullptr);
  std::map<std::string, double> hourly;
  for (const ChunkCount& cc :
       recount_chunks(content, c.scene->meta(), {kBegin, kBegin + s.window_s},
                      s.chunk_s, s.max_rows, exe)) {
    if (cc.rows > 0) {
      // GROUP BY hour(chunk) groups the rows there are: an hour without
      // rows gets no release.
      hourly[Value(std::floor(cc.begin / 3600.0)).to_string()] +=
          static_cast<double>(cc.rows);
    }
  }
  return hourly;
}

// Traced runs: replays the scene sampling every query's detector performs
// (Scene::candidates_at + Entity::box_at for every frame of the window)
// and the detector's per-(entity, frame) random tape (seed an Rng, draw
// once), timing each apart from the detector.
void replay_sampling(const Case& c, double window_s, LayerClock* clock) {
  const sim::Scene& scene = *c.scene;
  const VideoMeta& meta = scene.meta();
  const auto& entities = scene.entities();
  std::vector<std::pair<std::uint64_t, FrameIndex>> draws;
  double sink = 0;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t frames = 0;
  for (FrameIndex f = meta.frame_at(kBegin);
       f < meta.frame_at(kBegin + window_s); ++f) {
    const Seconds t = meta.time_of(f);
    for (std::size_t i : scene.candidates_at(t)) {
      if (auto b = entities[i].box_at(t)) {
        sink += b->area();
        draws.push_back({static_cast<std::uint64_t>(entities[i].id), f});
      }
    }
    ++frames;
  }
  clock->add(kSample, ns_since(t0), frames);
  const Clock::time_point t1 = Clock::now();
  for (const auto& [id, f] : draws) {
    Rng draw(seed_mix(c.content_seed,
                      seed_mix(id, static_cast<std::uint64_t>(f))));
    sink += draw.bernoulli(0.5) ? 1 : 0;
  }
  clock->add(kSeedDraw, ns_since(t1), draws.size());
  if (sink < 0) std::printf("unreachable\n");  // keeps the work observable
}

}  // namespace

Report run_cv_batch(const Args& args, Clock::time_point start) {
  LayerClock layer_clock;
  LayerClock* clock = args.trace ? &layer_clock : nullptr;

  const std::vector<Case> cases = make_cases(args.seed);
  BatchSystem sys(clock, 1, seed_mix(args.seed, 99));
  std::vector<std::string> queries;
  RoundLog log;
  for (const Case& c : cases) {
    c.scene->candidates_at(kBegin);  // builds the scene's lazy index
    engine::CameraRegistration reg;
    reg.meta = c.scene->meta();
    reg.content = content_of(c);
    reg.policy = {c.rho, kK};
    reg.epsilon_budget = kEpsilonC;
    sys.add_camera(std::move(reg));
    sys.add_executable(
        "count_" + c.camera,
        wrap_executable(entering_counter(c.det, clock), clock, nullptr));
    for (const Sweep& s : kSweep) {
      queries.push_back(query_text(c, s));
      log.frames_per_round += s.window_s * c.scene->meta().fps;
      log.tasks_per_round += std::ceil(s.window_s / s.chunk_s);
    }
  }
  // Warm-up: one untimed round, so the timed rounds start with the
  // allocator, the detector's arenas and the code paths warm.
  for (const std::string& q : queries) sys.execute(q);
  layer_clock.reset();
  const double setup_s = seconds_since(start);

  const std::vector<std::vector<engine::QueryResult>> rounds =
      run_rounds(sys, queries, args.seconds, &log);

  // Checks: raws against the recount, sensitivities against the formula,
  // and each ledger against the charges summed here.
  std::size_t qi = 0;
  double rows_per_round = 0;
  for (const Case& c : cases) {
    for (const Sweep& s : kSweep) {
      const std::map<std::string, double> expected = recount_hourly(c, s);
      const std::string what = c.camera + " chunk " +
                               std::to_string(s.chunk_s) + "s";
      for (const auto& results : rounds) {
        const engine::QueryResult& r = results[qi];
        std::vector<std::pair<std::string, double>> got;
        for (const engine::Release& rel : r.releases) {
          got.push_back({rel.group_key.at(0).to_string(), rel.raw});
          check_count_sensitivity(what, rel.sensitivity, kK, s.max_rows,
                                  c.rho, s.chunk_s);
        }
        check_raw_values(what, got, expected);
      }
      for (const auto& [table, rows] : rounds[0][qi].table_rows) {
        rows_per_round += static_cast<double>(rows);
      }
      ++qi;
    }
    // Every query of every round, the warm-up round included, charged
    // ε = 1 (one COUNT, no keys) from kBegin on, so the most-charged frames
    // (the first window's) carry the sum of all of them.
    const double charged =
        static_cast<double>((rounds.size() + 1) * std::size(kSweep));
    check_ledger_conserved(c.camera, kEpsilonC,
                           sys.min_remaining(c.camera, {kBegin, kBegin + kLongestWindow}),
                           charged);
  }

  Report report;
  report.attempted = log.query_s.size();
  report.failed = 0;
  report.note("threads: 1");
  if (!clock) {
    report_end_to_end(log, setup_s, &report);
    return report;
  }
  for (const Case& c : cases) {
    for (const Sweep& s : kSweep) replay_sampling(c, s.window_s, clock);
  }
  const double n = static_cast<double>(rounds.size());
  std::map<std::string, double> layers = batch_layers(*clock, sys, n,
                                                      rows_per_round);
  layers["cv.detect_ms"] = clock->total_ms(kDetect) / n;
  layers["cv.track_ms"] = clock->total_ms(kTrack) / n;
  // One replay pass per query of a round.
  layers["sim.sample_ms"] = clock->total_ms(kSample);
  layers["rng.seed_draw_ns"] =
      clock->total_ms(kSeedDraw) * 1e6 /
      static_cast<double>(std::max<std::uint64_t>(1, clock->count(kSeedDraw)));
  report_layers(layers, &report);
  report.note("wall_s_traced: " + std::to_string(median(log.round_s)));
  report.note("rng_seed_draws_per_round: " +
              std::to_string(clock->count(kSeedDraw)));
  return report;
}

}  // namespace perfbench
