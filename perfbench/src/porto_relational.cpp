// porto_relational: one analyst runs Q4/Q5/Q6-style relational queries
// (UNION, JOIN, GROUP BY ... WITH KEYS, ARGMAX) over the 40-camera Porto
// synthesizer with 60 s chunks, synchronously, PROCESS on a pool of two
// threads, cache off. Each query fans out into ~10^5 tiny tasks
// whose executable body is cheaper than the engine's own per-task work,
// so per-task overhead, the pool, assembly and the SELECT phase dominate
// and CV does nothing.
#include <algorithm>
#include <memory>
#include <thread>

#include "batch.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "executables.hpp"
#include "sim/porto.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace privid;

namespace {

constexpr int kCameras = 40;
constexpr int kTaxis = 150;
constexpr int kDays = 365;
constexpr double kChunk = 60;
constexpr std::size_t kMaxRows = 3;
constexpr double kDay = 86400;
constexpr double kEpsilonC = 1e6;
// A round: Q4 (UNION) and Q5 (JOIN) on each of kPairs camera pairs over
// kPairDays, then Q6 (ARGMAX over all cameras) over kArgmaxDays. Several
// pairs rather than one long window, because cameras differ several-fold
// in traffic and one seeded pair moved wall_s by ~10% between seeds.
constexpr int kPairs = 4;
constexpr int kPairDays = 30;
constexpr int kArgmaxDays = 2;

std::string cam(int i) { return "porto" + std::to_string(i); }

std::string split_process(int camera, const std::string& suffix, int n_days) {
  return "SPLIT " + cam(camera) + " BEGIN 0 END " +
         std::to_string(static_cast<long long>(n_days * kDay)) +
         " BY TIME 60 STRIDE 0 INTO c" + suffix + ";PROCESS c" + suffix +
         " USING taxis TIMEOUT 1 PRODUCING " + std::to_string(kMaxRows) +
         " ROWS WITH SCHEMA (plate:STRING=\"\", hod:NUMBER=0) INTO t" +
         suffix + ";";
}

// Two PROCESS threads: the pool is in use, and on the reference host runs
// at two threads spread 6% (wall_s IQR over seeds) against 12% at four.
// At one thread the round is faster still (CHANGES.md, FOUND).
std::size_t threads() {
  return std::min<std::size_t>(2, std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace

Report run_porto_relational(const Args& args, Clock::time_point start) {
  LayerClock layer_clock;
  LayerClock* clock = args.trace ? &layer_clock : nullptr;

  sim::PortoConfig cfg;
  cfg.n_days = kDays;
  cfg.n_taxis = kTaxis;
  cfg.n_cameras = kCameras;
  cfg.seed = seed_mix(args.seed, 4);
  auto porto = std::make_shared<const sim::PortoSynth>(cfg);

  BatchSystem sys(clock, threads(), seed_mix(args.seed, 98));
  for (int c = 0; c < kCameras; ++c) {
    engine::CameraRegistration reg;
    reg.meta.camera_id = cam(c);
    reg.meta.fps = 1;
    reg.meta.extent = {0, kDays * kDay};
    reg.content.porto = porto;
    reg.content.porto_camera = c;
    reg.content.seed = seed_mix(args.seed, 100 + static_cast<std::uint64_t>(c));
    reg.policy = {porto->camera_rho(c), 4};
    reg.epsilon_budget = kEpsilonC;
    sys.add_camera(std::move(reg));
  }
  sys.add_executable("taxis",
                     wrap_executable(taxi_reporter(clock), clock, nullptr));

  std::string keys;
  for (int t = 0; t < kTaxis; ++t) {
    keys += (t ? ", \"" : "\"") + sim::PortoSynth::plate_of(t) + "\"";
  }
  // Distinct cameras, chosen by seed, paired off.
  std::vector<int> order(kCameras);
  for (int c = 0; c < kCameras; ++c) order[c] = c;
  Rng pick(seed_mix(args.seed, 5));
  for (int i = kCameras - 1; i > 0; --i) {
    std::swap(order[i], order[pick.uniform_int(0, i)]);
  }
  std::vector<std::string> queries;
  for (int p = 0; p < kPairs; ++p) {
    const std::string both = split_process(order[2 * p], "A", kPairDays) +
                             split_process(order[2 * p + 1], "B", kPairDays);
    queries.push_back(
        both +
        "SELECT AVG(hours) RANGE 0 16 FROM "
        "(SELECT plate, day(chunk) AS day, SPAN(hod) RANGE 0 16 AS hours "
        " FROM tA UNION tB GROUP BY plate WITH KEYS [" + keys +
        "], day(chunk));");
    queries.push_back(
        both +
        "SELECT COUNT(*) FROM "
        "(SELECT plate, day(chunk) AS day, COUNT(*) AS n FROM tA "
        " GROUP BY plate WITH KEYS [" + keys + "], day(chunk)) JOIN "
        "(SELECT plate, day(chunk) AS day, COUNT(*) AS n FROM tB "
        " GROUP BY plate WITH KEYS [" + keys + "], day(chunk)) "
        "ON plate, day;");
  }
  std::string q6, union_all;
  for (int c = 0; c < kCameras; ++c) {
    q6 += split_process(c, std::to_string(c), kArgmaxDays);
    union_all += (c ? " UNION t" : "t") + std::to_string(c);
  }
  queries.push_back(q6 + "SELECT ARGMAX(COUNT(*)) FROM " + union_all +
                    " GROUP BY camera;");

  // The mirrors' expected raws. Building them generates every (camera,
  // day) the queries touch, so the lazy Porto generation is set-up too.
  std::vector<double> expected;
  for (int p = 0; p < kPairs; ++p) {
    const auto a = porto_rows(*porto, order[2 * p], 0, kPairDays * kDay,
                              kChunk, kMaxRows);
    const auto b = porto_rows(*porto, order[2 * p + 1], 0, kPairDays * kDay,
                              kChunk, kMaxRows);
    expected.push_back(mirror_union_span(a, b));
    expected.push_back(mirror_join_pairs(a, b));
  }
  std::map<std::string, double> per_camera;
  for (int c = 0; c < kCameras; ++c) {
    per_camera[cam(c)] = static_cast<double>(
        porto_rows(*porto, c, 0, kArgmaxDays * kDay, kChunk, kMaxRows).size());
  }
  RoundLog log;
  log.tasks_per_round =
      (4.0 * kPairs * kPairDays + kCameras * kArgmaxDays) * kDay / kChunk;
  log.frames_per_round = log.tasks_per_round * kChunk;  // 1 fps
  // Warm-up: one untimed round starts the PROCESS pool and warms the code
  // paths before the timed rounds.
  for (const std::string& q : queries) sys.execute(q);
  layer_clock.reset();
  const double setup_s = seconds_since(start);

  const std::vector<std::vector<engine::QueryResult>> rounds =
      run_rounds(sys, queries, args.seconds, &log);

  for (const auto& results : rounds) {
    for (int p = 0; p < kPairs; ++p) {
      const std::string pair = cam(order[2 * p]) + "+" + cam(order[2 * p + 1]);
      check_raw_values("Q4 union span " + pair,
                       {{"", results[2 * p].releases.at(0).raw}},
                       {{"", expected[2 * p]}}, 1e-9);
      check_raw_values("Q5 join pairs " + pair,
                       {{"", results[2 * p + 1].releases.at(0).raw}},
                       {{"", expected[2 * p + 1]}});
    }
    // The winner is noisy (report-noisy-max); its raw count is not.
    const engine::Release& argmax = results.back().releases.at(0);
    auto it = per_camera.find(argmax.argmax_key);
    check_raw_values("Q6 argmax camera", {{argmax.argmax_key, argmax.raw}},
                     {{argmax.argmax_key, it == per_camera.end() ? -1 : it->second}});
  }
  double rows_per_round = 0;
  for (const engine::QueryResult& r : rounds[0]) {
    for (const auto& [table, rows] : r.table_rows) {
      rows_per_round += static_cast<double>(rows);
    }
  }

  Report report;
  report.attempted = log.query_s.size();
  report.failed = 0;
  report.note("threads: " + std::to_string(sys.threads()));
  if (!clock) {
    report_end_to_end(log, setup_s, &report);
    return report;
  }
  const double n = static_cast<double>(rounds.size());
  std::map<std::string, double> layers =
      batch_layers(*clock, sys, n, rows_per_round);
  layers["sim.porto_visits_ms"] = clock->total_ms(kPortoVisits) / n;
  report_layers(layers, &report);
  report.note("wall_s_traced: " + std::to_string(median(log.round_s)));
  return report;
}

}  // namespace perfbench
