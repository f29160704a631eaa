// service_mix: an open loop of Zipf-skewed analysts submits counting
// queries through QueryService at a fixed offered rate. The service runs a
// shared chunk cache, single-flight dedup and budget admission. Queries
// ask for the same 20 minutes of video from one camera of a fleet of 120
// (40 per scene): most ask a few popular cameras (Zipf popularity), which
// the warm-up in set-up has computed, and one slot in kFreshEvery asks a
// camera nobody has asked yet. So the timed phase mixes cache hits with
// new chunks that are computed and inserted, plus a ledger reservation per
// query, in a proportion that is the same in every run. A camera's
// entries share its scene with the other 39 cameras of that scene and
// differ in content seed (the detector's random tape), so a new camera
// costs about the same whichever one is drawn. Each query is timed from its due time to its
// release, so a stall counts against every query due behind it.
//
// The service computes on one thread (its dispatcher). With a pool, this
// host's scheduler sometimes stacked the pool's workers on the
// dispatcher's CPU for a whole run, so set-up and p99 came out 1x or 3x
// apart from run to run (CHANGES.md, FOUND).
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "common/rng.hpp"
#include "engine/privid.hpp"
#include "executables.hpp"
#include "obs/metrics.hpp"
#include "query/parser.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace privid;

namespace {

// Scenes from fixed seeds, as in cv_batch; --seed varies the cameras'
// content seeds, which cameras are popular, the order of the fresh ones
// and the schedule.
constexpr std::array<std::uint64_t, 3> kSceneSeeds = {621, 622, 623};
constexpr int kCamerasPerScene = 40;
constexpr double kSceneHours = 1.5;  // recordings run 06:00-07:30
constexpr double kBegin = 25200;     // every query asks for 07:00-07:20
constexpr double kWindowS = 1200;
constexpr double kChunk = 2;          // 600 chunk tasks per query
constexpr std::size_t kMaxRows = 5;
constexpr std::size_t kPopular = 30;  // cameras warmed in set-up
// One slot in kFreshEvery asks for a new window: 2% of the queries compute
// new chunks and they are the slowest, so p99 (ten queries above it in a
// 1000-query run) sits at about their median rather than at the edge
// between them and the cache hits.
constexpr std::size_t kFreshEvery = 50;
constexpr int kAnalysts = 8;
constexpr double kZipf = 1.0;         // skew of popularity and of analysts
constexpr double kRate = 50;          // offered queries per second
constexpr std::size_t kBlock = 100;   // queries per reported round
// How often the generator looks for settled queries. Latency is read at
// this resolution; polling every 20 us instead took enough CPU from the
// service to lengthen its cache-miss queries by more than half.
constexpr int kPollUs = 200;
constexpr double kEpsilonC = 1e6;

struct Camera {
  std::string id;
  std::shared_ptr<const sim::Scene> scene;
  cv::DetectorConfig det;
  std::uint64_t content_seed;
};

const TimeInterval kWindow{kBegin, kBegin + kWindowS};

std::vector<Camera> make_cameras(std::uint64_t seed) {
  std::vector<Camera> out;
  for (const Case1Scene& s : case1_scenes(kSceneSeeds, kSceneHours)) {
    for (int i = 0; i < kCamerasPerScene; ++i) {
      out.push_back({s.name + "_" + std::to_string(i), s.scene, s.det,
                     seed_mix(seed, 1000 + out.size())});
    }
  }
  return out;
}

std::string query_text(const Camera& cam) {
  auto num = [](double v) { return std::to_string(static_cast<long long>(v)); };
  return "SPLIT " + cam.id + " BEGIN " + num(kWindow.begin) + " END " +
         num(kWindow.end) + " BY TIME " + num(kChunk) + " STRIDE 0 INTO c;"
         "PROCESS c USING count_" + cam.id + " TIMEOUT 1 PRODUCING " +
         std::to_string(kMaxRows) +
         " ROWS WITH SCHEMA (entered:NUMBER=0) INTO t;"
         "SELECT COUNT(*) FROM t;";
}

// Inverse-CDF sampler over ranks 0..n-1 with weight 1 / (rank + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t draw(Rng& rng) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Scheduled {
  std::size_t entry;
  int analyst;
};

// Popular cameras are catalogue[0, kPopular); fresh ones follow in order.
// A run longer than the fresh supply lasts (90 s at the defaults) asks
// only popular cameras once it runs out.
std::vector<Scheduled> make_schedule(std::size_t n, std::size_t catalogue,
                                     Rng& rng) {
  const Zipf popular(kPopular, kZipf);
  const Zipf analysts(kAnalysts, kZipf);
  std::vector<Scheduled> out;
  std::size_t next_fresh = kPopular;
  while (out.size() < n) {
    const int analyst = static_cast<int>(analysts.draw(rng));
    if (out.size() % kFreshEvery == kFreshEvery / 2 && next_fresh < catalogue) {
      out.push_back({next_fresh++, analyst});
    } else {
      out.push_back({popular.draw(rng), analyst});
    }
  }
  return out;
}

// Restricts the calling thread (and threads it starts later) to CPUs
// [first, last].
void run_on_cpus(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

bool settled(service::QueryState s) {
  return s == service::QueryState::kDone ||
         s == service::QueryState::kFailed ||
         s == service::QueryState::kCancelled;
}

}  // namespace

Report run_service_mix(const Args& args, Clock::time_point start) {
  LayerClock layer_clock;
  LayerClock* clock = args.trace ? &layer_clock : nullptr;

  // ---- set-up: scenes, cameras, executables, service, catalogue, warm-up
  const std::vector<Camera> cams = make_cameras(args.seed);
  engine::Privid sys(seed_mix(args.seed, 97));
  ChunkRuns chunk_runs;
  for (const Camera& c : cams) {
    c.scene->candidates_at(kBegin);  // builds the scene's lazy index
    engine::CameraRegistration reg;
    reg.meta = c.scene->meta();
    reg.meta.camera_id = c.id;
    reg.content.scene = c.scene;
    reg.content.seed = c.content_seed;
    reg.policy = {20.0, 2};
    reg.epsilon_budget = kEpsilonC;
    sys.register_camera(std::move(reg));
    sys.register_executable(
        "count_" + c.id,
        wrap_executable(entering_counter(c.det, clock), clock, &chunk_runs));
  }
  // Large enough that nothing is evicted: every chunk computes once.
  sys.chunk_cache().set_byte_budget(std::size_t{1} << 30);
  service::QueryService::Config cfg;
  cfg.num_threads = 1;  // the generator is the only other thread
  cfg.cache = engine::CacheMode::kShared;
  cfg.noise_seed = seed_mix(args.seed, 96);
  // The load generator and the service each get a CPU of their own: the
  // service is created (and its dispatcher started) while this thread may
  // use only the second-to-last CPU, then this thread moves to the last.
  // Left to the kernel, the two sometimes shared a CPU, and p50 came out
  // 0.7 or 1.1 ms from run to run depending on where they had landed.
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus > 1) run_on_cpus(cpus - 2, cpus - 2);
  service::QueryService& svc = sys.configure_service(cfg);
  if (cpus > 1) run_on_cpus(cpus - 1, cpus - 1);

  // The catalogue: camera indices in popularity order.
  std::vector<int> catalogue(cams.size());
  for (std::size_t c = 0; c < cams.size(); ++c) catalogue[c] = static_cast<int>(c);
  Rng rng(seed_mix(args.seed, 6));
  for (std::size_t i = catalogue.size() - 1; i > 0; --i) {
    std::swap(catalogue[i],
              catalogue[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  std::vector<std::string> texts;
  for (int c : catalogue) texts.push_back(query_text(cams[c]));
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(kRate * args.seconds / kBlock))) *
      kBlock;
  const std::vector<Scheduled> schedule =
      make_schedule(n, catalogue.size(), rng);

  engine::RunOptions opts;
  opts.reveal_raw = true;
  std::map<std::string, FrameCharges> expected_charges;
  auto admitted = [&](std::size_t entry) {
    const Camera& cam = cams[catalogue[entry]];
    const VideoMeta& meta = cam.scene->meta();
    add_charge(&expected_charges[cam.id], meta.frame_at(kWindow.begin),
               meta.frame_at(kWindow.end), 1.0);
  };
  struct Done {
    std::size_t entry;
    double raw;
  };
  std::vector<Done> completed;

  std::vector<service::QueryTicket> warm_tickets;
  for (std::size_t i = 0; i < kPopular; ++i) {
    warm_tickets.push_back(svc.submit("warmup", texts[i], opts));
    admitted(i);
  }
  for (std::size_t i = 0; i < kPopular; ++i) {
    completed.push_back({i, svc.wait(warm_tickets[i]).releases.at(0).raw});
  }
  const double setup_s = seconds_since(start);

  // ---- timed phase: open loop at kRate from one generator thread
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // wake on time, not 50 us late
  const obs::Snapshot before = obs::Registry::global().snapshot();
  const std::uint64_t runs_before = chunk_runs.total();
  layer_clock.reset();  // the service is idle: every warm-up query settled
  double rows = 0;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    1e9 * static_cast<double>(i) / kRate));
  };
  std::vector<double> late_ms(n);
  std::vector<Clock::time_point> released(n);
  struct Pending {
    std::size_t i;
    service::QueryTicket ticket;
  };
  std::vector<Pending> pending;
  std::uint64_t failed = 0;
  std::size_t next = 0;
  while (next < n || !pending.empty()) {
    Clock::time_point now = Clock::now();
    if (next < n && now >= due(next)) {
      late_ms[next] = std::chrono::duration<double, std::milli>(now - due(next)).count();
      const std::size_t entry = schedule[next].entry;
      query::ParsedQuery q =
          timed(clock, kParse, [&] { return query::parse_query(texts[entry]); });
      if (clock) timed(clock, kPlan, [&] { return sys.plan(q, opts); });
      try {
        service::QueryTicket t = timed(clock, kSubmit, [&] {
          return svc.submit("analyst" + std::to_string(schedule[next].analyst),
                            std::move(q), opts);
        });
        admitted(entry);
        pending.push_back({next, std::move(t)});
      } catch (const std::exception& e) {
        std::printf("submit failed: %s\n", e.what());
        ++failed;
        released[next] = Clock::now();
      }
      ++next;
      continue;  // catch up on every due submission before polling
    }
    bool progressed = false;
    for (std::size_t k = 0; k < pending.size();) {
      if (!settled(svc.poll(pending[k].ticket))) {
        ++k;
        continue;
      }
      const std::size_t i = pending[k].i;
      released[i] = Clock::now();
      try {
        const engine::QueryResult r = svc.wait(pending[k].ticket);
        completed.push_back({schedule[i].entry, r.releases.at(0).raw});
        for (const auto& [table, n_rows] : r.table_rows) {
          rows += static_cast<double>(n_rows);
        }
      } catch (const std::exception& e) {
        std::printf("query failed: %s\n", e.what());
        ++failed;
      }
      pending[k] = std::move(pending.back());
      pending.pop_back();
      progressed = true;
    }
    if (!progressed) {
      now = Clock::now();
      Clock::time_point wake = now + std::chrono::microseconds(kPollUs);
      if (next < n) wake = std::min(wake, due(next));
      if (wake > now) std::this_thread::sleep_until(wake);
    }
  }
  const double timed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  const obs::Snapshot after = obs::Registry::global().snapshot();

  RoundLog log;
  const double blocks = static_cast<double>(n / kBlock);
  for (std::size_t i = 0; i < n; ++i) {
    log.query_s.push_back(
        std::chrono::duration<double>(released[i] - due(i)).count());
  }
  const VideoMeta& meta = cams[0].scene->meta();  // every camera runs 10 fps
  log.frames_per_round = kBlock * kWindowS * meta.fps;
  log.tasks_per_round = kBlock * kWindowS / kChunk;
  for (std::size_t b = 0; b + kBlock <= n; b += kBlock) {
    Clock::time_point last = released[b];
    for (std::size_t i = b; i < b + kBlock; ++i) last = std::max(last, released[i]);
    log.round_s.push_back(std::chrono::duration<double>(last - due(b)).count());
  }

  // ---- checks: raws against a recount per distinct camera, per-frame
  // ledger charges against the sum over admitted queries, and no chunk
  // computed twice.
  std::map<std::size_t, double> recount;
  for (const Done& d : completed) {
    const Camera& cam = cams[catalogue[d.entry]];
    auto it = recount.find(d.entry);
    if (it == recount.end()) {
      engine::CameraContent content;
      content.scene = cam.scene;
      content.seed = cam.content_seed;
      double total = 0;
      for (const ChunkCount& cc : recount_chunks(
               content, cam.scene->meta(), kWindow, kChunk, kMaxRows,
               entering_counter(cam.det, nullptr))) {
        total += static_cast<double>(cc.rows);
      }
      it = recount.emplace(d.entry, total).first;
    }
    check_raw_values(cam.id, {{"", d.raw}}, {{"", it->second}});
  }
  for (const Camera& cam : cams) {
    check_frame_charges(cam.id, expected_charges[cam.id],
                        [&](std::int64_t f) {
                          return kEpsilonC - sys.remaining_budget(cam.id, f);
                        });
  }
  check_at_most_once(chunk_runs.snapshot());

  auto counter = [&](const char* name) {
    return static_cast<double>(after.counter_value(name) -
                               before.counter_value(name));
  };
  const double hits = counter("cache.hits");
  const double misses = counter("cache.misses");
  Report report;
  report.attempted = n;
  report.failed = failed;
  report.note("threads: 1 generator + " + std::to_string(cfg.num_threads) +
              " service");
  report.note("offered_rate_qps: " + std::to_string(kRate));
  report.note("timed_s: " + std::to_string(timed_s));
  report.note("chunk_hit_share: " + std::to_string(hits / std::max(1.0, hits + misses)));
  report.note("cameras_asked: " + std::to_string(recount.size()));
  if (!clock) {
    report_end_to_end(log, setup_s, &report);
    return report;
  }
  auto hist = [&](const char* name, bool count) {
    const obs::Snapshot::HistogramRow* a = after.histogram_row(name);
    const obs::Snapshot::HistogramRow* b = before.histogram_row(name);
    if (count) return static_cast<double>((a ? a->count : 0) - (b ? b->count : 0));
    return (a ? a->total_ms : 0.0) - (b ? b->total_ms : 0.0);
  };
  // Inside the service the engine layers are not reachable from outside;
  // their times come from the histograms the library already exports.
  const double run_task = hist("task.process", false);
  const double body = clock->total_ms(kBody);
  std::map<std::string, double> layers = {
      {"cv.detect_ms", clock->total_ms(kDetect) / blocks},
      {"cv.track_ms", clock->total_ms(kTrack) / blocks},
      {"sandbox.body_ms", body / blocks},
      {"engine.run_task_ms", run_task / blocks},
      {"engine.tasks", hist("task.process", true) / blocks},
      {"engine.task_overhead_ms", (run_task - body) / blocks},
      {"pool.busy_share",
       run_task / (static_cast<double>(cfg.num_threads) * timed_s * 1e3)},
      {"engine.assemble_ms", hist("query.assemble", false) / blocks},
      {"engine.finish_ms", hist("query.finish", false) / blocks},
      {"table.rows_assembled", rows / blocks},
      {"query.parse_ms", clock->total_ms(kParse) / blocks},
      {"engine.plan_ms", clock->total_ms(kPlan) / blocks},
      {"service.submit_ms", clock->total_ms(kSubmit) / blocks},
      {"sched.rounds", counter("sched.rounds") / blocks},
      {"sched.queue_wait_ms", hist("sched.queue_wait", false) /
                                  std::max(1.0, hist("sched.queue_wait", true))},
      {"cache.hits", hits / blocks},
      {"cache.misses", misses / blocks},
      {"cache.hit_ratio", hits / std::max(1.0, hits + misses)},
      {"cache.bytes", static_cast<double>(after.gauge_value("cache.bytes"))},
      {"dedup.leaders", counter("dedup.leaders") / blocks},
      {"dedup.followers", counter("dedup.followers") / blocks},
      {"dedup.wait_ms", hist("dedup.wait", false) / blocks},
      {"sandbox.invocations",
       static_cast<double>(chunk_runs.total() - runs_before) / blocks},
      {"gen.late_ms", quantile(late_ms, 0.99)},
  };
  report_layers(layers, &report);
  report.note("wall_s_traced: " + std::to_string(median(log.round_s)));
  report.note("query_p50_s_traced: " + std::to_string(quantile(log.query_s, 0.5)));
  report.note("query_p99_s_traced: " + std::to_string(quantile(log.query_s, 0.99)));
  return report;
}

}  // namespace perfbench
