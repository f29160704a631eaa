// The checks' own tests: every check passes on a right result and fails on
// a deliberately wrong one — a release off by one, a ledger short by one ε,
// a chunk computed twice — both on hand-made values and on results the
// library really produced.
//
//   check_test            (exit 0 when every case behaves)
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "analyst/executables.hpp"
#include "checks.hpp"
#include "engine/privid.hpp"
#include "executables.hpp"
#include "sim/scenarios.hpp"

using namespace perfbench;
using namespace privid;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void passes(const std::string& what, const std::function<void()>& fn) {
  try {
    fn();
    expect(true, what + " passes");
  } catch (const CheckFailure& e) {
    expect(false, what + " passes (threw: " + e.what() + ")");
  }
}

void fails(const std::string& what, const std::function<void()>& fn) {
  try {
    fn();
    expect(false, what + " fails (it passed)");
  } catch (const CheckFailure&) {
    expect(true, what + " fails");
  }
}

void raw_values() {
  const std::map<std::string, double> want = {{"6", 12}, {"7", 30}};
  passes("raw values", [&] { check_raw_values("q", {{"6", 12}, {"7", 30}}, want); });
  fails("release off by one",
        [&] { check_raw_values("q", {{"6", 13}, {"7", 30}}, want); });
  fails("release missing", [&] { check_raw_values("q", {{"6", 12}}, want); });
  fails("release for an unknown key", [&] {
    check_raw_values("q", {{"6", 12}, {"7", 30}, {"8", 0}}, want);
  });
  fails("key released twice", [&] {
    check_raw_values("q", {{"6", 12}, {"6", 12}, {"7", 30}}, want);
  });
  passes("average within tolerance",
         [&] { check_raw_values("q", {{"", 1.0 + 1e-13}}, {{"", 1.0}}, 1e-9); });
  fails("average off by 1e-6",
        [&] { check_raw_values("q", {{"", 1.0 + 1e-6}}, {{"", 1.0}}, 1e-9); });
}

void sensitivities() {
  // K = 2, max_rows = 5, rho = 17 s over 10 s chunks: 2 * 5 * (1 + 2).
  expect(count_sensitivity(2, 5, 17, 10) == 30, "K*max_rows*(1+ceil(rho/c))");
  passes("COUNT sensitivity", [] { check_count_sensitivity("q", 30, 2, 5, 17, 10); });
  fails("COUNT sensitivity off by one chunk",
        [] { check_count_sensitivity("q", 20, 2, 5, 17, 10); });
}

void ledgers() {
  passes("ledger conserves eps",
         [] { check_ledger_conserved("cam", 100, 85, 15); });
  fails("ledger short by one eps",
        [] { check_ledger_conserved("cam", 100, 86, 15); });

  FrameCharges want;
  add_charge(&want, 10, 20, 1);
  add_charge(&want, 15, 30, 1);
  auto truth = [](std::int64_t f) {
    return (f >= 10 && f < 20 ? 1.0 : 0.0) + (f >= 15 && f < 30 ? 1.0 : 0.0);
  };
  passes("per-frame charges", [&] { check_frame_charges("cam", want, truth); });
  fails("per-frame charge missing one eps", [&] {
    check_frame_charges("cam", want, [&](std::int64_t f) {
      return truth(f) - (f == 15 ? 1.0 : 0.0);
    });
  });
  fails("charge running one frame long", [&] {
    check_frame_charges("cam", want, [&](std::int64_t f) {
      return truth(f) + (f == 30 ? 1.0 : 0.0);
    });
  });
}

void at_most_once() {
  passes("each chunk once", [] { check_at_most_once({{"a", 1}, {"b", 1}}); });
  fails("chunk computed twice", [] { check_at_most_once({{"a", 1}, {"b", 2}}); });
}

void mirrors() {
  // Plate X on day 0 at 08h and 20h (span 12), plate Y on day 0 once
  // (span 0), plate X on day 1 at 01h and 19h (span 18, clamped to 16).
  const std::vector<TaxiRow> a = {{"X", 8, 0}, {"Y", 3, 60}, {"X", 1, 86400}};
  const std::vector<TaxiRow> b = {{"X", 20, 120}, {"X", 19, 86460}};
  expect(mirror_union_span(a, b) == (12.0 + 0.0 + 16.0) / 3,
         "union span mirror");
  expect(mirror_join_pairs(a, b) == 2, "join pair mirror");  // (X,0), (X,1)
  expect(mirror_join_pairs(a, {{"Y", 5, 86400}}) == 0,
         "join pair mirror needs the same day");
}

// A real release and a real ledger from the library.
void real_release() {
  auto scenario = sim::make_campus(7, 0.1, 0.5);
  auto scene = std::make_shared<const sim::Scene>(std::move(scenario.scene));
  cv::DetectorConfig det;
  const cv::TrackerConfig trk = cv::TrackerConfig::sort(20, 2, 0.1);
  engine::CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 5;
  reg.policy = {17.0, 2};
  reg.epsilon_budget = 100;
  const engine::CameraContent content = reg.content;
  engine::Privid sys(3);
  sys.register_camera(std::move(reg));
  engine::Executable exe =
      analyst::make_entering_counter(det, trk, sim::EntityClass::kPerson);
  sys.register_executable("count", exe);
  engine::RunOptions opts;
  opts.reveal_raw = true;
  opts.cache = engine::CacheMode::kOff;
  const TimeInterval w{21600, 21900};
  const engine::QueryResult r = sys.execute(
      "SPLIT campus BEGIN 21600 END 21900 BY TIME 30 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (entered:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t GROUP BY hour(chunk);",
      opts);
  std::map<std::string, double> want;
  for (const ChunkCount& c :
       recount_chunks(content, scene->meta(), w, 30, 3, exe)) {
    if (c.rows > 0) {
      want[Value(std::floor(c.begin / 3600)).to_string()] +=
          static_cast<double>(c.rows);
    }
  }
  std::vector<std::pair<std::string, double>> got, off_by_one;
  for (const engine::Release& rel : r.releases) {
    got.push_back({rel.group_key.at(0).to_string(), rel.raw});
    off_by_one.push_back({rel.group_key.at(0).to_string(), rel.raw + 1});
  }
  expect(!got.empty() && want.begin()->second > 0, "real query counts entries");
  passes("real release vs recount", [&] { check_raw_values("real", got, want); });
  fails("real release off by one",
        [&] { check_raw_values("real", off_by_one, want); });
  passes("real COUNT sensitivity", [&] {
    check_count_sensitivity("real", r.releases.at(0).sensitivity, 2, 3, 17, 30);
  });
  const double left = sys.min_remaining_budget("campus", w);
  passes("real ledger", [&] { check_ledger_conserved("campus", 100, left, 1); });
  fails("real ledger short by one eps",
        [&] { check_ledger_conserved("campus", 100, left, 0); });
}

// The same query twice through the service: with the shared cache every
// chunk computes once; with the cache off the second query recomputes
// them, which the at-most-once check must catch.
void real_recompute(engine::CacheMode mode, bool expect_pass) {
  auto scenario = sim::make_urban(9, 0.1, 0.2);
  auto scene = std::make_shared<const sim::Scene>(std::move(scenario.scene));
  engine::Privid sys(4);
  engine::CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 6;
  reg.policy = {20.0, 2};
  reg.epsilon_budget = 100;
  sys.register_camera(std::move(reg));
  ChunkRuns runs;
  sys.register_executable(
      "count",
      wrap_executable(analyst::make_entering_counter(
                          {}, cv::TrackerConfig::sort(20, 2, 0.1),
                          sim::EntityClass::kPerson),
                      nullptr, &runs));
  service::QueryService::Config cfg;
  cfg.num_threads = 1;
  cfg.cache = mode;
  service::QueryService& svc = sys.configure_service(cfg);
  const std::string q =
      "SPLIT urban BEGIN 21600 END 21660 BY TIME 10 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 5 ROWS "
      "WITH SCHEMA (entered:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;";
  svc.wait(svc.submit("a", q));
  svc.wait(svc.submit("b", q));
  const std::string what = std::string("same query twice, cache ") +
                           (mode == engine::CacheMode::kOff ? "off" : "shared");
  if (expect_pass) {
    passes(what, [&] { check_at_most_once(runs.snapshot()); });
  } else {
    fails(what + " (chunk computed twice)",
          [&] { check_at_most_once(runs.snapshot()); });
  }
}

}  // namespace

int main() {
  raw_values();
  sensitivities();
  ledgers();
  at_most_once();
  mirrors();
  real_release();
  real_recompute(engine::CacheMode::kShared, true);
  real_recompute(engine::CacheMode::kOff, false);
  std::printf("%s\n", failures == 0 ? "all checks behave" : "CHECK TESTS FAILED");
  return failures == 0 ? 0 : 1;
}
