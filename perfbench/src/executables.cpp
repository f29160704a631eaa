#include "executables.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "analyst/executables.hpp"
#include "sim/scenarios.hpp"
#include "video/chunker.hpp"

namespace perfbench {

using privid::Seconds;
using privid::Value;
using privid::engine::ChunkView;
using privid::engine::ExecOutput;

namespace {

const privid::cv::TrackerConfig kTracker =
    privid::cv::TrackerConfig::sort(20, 2, 0.1);

Executable traced_entering_counter(privid::cv::DetectorConfig det,
                                   privid::cv::TrackerConfig trk,
                                   LayerClock* clock) {
  return [det, trk, clock](const ChunkView& view) {
    ExecOutput out;
    privid::cv::Tracker tracker(trk);
    std::uint64_t detect_ns = 0, track_ns = 0, frames = 0;
    view.for_each_frame([&](Seconds t) {
      const Clock::time_point t0 = Clock::now();
      const privid::cv::DetectionBatch& dets = view.detect_into(det, t);
      const Clock::time_point t1 = Clock::now();
      tracker.step(t, dets);
      detect_ns += ns_between(t0, t1);
      track_ns += ns_since(t1);
      ++frames;
    });
    const Clock::time_point t2 = Clock::now();
    std::vector<privid::cv::TrackRecord> tracks = tracker.take_tracks();
    track_ns += ns_since(t2);
    clock->add(kDetect, detect_ns, frames);
    clock->add(kTrack, track_ns, frames);
    // The library's entering convention: first sighting after the chunk's
    // opening grace period.
    const Seconds grace = std::min(1.0, view.time().duration() / 4);
    for (const auto& rec : tracks) {
      if (rec.first_seen > view.time().begin + grace) {
        out.rows.push_back({Value(1.0)});
      }
    }
    out.simulated_runtime = 0.5;
    return out;
  };
}

Executable traced_taxi_reporter(LayerClock* clock) {
  return [clock](const ChunkView& view) {
    ExecOutput out;
    const Clock::time_point t0 = Clock::now();
    std::vector<privid::sim::TaxiVisit> visits = view.taxi_visits();
    clock->add(kPortoVisits, ns_since(t0));
    for (const auto& v : visits) {
      double hod = std::fmod(v.start, 86400.0) / 3600.0;
      out.rows.push_back(
          {Value(privid::sim::PortoSynth::plate_of(v.taxi_id)), Value(hod)});
    }
    out.simulated_runtime = 0.1;
    return out;
  };
}

}  // namespace

std::vector<Case1Scene> case1_scenes(const std::array<std::uint64_t, 3>& seeds,
                                     double hours) {
  auto scene = [](privid::sim::Scenario s) {
    return std::make_shared<const privid::sim::Scene>(std::move(s.scene));
  };
  privid::cv::DetectorConfig campus, highway, urban;
  campus.base_detect_prob = 0.8;
  highway.base_detect_prob = 0.92;
  highway.size_exponent = 0.2;
  urban.base_detect_prob = 0.6;
  return {
      {"campus", scene(privid::sim::make_campus(seeds[0], hours, 0.5)), campus},
      {"highway", scene(privid::sim::make_highway(seeds[1], hours, 0.2)),
       highway},
      {"urban", scene(privid::sim::make_urban(seeds[2], hours, 0.2)), urban},
  };
}

Executable entering_counter(const privid::cv::DetectorConfig& det,
                            LayerClock* clock) {
  if (clock != nullptr) return traced_entering_counter(det, kTracker, clock);
  return privid::analyst::make_entering_counter(
      det, kTracker, privid::sim::EntityClass::kPerson);
}

Executable taxi_reporter(LayerClock* clock) {
  if (clock != nullptr) return traced_taxi_reporter(clock);
  return privid::analyst::make_taxi_reporter();
}

void ChunkRuns::record(const ChunkView& view) {
  // Cache and single-flight keys fold in the chunk's index within its
  // window as well as its time, so the pair names one distinct task.
  std::string key = view.video().camera_id + "@" +
                    std::to_string(view.chunk_index()) + "@" +
                    std::to_string(view.time().begin);
  std::lock_guard<std::mutex> lock(mu_);
  ++runs_[key];
  ++total_;
}

std::map<std::string, std::uint64_t> ChunkRuns::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_;
}

std::uint64_t ChunkRuns::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

Executable wrap_executable(Executable exe, LayerClock* clock,
                           ChunkRuns* runs) {
  return [exe = std::move(exe), clock, runs](const ChunkView& view) {
    if (runs != nullptr) runs->record(view);
    return timed(clock, kBody, [&] { return exe(view); });
  };
}

std::vector<ChunkCount> recount_chunks(
    const privid::engine::CameraContent& content,
    const privid::VideoMeta& meta, privid::TimeInterval window, double chunk_s,
    std::size_t max_rows, const Executable& exe) {
  std::vector<ChunkCount> out;
  for (const privid::Chunk& c :
       privid::make_chunks(meta, window, privid::ChunkSpec{chunk_s, 0})) {
    ChunkView view(&content, &meta, c.index, c.time, c.frames, nullptr,
                   nullptr);
    out.push_back({c.time.begin, std::min(exe(view).rows.size(), max_rows)});
  }
  return out;
}

std::vector<TaxiRow> porto_rows(const privid::sim::PortoSynth& porto,
                                int camera, double begin, double end,
                                double chunk_s, std::size_t max_rows) {
  std::vector<TaxiRow> out;
  double current = -1;
  std::size_t in_chunk = 0;
  // One call per day, not one over the whole window: visits() omits a
  // visit from a shift that runs past midnight whenever the interval
  // starts after midnight, so a whole-window call returns visits that no
  // chunk of the window ever sees (CHANGES.md, FOUND).
  for (double day = std::floor(begin / 86400.0) * 86400.0; day < end;
       day += 86400.0) {
    for (const auto& v : porto.visits(
             camera, {std::max(begin, day), std::min(end, day + 86400.0)})) {
      const double chunk =
          begin + std::floor((v.start - begin) / chunk_s) * chunk_s;
      if (chunk != current) {
        current = chunk;
        in_chunk = 0;
      }
      if (in_chunk++ >= max_rows) continue;
      out.push_back({privid::sim::PortoSynth::plate_of(v.taxi_id),
                     std::fmod(v.start, 86400.0) / 3600.0, chunk});
    }
  }
  return out;
}

namespace {

using PlateDay = std::pair<std::string, double>;

PlateDay plate_day(const TaxiRow& r) {
  return {r.plate, std::floor(r.chunk / 86400.0)};
}

}  // namespace

double mirror_union_span(const std::vector<TaxiRow>& a,
                         const std::vector<TaxiRow>& b) {
  std::map<PlateDay, std::pair<double, double>> range;  // min, max hod
  for (const auto* rows : {&a, &b}) {
    for (const TaxiRow& r : *rows) {
      auto [it, fresh] = range.try_emplace(plate_day(r), r.hod, r.hod);
      if (!fresh) {
        it->second.first = std::min(it->second.first, r.hod);
        it->second.second = std::max(it->second.second, r.hod);
      }
    }
  }
  if (range.empty()) return 0;
  double sum = 0;
  for (const auto& [key, mm] : range) {
    sum += std::clamp(mm.second - mm.first, 0.0, 16.0);
  }
  return sum / static_cast<double>(range.size());
}

double mirror_join_pairs(const std::vector<TaxiRow>& a,
                         const std::vector<TaxiRow>& b) {
  std::set<PlateDay> in_a;
  for (const TaxiRow& r : a) in_a.insert(plate_day(r));
  std::set<PlateDay> both;
  for (const TaxiRow& r : b) {
    if (in_a.count(plate_day(r))) both.insert(plate_day(r));
  }
  return static_cast<double>(both.size());
}

}  // namespace perfbench
