// The scenes and analyst executables the workloads register, and the
// benchmark's own recomputations of what they make the program release.
//
// Untraced runs register the library's executables (analyst/executables.*)
// behind a pass-through wrapper, which counts chunk runs where a check
// needs it. Traced runs register twins that take the same steps through
// the same public calls — ChunkView::detect_into, cv::Tracker::step,
// ChunkView::taxi_visits — with each call timed; the output checks run
// against recounts made with the library's own executables, so a twin
// that drifted from the original would fail them.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cv/detector.hpp"
#include "cv/tracker.hpp"
#include "engine/sandbox.hpp"
#include "harness.hpp"
#include "sim/porto.hpp"
#include "sim/scene.hpp"

namespace perfbench {

using privid::engine::Executable;

// The Case-1 scenes of the fig6 bench — campus, highway and urban with its
// arrival scales and detector settings — generated from `seeds`, recorded
// from 06:00 for `hours`.
struct Case1Scene {
  std::string name;
  std::shared_ptr<const privid::sim::Scene> scene;
  privid::cv::DetectorConfig det;
};
std::vector<Case1Scene> case1_scenes(const std::array<std::uint64_t, 3>& seeds,
                                     double hours);

// analyst::make_entering_counter with the fig6 tracker (SORT(20, 2, 0.1)),
// or its traced twin when `clock` is set.
Executable entering_counter(const privid::cv::DetectorConfig& det,
                            LayerClock* clock);
// analyst::make_taxi_reporter, or its traced twin when `clock` is set.
Executable taxi_reporter(LayerClock* clock);

// Counts how often each distinct chunk task reached the executable.
class ChunkRuns {
 public:
  void record(const privid::engine::ChunkView& view);
  std::map<std::string, std::uint64_t> snapshot() const;
  std::uint64_t total() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> runs_;
  std::uint64_t total_ = 0;
};

// Wraps `exe`: each call's duration is added to kBody when `clock` is set,
// and each call is recorded in `runs` when it is set.
Executable wrap_executable(Executable exe, LayerClock* clock, ChunkRuns* runs);

// ---------------------------------------------------------------- recounts

// Rows the sandbox keeps for each chunk of `window` split into `chunk_s`
// chunks, computed by running `exe` on directly built ChunkViews (no mask,
// no region) and cutting at `max_rows`. Indexed like make_chunks.
struct ChunkCount {
  double begin = 0;  // chunk start time, seconds
  std::size_t rows = 0;
};
std::vector<ChunkCount> recount_chunks(
    const privid::engine::CameraContent& content,
    const privid::VideoMeta& meta, privid::TimeInterval window, double chunk_s,
    std::size_t max_rows, const Executable& exe);

// One taxi-reporter row: the plate, the hour of day of the visit start and
// the start of the 60 s-grid chunk the visit starts in.
struct TaxiRow {
  std::string plate;
  double hod = 0;
  double chunk = 0;
};
// Mirror of PROCESS with the taxi reporter over [begin, end) in `chunk_s`
// chunks: one row per visit *starting* in a chunk, in start order, at most
// `max_rows` per chunk. Built from one PortoSynth::visits call per day
// and bucketed here.
std::vector<TaxiRow> porto_rows(const privid::sim::PortoSynth& porto,
                                int camera, double begin, double end,
                                double chunk_s, std::size_t max_rows);

// Q4 mirror: AVG over non-empty (plate, day) groups of the union of `a`
// and `b` of SPAN(hod) clamped to [0, 16].
double mirror_union_span(const std::vector<TaxiRow>& a,
                         const std::vector<TaxiRow>& b);
// Q5 mirror: (plate, day) pairs present in both `a` and `b`.
double mirror_join_pairs(const std::vector<TaxiRow>& a,
                         const std::vector<TaxiRow>& b);

}  // namespace perfbench
