// Output checks. Each compares what the program produced with a value the
// benchmark computed on its own (a direct recount, a mirror of the query
// over the raw simulator output, or a sum kept by the benchmark), and
// throws CheckFailure naming the first disagreement. They are plain
// functions of plain values so check_test.cpp can feed each one a wrong
// result and see it fail.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

// Every released raw value equals the expected value for its key, and
// every expected key was released exactly once. `rel_tol` 0 demands exact
// equality (counts); averages allow for summation order.
void check_raw_values(const std::string& what,
                      const std::vector<std::pair<std::string, double>>& got,
                      const std::map<std::string, double>& expected,
                      double rel_tol = 0);

// A COUNT release's sensitivity is K * max_rows * (1 + ceil(rho / chunk))
// (one event spans at most that many chunks, each contributing at most
// max_rows rows, for each of K appearances).
double count_sensitivity(int k, std::size_t max_rows, double rho,
                         double chunk_s);
void check_count_sensitivity(const std::string& what, double got, int k,
                             std::size_t max_rows, double rho,
                             double chunk_s);

// ε is conserved on a camera whose queries all cover the same frames:
// ε_C minus the minimum remaining budget equals the sum of the charges the
// benchmark recorded.
void check_ledger_conserved(const std::string& camera, double epsilon_c,
                            double min_remaining, double charged_sum);

// Per-frame charges as a difference map: the charge at frame f is the sum
// of the values at keys <= f.
using FrameCharges = std::map<std::int64_t, double>;
// Adds `eps` over frames [begin, end).
void add_charge(FrameCharges* c, std::int64_t begin, std::int64_t end,
                double eps);
// The ledger's spent budget (ε_C - remaining) at every frame where the
// expected charge changes, and the frame before it, matches the expected
// sum. `spent` reads the ledger at one frame.
template <typename SpentFn>
void check_frame_charges(const std::string& camera, const FrameCharges& exp,
                         SpentFn&& spent);

// No chunk was computed twice: every key was run at most once.
void check_at_most_once(const std::map<std::string, std::uint64_t>& runs);

// ------------------------------------------------------------- inline

std::string describe_charge_mismatch(const std::string& camera,
                                     std::int64_t frame, double got,
                                     double want);

template <typename SpentFn>
void check_frame_charges(const std::string& camera, const FrameCharges& exp,
                         SpentFn&& spent) {
  double running = 0;
  for (const auto& [frame, delta] : exp) {
    const double before = running;
    running += delta;
    for (auto [f, want] : {std::pair{frame - 1, before},
                           std::pair{frame, running}}) {
      if (f < 0) continue;
      const double got = spent(f);
      if (got != want) {
        throw CheckFailure(describe_charge_mismatch(camera, f, got, want));
      }
    }
  }
}

}  // namespace perfbench
