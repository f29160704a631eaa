#include "checks.hpp"

#include <cmath>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

bool close(double got, double want, double rel_tol) {
  if (rel_tol == 0) return got == want;
  return std::abs(got - want) <= rel_tol * std::max(1.0, std::abs(want));
}

}  // namespace

void check_raw_values(const std::string& what,
                      const std::vector<std::pair<std::string, double>>& got,
                      const std::map<std::string, double>& expected,
                      double rel_tol) {
  std::set<std::string> seen;
  for (const auto& [key, raw] : got) {
    auto it = expected.find(key);
    if (it == expected.end()) {
      throw CheckFailure(what + ": unexpected release for key '" + key + "'");
    }
    if (!seen.insert(key).second) {
      throw CheckFailure(what + ": key '" + key + "' released twice");
    }
    if (!close(raw, it->second, rel_tol)) {
      throw CheckFailure(what + ": key '" + key + "' released raw " +
                         num(raw) + ", recount gives " + num(it->second));
    }
  }
  if (seen.size() != expected.size()) {
    throw CheckFailure(what + ": " + std::to_string(seen.size()) +
                       " releases, recount expects " +
                       std::to_string(expected.size()));
  }
}

double count_sensitivity(int k, std::size_t max_rows, double rho,
                         double chunk_s) {
  const double spanned = 1 + std::ceil(rho / chunk_s - 1e-12);
  return static_cast<double>(k) * static_cast<double>(max_rows) * spanned;
}

void check_count_sensitivity(const std::string& what, double got, int k,
                             std::size_t max_rows, double rho,
                             double chunk_s) {
  const double want = count_sensitivity(k, max_rows, rho, chunk_s);
  if (got != want) {
    throw CheckFailure(what + ": COUNT sensitivity " + num(got) +
                       ", expected K*max_rows*(1+ceil(rho/c)) = " + num(want));
  }
}

void check_ledger_conserved(const std::string& camera, double epsilon_c,
                            double min_remaining, double charged_sum) {
  if (epsilon_c - min_remaining != charged_sum) {
    throw CheckFailure("ledger of '" + camera + "': eps_C - min remaining = " +
                       num(epsilon_c - min_remaining) +
                       ", benchmark charged " + num(charged_sum));
  }
}

void add_charge(FrameCharges* c, std::int64_t begin, std::int64_t end,
                double eps) {
  (*c)[begin] += eps;
  (*c)[end] -= eps;
}

std::string describe_charge_mismatch(const std::string& camera,
                                     std::int64_t frame, double got,
                                     double want) {
  return "ledger of '" + camera + "' at frame " + std::to_string(frame) +
         ": spent " + num(got) + ", admitted queries charged " + num(want);
}

void check_at_most_once(const std::map<std::string, std::uint64_t>& runs) {
  for (const auto& [key, n] : runs) {
    if (n > 1) {
      throw CheckFailure("chunk " + key + " computed " + std::to_string(n) +
                         " times");
    }
  }
}

}  // namespace perfbench
