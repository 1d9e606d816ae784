// RewindBench result lines: the load generator and the replay each print
// one `result {...}` line on stdout, which run.py parses. Metrics carry
// their unit so run.py never has to guess one.
#ifndef REWINDBENCH_REPORT_H_
#define REWINDBENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rwdbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t failed() const { return failed_; }

  /// Prints `result {"attempted":..,"failed":..,"metrics":{name:[v,unit]}}`.
  void Print() const {
    std::string out = "result {\"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) +
                      ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": [" + buf +
             ", \"" + metrics_[i].unit + "\"]";
    }
    out += "}}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Percentile (p in [0, 100]) of `v` by nearest rank; reorders `v`.
/// 0 when empty.
template <typename T>
double Percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

inline double Median(std::vector<double> v) { return Percentile(v, 50); }

}  // namespace rwdbench

#endif  // REWINDBENCH_REPORT_H_
