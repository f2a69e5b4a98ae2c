// Named metrics and the small statistics the benchmark reports.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <algorithm>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

inline double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
