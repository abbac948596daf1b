#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <string>

#include "bench.h"

namespace perfbench {

RegistrySnapshot RegistrySnapshot::Take() {
  using Kind = schemr::MetricsRegistry::MetricKind;
  RegistrySnapshot snapshot;
  for (const schemr::MetricsRegistry::MetricSnapshot& metric :
       schemr::MetricsRegistry::Global().Collect()) {
    Values& values = snapshot.values_[metric.name];
    values.value = metric.kind == Kind::kGauge
                       ? metric.gauge_value
                       : static_cast<double>(metric.counter_value);
    values.sum = metric.histogram.sum;
    values.count = static_cast<double>(metric.histogram.count);
  }
  return snapshot;
}

void RegistrySnapshot::AddDelta(const RegistrySnapshot& earlier,
                                const RegistrySnapshot& later) {
  for (const auto& [name, after] : later.values_) {
    Values before;
    if (auto it = earlier.values_.find(name); it != earlier.values_.end()) {
      before = it->second;
    }
    Values& total = values_[name];
    total.value += after.value - before.value;
    total.sum += after.sum - before.sum;
    total.count += after.count - before.count;
  }
}

double RegistrySnapshot::Value(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

double RegistrySnapshot::HistogramSum(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.sum;
}

double RegistrySnapshot::HistogramCount(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.count;
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(position);
  if (below + 1 >= values.size()) return values.back();
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[below + 1] - values[below]);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return Ratio(sum, static_cast<double>(values.size()));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

std::string Format(const char* format, ...) {
  char line[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  return line;
}

int PrintReport(const RunResult& result, bool trace) {
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# failed_ratio %.6f (%llu failed of %llu attempted)\n",
              Ratio(static_cast<double>(result.failed),
                    static_cast<double>(result.attempted)),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  const std::vector<Metric>& metrics =
      trace ? result.per_layer : result.end_to_end;
  for (const Metric& metric : metrics) {
    std::printf("# %-28s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  // The workloads are sized so that nothing fails: a failed request is
  // an answer the run could not check, so it makes the run incorrect too.
  const bool correct = result.check_failures == 0 && result.failed == 0 &&
                       result.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
