#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three benchmark workloads. Each builds its inputs from the workload
// seed, sets up several times (reporting the median), runs one timed phase
// of about `seconds`, checks every output it produced, and fills a Report.
// Per-layer metrics are filled only when the global tracer is enabled.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool prepare = false;  // write the workload's inputs instead of running it
  std::string out_dir;  // checkpoints and trace files
};

struct Metric {
  double value = 0;
  std::string unit;
  bool set = false;
};

// A fixed, ordered table of metric names: every name is printed on every
// run of every workload, so Set() of an unknown name is a program bug.
class MetricTable {
 public:
  explicit MetricTable(const std::vector<std::pair<std::string, std::string>>&
                           names_and_units);
  void Set(const std::string& name, double value);
  // Names never Set() by the workload.
  std::vector<std::string> Unset() const;
  const std::vector<std::string>& order() const { return order_; }
  const Metric& at(const std::string& name) const { return metrics_.at(name); }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
};

struct Report {
  Report();
  MetricTable end_to_end;
  MetricTable per_layer;  // per-layer metrics a workload does not run stay 0
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;  // empty: every output check held

  // Records a failed output check (the run then exits non-zero).
  void Fail(const std::string& what);
};

Report RunImputeN325(const RunOptions& options);
// Trains and saves the weights RunServeN36 loads, in a process of its own.
Report PrepareServeN36(const RunOptions& options);
Report RunServeN36(const RunOptions& options);
Report RunTrainN36(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
