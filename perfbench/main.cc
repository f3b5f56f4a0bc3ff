// pristi_perfbench: runs one benchmark workload in-process and prints its
// metrics. Usage:
//
//   pristi_perfbench --workload <impute-n325|serve-n36|train-n36>
//                    --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//   pristi_perfbench --workload serve-n36 --prepare 1 --out-dir <dir>
//
// --prepare 1 writes what a workload loads in its set-up (serve-n36's
// trained checkpoint) into <out-dir> and prints no result; it runs in a
// process of its own so that the measured process's memory high-water mark
// covers only set-up and the timed phase.
//
// Report lines start with '#'. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when --trace 0, the per-layer metrics when --trace 1. A traced run
// also writes its spans to <out-dir>/trace-<workload>-seed<n>.json. The exit
// code is 0 only when every output check held.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parallel.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "pristi_perfbench: %s\nusage: pristi_perfbench --workload "
               "<impute-n325|serve-n36|train-n36> --seed <n> --seconds <s> "
               "--trace <0|1> --out-dir <dir> [--prepare 1]\n",
               why);
  return 2;
}

void PrintJson(const perfbench::Report& report,
               const perfbench::MetricTable& table) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.check_failures.empty() ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  const char* sep = "";
  for (const std::string& name : table.order()) {
    const perfbench::Metric& m = table.at(name);
    if (std::isfinite(m.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}", sep,
                  name.c_str(), m.unit.c_str());
    }
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::NowNanos();  // process-start origin for setup and spans
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--prepare") {
      options.prepare = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags come in --name value pairs");
  if (options.workload.empty()) return Usage("--workload is required");
  if (options.out_dir.empty()) return Usage("--out-dir is required");
  if (options.prepare) {
    if (options.workload != "serve-n36") {
      return Usage("only serve-n36 has a preparation step");
    }
    return perfbench::PrepareServeN36(options).check_failures.empty() ? 0 : 1;
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::GlobalTracer().set_enabled(options.trace);
  perfbench::Report report;
  if (options.workload == "impute-n325") {
    report = perfbench::RunImputeN325(options);
  } else if (options.workload == "serve-n36") {
    report = perfbench::RunServeN36(options);
  } else if (options.workload == "train-n36") {
    report = perfbench::RunTrainN36(options);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d threads=%lld\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0,
              static_cast<long long>(pristi::ParallelThreadCount()));

  for (const std::string& name : report.end_to_end.order()) {
    const perfbench::Metric& m = report.end_to_end.at(name);
    std::printf("# end_to_end %s = %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& name : report.end_to_end.Unset()) {
    report.Fail("end-to-end metric " + name + " was not measured");
  }
  for (const std::string& name : report.end_to_end.order()) {
    // More than half of phase A failing makes its p50 infinite.
    if (!std::isfinite(report.end_to_end.at(name).value)) {
      report.Fail("end-to-end metric " + name + " is not finite");
    }
  }
  if (options.trace) {
    for (const std::string& name : report.per_layer.order()) {
      const perfbench::Metric& m = report.per_layer.at(name);
      std::printf("# per_layer %s = %.6g %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string path = options.out_dir + "/trace-" + options.workload +
                       "-seed" + std::to_string(options.seed) + ".json";
    if (!perfbench::GlobalTracer().WriteJson(path)) {
      report.Fail("cannot write " + path);
    } else {
      std::printf("# spans written to %s\n", path.c_str());
    }
  }
  std::printf("# attempted=%lld failed=%lld checks_failed=%zu\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              report.check_failures.size());
  PrintJson(report, options.trace ? report.per_layer : report.end_to_end);
  std::fflush(stdout);
  return report.check_failures.empty() ? 0 : 1;
}
