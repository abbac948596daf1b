// schemr_perfbench: the end-to-end benchmark of the schemr serving stack.
//
//   schemr_perfbench --workload byexample|browse|ingest --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//                    [--spans-out FILE]
//
// Builds a 2000-schema repository from the seed, sets the serving stack up
// five times (setup_s is the median), then measures S seconds of POST
// /search traffic in rounds: 80% open loop at the workload's fixed rate,
// 20% closed loop. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it also runs the traced pass and reports the per-layer ones.
// Human-readable lines start with '#'; the last line is one JSON object.
// Exits 1 when an output check fails, 2 on a usage or set-up error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "repo/schema_repository.h"

namespace {

using perfbench::RunOptions;

int Usage() {
  std::fprintf(stderr,
               "usage: schemr_perfbench --workload byexample|browse|ingest "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--spans-out FILE]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = perfbench::ParseWorkload(value, &options->workload);
      if (!have_workload) return false;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--spans-out") {
      options->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && options->seconds > 0.0 &&
         !options->work_dir.empty();
}

int Run(const RunOptions& options) {
  namespace fs = std::filesystem;
  perfbench::RunResult result;
  const std::string repo_dir = options.work_dir + "/repo";
  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);

  // Inputs: the corpus goes into the repository before set-up is timed.
  {
    auto repository = schemr::SchemaRepository::Open(repo_dir);
    if (!repository.ok()) {
      std::fprintf(stderr, "cannot create repository: %s\n",
                   repository.status().ToString().c_str());
      return 2;
    }
    for (schemr::Schema& schema : perfbench::CorpusSchemas()) {
      if (auto id = (*repository)->Insert(std::move(schema)); !id.ok()) {
        std::fprintf(stderr, "cannot load corpus: %s\n",
                     id.status().ToString().c_str());
        return 2;
      }
    }
  }
  // Requests and ingested schemas are drawn as the run needs them.
  perfbench::RequestStream requests(options.workload, options.seed);
  perfbench::SchemaStream schemas(options.seed);

  // Set-up, five times; the last stack stays up for the measurement.
  constexpr int kSetups = 5;
  std::vector<double> setup_seconds;
  std::vector<double> create_seconds;
  std::vector<double> catalog_seconds;
  perfbench::ServingStack stack;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) stack.Stop();
    double seconds = 0.0;
    if (schemr::Status started =
            perfbench::StartStack(repo_dir, &stack, &seconds);
        !started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   started.ToString().c_str());
      return 2;
    }
    setup_seconds.push_back(seconds);
    create_seconds.push_back(stack.create_seconds);
    catalog_seconds.push_back(stack.catalog_build_seconds);
  }

  // rss_mb counts from here: what the corpus generation and the earlier
  // set-ups left behind is not the serving stack's.
  if (!perfbench::ResetPeakRss()) {
    result.Note("warning: could not reset VmHWM; rss_mb includes the "
                "corpus generation and the earlier set-ups");
  }

  perfbench::LoadedRun loaded(options, &stack, &requests, &schemas, &result);
  loaded.Run();
  if (options.trace) {
    perfbench::RunTraced(options, &stack, &requests, &schemas, &result);
    result.per_layer.push_back(
        {"corpus.create_s", perfbench::Quantile(create_seconds, 0.5), "s"});
    result.per_layer.push_back({"corpus.catalog_build_s",
                                perfbench::Quantile(catalog_seconds, 0.5),
                                "s"});
  } else {
    loaded.ReportEndToEnd(perfbench::Quantile(setup_seconds, 0.5));
  }
  if (options.workload == perfbench::Workload::kIngest) {
    perfbench::CheckRebuildDigests(&stack, repo_dir, options.seed, &result);
  }
  stack.Stop();
  fs::remove_all(options.work_dir);
  return perfbench::PrintReport(result, options.trace);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage();
  options.cpus = std::max(1u, std::thread::hardware_concurrency());
  try {
    return Run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "schemr_perfbench: %s\n", e.what());
    return 2;
  }
}
