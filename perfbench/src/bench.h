// Shared pieces of schemr_perfbench: run options, the serving
// stack under test, registry deltas, sample statistics and the result
// record both the loaded run and the traced run report into.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/serving_corpus.h"
#include "inputs.h"
#include "service/schemr_service.h"
#include "util/status.h"

namespace perfbench {

/// Ingests between rounds on workloads without a live writer. The first
/// ingest after a round of searches costs about twice the others; at 38
/// per round (40 s) those first ingests stay above the ingest p95.
inline constexpr size_t kQuietIngests = 600;
/// Ingests the traced run decomposes after its searches on those
/// workloads.
inline constexpr size_t kTracedIngests = 50;

struct RunOptions {
  Workload workload = Workload::kByExample;
  uint64_t seed = 1;
  /// Timed search window, split into rounds of an open-loop part (80%)
  /// and a closed-loop part (20%).
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the repository, audit log and mirror store;
  /// created fresh and removed at exit.
  std::string work_dir;
  /// Where the traced run writes its spans as JSON (trace runs only).
  std::string spans_path;
  size_t cpus = 1;
};

/// Ordered (name, value, unit) triples: what the run reports.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The run's outcome: request accounting, output-check failures and the
/// metrics of the selected mode.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output-check failures; any makes the run incorrect. Those tied to a
  /// response or an ingest also count in `failed`.
  uint64_t check_failures = 0;
  /// Human-readable notes printed above the JSON line.
  std::vector<std::string> notes;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Note(std::string line) { notes.push_back(std::move(line)); }
};

/// The serving stack as `schemr serve` assembles it, plus its set-up
/// timings. Members are declared so the service (which points at the
/// corpus) is destroyed first.
struct ServingStack {
  std::unique_ptr<schemr::ServingCorpus> corpus;
  std::unique_ptr<schemr::SchemrService> service;
  int port = 0;
  double create_seconds = 0.0;
  double catalog_build_seconds = 0.0;

  /// Drains the service and releases the corpus (closing the store).
  void Stop();
};

/// SchemaRepository::Open → ServingCorpus::Create → SchemrService with
/// audit on → StartServing (ServingOptions defaults, result cache 256,
/// introspection and search listeners on ephemeral ports), then POSTs a
/// probe until the service accepts a search. `setup_seconds` receives the
/// wall time of all of that.
schemr::Status StartStack(const std::string& repo_dir, ServingStack* stack,
                          double* setup_seconds);

/// Counter, gauge and histogram values of the process-wide registry at
/// one moment, or -- accumulated with AddDelta -- the work done over a
/// set of timed intervals.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();
  /// Adds `later` − `earlier` to every value.
  void AddDelta(const RegistrySnapshot& earlier,
                const RegistrySnapshot& later);
  /// Counter value (or gauge value); 0 when absent.
  double Value(const std::string& name) const;
  double HistogramSum(const std::string& name) const;
  double HistogramCount(const std::string& name) const;

 private:
  struct Values {
    double value = 0.0;
    double sum = 0.0;
    double count = 0.0;
  };
  std::map<std::string, Values> values_;
};
/// a ÷ b, 0 when b is 0.
double Ratio(double a, double b);

/// q-quantile (q in [0, 1]) by linear interpolation; 0 for no samples.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set (VmHWM) of this process, MiB.
double PeakRssMb();

/// printf-style formatting of one report line.
std::string Format(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Returns free heap pages to the system and restarts the peak-resident
/// count (VmHWM) from the current resident set, so the generation of the
/// corpus and the set-ups before it stay out of rss_mb. False when the
/// kernel refuses the reset.
bool ResetPeakRss();

/// Ingests `schema`, then checks that the snapshot current after the call
/// resolves the new id in both the schema view and the index. Returns the
/// Ingest wall time in ms, or a negative value on failure (the failure is
/// counted into `result`).
double IngestAndCheck(schemr::ServingCorpus* corpus, schemr::Schema schema,
                      RunResult* result);

/// Calls `write(k)` for k = 0, 1, ... at `per_second`, each at its due
/// time, until `stop` is set or `write` returns false.
void PaceWrites(double per_second, const std::atomic<bool>& stop,
                const std::function<bool(uint64_t)>& write);

/// True for a `<results>` body not flagged degraded.
bool IsHealthyResults(const std::string& body);

/// Runs the e2e measurement: rounds of an open-loop part and a
/// closed-loop part, the live writer (ingest workload) or quiet ingests
/// between rounds (other workloads), and the output check of every
/// response. Fills the registry-derived per-layer metrics; the end-to-end
/// ones come from ReportEndToEnd.
class LoadedRun {
 public:
  LoadedRun(const RunOptions& options, ServingStack* stack,
            RequestStream* requests, SchemaStream* schemas,
            RunResult* result);
  ~LoadedRun();
  LoadedRun(const LoadedRun&) = delete;
  LoadedRun& operator=(const LoadedRun&) = delete;

  void Run();
  /// Appends the end-to-end metrics.
  void ReportEndToEnd(double setup_seconds);

 private:
  struct Client;

  /// Sends the client's current plan untimed over the open-loop thread
  /// count.
  void Warm();
  void OpenPhase(double seconds, std::vector<double>* lateness_ms);
  void ClosedPhase(double seconds);
  /// Compares the round's served bodies with in-process references and
  /// forgets them; returns the number that differ.
  uint64_t CheckAgainstReferences();
  void QuietIngests(size_t count);
  void ReportRegistryLayers(const RegistrySnapshot& timed,
                            double inflight_mean);
  /// A stretch of a timed part: a slice of an open-loop part, or a whole
  /// closed-loop part. The search metrics take or leave each one whole,
  /// by its steal share.
  struct Window {
    /// Share of the processor time the host took away during it.
    double steal_share = 0.0;
    /// Open loop: latencies of the searches that completed in it.
    std::vector<double> open_ms;
    /// Closed loop: searches completed, and the part's length.
    uint64_t closed_completed = 0;
    double closed_seconds = 0.0;
  };
  /// The kQuietShare of `windows` with the least steal, and those tied
  /// with the last one taken.
  static std::vector<const Window*> Quietest(
      const std::vector<Window>& windows);
  const RunOptions& options_;
  ServingStack* stack_;
  RequestStream* requests_;
  SchemaStream* schemas_;
  RunResult* result_;
  const WorkloadSpec spec_;
  std::unique_ptr<Client> client_;
  std::vector<double> open_latency_ms_;
  /// Send-to-reply times of every timed search, both loops.
  std::vector<double> round_trip_ms_;
  /// Guards ingest_ms_, which the live writer appends to.
  std::mutex ingest_mutex_;
  std::vector<double> ingest_ms_;
  /// Every open-loop window and every closed-loop part of the run.
  std::vector<Window> open_windows_;
  std::vector<Window> closed_windows_;
  uint64_t closed_completed_ = 0;
  double closed_seconds_ = 0.0;
  uint64_t references_ = 0;
};

/// Exact-mode result digests of ProbeRequests(seed) on the live service,
/// then -- after stopping the stack -- on a fresh ServingCorpus::Create
/// over the same repository. Differences count as output-check failures;
/// returns how many probes differ.
uint64_t CheckRebuildDigests(ServingStack* stack, const std::string& repo_dir,
                             uint64_t seed, RunResult* result);

/// The traced run: sequential searches, alternately traced and untraced,
/// each traced one decomposed into layer spans from registry deltas and
/// in-process re-runs, plus decomposed ingests. Appends the traced
/// per-layer metrics and writes the spans to options.spans_path.
void RunTraced(const RunOptions& options, ServingStack* stack,
               RequestStream* requests, SchemaStream* schemas,
               RunResult* result);

/// Prints the notes, a metric table and the final JSON line; returns the
/// process exit code.
int PrintReport(const RunResult& result, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
