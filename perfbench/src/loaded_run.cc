// The untraced, loaded run. It drives the serving stack only through its
// stable facade -- SchemaRepository::Open, ServingCorpus, SchemrService,
// HttpCall -- plus the metrics registry, so later changes to the matcher
// and feature interfaces do not touch it (those live in traced_run.cc).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/fingerprint.h"
#include "obs/metrics.h"
#include "repo/schema_repository.h"
#include "service/http_server.h"
#include "util/timer.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using schemr::HttpCall;
using schemr::HttpCallOptions;
using schemr::HttpReply;
using schemr::Result;
using schemr::Status;

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// One client-side search outcome.
struct SearchSample {
  /// From the scheduled send time (open loop) or the send (closed loop).
  double latency_ms = 0.0;
  /// From the actual send to the complete reply.
  double round_trip_ms = 0.0;
  /// When the reply was complete.
  Clock::time_point done;
  bool ok = false;
};

/// Share of the windows the search metrics are pooled from.
constexpr double kQuietShare = 0.4;
/// Length of the windows an open-loop part is cut into.
constexpr double kWindowSeconds = 0.5;

/// Processor time of the whole machine so far, in clock ticks, from the
/// first line of /proc/stat.
struct CpuTicks {
  /// What the machine's processors ran: user, nice, system, irq, softirq.
  uint64_t busy = 0;
  /// What the hypervisor ran elsewhere while they wanted to run.
  uint64_t steal = 0;

  static CpuTicks Read() {
    CpuTicks ticks;
    std::FILE* stat = std::fopen("/proc/stat", "r");
    if (stat == nullptr) return ticks;
    unsigned long long v[8] = {};
    if (std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7]) == 8) {
      ticks.busy = v[0] + v[1] + v[2] + v[5] + v[6];
      ticks.steal = v[7];
    }
    std::fclose(stat);
    return ticks;
  }
};

/// Stolen ÷ (run + stolen) processor time between two readings: how much
/// of the time the machine wanted, the host gave to others. The program
/// cannot move it by working more or less, which makes it the measure of
/// a slow stretch of the host. 0 on a machine that reports no steal.
double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const double steal = static_cast<double>(to.steal - from.steal);
  return Ratio(steal, static_cast<double>(to.busy - from.busy) + steal);
}

}  // namespace

bool IsHealthyResults(const std::string& body) {
  size_t start = 0;
  if (body.rfind("<?xml", 0) == 0) {
    start = body.find("?>");
    if (start == std::string::npos) return false;
    start = body.find_first_not_of(" \r\n\t", start + 2);
  }
  if (start == std::string::npos || body.compare(start, 8, "<results") != 0) {
    return false;
  }
  const size_t tag_end = body.find('>', start);
  return tag_end != std::string::npos &&
         body.substr(start, tag_end - start).find(" degraded=\"true\"") ==
             std::string::npos;
}

void ServingStack::Stop() {
  if (service != nullptr) {
    (void)service->Shutdown(5.0);
    service.reset();
  }
  corpus.reset();
}

Status StartStack(const std::string& repo_dir, ServingStack* stack,
                  double* setup_seconds) {
  const schemr::Timer setup;
  auto repository = schemr::SchemaRepository::Open(repo_dir);
  if (!repository.ok()) return repository.status();
  const schemr::Timer create;
  auto corpus = schemr::ServingCorpus::Create(std::move(*repository));
  if (!corpus.ok()) return corpus.status();
  stack->create_seconds = create.ElapsedSeconds();
  stack->corpus = std::move(*corpus);
  stack->catalog_build_seconds =
      stack->corpus->last_build_stats().seconds;
  stack->service =
      std::make_unique<schemr::SchemrService>(stack->corpus.get());
  if (Status audit = stack->service->EnableAudit(repo_dir + "/audit");
      !audit.ok()) {
    return audit;
  }
  schemr::ServingOptions serving;
  serving.introspection_port = 0;
  serving.search_port = 0;
  serving.result_cache_capacity = kResultCacheCapacity;
  if (Status started = stack->service->StartServing(serving); !started.ok()) {
    return started;
  }
  stack->port = stack->service->search_server()->port();
  // Set-up ends at the first search the service accepts.
  schemr::SearchRequest probe;
  probe.keywords = "customer order";
  HttpCallOptions call;
  call.method = "POST";
  call.body = schemr::SearchRequestToXml(probe);
  for (int attempt = 0; attempt < 100; ++attempt) {
    Result<HttpReply> reply =
        HttpCall("127.0.0.1", stack->port, "/search", call);
    if (reply.ok() && reply->status == 200) {
      *setup_seconds = setup.ElapsedSeconds();
      return Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::Unavailable("service never accepted the probe search");
}

double IngestAndCheck(schemr::ServingCorpus* corpus, schemr::Schema schema,
                      RunResult* result) {
  const schemr::Timer timer;
  Result<schemr::SchemaId> id = corpus->Ingest(std::move(schema));
  const double ms = timer.ElapsedMillis();
  ++result->attempted;
  if (!id.ok()) {
    ++result->failed;
    result->Note("ingest failed: " + id.status().ToString());
    return -1.0;
  }
  std::shared_ptr<const schemr::CorpusSnapshot> snapshot = corpus->Snapshot();
  if (!snapshot->schemas->Contains(*id) ||
      !snapshot->index->ContainsDocument(*id)) {
    ++result->failed;
    ++result->check_failures;
    result->Note(Format("output check: snapshot v%llu does not resolve "
                        "ingested id %llu",
                        static_cast<unsigned long long>(snapshot->version),
                        static_cast<unsigned long long>(*id)));
    return -1.0;
  }
  return ms;
}

void PaceWrites(double per_second, const std::atomic<bool>& stop,
                const std::function<bool(uint64_t)>& write) {
  const Clock::time_point start = Clock::now();
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point due =
        start + std::chrono::microseconds(static_cast<int64_t>(
                    1e6 * static_cast<double>(k) / per_second));
    while (Clock::now() < due && !stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (stop.load() || !write(k)) return;
  }
}

// --- LoadedRun ---------------------------------------------------------------

/// Client-side accounting shared by the loop threads.
struct LoadedRun::Client {
  int port;
  bool compare_bodies;
  /// The plan requests are drawn from: the warm-up or the round's.
  const RequestPlan* plan = nullptr;
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> mismatched{0};
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> wraps{0};
  /// First 200 body served per distinct request of the plan; later ones
  /// must match it byte for byte, and it must match the in-process
  /// reference.
  std::mutex bodies_mutex;
  std::vector<std::string> first_body;

  Client(int port_in, bool compare) : port(port_in), compare_bodies(compare) {}

  /// Draws from `p` from its start on, forgetting the last plan's bodies.
  void Use(const RequestPlan* p) {
    plan = p;
    cursor.store(0);
    first_body.assign(compare_bodies ? p->distinct.size() : 0, std::string());
  }

  /// The next request, in plan order.
  uint32_t Next() {
    const size_t n = cursor.fetch_add(1, std::memory_order_relaxed);
    if (n >= plan->sequence.size()) wraps.fetch_add(1);
    return plan->sequence[n % plan->sequence.size()];
  }

  /// Bytes of request and response text the client holds for its plan.
  size_t HeldBytes() const {
    size_t bytes = 0;
    for (const std::string& body : plan->bodies) bytes += body.capacity();
    for (const std::string& body : first_body) bytes += body.capacity();
    return bytes;
  }

  /// POSTs distinct request `d`; latency counts from `due`.
  SearchSample Send(uint32_t d, Clock::time_point due) {
    HttpCallOptions call;
    call.method = "POST";
    call.body = plan->bodies[d];
    const Clock::time_point sent = Clock::now();
    Result<HttpReply> reply = HttpCall("127.0.0.1", port, "/search", call);
    const Clock::time_point done = Clock::now();
    SearchSample sample;
    sample.done = done;
    sample.latency_ms = MillisBetween(due, done);
    sample.round_trip_ms = MillisBetween(sent, done);
    sample.ok = reply.ok() && reply->status == 200 &&
                IsHealthyResults(reply->body);
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!sample.ok) {
      failed.fetch_add(1, std::memory_order_relaxed);
      return sample;
    }
    if (compare_bodies) {
      std::lock_guard<std::mutex> lock(bodies_mutex);
      std::string& first = first_body[d];
      if (first.empty()) {
        first = std::move(reply->body);
      } else if (first != reply->body) {
        mismatched.fetch_add(1, std::memory_order_relaxed);
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return sample;
  }
};

LoadedRun::LoadedRun(const RunOptions& options, ServingStack* stack,
                     RequestStream* requests, SchemaStream* schemas,
                     RunResult* result)
    : options_(options),
      stack_(stack),
      requests_(requests),
      schemas_(schemas),
      result_(result),
      spec_(SpecFor(options.workload, options.cpus)) {}

LoadedRun::~LoadedRun() = default;

void LoadedRun::Warm() {
  const size_t total = client_->plan->sequence.size();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < spec_.open_connections; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t n = client_->cursor.fetch_add(1);
        if (n >= total) return;
        client_->Send(client_->plan->sequence[n], Clock::now());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

void LoadedRun::OpenPhase(double seconds, std::vector<double>* lateness_ms) {
  // Arrival n is due at start + n/qps whatever happened to earlier ones;
  // latency counts from the due time, so a stall also charges the
  // requests queued behind it.
  const size_t total = static_cast<size_t>(spec_.open_qps * seconds + 0.5);
  std::atomic<size_t> next{0};
  std::vector<std::vector<SearchSample>> samples(spec_.open_connections);
  std::vector<std::vector<double>> lateness(spec_.open_connections);
  std::vector<std::thread> threads;
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(seconds / kWindowSeconds + 0.5));
  const size_t first = open_windows_.size();
  std::vector<CpuTicks> ticks;
  ticks.push_back(CpuTicks::Read());
  const Clock::time_point start = Clock::now();
  for (size_t t = 0; t < spec_.open_connections; ++t) {
    threads.emplace_back([&, t] {
      for (;;) {
        const size_t n = next.fetch_add(1);
        if (n >= total) return;
        const Clock::time_point due =
            start + std::chrono::nanoseconds(static_cast<int64_t>(
                        1e9 * static_cast<double>(n) / spec_.open_qps));
        std::this_thread::sleep_until(due);
        lateness[t].push_back(MillisBetween(due, Clock::now()));
        samples[t].push_back(client_->Send(client_->Next(), due));
      }
    });
  }
  // The host's steal share per window of the part. A search belongs to
  // the window it completed in; those completing after the part's end
  // belong to the last one.
  const auto window_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / static_cast<double>(windows)));
  for (size_t w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(start + static_cast<int64_t>(w) *
                                              window_length);
    ticks.push_back(CpuTicks::Read());
  }
  for (std::thread& thread : threads) thread.join();
  open_windows_.resize(first + windows);
  for (size_t w = 0; w < windows; ++w) {
    open_windows_[first + w].steal_share = StealShare(ticks[w], ticks[w + 1]);
  }
  for (size_t t = 0; t < samples.size(); ++t) {
    for (const SearchSample& s : samples[t]) {
      open_latency_ms_.push_back(s.latency_ms);
      round_trip_ms_.push_back(s.round_trip_ms);
      const size_t w = std::min<size_t>(
          windows - 1, static_cast<size_t>((s.done - start) / window_length));
      open_windows_[first + w].open_ms.push_back(s.latency_ms);
    }
    lateness_ms->insert(lateness_ms->end(), lateness[t].begin(),
                        lateness[t].end());
  }
}

void LoadedRun::ClosedPhase(double seconds) {
  // Each connection sends its next request when the last one returns.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::vector<double>> trips(spec_.closed_connections);
  std::vector<std::thread> threads;
  const CpuTicks ticks_before = CpuTicks::Read();
  const schemr::Timer timer;
  for (size_t t = 0; t < spec_.closed_connections; ++t) {
    threads.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        const SearchSample s = client_->Send(client_->Next(), Clock::now());
        trips[t].push_back(s.round_trip_ms);
        if (s.ok) completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  Window window;
  window.steal_share = StealShare(ticks_before, CpuTicks::Read());
  window.closed_seconds = timer.ElapsedSeconds();
  window.closed_completed = completed.load();
  closed_windows_.push_back(window);
  closed_seconds_ += window.closed_seconds;
  closed_completed_ += window.closed_completed;
  for (const std::vector<double>& t : trips) {
    round_trip_ms_.insert(round_trip_ms_.end(), t.begin(), t.end());
  }
}

uint64_t LoadedRun::CheckAgainstReferences() {
  // Every 200 body served in the round against SchemrService::SearchXml
  // for the same request on the same snapshot, computed after the timed
  // phases. The bypass makes the reference run the pipeline instead of
  // replaying what the served request stored in the result cache.
  std::vector<std::string>& served = client_->first_body;
  const RequestPlan& plan = *client_->plan;
  std::vector<uint32_t> distinct;
  for (uint32_t d = 0; d < served.size(); ++d) {
    if (!served[d].empty()) distinct.push_back(d);
  }
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < options_.cpus; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= distinct.size()) return;
        schemr::SearchRequest request = plan.distinct[distinct[i]];
        request.cache_bypass = true;
        Result<std::string> reference = stack_->service->SearchXml(request);
        if (!reference.ok() || *reference != served[distinct[i]]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  references_ += distinct.size();
  // Swap rather than clear(), which would keep every body's buffer and
  // grow the client's share of rss_mb with the run.
  for (uint32_t d : distinct) std::string().swap(served[d]);
  return mismatches.load();
}

void LoadedRun::QuietIngests(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const double ms =
        IngestAndCheck(stack_->corpus.get(), schemas_->Next(), result_);
    if (ms >= 0.0) {
      std::lock_guard<std::mutex> lock(ingest_mutex_);
      ingest_ms_.push_back(ms);
    }
  }
}

void LoadedRun::Run() {
  // Without a live writer every round runs on one snapshot, so each
  // response can be byte-compared with the in-process reference.
  const bool live_writer = spec_.ingest_per_second > 0.0;
  client_ = std::make_unique<Client>(stack_->port, !live_writer);

  // The run alternates an open-loop and a closed-loop part in rounds of
  // about kRoundSeconds, so both loops (and the ingests between rounds)
  // sample the machine across the whole run rather than one stretch each.
  // The open loop gets the larger part: its p99 needs the samples.
  constexpr double kRoundSeconds = 2.5;
  constexpr double kOpenShare = 0.8;
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(options_.seconds / kRoundSeconds + 0.5));
  const double open_seconds = kOpenShare * options_.seconds / rounds;
  const double closed_seconds = options_.seconds / rounds - open_seconds;
  const size_t ingests_per_round =
      live_writer ? 0 : (kQuietIngests + rounds - 1) / rounds;
  // Room for every request of a round: the open loop's fixed count plus a
  // closed loop faster than any run reaches. Distinct requests cost their
  // generation, so their bound is tighter.
  const double closed_bound_qps = spec_.popular_set > 0 ? 20000.0 : 1500.0;
  const size_t round_requests =
      static_cast<size_t>(spec_.open_qps * open_seconds + 0.5) +
      static_cast<size_t>(closed_bound_qps * closed_seconds);

  // The live writer (ingest workload) runs through every round. Its
  // latency samples are the ingests that complete during an open-loop
  // part, beside readers at the workload's fixed rate, as the search
  // latencies are; those beside the closed loop, which saturates every
  // processor, are checked but not sampled.
  RunResult writer_result;
  std::atomic<bool> open_part{false};
  std::atomic<bool> stop_writer{false};
  std::thread writer;
  if (live_writer) {
    writer = std::thread([&] {
      PaceWrites(spec_.ingest_per_second, stop_writer, [&](uint64_t) {
        const double ms = IngestAndCheck(stack_->corpus.get(),
                                         schemas_->Next(), &writer_result);
        if (ms >= 0.0 && open_part.load()) {
          std::lock_guard<std::mutex> lock(ingest_mutex_);
          ingest_ms_.push_back(ms);
        }
        return true;
      });
    });
  }

  // admission.inflight_mean: the in-flight gauge, sampled every ms while
  // a timed phase runs.
  schemr::Gauge* inflight =
      schemr::MetricsRegistry::Global().GetGauge("schemr_requests_inflight");
  std::atomic<bool> sampling{false};
  std::atomic<bool> stop_sampler{false};
  double inflight_sum = 0.0;
  uint64_t inflight_samples = 0;
  std::thread sampler([&] {
    while (!stop_sampler.load()) {
      if (sampling.load()) {
        inflight_sum += inflight->Value();
        ++inflight_samples;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Registry deltas over the timed phases only: warm-up, references and
  // ingests between rounds stay out of the per-layer numbers.
  RegistrySnapshot timed;
  std::vector<double> lateness_ms;
  uint64_t reference_mismatches = 0;
  size_t held_bytes = 0;
  auto ingests_so_far = [this] {
    std::lock_guard<std::mutex> lock(ingest_mutex_);
    return ingest_ms_.size();
  };
  for (size_t round = 0; round < rounds; ++round) {
    // Quiet ingests come before each round. Each publish starts a cold
    // result cache and entity-graph cache, so the warm-up requests run
    // again before every round (they are misses under the new snapshot
    // and never among the timed requests). The round's own requests are
    // drawn before it, untimed, and dropped after it.
    const size_t ingest_begin = ingests_so_far();
    QuietIngests(ingests_per_round);
    const RequestPlan plan = requests_->Next(round_requests);
    if (round == 0 || !live_writer) {
      client_->Use(&requests_->warmup());
      Warm();
      if (!live_writer) reference_mismatches += CheckAgainstReferences();
    }
    client_->Use(&plan);
    const uint64_t version = stack_->corpus->version();
    const RegistrySnapshot before = RegistrySnapshot::Take();
    const size_t open_before = open_latency_ms_.size();
    const size_t windows_before = open_windows_.size();
    sampling.store(true);
    open_part.store(true);
    OpenPhase(open_seconds, &lateness_ms);
    open_part.store(false);
    ClosedPhase(closed_seconds);
    sampling.store(false);
    timed.AddDelta(before, RegistrySnapshot::Take());
    held_bytes = std::max(held_bytes, client_->HeldBytes());
    const std::vector<double> open_ms(
        open_latency_ms_.begin() + static_cast<long>(open_before),
        open_latency_ms_.end());
    std::string open_steal;
    for (size_t w = windows_before; w < open_windows_.size(); ++w) {
      open_steal += Format("%s%.2f", w == windows_before ? "" : " ",
                           100.0 * open_windows_[w].steal_share);
    }
    const Window& closed = closed_windows_.back();
    std::vector<double> round_ingest_ms;
    {
      std::lock_guard<std::mutex> lock(ingest_mutex_);
      round_ingest_ms.assign(
          ingest_ms_.begin() + static_cast<long>(ingest_begin),
          ingest_ms_.end());
    }
    result_->Note(Format(
        "round %zu: open p50 %.3f ms p99 %.3f ms (%zu samples, steal %s%%), "
        "closed %.1f/s (steal %.2f%%), ingest p50 %.3f ms p99 %.3f ms "
        "(%zu samples)",
        round, Quantile(open_ms, 0.5), Quantile(open_ms, 0.99),
        open_ms.size(), open_steal.c_str(),
        Ratio(static_cast<double>(closed.closed_completed),
              closed.closed_seconds),
        100.0 * closed.steal_share, Quantile(round_ingest_ms, 0.5),
        Quantile(round_ingest_ms, 0.99), round_ingest_ms.size()));
    if (!live_writer) {
      if (stack_->corpus->version() != version) {
        ++result_->check_failures;
        result_->Note("output check: snapshot moved during a read round");
      }
      reference_mismatches += CheckAgainstReferences();
    }
  }
  stop_sampler.store(true);
  sampler.join();
  stop_writer.store(true);
  if (writer.joinable()) writer.join();

  result_->Note(Format(
      "%zu rounds of %.2f s open loop (%.0f/s over %zu threads) + %.2f s "
      "closed loop (%zu connections)",
      rounds, open_seconds, spec_.open_qps, spec_.open_connections,
      closed_seconds, spec_.closed_connections));
  result_->Note(Format(
      "open loop: %zu searches; generator lateness p50 %.3f ms, p99 %.3f "
      "ms, max %.3f ms",
      open_latency_ms_.size(), Quantile(lateness_ms, 0.5),
      Quantile(lateness_ms, 0.99),
      lateness_ms.empty()
          ? 0.0
          : *std::max_element(lateness_ms.begin(), lateness_ms.end())));
  result_->Note(Format("closed loop: %llu searches in %.2f s",
                       static_cast<unsigned long long>(closed_completed_),
                       closed_seconds_));
  result_->Note(Format("client state: at most %.2f MiB of request and "
                       "response text held at a round's end (in rss_mb)",
                       static_cast<double>(held_bytes) / (1024.0 * 1024.0)));
  if (client_->wraps.load() > 0) {
    result_->Note(Format("warning: request plan wrapped %zu times",
                         client_->wraps.load()));
  }
  if (!live_writer) {
    result_->Note(Format("output check: %llu served (request, round) pairs "
                         "compared with in-process SearchXml, %llu differ",
                         static_cast<unsigned long long>(references_),
                         static_cast<unsigned long long>(
                             reference_mismatches)));
  }
  if (client_->mismatched.load() > 0) {
    result_->Note(Format("output check: %llu responses differ from the "
                         "first response to the same request",
                         static_cast<unsigned long long>(
                             client_->mismatched.load())));
  }
  result_->attempted += client_->attempted.load() + writer_result.attempted;
  result_->failed +=
      client_->failed.load() + reference_mismatches + writer_result.failed;
  result_->check_failures += client_->mismatched.load() +
                             reference_mismatches +
                             writer_result.check_failures;
  for (std::string& note : writer_result.notes) {
    result_->Note(std::move(note));
  }
  ReportRegistryLayers(timed,
                       Ratio(inflight_sum,
                             static_cast<double>(inflight_samples)));
}

void LoadedRun::ReportRegistryLayers(const RegistrySnapshot& timed,
                                     double inflight_mean) {
  // Per-layer numbers the program's own registry gives for the timed
  // phases (reported with --trace 1 beside the traced ones).
  const double requests = static_cast<double>(round_trip_ms_.size());
  const double search_xml_ms =
      1e3 * Ratio(timed.HistogramSum("schemr_service_search_xml_seconds"),
                  timed.HistogramCount("schemr_service_search_xml_seconds"));
  const double pipeline_searches =
      timed.HistogramCount("schemr_search_pool_size");
  const double extracted =
      timed.Value("schemr_search_candidates_extracted_total");
  const double skipped = timed.Value("schemr_search_candidates_skipped_total");
  const double rejected =
      timed.Value("schemr_search_prefilter_rejected_total");
  const double shed = timed.Value("schemr_requests_shed_total");
  const double cache_hits = timed.Value("schemr_result_cache_hits_total");
  const double graph_hits =
      timed.Value("schemr_entity_graph_cache_hits_total");
  std::vector<Metric>& layer = result_->per_layer;
  layer.push_back(
      {"http.gap_mean_ms", Mean(round_trip_ms_) - search_xml_ms, "ms"});
  layer.push_back({"http.bytes_per_req",
                   Ratio(timed.Value("schemr_http_bytes_total"), requests),
                   "bytes"});
  layer.push_back({"admission.inflight_mean", inflight_mean, "requests"});
  layer.push_back(
      {"admission.shed_ratio",
       Ratio(shed, shed + timed.Value("schemr_requests_admitted_total")),
       "ratio"});
  layer.push_back(
      {"audit.bytes_per_req",
       Ratio(timed.Value("schemr_audit_bytes_written_total"), requests),
       "bytes"});
  layer.push_back(
      {"cache.hit_ratio",
       Ratio(cache_hits,
             cache_hits + timed.Value("schemr_result_cache_misses_total")),
       "ratio"});
  layer.push_back(
      {"phase1.pool_size",
       Ratio(timed.HistogramSum("schemr_search_pool_size"), pipeline_searches),
       "candidates"});
  layer.push_back({"index.postings_per_search",
                   Ratio(timed.Value("schemr_index_postings_scanned_total"),
                         timed.Value("schemr_index_searches_total")),
                   "postings"});
  layer.push_back({"phase2.candidates",
                   Ratio(extracted - skipped - rejected, pipeline_searches),
                   "candidates"});
  layer.push_back({"phase2.skip_ratio", Ratio(skipped, extracted), "ratio"});
  layer.push_back(
      {"graph_cache.hit_ratio",
       Ratio(graph_hits,
             graph_hits +
                 timed.Value("schemr_entity_graph_cache_builds_total")),
       "ratio"});
}

std::vector<const LoadedRun::Window*> LoadedRun::Quietest(
    const std::vector<Window>& windows) {
  std::vector<double> shares;
  for (const Window& window : windows) shares.push_back(window.steal_share);
  std::sort(shares.begin(), shares.end());
  std::vector<const Window*> quiet;
  if (shares.empty()) return quiet;
  const size_t chosen = std::max<size_t>(
      1, static_cast<size_t>(kQuietShare * static_cast<double>(shares.size()) +
                             0.5));
  const double max_share = shares[std::min(chosen, shares.size()) - 1];
  for (const Window& window : windows) {
    if (window.steal_share <= max_share) quiet.push_back(&window);
  }
  return quiet;
}

void LoadedRun::ReportEndToEnd(double setup_seconds) {
  // The machine this runs on has slow stretches, from a fraction of a
  // second to tens of seconds, when the host gives its processors to
  // others. So the search metrics pool the kQuietShare of windows with
  // the least stolen processor time, a measure of the host alone: a
  // program that stalls in some windows moves them as much as one slower
  // in every window. Latency comes from the open-loop windows (0.5 s
  // each), throughput from the closed-loop parts, each chosen among its
  // own kind. Windows tied with the last one chosen are taken too, so a
  // machine that reports no steal pools every window.
  // Ingest cost grows through the run with the corpus, so choosing
  // windows would move the ingest percentiles with where in the run the
  // quiet windows fall; they pool every round instead. The values pooled
  // over all rounds are printed beside the chosen ones.
  const std::vector<const Window*> quiet_open = Quietest(open_windows_);
  const std::vector<const Window*> quiet_closed = Quietest(closed_windows_);
  std::vector<double> open_ms;
  for (const Window* window : quiet_open) {
    open_ms.insert(open_ms.end(), window->open_ms.begin(),
                   window->open_ms.end());
  }
  uint64_t completed = 0;
  double seconds = 0.0;
  for (const Window* window : quiet_closed) {
    completed += window->closed_completed;
    seconds += window->closed_seconds;
  }
  result_->Note(Format(
      "all rounds pooled: open p50 %.3f ms, p99 %.3f ms; closed %.1f/s; "
      "ingest p99 %.3f ms (%zu ingests)",
      Quantile(open_latency_ms_, 0.5), Quantile(open_latency_ms_, 0.99),
      Ratio(static_cast<double>(closed_completed_), closed_seconds_),
      Quantile(ingest_ms_, 0.99), ingest_ms_.size()));
  result_->Note(Format(
      "least steal: %zu of %zu open-loop windows (%zu searches), %zu of %zu "
      "closed-loop parts (%llu searches)",
      quiet_open.size(), open_windows_.size(), open_ms.size(),
      quiet_closed.size(), closed_windows_.size(),
      static_cast<unsigned long long>(completed)));
  std::vector<Metric>& e2e = result_->end_to_end;
  e2e.push_back({"search_p50_ms", Quantile(open_ms, 0.5), "ms"});
  e2e.push_back({"search_p99_ms", Quantile(open_ms, 0.99), "ms"});
  e2e.push_back({"search_qps", Ratio(static_cast<double>(completed), seconds),
                 "1/s"});
  e2e.push_back({"ingest_p50_ms", Quantile(ingest_ms_, 0.5), "ms"});
  // About 320 ingests at 40 s: p95 is the highest percentile with ten
  // samples beyond it.
  e2e.push_back({"ingest_p95_ms", Quantile(ingest_ms_, 0.95), "ms"});
  e2e.push_back({"setup_s", setup_seconds, "s"});
  e2e.push_back({"rss_mb", PeakRssMb(), "MiB"});
}

uint64_t CheckRebuildDigests(ServingStack* stack, const std::string& repo_dir,
                             uint64_t seed, RunResult* result) {
  const std::vector<schemr::SearchRequest> probes = ProbeRequests(seed);
  auto digests = [&probes](const schemr::SchemrService& service,
                           std::vector<uint64_t>* out) {
    for (schemr::SearchRequest request : probes) {
      request.cache_bypass = true;
      auto results = service.Search(request);
      out->push_back(results.ok() ? schemr::DigestResults(*results) : 0);
    }
  };
  std::vector<uint64_t> live;
  digests(*stack->service, &live);
  stack->Stop();
  std::vector<uint64_t> rebuilt;
  auto repository = schemr::SchemaRepository::Open(repo_dir);
  if (repository.ok()) {
    auto fresh = schemr::ServingCorpus::Create(std::move(*repository));
    if (fresh.ok()) {
      const schemr::SchemrService service(fresh->get());
      digests(service, &rebuilt);
    }
  }
  uint64_t differ = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    if (i >= rebuilt.size() || live[i] != rebuilt[i] || live[i] == 0) {
      ++differ;
    }
  }
  result->Note(Format("output check: %zu probe digests vs a fresh "
                      "ServingCorpus::Create, %llu differ",
                      live.size(), static_cast<unsigned long long>(differ)));
  result->check_failures += differ;
  result->failed += differ;
  return differ;
}

}  // namespace perfbench
