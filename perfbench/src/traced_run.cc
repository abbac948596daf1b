// The traced run. Searches go over POST /search one at a time, exactly as
// in the loaded run, alternately traced and untraced. Each traced search is
// decomposed into spans, each under the entry point that calls it in
// production:
//
//   client                HttpCall round trip                      -> http
//   http.handler          SchemrService::HandleSearchHttp          -> service
//     service.parse         ParseSearchRequestXml                  -> service
//     service.search_xml    SchemrService::SearchXml               -> service
//       parse.query           ParseQuery                           -> parse
//       engine                SearchEngine::Search                 -> unattributed
//         cache.lookup          ResultCache key + Get              -> cache
//         phase1.extract        CandidateExtractor::Extract        -> phase1
//         store.get             RepositoryView::Get over the pool  -> store
//         phase2.match          matching every visited candidate   -> phase2
//           prep.query            query features + signature       -> prep
//           phase2.<m>            that matcher's seconds           -> phase2
//         phase3.tightness      GetOrBuild + ComputeTightnessOfFit -> phase3
//
// What the served request itself spent in SearchXml, in
// SearchEngine::Search and in each phase comes from the program's
// registry, read just before and just after it while no other search runs
// (schemr_service_search_xml_seconds, schemr_search_seconds and
// schemr_search_phase{1,2,3}_seconds; the engine counts its query prep
// into phase 2). So the served request's costs land where it paid them: a
// cold entity-graph cache on a freshly published snapshot shows in phase3.
// The calls the registry does not time are re-run in-process after the
// reply, for the same request on the current snapshot: HandleSearchHttp
// (its time outside SearchXml), ParseSearchRequestXml, ParseQuery, the
// cache lookup, the query prep, Get over the extracted pool, and
// SearchEngine::Search with SearchEngineOptions::trace set, whose
// matcher:<m> spans split phase 2 by matcher. What these re-runs cost
// depends on no cache but the result cache, which they bypass unless the
// served request was a hit, so none fills an entry the loaded run would
// have missed. Phase spans exist only for served misses.
//
// A span's self time is its duration minus its children's. What
// SearchEngine::Search does outside every phase (rank, pruning
// bookkeeping) is the engine span's self time, the `unattributed`
// remainder. Only the client span is observed as an interval; the others
// are laid out one after another from their parent's start, and their
// durations are the measurement.
//
// Ingests are decomposed the same way: ServingCorpus::Ingest, then
// SchemaRepository::Insert of the same schema into a mirror store of the
// same size, and the feature + signature build it runs.
//
// This file is the only one that calls below the service facade; it
// changes when the matcher or feature interfaces do.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>

#include "bench.h"
#include "core/candidate_extractor.h"
#include "core/fingerprint.h"
#include "core/query_parser.h"
#include "core/result_cache.h"
#include "core/search_engine.h"
#include "match/features.h"
#include "match/signature.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repo/schema_repository.h"
#include "service/http_server.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// One timed call: name, interval (µs since the run's origin), the span
/// that caused it (-1 for a root) and the id of the request or ingest it
/// belongs to.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  uint64_t request = 0;
};

/// Spans kept in memory until the run ends. Thread-safe: the live writer
/// records ingest spans while searches are traced.
class SpanLog {
 public:
  int Begin(std::string name, int parent, uint64_t request) {
    const double now = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), now, now, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  void End(int id) {
    const double now = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_us = now;
  }

  /// A span whose interval is known rather than observed.
  int Add(std::string name, int parent, uint64_t request, double start_us,
          double end_us) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), start_us, end_us, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Runs `fn` inside a span and returns its result.
  template <typename Fn>
  auto Time(std::string name, int parent, uint64_t request, Fn&& fn) {
    const int id = Begin(std::move(name), parent, request);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      End(id);
    } else {
      auto value = fn();
      End(id);
      return value;
    }
  }

  Span Get(int id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_[static_cast<size_t>(id)];
  }

  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  /// Total self time per span name, ms: duration minus the durations of
  /// the span's children.
  std::map<std::string, double> SelfMsByName() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_us[static_cast<size_t>(span.parent)] +=
            span.end_us - span.start_us;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] +=
          (spans_[i].end_us - spans_[i].start_us - child_us[i]) / 1e3;
    }
    return self;
  }

  /// Total duration per span name, ms.
  std::map<std::string, double> DurationMsByName() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> total;
    for (const Span& span : spans_) {
      total[span.name] += (span.end_us - span.start_us) / 1e3;
    }
    return total;
  }

  bool WriteJson(const std::string& path, const char* workload,
                 uint64_t seed) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
        << ", \"spans\": [";
    char line[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                    "\"end_us\": %.3f, \"parent\": %d, \"request\": %llu}",
                    i == 0 ? "" : ",", i, s.name.c_str(), s.start_us,
                    s.end_us, s.parent,
                    static_cast<unsigned long long>(s.request));
      out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Lays derived spans of one request out one after another inside their
/// parent.
class SpanTree {
 public:
  SpanTree(SpanLog* log, uint64_t request) : log_(log), request_(request) {}

  int Add(std::string name, int parent, double seconds) {
    auto [at, fresh] = next_us_.try_emplace(parent, 0.0);
    if (fresh) at->second = log_->Get(parent).start_us;
    const double start = at->second;
    at->second += seconds * 1e6;
    return log_->Add(std::move(name), parent, request_, start, at->second);
  }

 private:
  SpanLog* log_;
  uint64_t request_;
  std::map<int, double> next_us_;
};

/// Wall seconds of `fn()`.
template <typename Fn>
double SecondsOf(Fn&& fn) {
  const schemr::Timer timer;
  fn();
  return timer.ElapsedSeconds();
}

/// The registry's timings of the searches run since an earlier reading.
class ServerClock {
 public:
  struct Reading {
    double search_xml = 0.0;
    double engine = 0.0;
    double phase1 = 0.0;
    double phase2 = 0.0;
    double phase3 = 0.0;
    uint64_t cache_hits = 0;

    Reading operator-(const Reading& earlier) const {
      return Reading{search_xml - earlier.search_xml, engine - earlier.engine,
                     phase1 - earlier.phase1,         phase2 - earlier.phase2,
                     phase3 - earlier.phase3,
                     cache_hits - earlier.cache_hits};
    }
  };

  ServerClock() {
    schemr::MetricsRegistry& registry = schemr::MetricsRegistry::Global();
    search_xml_ = registry.GetHistogram("schemr_service_search_xml_seconds");
    engine_ = registry.GetHistogram("schemr_search_seconds");
    phase1_ = registry.GetHistogram("schemr_search_phase1_seconds");
    phase2_ = registry.GetHistogram("schemr_search_phase2_seconds");
    phase3_ = registry.GetHistogram("schemr_search_phase3_seconds");
    cache_hits_ = registry.GetCounter("schemr_result_cache_hits_total");
  }

  Reading Read() const {
    return Reading{search_xml_->Sum(), engine_->Sum(), phase1_->Sum(),
                   phase2_->Sum(),     phase3_->Sum(), cache_hits_->Value()};
  }

 private:
  schemr::Histogram* search_xml_;
  schemr::Histogram* engine_;
  schemr::Histogram* phase1_;
  schemr::Histogram* phase2_;
  schemr::Histogram* phase3_;
  schemr::Counter* cache_hits_;
};

/// Decomposes one served search into `tree` below `client`: `served` is
/// what the registry recorded for it, `request` the request it carried.
void DecomposeSearch(const schemr::SchemrService& service,
                     const schemr::ServingCorpus& corpus,
                     const ServerClock& clock,
                     const ServerClock::Reading& served,
                     schemr::SearchRequest request, int client,
                     SpanTree* tree) {
  const bool hit = served.cache_hits > 0;
  request.cache_bypass = !hit;
  // HandleSearchHttp's own time: a re-run less the SearchXml inside it.
  schemr::HttpRequest http;
  http.method = "POST";
  http.path = "/search";
  http.body = schemr::SearchRequestToXml(request);
  const ServerClock::Reading before = clock.Read();
  const double handler_seconds =
      SecondsOf([&] { (void)service.HandleSearchHttp(http); });
  const double outside_search_xml =
      handler_seconds - (clock.Read() - before).search_xml;

  const int handler =
      tree->Add("http.handler", client, outside_search_xml + served.search_xml);
  tree->Add("service.parse", handler, SecondsOf([&] {
              (void)schemr::ParseSearchRequestXml(http.body);
            }));
  const int search_xml =
      tree->Add("service.search_xml", handler, served.search_xml);
  schemr::Result<schemr::QueryGraph> query =
      schemr::Status::Internal("not parsed");
  tree->Add("parse.query", search_xml, SecondsOf([&] {
              query = schemr::ParseQuery(request.keywords, request.fragment);
            }));
  const int engine = tree->Add("engine", search_xml, served.engine);
  if (!query.ok()) return;

  // The engine options SchemrService derives from the request.
  schemr::SearchEngineOptions options;
  options.top_k = request.top_k;
  options.extraction.pool_size = request.candidate_pool;
  options.cache_bypass = request.cache_bypass;
  options.scoring_threads = schemr::ServingOptions().scoring_threads;
  const std::shared_ptr<const schemr::CorpusSnapshot> snapshot =
      corpus.Snapshot();
  const schemr::SearchEngine& search_engine = service.engine();
  // The lookup Search makes first: key derivation and one LRU probe. Get
  // never inserts, so it cannot warm the cache.
  tree->Add("cache.lookup", engine, SecondsOf([&] {
              schemr::ResultCacheKey key;
              key.fingerprint = schemr::FingerprintQuery(*query);
              key.corpus_version = snapshot->version;
              key.options_hash = schemr::HashSearchOptions(options);
              (void)search_engine.result_cache()->Get(key);
            }));
  if (hit) return;

  tree->Add("phase1.extract", engine, served.phase1);
  const std::vector<schemr::Candidate> candidates =
      schemr::CandidateExtractor(snapshot->index.get())
          .Extract(*query, options.extraction);
  tree->Add("store.get", engine, SecondsOf([&] {
              for (const schemr::Candidate& candidate : candidates) {
                (void)snapshot->schemas->Get(candidate.schema_id);
              }
            }));
  const int phase2 = tree->Add("phase2.match", engine, served.phase2);
  const schemr::MatchFeatureCatalog* catalog = snapshot->match_features.get();
  if (catalog != nullptr && !candidates.empty()) {
    tree->Add("prep.query", phase2, SecondsOf([&] {
                auto features = schemr::BuildSchemaFeatures(
                    query->AsSchema(), catalog->options());
                schemr::ComputeSignature(features.get(), &catalog->df());
                for (const schemr::Candidate& candidate : candidates) {
                  if (const schemr::SchemaFeatures* f =
                          catalog->Find(candidate.schema_id)) {
                    (void)schemr::EstimatedSimilarity(features->signature,
                                                      f->signature);
                  }
                }
              }));
  }
  // A traced search never uses the result cache.
  schemr::SearchTrace trace;
  options.trace = &trace;
  (void)search_engine.Search(*query, options);
  constexpr std::string_view kMatcher = "matcher:";
  for (const schemr::SpanRecord& span : trace.spans()) {
    if (span.name.rfind(kMatcher, 0) == 0) {
      tree->Add("phase2." + span.name.substr(kMatcher.size()), phase2,
                span.seconds);
    }
  }
  tree->Add("phase3.tightness", engine, served.phase3);
}

/// Per-ingest numbers the registry gives around the live call.
struct IngestTally {
  std::vector<double> store_bytes;
  RunResult result;
};

/// ServingCorpus::Ingest, then the store insert and the feature build it
/// contains, re-run on a mirror store and the live catalog.
void TraceIngest(schemr::Schema schema, uint64_t id, ServingStack* stack,
                 schemr::SchemaRepository* mirror, SpanLog* log,
                 IngestTally* tally) {
  schemr::Counter* written = schemr::MetricsRegistry::Global().GetCounter(
      "schemr_store_write_bytes_total");
  const schemr::Schema copy = schema;
  const uint64_t bytes_before = written->Value();
  const int root = log->Begin("ingest", -1, id);
  const double ms =
      IngestAndCheck(stack->corpus.get(), std::move(schema), &tally->result);
  log->End(root);
  if (ms < 0.0) return;
  tally->store_bytes.push_back(
      static_cast<double>(written->Value() - bytes_before));
  log->Time("store.insert", root, id, [&] { (void)mirror->Insert(copy); });
  std::shared_ptr<const schemr::CorpusSnapshot> snapshot =
      stack->corpus->Snapshot();
  const schemr::MatchFeatureCatalog& catalog = *snapshot->match_features;
  log->Time("corpus.features", root, id, [&] {
    auto features = schemr::BuildSchemaFeatures(copy, catalog.options());
    schemr::ComputeSignature(features.get(), &catalog.df());
  });
}

}  // namespace

void RunTraced(const RunOptions& options, ServingStack* stack,
               RequestStream* requests, SchemaStream* schemas,
               RunResult* result) {
  const WorkloadSpec spec = SpecFor(options.workload, options.cpus);
  SpanLog log;

  // The mirror store holds as many schemas as the live one, so an insert
  // into it costs what the live insert costs.
  auto mirror = schemr::SchemaRepository::Open(options.work_dir + "/mirror");
  if (!mirror.ok()) {
    result->Note("mirror store: " + mirror.status().ToString());
    ++result->check_failures;
    return;
  }
  (void)stack->corpus->Snapshot()->schemas->ForEach(
      [&](const schemr::Schema& schema) {
        return (*mirror)->Insert(schema).status();
      });

  IngestTally ingests;
  std::atomic<bool> stop_writer{false};
  std::thread writer;
  if (spec.ingest_per_second > 0.0) {
    writer = std::thread([&] {
      PaceWrites(spec.ingest_per_second, stop_writer, [&](uint64_t k) {
        TraceIngest(schemas->Next(), k, stack, mirror->get(), &log, &ingests);
        return true;
      });
    });
  }

  // Searches one at a time, continuing the loaded run's stream, in pairs
  // of one traced and one untraced search in seeded random order: each
  // kind follows each kind equally often, so trace.overhead_ms compares
  // like with like.
  const schemr::SchemrService& service = *stack->service;
  const ServerClock clock;
  const bool compare = spec.ingest_per_second == 0.0;
  constexpr size_t kPart = 64;
  RequestPlan plan;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  schemr::Rng order(options.seed);
  bool traced_first = true;
  const Clock::time_point stop =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(options.seconds / 2.0));
  for (uint64_t n = 0; Clock::now() < stop; ++n) {
    if (n % kPart == 0) plan = requests->Next(kPart);
    const uint32_t d = plan.sequence[n % kPart];
    if (n % 2 == 0) traced_first = order.NextBool(0.5);
    const bool traced = (n % 2 == 0) == traced_first;
    schemr::HttpCallOptions call;
    call.method = "POST";
    call.body = plan.bodies[d];
    call.headers.emplace_back("X-Schemr-Request-Id",
                              "perfbench-" + std::to_string(n));
    ++attempted;
    schemr::Result<schemr::HttpReply> reply =
        schemr::Status::Internal("not sent");
    ServerClock::Reading served;
    int root = -1;
    if (traced) {
      const ServerClock::Reading before = clock.Read();
      root = log.Begin("client", -1, n);
      reply = schemr::HttpCall("127.0.0.1", stack->port, "/search", call);
      log.End(root);
      served = clock.Read() - before;
      const Span client = log.Get(root);
      traced_ms.push_back((client.end_us - client.start_us) / 1e3);
    } else {
      const Clock::time_point sent = Clock::now();
      reply = schemr::HttpCall("127.0.0.1", stack->port, "/search", call);
      untraced_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - sent)
              .count());
    }
    if (!reply.ok() || reply->status != 200 ||
        !IsHealthyResults(reply->body)) {
      ++failed;
      continue;
    }
    if (compare) {
      schemr::SearchRequest reference = plan.distinct[d];
      reference.cache_bypass = true;
      schemr::Result<std::string> xml = service.SearchXml(reference);
      if (!xml.ok() || *xml != reply->body) ++mismatched;
    }
    if (traced) {
      SpanTree tree(&log, n);
      DecomposeSearch(service, *stack->corpus, clock, served,
                      plan.distinct[d], root, &tree);
    }
  }

  if (spec.ingest_per_second > 0.0) {
    stop_writer.store(true);
    writer.join();
  } else {
    for (uint64_t k = 0; k < kTracedIngests; ++k) {
      TraceIngest(schemas->Next(), k, stack, mirror->get(), &log, &ingests);
    }
  }

  result->attempted += attempted + ingests.result.attempted;
  result->failed += failed + mismatched + ingests.result.failed;
  result->check_failures += mismatched + ingests.result.check_failures;
  for (std::string& note : ingests.result.notes) {
    result->Note(std::move(note));
  }
  if (mismatched > 0) {
    result->Note(Format("output check: %llu traced-pass responses differ "
                        "from in-process SearchXml",
                        static_cast<unsigned long long>(mismatched)));
  }

  // Layer self times, ms per traced search.
  const std::map<std::string, double> self = log.SelfMsByName();
  const std::map<std::string, double> total = log.DurationMsByName();
  const double per_search =
      static_cast<double>(std::max<size_t>(1, traced_ms.size()));
  auto self_ms = [&](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / per_search;
  };
  auto total_ms = [&](const std::string& name) {
    auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second / per_search;
  };
  const double client_mean = total_ms("client");
  const std::vector<std::pair<std::string, double>> layers = {
      {"http", self_ms("client")},
      {"service", self_ms("http.handler") + self_ms("service.parse") +
                      self_ms("service.search_xml")},
      {"parse", self_ms("parse.query")},
      {"cache", self_ms("cache.lookup")},
      {"phase1", self_ms("phase1.extract")},
      {"prep", self_ms("prep.query")},
      {"store", self_ms("store.get")},
      {"phase2", total_ms("phase2.match") - total_ms("prep.query")},
      {"phase3", self_ms("phase3.tightness")},
  };
  double attributed = 0.0;
  result->Note(Format("traced: %zu traced and %zu untraced searches, traced "
                      "client mean %.3f ms; layer self time per search:",
                      traced_ms.size(), untraced_ms.size(), client_mean));
  for (const auto& [layer, ms] : layers) {
    attributed += ms;
    result->Note(Format("  %-13s %9.4f ms  %5.1f%%", layer.c_str(), ms,
                        100.0 * Ratio(ms, client_mean)));
  }
  const double unattributed = client_mean - attributed;
  result->Note(Format("  %-13s %9.4f ms  %5.1f%%", "unattributed",
                      unattributed, 100.0 * Ratio(unattributed, client_mean)));

  const double ingest_count = static_cast<double>(
      std::max<size_t>(1, ingests.store_bytes.size()));
  auto ingest_ms = [&](const std::string& name, bool self_time) {
    const auto& source = self_time ? self : total;
    auto it = source.find(name);
    return it == source.end() ? 0.0 : it->second / ingest_count;
  };
  std::vector<Metric>& layer = result->per_layer;
  layer.push_back({"http.self_ms", self_ms("client"), "ms"});
  layer.push_back({"service.parse_ms", self_ms("service.parse"), "ms"});
  layer.push_back(
      {"service.serialize_ms", self_ms("service.search_xml"), "ms"});
  layer.push_back({"service.self_ms", self_ms("http.handler"), "ms"});
  layer.push_back({"parse.query_ms", self_ms("parse.query"), "ms"});
  layer.push_back({"cache.lookup_ms", self_ms("cache.lookup"), "ms"});
  layer.push_back({"phase1.extract_ms", self_ms("phase1.extract"), "ms"});
  layer.push_back({"prep.query_ms", self_ms("prep.query"), "ms"});
  layer.push_back({"store.get_ms", self_ms("store.get"), "ms"});
  for (const char* matcher : {"name", "context", "type", "structure"}) {
    layer.push_back({std::string("phase2.") + matcher + "_ms",
                     total_ms(std::string("phase2.") + matcher), "ms"});
  }
  layer.push_back({"phase3.tightness_ms", self_ms("phase3.tightness"), "ms"});
  layer.push_back({"unattributed", unattributed, "ms"});
  layer.push_back({"trace.overhead_ms",
                   Quantile(traced_ms, 0.5) - Quantile(untraced_ms, 0.5),
                   "ms"});
  layer.push_back({"corpus.ingest_ms", ingest_ms("ingest", false), "ms"});
  layer.push_back(
      {"corpus.features_ms", ingest_ms("corpus.features", false), "ms"});
  layer.push_back({"corpus.publish_ms", ingest_ms("ingest", true), "ms"});
  layer.push_back({"store.insert_ms", ingest_ms("store.insert", false), "ms"});
  layer.push_back(
      {"store.bytes_per_ingest", Mean(ingests.store_bytes), "bytes"});

  if (!options.spans_path.empty() &&
      !log.WriteJson(options.spans_path, WorkloadName(options.workload),
                     options.seed)) {
    result->Note("could not write spans to " + options.spans_path);
  }
}

}  // namespace perfbench
