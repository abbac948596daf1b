#include "inputs.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "corpus/query_workload.h"
#include "corpus/schema_generator.h"
#include "corpus/vocabulary.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using schemr::SearchRequest;

/// Independent seed per input stream (splitmix64 finalizer), so adding a
/// stream never shifts the values another stream draws.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// `schemr seed`'s default corpus seed.
constexpr uint64_t kCorpusSeed = 42;

enum Stream : uint64_t {
  kIngestStream = 2,
  kRequestStream = 3,
  kSequenceStream = 4,
  kProbeStream = 5,
};

/// One keyword query over a random built-in concept, with a DDL fragment
/// when `with_fragment`. Pool 50, top-k 10, exact mode (no prefilter).
SearchRequest DrawRequest(schemr::Rng* rng, bool with_fragment) {
  const auto& concepts = schemr::BuiltinConcepts();
  const schemr::DomainConcept& dc = concepts[rng->NextBelow(concepts.size())];
  schemr::QueryWorkloadOptions options;
  options.fragment_prob = with_fragment ? 1.0 : 0.0;
  schemr::WorkloadQuery query = schemr::MakeQueryForConcept(dc, rng, options);
  SearchRequest request;
  request.keywords = std::move(query.keywords);
  request.fragment = std::move(query.ddl_fragment);
  request.top_k = 10;
  request.candidate_pool = 50;
  return request;
}

/// FNV-1a: a body's identity in the distinctness set.
uint64_t HashBody(const std::string& body) {
  uint64_t hash = 0xCBF29CE484222325ull;
  for (unsigned char c : body) {
    hash = (hash ^ c) * 0x100000001B3ull;
  }
  return hash;
}

/// Ingest schemas generated per call of GenerateCorpus.
constexpr size_t kIngestChunk = 32;

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "byexample") {
    *out = Workload::kByExample;
  } else if (name == "browse") {
    *out = Workload::kBrowse;
  } else if (name == "ingest") {
    *out = Workload::kIngest;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kByExample:
      return "byexample";
    case Workload::kBrowse:
      return "browse";
    case Workload::kIngest:
      return "ingest";
  }
  return "?";
}

WorkloadSpec SpecFor(Workload workload, size_t cpus) {
  cpus = std::max<size_t>(1, cpus);
  WorkloadSpec spec;
  switch (workload) {
    case Workload::kByExample:
      // Far below by-example capacity, so p99 reflects service time and
      // not a queue.
      spec.open_qps = 100.0;
      spec.open_connections = cpus;
      spec.closed_connections = cpus;
      spec.fragment_share = 1.0;
      spec.warmup_requests = 100;
      break;
    case Workload::kBrowse:
      // Well inside what four client threads can issue, so the generator
      // keeps its schedule through the machine's slow stretches.
      spec.open_qps = 400.0;
      spec.open_connections = cpus;
      spec.closed_connections = cpus;
      spec.popular_set = kResultCacheCapacity / 2;
      spec.warmup_requests = spec.popular_set;
      break;
    case Workload::kIngest:
      // One writer beside at most three readers, at a third of their
      // closed-loop rate: enough samples for a steady p99, and room on
      // three connections to ride out a slow stretch without queueing.
      spec.open_qps = 150.0;
      spec.open_connections = std::min<size_t>(3, cpus);
      spec.closed_connections = std::min<size_t>(3, cpus);
      spec.fragment_share = 0.3;
      spec.ingest_per_second = 10.0;
      spec.warmup_requests = 100;
      break;
  }
  return spec;
}

std::vector<schemr::Schema> CorpusSchemas() {
  schemr::CorpusOptions options;
  options.num_schemas = kCorpusSchemas;
  options.seed = kCorpusSeed;
  std::vector<schemr::Schema> schemas;
  schemas.reserve(options.num_schemas);
  for (schemr::GeneratedSchema& generated : schemr::GenerateCorpus(options)) {
    schemas.push_back(std::move(generated.schema));
  }
  return schemas;
}

schemr::Schema SchemaStream::Next() {
  if (in_chunk_ == chunk_.size()) {
    // Each chunk has a seed of its own, so the n-th schema does not
    // depend on how many were generated before it.
    schemr::CorpusOptions options;
    options.num_schemas = kIngestChunk;
    options.seed = StreamSeed(StreamSeed(seed_, kIngestStream),
                              taken_ / kIngestChunk);
    chunk_.clear();
    for (schemr::GeneratedSchema& generated :
         schemr::GenerateCorpus(options)) {
      chunk_.push_back(std::move(generated.schema));
    }
    in_chunk_ = 0;
  }
  schemr::Schema schema = std::move(chunk_[in_chunk_++]);
  schema.set_name("ingest_" + std::to_string(taken_++) + "_" + schema.name());
  return schema;
}

RequestStream::RequestStream(Workload workload, uint64_t seed)
    : spec_(SpecFor(workload, 1)),
      requests_(StreamSeed(seed, kRequestStream)),
      draws_(StreamSeed(seed, kSequenceStream)) {
  // Browse: a popular set half the result cache's size, visited once in
  // warm-up and then drawn with Zipf skew.
  AppendDistinct(spec_.popular_set > 0 ? spec_.popular_set
                                       : spec_.warmup_requests,
                 &warmup_);
  for (uint32_t i = 0; i < warmup_.distinct.size(); ++i) {
    warmup_.sequence.push_back(i);
  }
}

RequestPlan RequestStream::Next(size_t count) {
  RequestPlan plan;
  if (spec_.popular_set > 0) {
    plan.distinct = warmup_.distinct;
    plan.bodies = warmup_.bodies;
    const schemr::ZipfSampler zipf(spec_.popular_set, 1.0);
    plan.sequence.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      plan.sequence.push_back(static_cast<uint32_t>(zipf.Sample(&draws_)));
    }
    return plan;
  }
  AppendDistinct(count, &plan);
  for (uint32_t i = 0; i < count; ++i) plan.sequence.push_back(i);
  return plan;
}

void RequestStream::AppendDistinct(size_t count, RequestPlan* plan) {
  constexpr size_t kMaxAttemptsPerRequest = 1000;
  for (size_t i = 0; i < count; ++i) {
    size_t attempts = 0;
    for (;;) {
      const double share = spec_.fragment_share;
      const bool with_fragment =
          share >= 1.0 || (share > 0.0 && requests_.NextBool(share));
      SearchRequest request = DrawRequest(&requests_, with_fragment);
      std::string body = schemr::SearchRequestToXml(request);
      if (seen_.insert(HashBody(body)).second) {
        plan->distinct.push_back(std::move(request));
        plan->bodies.push_back(std::move(body));
        break;
      }
      if (++attempts == kMaxAttemptsPerRequest) {
        throw std::runtime_error("request space exhausted");
      }
    }
  }
}

std::vector<schemr::SearchRequest> ProbeRequests(uint64_t seed) {
  constexpr size_t kProbes = 24;
  schemr::Rng rng(StreamSeed(seed, kProbeStream));
  std::vector<SearchRequest> probes;
  probes.reserve(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    probes.push_back(DrawRequest(&rng, /*with_fragment=*/i % 2 == 1));
  }
  return probes;
}

}  // namespace perfbench
