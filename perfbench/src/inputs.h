// Seeded inputs of the schemr benchmark: the corpus, the search requests
// and the schemas the ingest writer adds. Everything here is a pure
// function of the workload and the --seed value, so two runs with the same
// seed send byte-identical requests and ingest byte-identical schemas.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "schema/schema.h"
#include "util/rng.h"
#include "service/schemr_service.h"

namespace perfbench {

enum class Workload { kByExample, kBrowse, kIngest };

/// "byexample", "browse" or "ingest"; false for anything else.
bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload workload);

/// Schemas in the generated corpus every workload searches.
inline constexpr size_t kCorpusSchemas = 2000;

/// The fixed traffic shape of one workload.
struct WorkloadSpec {
  /// Open-loop offered rate of POST /search, requests per second.
  double open_qps = 0.0;
  /// Client threads issuing the open-loop arrivals.
  size_t open_connections = 0;
  /// Closed-loop connections for the throughput phase.
  size_t closed_connections = 0;
  /// Share of requests carrying a DDL fragment (search by example).
  double fragment_share = 0.0;
  /// Size of the Zipf-skewed popular request set; 0 = every request is
  /// distinct.
  size_t popular_set = 0;
  /// Live ingest rate during the timed phases, schemas per second; 0 = no
  /// writer while searches run.
  double ingest_per_second = 0.0;
  /// Requests sent before timing starts (cache and lazy-state warm-up).
  size_t warmup_requests = 0;
};

/// The spec of `workload` on a machine with `cpus` processors (client
/// threads never exceed the processor count).
WorkloadSpec SpecFor(Workload workload, size_t cpus);

/// Result-cache capacity the service runs with (as `schemr serve` does).
inline constexpr size_t kResultCacheCapacity = 256;

/// The generated corpus loaded into the repository before set-up. It is
/// the same for every seed: the seed varies the traffic, not the
/// repository it runs against, so runs of different seeds measure the
/// same corpus.
std::vector<schemr::Schema> CorpusSchemas();

/// Fresh schemas for the ingest writer, disjoint in stream from the
/// corpus, generated a chunk at a time as they are taken so the client
/// holds only the chunk in use. The n-th schema taken is a pure function
/// of the seed and n. Not thread-safe: one thread takes at a time.
class SchemaStream {
 public:
  explicit SchemaStream(uint64_t seed) : seed_(seed) {}
  schemr::Schema Next();

 private:
  uint64_t seed_;
  uint64_t taken_ = 0;
  std::vector<schemr::Schema> chunk_;
  size_t in_chunk_ = 0;
};

/// A set of requests. `distinct` holds each different request once (their
/// bodies in `bodies`); `sequence` indexes into it in send order.
struct RequestPlan {
  std::vector<schemr::SearchRequest> distinct;
  std::vector<std::string> bodies;
  std::vector<uint32_t> sequence;
};

/// The requests of one run, drawn in send order as they are needed, so
/// the client holds only the part in use. The n-th timed request is a
/// pure function of the workload, the seed and n, whatever the sizes of
/// the parts it is taken in. Workloads without a popular set get pairwise
/// distinct request bodies throughout (warm-up included), so no timed
/// request can be answered from a cache entry another request filled.
class RequestStream {
 public:
  RequestStream(Workload workload, uint64_t seed);

  /// The warm-up requests, sent untimed before the timed ones: the
  /// popular set on `browse`, the spec's warm-up count of distinct
  /// requests otherwise.
  const RequestPlan& warmup() const { return warmup_; }

  /// The next `count` timed requests. On `browse` they are Zipf-skewed
  /// draws over the popular set, which `distinct` holds.
  RequestPlan Next(size_t count);

 private:
  /// Appends `count` requests whose bodies differ from every body drawn
  /// before.
  void AppendDistinct(size_t count, RequestPlan* plan);

  WorkloadSpec spec_;
  schemr::Rng requests_;
  schemr::Rng draws_;
  /// 64-bit hashes of every body drawn so far.
  std::unordered_set<uint64_t> seen_;
  RequestPlan warmup_;
};

/// A fixed set of requests whose exact-mode result digests are compared
/// between the live corpus and a fresh rebuild at the end of `ingest`.
std::vector<schemr::SearchRequest> ProbeRequests(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
