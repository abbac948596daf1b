#include "core/serving_corpus.h"

#include "index/indexer.h"
#include "obs/metrics.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace schemr {

namespace {

struct SignatureMetrics {
  Histogram* build_seconds;

  static const SignatureMetrics& Get() {
    static const SignatureMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new SignatureMetrics{
          r.GetHistogram("schemr_signature_build_seconds",
                         "Wall time spent building match-feature catalogs "
                         "and schema signatures (full rebuilds and "
                         "incremental per-schema builds)."),
      };
    }();
    return *metrics;
  }
};

struct GraphCacheMetrics {
  Counter* hits;
  Counter* builds;

  static const GraphCacheMetrics& Get() {
    static const GraphCacheMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new GraphCacheMetrics{
          r.GetCounter("schemr_entity_graph_cache_hits_total",
                       "Phase-3 entity graphs served from the snapshot "
                       "cache instead of being rebuilt."),
          r.GetCounter("schemr_entity_graph_cache_builds_total",
                       "Entity graphs built and inserted into a snapshot "
                       "cache (includes the losers of build races)."),
      };
    }();
    return *metrics;
  }
};

}  // namespace

std::shared_ptr<const EntityGraph> EntityGraphCache::GetOrBuild(
    SchemaId id, const Schema& schema) {
  const GraphCacheMetrics& metrics = GraphCacheMetrics::Get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(id);
    if (it != graphs_.end()) {
      metrics.hits->Increment();
      return it->second;
    }
  }
  // Build outside the lock: graph construction is O(V+E) but a big schema
  // must not serialize every other worker's lookup behind it. A racing
  // builder is possible and harmless -- emplace keeps the first insert.
  auto built = std::make_shared<const EntityGraph>(schema);
  metrics.builds->Increment();
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = graphs_.emplace(id, std::move(built));
  return it->second;
}

size_t EntityGraphCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

ServingCorpus::ServingCorpus(std::unique_ptr<SchemaRepository> repository,
                             AnalyzerOptions analyzer_options,
                             FeatureBuildOptions feature_options)
    : repository_(std::move(repository)),
      analyzer_options_(analyzer_options),
      index_(analyzer_options),
      feature_options_(feature_options),
      snapshot_(std::make_shared<const CorpusSnapshot>()) {}

Result<std::unique_ptr<ServingCorpus>> ServingCorpus::Create(
    std::unique_ptr<SchemaRepository> repository,
    AnalyzerOptions analyzer_options, FeatureBuildOptions feature_options) {
  std::unique_ptr<ServingCorpus> corpus(new ServingCorpus(
      std::move(repository), analyzer_options, feature_options));
  SCHEMR_RETURN_IF_ERROR(corpus->Reindex());
  return corpus;
}

Result<std::unique_ptr<ServingCorpus>> ServingCorpus::Open(
    const std::string& repo_dir) {
  SCHEMR_ASSIGN_OR_RETURN(std::unique_ptr<SchemaRepository> repository,
                          SchemaRepository::Open(repo_dir));
  std::unique_ptr<ServingCorpus> corpus(
      new ServingCorpus(std::move(repository), {}, {}));
  const std::string segment_path = SegmentPath(repo_dir);
  const std::string signature_path = repo_dir + "/signatures.sig";
  std::lock_guard<std::mutex> lock(corpus->writer_mutex_);
  const SchemaRepository& repo = *corpus->repository_;

  Timer timer;
  Indexer indexer;
  IndexOpenStats& opened = corpus->index_open_stats_;
  if (indexer.LoadFrom(segment_path).ok()) {
    SCHEMR_RETURN_IF_ERROR(indexer.Refresh(repo).status());
  } else {
    opened.rebuilt = true;
    SCHEMR_RETURN_IF_ERROR(indexer.RebuildFromRepository(repo).status());
    // Best effort: a segment that cannot be written is rebuilt next time.
    (void)indexer.Save(segment_path);
  }
  opened.seconds = timer.ElapsedSeconds();
  SCHEMR_RETURN_IF_ERROR(
      corpus->index_.Apply([&indexer](InvertedIndex* index) {
        *index = std::move(indexer.mutable_index());
        return Status::OK();
      }));

  // A missing or unreadable signature file is a cold start; a bad header
  // makes it garbage that the save below replaces.
  Result<StoredSignatures> stored = LoadSignatures(signature_path);
  SCHEMR_RETURN_IF_ERROR(corpus->RebuildCatalogLocked(
      *repo.View(), stored.ok() ? &stored.value() : nullptr));
  corpus->PublishLocked();
  const CatalogBuildStats& built = corpus->last_build_stats_;
  if (built.signatures_built > 0 || built.corrupt_records > 0) {
    (void)SaveSignatures(signature_path, *corpus->Snapshot()->match_features);
  }
  return corpus;
}

std::shared_ptr<const CorpusSnapshot> ServingCorpus::Snapshot() const {
  return snapshot_.load();
}

void ServingCorpus::PublishLocked() {
  auto next = std::make_shared<CorpusSnapshot>();
  next->version = Snapshot()->version + 1;
  next->index = index_.Snapshot();
  next->schemas = repository_->View();
  // Freeze the working feature set into the snapshot: the map copy is
  // shared_ptr-shallow, so publication stays cheap and the catalog stays
  // immutable no matter what later writers do to features_.
  next->match_features = std::make_shared<const MatchFeatureCatalog>(
      feature_options_, features_, std::make_shared<const DfTable>(df_));
  FaultInjector::Global().Perturb("corpus/commit/publish");
  snapshot_.store(std::move(next));
}

Result<SchemaId> ServingCorpus::Ingest(Schema schema) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Durable commit first: a snapshot must never reference a schema the
  // repository could not persist.
  SCHEMR_ASSIGN_OR_RETURN(SchemaId id, repository_->Insert(schema));
  schema.set_id(id);
  SCHEMR_RETURN_IF_ERROR(index_.AddDocument(FlattenSchema(schema)));
  {
    // Incremental feature build: signed under the df table as of now.
    // (A full Reindex recomputes every signature under the final df, so
    // signatures converge on rebuild; they are advisory either way.)
    Timer timer;
    auto features = BuildSchemaFeatures(schema, feature_options_);
    df_.AddDocument(*features);
    ComputeSignature(features.get(), &df_);
    features_[id] = std::move(features);
    SignatureMetrics::Get().build_seconds->Observe(timer.ElapsedSeconds());
  }
  PublishLocked();
  return id;
}

Status ServingCorpus::Update(Schema schema) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  SCHEMR_RETURN_IF_ERROR(repository_->Update(schema));
  // Replace the document in one index publication so no intermediate
  // "removed but not re-added" index version can pair with the new view.
  // Vacuum drops the tombstone: document frequencies count tombstoned
  // documents, so leaving it would score this corpus differently from a
  // fresh build of the same content.
  SCHEMR_RETURN_IF_ERROR(index_.Apply([&schema](InvertedIndex* index) {
    SCHEMR_RETURN_IF_ERROR(index->RemoveDocument(schema.id()));
    SCHEMR_RETURN_IF_ERROR(index->AddDocument(FlattenSchema(schema)));
    index->Vacuum();
    return Status::OK();
  }));
  {
    Timer timer;
    auto old = features_.find(schema.id());
    if (old != features_.end()) {
      df_.RemoveDocument(*old->second);
      features_.erase(old);
    }
    auto features = BuildSchemaFeatures(schema, feature_options_);
    df_.AddDocument(*features);
    ComputeSignature(features.get(), &df_);
    features_[schema.id()] = std::move(features);
    SignatureMetrics::Get().build_seconds->Observe(timer.ElapsedSeconds());
  }
  PublishLocked();
  return Status::OK();
}

Status ServingCorpus::Remove(SchemaId id) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  SCHEMR_RETURN_IF_ERROR(repository_->Remove(id));
  // Vacuumed in the same publication, as in Update.
  SCHEMR_RETURN_IF_ERROR(index_.Apply([id](InvertedIndex* index) {
    SCHEMR_RETURN_IF_ERROR(index->RemoveDocument(id));
    index->Vacuum();
    return Status::OK();
  }));
  auto it = features_.find(id);
  if (it != features_.end()) {
    df_.RemoveDocument(*it->second);
    features_.erase(it);
  }
  PublishLocked();
  return Status::OK();
}

Status ServingCorpus::Reindex() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Build against the repository view that will ship in the snapshot, so
  // the rebuilt index and the published schemas agree exactly.
  std::shared_ptr<const RepositoryView> schemas = repository_->View();
  SCHEMR_RETURN_IF_ERROR(
      index_.Apply([this, &schemas](InvertedIndex* index) {
        *index = InvertedIndex(analyzer_options_);
        return schemas->ForEach([index](const Schema& schema) {
          return index->AddDocument(FlattenSchema(schema));
        });
      }));
  SCHEMR_RETURN_IF_ERROR(RebuildCatalogLocked(*schemas, nullptr));
  PublishLocked();
  return Status::OK();
}

Status ServingCorpus::RebuildCatalogLocked(const RepositoryView& schemas,
                                           const StoredSignatures* stored) {
  CatalogBuilder builder(feature_options_);
  SCHEMR_RETURN_IF_ERROR(schemas.ForEach([&builder](const Schema& schema) {
    builder.Add(schema);
    return Status::OK();
  }));
  auto catalog = builder.Build(stored, &last_build_stats_);
  features_ = catalog->features();
  df_ = catalog->df();
  SignatureMetrics::Get().build_seconds->Observe(last_build_stats_.seconds);
  return Status::OK();
}

CatalogBuildStats ServingCorpus::last_build_stats() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return last_build_stats_;
}

IndexOpenStats ServingCorpus::index_open_stats() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return index_open_stats_;
}

}  // namespace schemr
