#include "corpus/search_history.h"

#include "corpus/vocabulary.h"
#include "match/features.h"
#include "schema/schema.h"

namespace schemr {

namespace {

/// Flat list of (entity name, attribute blueprint) across all concepts.
struct AttrRef {
  const ConceptEntity* entity;
  const ConceptAttribute* attribute;
};

std::vector<AttrRef> AllAttributes() {
  std::vector<AttrRef> out;
  for (const DomainConcept& dc : BuiltinConcepts()) {
    for (const ConceptEntity& entity : dc.entities) {
      for (const ConceptAttribute& attr : entity.attributes) {
        out.push_back(AttrRef{&entity, &attr});
      }
    }
  }
  return out;
}

/// Embeds one noisy attribute variant in a one-entity schema so matchers
/// that look at parents and types have something to chew on.
Schema EmbedAttribute(const AttrRef& ref, Rng* rng,
                      const VariantOptions& base_noise) {
  VariantOptions noise = base_noise;
  noise.style = RandomStyle(rng);
  Schema schema("history");
  ElementId entity =
      schema.AddEntity(MakeNameVariant(ref.entity->name, rng, noise));
  schema.AddAttribute(MakeNameVariant(ref.attribute->name, rng, noise),
                      entity, ref.attribute->type);
  return schema;
}

}  // namespace

std::vector<TrainingRecord> SimulateSearchHistory(
    const MatcherEnsemble& ensemble, const SearchHistoryOptions& options) {
  Rng rng(options.seed);
  std::vector<AttrRef> attributes = AllAttributes();
  std::vector<TrainingRecord> records;
  records.reserve(options.num_records);

  for (size_t i = 0; i < options.num_records; ++i) {
    bool positive = rng.NextBool(options.positive_fraction);
    size_t a = rng.NextBelow(attributes.size());
    size_t b = a;
    if (!positive) {
      while (b == a) b = rng.NextBelow(attributes.size());
    }
    Schema query = EmbedAttribute(attributes[a], &rng, options.name_noise);
    Schema candidate = EmbedAttribute(attributes[b], &rng, options.name_noise);

    EnsembleResult result = ensemble.Match(
        query, candidate, PairFeatures(query, candidate).context());
    // The attribute is element 1 in both schemas (entity is 0).
    TrainingRecord record;
    record.features.reserve(result.per_matcher.size());
    for (const SimilarityMatrix& matrix : result.per_matcher) {
      record.features.push_back(matrix.at(1, 1));
    }
    record.relevant = positive;
    if (rng.NextBool(options.label_noise)) record.relevant = !record.relevant;
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace schemr
