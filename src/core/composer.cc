#include "core/composer.h"

#include <algorithm>

#include "match/ensemble.h"
#include "match/features.h"
#include "schema/entity_graph.h"
#include "util/string_util.h"

namespace schemr {

std::vector<ExtensionSuggestion> SuggestExtensions(
    const Schema& result_schema, const SimilarityMatrix& similarity,
    ElementId best_anchor, const ComposerOptions& options) {
  std::vector<ExtensionSuggestion> suggestions;
  if (similarity.cols() != result_schema.size()) return suggestions;

  EntityGraph graph(result_schema);
  for (ElementId e = 0; e < result_schema.size(); ++e) {
    const Element& element = result_schema.element(e);
    if (element.kind != ElementKind::kAttribute) continue;
    // Covered elements are already in the draft; skip.
    double covered = similarity.ColumnMax(e);
    if (covered >= options.covered_threshold) continue;

    ElementId entity = result_schema.EntityOf(e);
    double weight;
    if (best_anchor != kNoElement && entity == best_anchor) {
      weight = options.anchor_weight;
    } else if (best_anchor != kNoElement && entity != kNoElement &&
               graph.InSameNeighborhood(entity, best_anchor)) {
      weight = options.neighborhood_weight;
    } else {
      weight = options.unrelated_weight;
    }
    ExtensionSuggestion suggestion;
    suggestion.source_element = e;
    suggestion.name = element.name;
    suggestion.type = element.type;
    suggestion.source_path = result_schema.Path(e);
    // Less covered = more novel; weight by structural closeness.
    suggestion.confidence = weight * (1.0 - covered);
    suggestions.push_back(std::move(suggestion));
  }
  std::sort(suggestions.begin(), suggestions.end(),
            [](const ExtensionSuggestion& a, const ExtensionSuggestion& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              return a.source_element < b.source_element;
            });
  if (suggestions.size() > options.max_suggestions) {
    suggestions.resize(options.max_suggestions);
  }
  return suggestions;
}

std::vector<ExtensionSuggestion> SuggestExtensionsForResult(
    const Schema& draft, const Schema& result_schema,
    const MatcherEnsemble& ensemble, ElementId best_anchor,
    const ComposerOptions& options) {
  SimilarityMatrix combined =
      ensemble
          .Match(draft, result_schema,
                 PairFeatures(draft, result_schema).context())
          .combined;
  return SuggestExtensions(result_schema, combined, best_anchor, options);
}

Result<ElementId> ApplySuggestion(Schema* draft, ElementId entity,
                                  const ExtensionSuggestion& suggestion) {
  if (entity >= draft->size() ||
      draft->element(entity).kind != ElementKind::kEntity) {
    return Status::InvalidArgument("target is not an entity of the draft");
  }
  if (suggestion.name.empty()) {
    return Status::InvalidArgument("suggestion has no name");
  }
  // Refuse duplicates within the entity.
  for (ElementId child : draft->Children(entity)) {
    if (EqualsIgnoreCase(draft->element(child).name, suggestion.name)) {
      return Status::AlreadyExists("attribute '" + suggestion.name +
                                   "' already present");
    }
  }
  return draft->AddAttribute(suggestion.name, entity, suggestion.type);
}

}  // namespace schemr
