// Tests for the match engine: similarity matrix, the four matchers, the
// ensemble combiner and the logistic meta-learner.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "corpus/search_history.h"
#include "match/context_matcher.h"
#include "match/ensemble.h"
#include "match/features.h"
#include "match/meta_learner.h"
#include "match/name_matcher.h"
#include "match/structure_matcher.h"
#include "match/type_matcher.h"
#include "schema/schema_builder.h"

namespace schemr {
namespace {

Schema PatientFragment() {
  return SchemaBuilder("fragment")
      .Entity("patient")
      .Attribute("height", DataType::kDouble)
      .Attribute("gender", DataType::kString)
      .Build();
}

Schema ClinicCandidate() {
  return SchemaBuilder("clinic")
      .Entity("pat")  // abbreviated entity name
      .Attribute("pat_id", DataType::kInt64)
      .PrimaryKey()
      .Attribute("ht", DataType::kDouble)         // abbreviated height
      .Attribute("sex", DataType::kString)        // synonym of gender
      .Attribute("dateOfBirth", DataType::kDate)  // camelCase
      .Entity("order")
      .Attribute("total", DataType::kDecimal)
      .Build();
}

/// Name-vs-name similarity on the one scoring path: each name becomes a
/// one-entity schema, featurized under `build` and scored by `matcher`.
double NameSimilarity(const NameMatcher& matcher, const std::string& a,
                      const std::string& b,
                      const FeatureBuildOptions& build = {}) {
  Schema sa;
  sa.AddEntity(a);
  Schema sb;
  sb.AddEntity(b);
  return matcher.Match(sa, sb, PairFeatures(sa, sb, build).context()).at(0, 0);
}

/// The term texts of `id`'s neighborhood, as the catalog records them.
std::vector<std::string> NeighborhoodTerms(const Schema& schema,
                                           ElementId id) {
  auto features = BuildSchemaFeatures(schema, FeatureBuildOptions{});
  std::vector<std::string> terms;
  for (uint32_t term : features->neighborhoods[id]) {
    terms.push_back(features->terms[term].text);
  }
  return terms;
}

// --- similarity matrix ----------------------------------------------------------

TEST(SimilarityMatrixTest, SetClampsAndAccessors) {
  SimilarityMatrix m(2, 3);
  m.set(0, 0, 0.5);
  m.set(0, 1, 1.7);   // clamped to 1
  m.set(1, 2, -0.3);  // clamped to 0
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.ColumnMax(1), 1.0);
  EXPECT_DOUBLE_EQ(m.RowMax(0), 1.0);
  EXPECT_DOUBLE_EQ(m.ColumnMax(2), 0.0);
  EXPECT_NEAR(m.Mean(), 1.5 / 6.0, 1e-12);
}

TEST(SimilarityMatrixTest, WeightedCombine) {
  SimilarityMatrix a(1, 2), b(1, 2);
  a.set(0, 0, 1.0);
  a.set(0, 1, 0.0);
  b.set(0, 0, 0.0);
  b.set(0, 1, 1.0);
  SimilarityMatrix combined =
      SimilarityMatrix::WeightedCombine({&a, &b}, {3.0, 1.0});
  EXPECT_DOUBLE_EQ(combined.at(0, 0), 0.75);
  EXPECT_DOUBLE_EQ(combined.at(0, 1), 0.25);

  // Zero total weight yields zeros, not NaNs.
  SimilarityMatrix zeros =
      SimilarityMatrix::WeightedCombine({&a, &b}, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(zeros.at(0, 0), 0.0);
  // Negative weights are ignored.
  SimilarityMatrix pos =
      SimilarityMatrix::WeightedCombine({&a, &b}, {-5.0, 1.0});
  EXPECT_DOUBLE_EQ(pos.at(0, 1), 1.0);
}

// --- name matcher -----------------------------------------------------------------

TEST(NameMatcherTest, ExactMatchScoresOne) {
  NameMatcher matcher;
  EXPECT_DOUBLE_EQ(NameSimilarity(matcher, "patient", "patient"), 1.0);
  // Delimiter/case variants normalize to the same words.
  EXPECT_DOUBLE_EQ(NameSimilarity(matcher, "date_of_birth", "dateOfBirth"),
                   1.0);
  EXPECT_DOUBLE_EQ(NameSimilarity(matcher, "DATE-OF-BIRTH", "date of birth"),
                   1.0);
}

TEST(NameMatcherTest, AbbreviationsScoreHigh) {
  // "particularly helpful for properly ranking schemas containing
  // abbreviated terms"
  NameMatcher matcher;
  EXPECT_GT(NameSimilarity(matcher, "patient", "pat"), 0.5);
  EXPECT_GT(NameSimilarity(matcher, "patient", "pat"),
            NameSimilarity(matcher, "patient", "order"));
  EXPECT_GT(NameSimilarity(matcher, "patient_name", "pat_name"), 0.6);
}

TEST(NameMatcherTest, SynonymsRecognizedViaLexicon) {
  NameMatcher matcher;
  // gender↔sex share no character grams; only the lexicon catches them.
  EXPECT_GE(NameSimilarity(matcher, "gender", "sex"), 0.85);
  EXPECT_GE(NameSimilarity(matcher, "customer", "client"), 0.85);
  EXPECT_GE(NameSimilarity(matcher, "patient_gender", "patient_sex"), 0.9);
  // Disabled option turns it off.
  NameMatcherOptions no_syn;
  no_syn.use_synonyms = false;
  NameMatcher strict(no_syn);
  EXPECT_LT(NameSimilarity(strict, "gender", "sex"), 0.3);
}

TEST(NameMatcherTest, AcronymsRecognized) {
  // "dob" is the initials of date_of_birth; must beat unrelated words by a
  // wide margin.
  NameMatcher matcher;
  EXPECT_GE(NameSimilarity(matcher, "date_of_birth", "dob"), 0.8);
  EXPECT_GE(NameSimilarity(matcher, "dob", "dateOfBirth"), 0.8);  // symmetric
  EXPECT_LT(NameSimilarity(matcher, "date_of_birth", "dbo"), 0.5);
}

TEST(NameMatcherTest, ConsonantSkeletonAbbreviations) {
  // Subsequence abbreviations that are not prefixes: qty, ht, wt.
  NameMatcher matcher;
  EXPECT_GT(NameSimilarity(matcher, "quantity", "qty"), 0.4);
  EXPECT_GT(NameSimilarity(matcher, "height", "ht"), 0.4);
  EXPECT_GT(NameSimilarity(matcher, "weight", "wt"), 0.4);
  // But not arbitrary short strings.
  EXPECT_LT(NameSimilarity(matcher, "quantity", "zz"), 0.2);
}

TEST(NameMatcherTest, GrammaticalFormsConflate) {
  NameMatcher matcher;
  // Porter maps "diagnosis"→"diagnosi" and "diagnoses"→"diagnose": not
  // identical stems, but the shared prefix keeps the n-gram score high.
  EXPECT_GT(NameSimilarity(matcher, "diagnosis", "diagnoses"), 0.8);
  // Regular plurals conflate exactly.
  EXPECT_DOUBLE_EQ(NameSimilarity(matcher, "observation", "observations"),
                   1.0);
  EXPECT_DOUBLE_EQ(NameSimilarity(matcher, "enrollment", "enrollments"), 1.0);
}

TEST(NameMatcherTest, SymmetricAndBounded) {
  NameMatcher matcher;
  const char* names[] = {"patient", "pat", "patient_name", "order_total",
                         "x", ""};
  for (const char* a : names) {
    for (const char* b : names) {
      double ab = NameSimilarity(matcher, a, b);
      EXPECT_DOUBLE_EQ(ab, NameSimilarity(matcher, b, a));
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
    }
  }
  EXPECT_DOUBLE_EQ(NameSimilarity(matcher, "", "patient"), 0.0);
}

TEST(NameMatcherTest, ExhaustiveVariantAlsoWorks) {
  FeatureBuildOptions exhaustive;
  exhaustive.exhaustive_ngrams = true;
  NameMatcher matcher;
  EXPECT_DOUBLE_EQ(NameSimilarity(matcher, "height", "height", exhaustive),
                   1.0);
  EXPECT_GT(NameSimilarity(matcher, "patient", "pat", exhaustive), 0.4);
  EXPECT_LT(NameSimilarity(matcher, "patient", "order", exhaustive),
            NameSimilarity(matcher, "patient", "pat", exhaustive));
}

TEST(NameMatcherTest, MatrixShapeAndValues) {
  NameMatcher matcher;
  Schema query = PatientFragment();
  Schema candidate = ClinicCandidate();
  SimilarityMatrix m = matcher.Match(query, candidate,
                                     PairFeatures(query, candidate).context());
  EXPECT_EQ(m.rows(), query.size());
  EXPECT_EQ(m.cols(), candidate.size());

  auto q_height = *query.FindByName("height");
  auto c_ht = *candidate.FindByName("ht");
  auto c_total = *candidate.FindByName("total");
  EXPECT_GT(m.at(q_height, c_ht), m.at(q_height, c_total));
}

// --- context matcher ----------------------------------------------------------------

TEST(ContextMatcherTest, NeighborhoodTermsGatherFamily) {
  Schema schema = SchemaBuilder("s")
                      .Entity("patient")
                      .Attribute("height")
                      .Attribute("gender")
                      .Entity("visit")
                      .Attribute("patient_id", DataType::kInt64)
                      .References("patient")
                      .Build();
  auto height = *schema.FindByName("height");
  std::vector<std::string> terms = NeighborhoodTerms(schema, height);
  // parent + sibling present (terms are stemmed/lowercased).
  EXPECT_NE(std::find(terms.begin(), terms.end(), "patient"), terms.end());
  EXPECT_NE(std::find(terms.begin(), terms.end(), "gender"), terms.end());
  EXPECT_NE(std::find(terms.begin(), terms.end(), "height"), terms.end());

  // FK neighbor of the entity appears in the entity's own neighborhood.
  auto patient = *schema.FindByName("patient", ElementKind::kEntity);
  std::vector<std::string> entity_terms = NeighborhoodTerms(schema, patient);
  EXPECT_NE(std::find(entity_terms.begin(), entity_terms.end(), "visit"),
            entity_terms.end());
}

TEST(ContextMatcherTest, SimilarNeighborhoodsScoreHigherThanDissimilar) {
  ContextMatcher matcher;
  Schema query = PatientFragment();
  Schema candidate = ClinicCandidate();
  SimilarityMatrix m = matcher.Match(query, candidate,
                                     PairFeatures(query, candidate).context());
  auto q_patient = *query.FindByName("patient", ElementKind::kEntity);
  auto c_pat = *candidate.FindByName("pat", ElementKind::kEntity);
  auto c_order = *candidate.FindByName("order", ElementKind::kEntity);
  EXPECT_GT(m.at(q_patient, c_pat), m.at(q_patient, c_order));
}

TEST(ContextMatcherTest, HardAlignmentIsStricter) {
  ContextMatcherOptions soft;
  ContextMatcherOptions hard;
  hard.soft_alignment = false;
  ContextMatcher soft_matcher(soft), hard_matcher(hard);
  Schema query = PatientFragment();
  Schema candidate = ClinicCandidate();
  auto q_patient = *query.FindByName("patient", ElementKind::kEntity);
  auto c_pat = *candidate.FindByName("pat", ElementKind::kEntity);
  PairFeatures pair(query, candidate);
  double soft_score =
      soft_matcher.Match(query, candidate, pair.context()).at(q_patient, c_pat);
  double hard_score =
      hard_matcher.Match(query, candidate, pair.context()).at(q_patient, c_pat);
  EXPECT_GE(soft_score, hard_score);
  EXPECT_GT(soft_score, 0.0);
}

// --- type matcher ------------------------------------------------------------------------

TEST(TypeMatcherTest, CompatibilityTable) {
  EXPECT_DOUBLE_EQ(DataTypeCompatibility(DataType::kInt32, DataType::kInt32),
                   1.0);
  EXPECT_DOUBLE_EQ(DataTypeCompatibility(DataType::kInt32, DataType::kInt64),
                   0.8);
  EXPECT_DOUBLE_EQ(DataTypeCompatibility(DataType::kFloat, DataType::kDouble),
                   0.8);
  EXPECT_DOUBLE_EQ(
      DataTypeCompatibility(DataType::kDouble, DataType::kDecimal), 0.6);
  EXPECT_DOUBLE_EQ(DataTypeCompatibility(DataType::kInt64, DataType::kFloat),
                   0.5);
  EXPECT_DOUBLE_EQ(DataTypeCompatibility(DataType::kBool, DataType::kString),
                   0.3);
  EXPECT_DOUBLE_EQ(DataTypeCompatibility(DataType::kBool, DataType::kDate),
                   0.0);
  // Symmetric.
  for (int a = 0; a <= static_cast<int>(DataType::kBinary); ++a) {
    for (int b = 0; b <= static_cast<int>(DataType::kBinary); ++b) {
      EXPECT_DOUBLE_EQ(
          DataTypeCompatibility(static_cast<DataType>(a),
                                static_cast<DataType>(b)),
          DataTypeCompatibility(static_cast<DataType>(b),
                                static_cast<DataType>(a)));
    }
  }
}

TEST(TypeMatcherTest, KindMismatchScoresZero) {
  TypeMatcher matcher;
  Schema query = PatientFragment();
  Schema candidate = ClinicCandidate();
  SimilarityMatrix m = matcher.Match(query, candidate,
                                     PairFeatures(query, candidate).context());
  auto q_patient = *query.FindByName("patient", ElementKind::kEntity);
  auto c_ht = *candidate.FindByName("ht");
  EXPECT_DOUBLE_EQ(m.at(q_patient, c_ht), 0.0);  // entity vs attribute
  auto c_pat = *candidate.FindByName("pat", ElementKind::kEntity);
  EXPECT_DOUBLE_EQ(m.at(q_patient, c_pat), 1.0);  // entity vs entity
}

// --- structure matcher ----------------------------------------------------------------------

TEST(StructureMatcherTest, DepthDecayAndKindGate) {
  StructureMatcher matcher;
  Schema query;
  ElementId q_root = query.AddEntity("a");
  query.AddAttribute("x", q_root);

  Schema candidate;
  ElementId c_root = candidate.AddEntity("b");
  ElementId c_nested = candidate.AddEntity("c", c_root);
  candidate.AddAttribute("y", c_root);    // depth 1
  candidate.AddAttribute("z", c_nested);  // depth 2

  SimilarityMatrix m = matcher.Match(query, candidate,
                                     PairFeatures(query, candidate).context());
  // Same-depth attribute scores above deeper attribute.
  EXPECT_GT(m.at(1, 2), m.at(1, 3));
  // Entity vs attribute is zero.
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
  // All values bounded.
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      EXPECT_GE(m.at(r, c), 0.0);
      EXPECT_LE(m.at(r, c), 1.0);
    }
  }
}

TEST(StructureMatcherTest, FanoutSimilarity) {
  StructureMatcher matcher;
  Schema query;
  ElementId q = query.AddEntity("q");
  for (int i = 0; i < 4; ++i) {
    query.AddAttribute("a" + std::to_string(i), q);
  }
  Schema candidate;
  ElementId same = candidate.AddEntity("same_fanout");
  for (int i = 0; i < 4; ++i) {
    candidate.AddAttribute("b" + std::to_string(i), same);
  }
  ElementId small = candidate.AddEntity("small_fanout");
  candidate.AddAttribute("only", small);

  SimilarityMatrix m = matcher.Match(query, candidate,
                                     PairFeatures(query, candidate).context());
  EXPECT_GT(m.at(q, same), m.at(q, small));
}

// --- ensemble -------------------------------------------------------------------------------

TEST(EnsembleTest, CombinedIsWeightedAverage) {
  MatcherEnsemble ensemble = MatcherEnsemble::PaperMinimal();
  ASSERT_EQ(ensemble.NumMatchers(), 2u);
  Schema query = PatientFragment();
  Schema candidate = ClinicCandidate();
  PairFeatures pair(query, candidate);
  EnsembleResult result = ensemble.Match(query, candidate, pair.context());
  ASSERT_EQ(result.per_matcher.size(), 2u);
  EXPECT_EQ(result.matcher_names[0], "name");
  EXPECT_EQ(result.matcher_names[1], "context");
  // Uniform weights: each cell is the mean of the two matchers.
  for (size_t r = 0; r < result.combined.rows(); ++r) {
    for (size_t c = 0; c < result.combined.cols(); ++c) {
      double expected =
          (result.per_matcher[0].at(r, c) + result.per_matcher[1].at(r, c)) /
          2.0;
      ASSERT_NEAR(result.combined.at(r, c), expected, 1e-12);
    }
  }
}

TEST(EnsembleTest, SetWeightsChangesCombination) {
  MatcherEnsemble ensemble = MatcherEnsemble::PaperMinimal();
  Schema query = PatientFragment();
  Schema candidate = ClinicCandidate();
  ensemble.SetWeights({1.0, 0.0});  // name only
  SimilarityMatrix name_only =
      ensemble.Match(query, candidate, PairFeatures(query, candidate).context())
          .combined;
  NameMatcher name_matcher;
  SimilarityMatrix reference = name_matcher.Match(
      query, candidate, PairFeatures(query, candidate).context());
  for (size_t r = 0; r < name_only.rows(); ++r) {
    for (size_t c = 0; c < name_only.cols(); ++c) {
      ASSERT_NEAR(name_only.at(r, c), reference.at(r, c), 1e-12);
    }
  }
  // Wrong-arity weight vectors are rejected (ignored).
  ensemble.SetWeights({1.0});
  EXPECT_EQ(ensemble.weights().size(), 2u);
}

TEST(EnsembleTest, LogisticCombinerInstalled) {
  MatcherEnsemble ensemble = MatcherEnsemble::PaperMinimal();
  LogisticModel model;
  model.weights = {4.0, 4.0};
  model.bias = -2.0;
  ensemble.SetLogisticModel(model);
  ASSERT_TRUE(ensemble.HasLogisticModel());
  Schema query = PatientFragment();
  Schema candidate = ClinicCandidate();
  SimilarityMatrix combined =
      ensemble.Match(query, candidate, PairFeatures(query, candidate).context())
          .combined;
  EnsembleResult raw = ensemble.Match(query, candidate,
                                      PairFeatures(query, candidate).context());
  // Spot-check the logistic formula on one cell.
  double f0 = raw.per_matcher[0].at(0, 0);
  double f1 = raw.per_matcher[1].at(0, 0);
  double z = 4.0 * f0 + 4.0 * f1 - 2.0;
  EXPECT_NEAR(combined.at(0, 0), 1.0 / (1.0 + std::exp(-z)), 1e-9);

  // Wrong-arity model rejected.
  MatcherEnsemble other = MatcherEnsemble::Default();
  other.SetLogisticModel(model);  // 2 weights vs 4 matchers
  EXPECT_FALSE(other.HasLogisticModel());
}

TEST(EnsembleTest, SynonymFreeNameMatcherLeavesContextScoresAlone) {
  // Name and context share one term-pair memo. A name matcher that skips
  // the synonym lexicon must not leave its values for the context
  // matcher, which consults it, to read.
  NameMatcherOptions no_syn;
  no_syn.use_synonyms = false;
  MatcherEnsemble ensemble;
  ensemble.AddMatcher(std::make_unique<NameMatcher>(no_syn));
  ensemble.AddMatcher(std::make_unique<ContextMatcher>());
  Schema query = PatientFragment();
  Schema candidate = ClinicCandidate();  // gender↔sex needs the lexicon
  PairFeatures pair(query, candidate);
  EnsembleResult result = ensemble.Match(query, candidate, pair.context());

  SimilarityMatrix alone = ContextMatcher().Match(
      query, candidate, PairFeatures(query, candidate).context());
  for (size_t r = 0; r < alone.rows(); ++r) {
    for (size_t c = 0; c < alone.cols(); ++c) {
      EXPECT_EQ(result.per_matcher[1].at(r, c), alone.at(r, c))
          << "cell (" << r << "," << c << ")";
    }
  }
  auto q_gender = *query.FindByName("gender");
  auto c_sex = *candidate.FindByName("sex");
  EXPECT_LT(result.per_matcher[0].at(q_gender, c_sex), 0.3);
}

// --- meta-learner -----------------------------------------------------------------------------

TEST(MetaLearnerTest, LearnsLinearlySeparableData) {
  // Relevant iff feature0 > 0.5; feature1 is noise.
  std::vector<TrainingRecord> records;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    TrainingRecord r;
    double f0 = rng.NextDouble();
    r.features = {f0, rng.NextDouble()};
    r.relevant = f0 > 0.5;
    records.push_back(std::move(r));
  }
  auto model = TrainLogisticModel(records);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_GT(EvaluateAccuracy(*model, records), 0.95);
  EXPECT_GT(model->weights[0], std::abs(model->weights[1]));
}

TEST(MetaLearnerTest, NormalizedWeightsSumToOne) {
  LogisticModel model;
  model.weights = {2.0, -1.0, 2.0};
  std::vector<double> w = model.NormalizedWeights();
  EXPECT_DOUBLE_EQ(w[0], 0.5);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
  EXPECT_DOUBLE_EQ(w[2], 0.5);

  // All-negative weights fall back to uniform.
  model.weights = {-1.0, -2.0};
  w = model.NormalizedWeights();
  EXPECT_DOUBLE_EQ(w[0], 0.5);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
}

TEST(MetaLearnerTest, RejectsDegenerateTrainingSets) {
  EXPECT_FALSE(TrainLogisticModel({}).ok());

  std::vector<TrainingRecord> all_positive(5);
  for (auto& r : all_positive) {
    r.features = {0.5};
    r.relevant = true;
  }
  EXPECT_FALSE(TrainLogisticModel(all_positive).ok());

  std::vector<TrainingRecord> ragged(2);
  ragged[0].features = {0.1, 0.2};
  ragged[0].relevant = true;
  ragged[1].features = {0.3};
  ragged[1].relevant = false;
  EXPECT_FALSE(TrainLogisticModel(ragged).ok());
}

TEST(MetaLearnerTest, TrainsOnSimulatedSearchHistory) {
  // End-to-end: simulated histories + logistic training separate
  // same-attribute pairs from cross-attribute pairs well above chance.
  MatcherEnsemble ensemble = MatcherEnsemble::Default();
  SearchHistoryOptions options;
  options.num_records = 300;
  std::vector<TrainingRecord> records =
      SimulateSearchHistory(ensemble, options);
  ASSERT_EQ(records.size(), 300u);
  for (const TrainingRecord& r : records) {
    ASSERT_EQ(r.features.size(), ensemble.NumMatchers());
    for (double f : r.features) {
      ASSERT_GE(f, 0.0);
      ASSERT_LE(f, 1.0);
    }
  }
  auto model = TrainLogisticModel(records);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_GT(EvaluateAccuracy(*model, records), 0.8);
}

}  // namespace
}  // namespace schemr
