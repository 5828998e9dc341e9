// Direct unit tests for the language-layer components: ResultTable,
// AnalyzeQuery and the AST helpers (the engine tests cover them end-to-end;
// these pin the individual contracts).

#include <gtest/gtest.h>

#include <sstream>

#include "census/census.h"
#include "lang/analyzer.h"
#include "lang/query_parser.h"
#include "lang/result_table.h"
#include "pattern/catalog.h"

namespace egocensus {
namespace {

TEST(ResultTableTest, RowsPaddedToColumns) {
  ResultTable t({"a", "b", "c"});
  t.AddRow({std::int64_t{1}});
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(t.At(0, 2)), 0);
}

TEST(ResultTableTest, SortByOneKeyDescending) {
  ResultTable t({"id", "count"});
  t.AddRow({std::int64_t{1}, std::int64_t{5}});
  t.AddRow({std::int64_t{2}, std::int64_t{9}});
  t.AddRow({std::int64_t{3}, std::int64_t{7}});
  t.SortByColumns({{1, /*descending=*/true}});
  EXPECT_EQ(std::get<std::int64_t>(t.At(0, 0)), 2);
  EXPECT_EQ(std::get<std::int64_t>(t.At(1, 0)), 3);
  EXPECT_EQ(std::get<std::int64_t>(t.At(2, 0)), 1);
}

TEST(ResultTableTest, MultiKeySortStable) {
  ResultTable t({"group", "value"});
  t.AddRow({std::int64_t{2}, std::int64_t{10}});
  t.AddRow({std::int64_t{1}, std::int64_t{20}});
  t.AddRow({std::int64_t{2}, std::int64_t{5}});
  t.AddRow({std::int64_t{1}, std::int64_t{5}});
  // group ascending, then value descending.
  t.SortByColumns({{0, false}, {1, true}});
  EXPECT_EQ(std::get<std::int64_t>(t.At(0, 0)), 1);
  EXPECT_EQ(std::get<std::int64_t>(t.At(0, 1)), 20);
  EXPECT_EQ(std::get<std::int64_t>(t.At(1, 1)), 5);
  EXPECT_EQ(std::get<std::int64_t>(t.At(2, 0)), 2);
  EXPECT_EQ(std::get<std::int64_t>(t.At(2, 1)), 10);
}

TEST(ResultTableTest, SortWithMixedNumericTypes) {
  ResultTable t({"x"});
  t.AddRow({AttributeValue(2.5)});
  t.AddRow({AttributeValue(std::int64_t{2})});
  t.AddRow({AttributeValue(3.0)});
  t.SortByColumns({{0, false}});
  EXPECT_EQ(std::get<std::int64_t>(t.At(0, 0)), 2);
  EXPECT_DOUBLE_EQ(std::get<double>(t.At(2, 0)), 3.0);
}

TEST(ResultTableTest, Truncate) {
  ResultTable t({"x"});
  for (int i = 0; i < 5; ++i) t.AddRow({std::int64_t{i}});
  t.Truncate(2);
  EXPECT_EQ(t.NumRows(), 2u);
  t.Truncate(10);  // no-op when larger
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(ResultTableTest, ToStringTruncationNotice) {
  ResultTable t({"x"});
  for (int i = 0; i < 30; ++i) t.AddRow({std::int64_t{i}});
  std::string text = t.ToString(10);
  EXPECT_NE(text.find("20 more rows"), std::string::npos);
}

TEST(ResultTableTest, CsvWithStrings) {
  ResultTable t({"name", "v"});
  t.AddRow({AttributeValue(std::string("alice")), AttributeValue(1.5)});
  std::ostringstream os;
  t.WriteCsv(os);
  EXPECT_NE(os.str().find("alice"), std::string::npos);
}

TEST(AnalyzerTest, ResolvesRegisteredPatterns) {
  auto query = ParseQuery(
      "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(query.ok());
  std::vector<Pattern> registered;
  registered.push_back(MakeTriangle(false));
  auto analyzed = AnalyzeQuery(*query, registered);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_EQ(analyzed->counts.size(), 1u);
  EXPECT_EQ(analyzed->counts[0].pattern, &registered[0]);
  EXPECT_FALSE(analyzed->pairwise);
}

TEST(AnalyzerTest, InlineShadowsRegistered) {
  auto query = ParseQuery(
      "PATTERN clq3-unlb {?A-?B;}\n"
      "SELECT COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(query.ok());
  std::vector<Pattern> registered;
  registered.push_back(MakeTriangle(false));
  auto analyzed = AnalyzeQuery(*query, registered);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed->counts[0].pattern, &query->patterns[0]);
}

TEST(AnalyzerTest, PairwiseValidation) {
  // Same alias twice.
  auto dup = ParseQuery(
      "PATTERN p {?A;} SELECT COUNTP(p, SUBGRAPH-UNION(a.ID, a.ID, 1)) "
      "FROM nodes AS a, nodes AS a");
  ASSERT_TRUE(dup.ok());
  EXPECT_FALSE(AnalyzeQuery(*dup, {}).ok());

  // Neighborhood referencing a foreign alias.
  auto wrong = ParseQuery(
      "PATTERN p {?A;} SELECT COUNTP(p, SUBGRAPH-UNION(a.ID, c.ID, 1)) "
      "FROM nodes AS a, nodes AS b");
  ASSERT_TRUE(wrong.ok());
  EXPECT_FALSE(AnalyzeQuery(*wrong, {}).ok());

  // Correct pairwise form, either alias order in the neighborhood.
  auto ok = ParseQuery(
      "PATTERN p {?A;} SELECT COUNTP(p, SUBGRAPH-UNION(b.ID, a.ID, 1)) "
      "FROM nodes AS a, nodes AS b");
  ASSERT_TRUE(ok.ok());
  std::vector<Pattern> none;
  auto analyzed = AnalyzeQuery(*ok, none);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_TRUE(analyzed->pairwise);
}

TEST(AnalyzerTest, MissingFromRejected) {
  Query query;  // empty FROM
  query.select.push_back(SelectItem{});
  EXPECT_FALSE(AnalyzeQuery(query, {}).ok());
}

TEST(AstTest, NeighborhoodKindNames) {
  EXPECT_STREQ(NeighborhoodKindName(NeighborhoodSpec::Kind::kSubgraph),
               "SUBGRAPH");
  EXPECT_STREQ(NeighborhoodKindName(NeighborhoodSpec::Kind::kIntersection),
               "SUBGRAPH-INTERSECTION");
  EXPECT_STREQ(NeighborhoodKindName(NeighborhoodSpec::Kind::kUnion),
               "SUBGRAPH-UNION");
}

TEST(AstTest, CensusAlgorithmNames) {
  EXPECT_STREQ(CensusAlgorithmName(CensusAlgorithm::kNdPvot), "ND-PVOT");
  EXPECT_STREQ(CensusAlgorithmName(CensusAlgorithm::kPtRnd), "PT-RND");
}

}  // namespace
}  // namespace egocensus
