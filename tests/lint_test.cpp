// Tests for tools/qbp_lint: every rule must fire on its fixture, the clean
// fixture must stay silent, suppressions must silence exactly the named
// rule, and the per-directory exemptions must hold.  Fixture sources live
// in tests/lint_fixtures/ (lint input only -- never compiled).
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace {

using qbp::lint::Finding;
using qbp::lint::SourceFile;

std::string fixture_path(const std::string& name) {
  return std::string(QBP_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Finding> lint_paths(const std::vector<std::string>& paths) {
  std::string error;
  std::vector<Finding> findings = qbp::lint::run(paths, error);
  EXPECT_TRUE(error.empty()) << error;
  return findings;
}

/// The (rule, line) pairs of a finding list, sorted.
std::vector<std::pair<std::string, int>> rule_lines(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, int>> out;
  out.reserve(findings.size());
  for (const Finding& finding : findings) {
    out.emplace_back(finding.rule, finding.line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

using Expected = std::vector<std::pair<std::string, int>>;

TEST(LintRules, CatalogueListsEveryRule) {
  std::vector<std::string> names;
  for (const auto& rule : qbp::lint::rules()) names.push_back(rule.name);
  const std::vector<std::string> expected = {
      "raw-assert",   "raw-thread",       "raw-rng",
      "unordered-iter", "unordered-reduce", "dangling-span"};
  for (const std::string& name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "rule missing from catalogue: " << name;
  }
  EXPECT_EQ(names.size(), expected.size());
}

TEST(LintRules, RawAssertFiresOnceAndIgnoresMemberAccess) {
  const auto findings = lint_paths({fixture_path("raw_assert.cc")});
  EXPECT_EQ(rule_lines(findings), (Expected{{"raw-assert", 9}}));
}

TEST(LintRules, RawThreadFiresButAllowsStaticMemberAccess) {
  const auto findings = lint_paths({fixture_path("raw_thread.cc")});
  EXPECT_EQ(rule_lines(findings),
            (Expected{{"raw-thread", 7}, {"raw-thread", 9}, {"raw-thread", 10}}));
}

TEST(LintRules, RawRngFiresOnLibraryRandomness) {
  const auto findings = lint_paths({fixture_path("raw_rng.cc")});
  EXPECT_EQ(rule_lines(findings),
            (Expected{{"raw-rng", 10}, {"raw-rng", 11}, {"raw-rng", 12}}));
}

TEST(LintRules, UnorderedIterFiresOnRangeForAndBegin) {
  const auto findings = lint_paths({fixture_path("unordered_iter.cc")});
  EXPECT_EQ(rule_lines(findings),
            (Expected{{"unordered-iter", 12}, {"unordered-iter", 15}}));
}

TEST(LintRules, UnorderedReduceFiresButAccumulateIsFine) {
  const auto findings = lint_paths({fixture_path("unordered_reduce.cc")});
  EXPECT_EQ(rule_lines(findings),
            (Expected{{"unordered-reduce", 7}, {"unordered-reduce", 8}}));
}

TEST(LintRules, DanglingSpanFiresOnByValueAccessorOnly) {
  const auto findings = lint_paths({fixture_path("dangling_span.cc")});
  EXPECT_EQ(rule_lines(findings), (Expected{{"dangling-span", 14}}));
}

TEST(LintRules, CleanFixtureProducesNoFindings) {
  const auto findings = lint_paths({fixture_path("clean.cc")});
  EXPECT_TRUE(findings.empty()) << findings.size() << " unexpected findings, "
                                << "first: " << findings[0].rule << " @ "
                                << findings[0].line;
}

TEST(LintSuppression, SilencesExactlyTheNamedRule) {
  // Line 8 (same-line allow) and line 10 (allow on the comment line above)
  // are silenced; line 12 carries an allow() for the *wrong* rule and line
  // 15 sits one line too far below its allow() -- both must still fire.
  const auto findings = lint_paths({fixture_path("suppressed.cc")});
  EXPECT_EQ(rule_lines(findings),
            (Expected{{"raw-assert", 12}, {"raw-assert", 15}}));
}

TEST(LintCrossFile, HeaderDeclarationFlagsIterationInCpp) {
  const auto findings = lint_paths({fixture_path("cross_file_decl.hpp"),
                                    fixture_path("cross_file_iter.cc")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].file.find("cross_file_iter.cc"), std::string::npos);
  // Without the header in the run the declaration is invisible and the
  // iteration cannot be attributed to an unordered container.
  EXPECT_TRUE(lint_paths({fixture_path("cross_file_iter.cc")}).empty());
}

TEST(LintExemptions, SanctionedDirectoriesAreExempt) {
  const std::string thread_use =
      "#include <thread>\nvoid f() { std::thread t([]{}); t.join(); }\n";
  const std::string rng_use = "int f() { return std::rand(); }\n";
  // raw-thread has no sanctioned directory: every thread needs an allow().
  EXPECT_EQ(
      qbp::lint::lint_files({{"src/service/server.cpp", thread_use}}).size(),
      1u);
  EXPECT_TRUE(qbp::lint::lint_files({{"src/util/rng.cpp", rng_use}}).empty());
  EXPECT_EQ(qbp::lint::lint_files({{"src/core/solver.cpp", rng_use}}).size(),
            1u);
}

TEST(LintOutput, JsonRendersFindingsAndEmptyList) {
  EXPECT_EQ(qbp::lint::to_json({}), "[]\n");
  const std::string json = qbp::lint::to_json(
      {{"src/a.cpp", 12, "raw-assert", "use QBP_CHECK \"quoted\""}});
  EXPECT_NE(json.find("\"file\":\"src/a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":12"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"raw-assert\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(LintTokenizer, CommentsStringsAndIncludesNeverFire) {
  const std::string tricky =
      "// assert(1) in a comment\n"
      "/* std::thread in a block comment */\n"
      "#include <unordered_map>\n"
      "const char* s = \"assert(1) std::rand()\";\n"
      "const char* r = R\"(assert(2) std::random_device)\";\n";
  EXPECT_TRUE(qbp::lint::lint_files({{"src/x.cpp", tricky}}).empty());
}

TEST(LintTree, RepositorySourcesAreLintClean) {
  // The same gate ctest runs as `qbp_lint_src`, exercised in-process so a
  // failure here names the offending file and line in the gtest log.
  const auto findings = lint_paths({std::string(QBP_LINT_SRC_DIR)});
  for (const Finding& finding : findings) {
    ADD_FAILURE() << finding.file << ":" << finding.line << ": ["
                  << finding.rule << "] " << finding.message;
  }
}

}  // namespace
