#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"

namespace odtn {
namespace {

TEST(TraceIo, RoundTripPreservesEverything) {
  SyntheticTraceSpec spec;
  spec.num_internal = 12;
  spec.duration = kDay;
  spec.pair_contacts_mean = 5.0;
  const auto original = generate_trace(spec, 3).graph;

  std::stringstream buffer;
  write_trace(buffer, original);
  const auto restored = read_trace(buffer);

  EXPECT_EQ(restored.num_nodes(), original.num_nodes());
  EXPECT_EQ(restored.directed(), original.directed());
  EXPECT_TRUE(std::ranges::equal(restored.contacts(), original.contacts()));
}

TEST(TraceIo, DirectedFlagRoundTrips) {
  TemporalGraph g(3, {{0, 1, 1.0, 2.0}}, /*directed=*/true);
  std::stringstream buffer;
  write_trace(buffer, g);
  EXPECT_TRUE(read_trace(buffer).directed());
}

TEST(TraceIo, ParsesHandWrittenInput) {
  std::istringstream in(
      "# odtn-trace v1\n"
      "# nodes 3\n"
      "\n"
      "# a comment\n"
      "0 1 10.5 20.25\n"
      "1 2 30 40\n");
  const auto g = read_trace(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  ASSERT_EQ(g.num_contacts(), 2u);
  EXPECT_DOUBLE_EQ(g.contacts()[0].begin, 10.5);
}

TEST(TraceIo, WindowsLineEndingsAccepted) {
  std::istringstream in(
      "# odtn-trace v1\r\n# nodes 2\r\n0 1 0 1\r\n");
  EXPECT_EQ(read_trace(in).num_contacts(), 1u);
}

TEST(TraceIo, ErrorsCarryLineNumbers) {
  std::istringstream missing_magic("0 1 0 1\n");
  EXPECT_THROW(read_trace(missing_magic), std::runtime_error);

  std::istringstream missing_nodes("# odtn-trace v1\n0 1 0 1\n");
  EXPECT_THROW(read_trace(missing_nodes), std::runtime_error);

  std::istringstream bad_row("# odtn-trace v1\n# nodes 2\n0 1 zero 1\n");
  try {
    read_trace(bad_row);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(TraceIo, RejectsOutOfRangeNodes) {
  std::istringstream in("# odtn-trace v1\n# nodes 2\n0 5 0 1\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsReversedInterval) {
  std::istringstream in("# odtn-trace v1\n# nodes 2\n0 1 5 1\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsTrailingGarbage) {
  std::istringstream in("# odtn-trace v1\n# nodes 2\n0 1 0 1 extra\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/odtn_trace_test.txt";
  TemporalGraph g(2, {{0, 1, 1.25, 2.75}});
  write_trace_file(path, g);
  const auto restored = read_trace_file(path);
  EXPECT_TRUE(std::ranges::equal(restored.contacts(), g.contacts()));
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/no/such/file.txt"), std::runtime_error);
  TemporalGraph g(2, {});
  EXPECT_THROW(write_trace_file("/no/such/dir/out.txt", g),
               std::runtime_error);
}

// ---- Structured diagnostics (TraceError taxonomy) ----

/// Parses `text` in strict mode and returns the diagnostic it raises.
TraceDiagnostic strict_failure(const std::string& text) {
  std::istringstream in(text);
  try {
    read_trace(in);
  } catch (const TraceError& e) {
    return e.diagnostic();
  }
  ADD_FAILURE() << "expected TraceError for: " << text;
  return {};
}

TEST(TraceErrors, CodesLinesAndColumns) {
  const auto bad_field =
      strict_failure("# odtn-trace v1\n# nodes 2\n0 1 zero 1\n");
  EXPECT_EQ(bad_field.code, TraceErrorCode::kBadContactSyntax);
  EXPECT_EQ(bad_field.line, 3u);
  EXPECT_EQ(bad_field.column, 5u);  // points at the 'zero' token
  EXPECT_EQ(bad_field.excerpt, "0 1 zero 1");

  const auto trailing =
      strict_failure("# odtn-trace v1\n# nodes 2\n0 1 0 1 junk\n");
  EXPECT_EQ(trailing.code, TraceErrorCode::kTrailingData);
  EXPECT_EQ(trailing.line, 3u);
  EXPECT_EQ(trailing.column, 9u);

  EXPECT_EQ(strict_failure("").code, TraceErrorCode::kEmptyInput);
  EXPECT_EQ(strict_failure("0 1 0 1\n").code, TraceErrorCode::kMissingMagic);
  EXPECT_EQ(strict_failure("# odtn-trace v1\n0 1 0 1\n").code,
            TraceErrorCode::kMissingNodesHeader);
  EXPECT_EQ(strict_failure("# odtn-trace v1\n# just a comment\n").code,
            TraceErrorCode::kMissingNodesHeader);
  EXPECT_EQ(strict_failure("# odtn-trace v1\n# nodes 2\n0 5 0 1\n").code,
            TraceErrorCode::kNodeOutOfRange);
  EXPECT_EQ(strict_failure("# odtn-trace v1\n# nodes 2\n0 1 5 1\n").code,
            TraceErrorCode::kMalformedContact);
  EXPECT_EQ(strict_failure("# odtn-trace v1\n# nodes 2\n1 1 0 1\n").code,
            TraceErrorCode::kMalformedContact);
}

TEST(TraceErrors, WhatStringIsHumanReadable) {
  std::istringstream in("# odtn-trace v1\n# nodes 2\n0 1 zero 1\n");
  try {
    read_trace(in);
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad-contact-syntax"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("0 1 zero 1"), std::string::npos) << what;
  }
}

TEST(TraceErrors, RejectsBadVersionStrings) {
  const auto v2 = strict_failure("# odtn-trace v2\n# nodes 2\n0 1 0 1\n");
  EXPECT_EQ(v2.code, TraceErrorCode::kUnsupportedVersion);
  EXPECT_EQ(v2.line, 1u);
  EXPECT_EQ(strict_failure("# odtn-trace\n# nodes 2\n").code,
            TraceErrorCode::kUnsupportedVersion);
  EXPECT_EQ(strict_failure("# odtn-trace 1\n# nodes 2\n").code,
            TraceErrorCode::kUnsupportedVersion);
}

TEST(TraceErrors, RejectsDuplicateAndConflictingHeaders) {
  EXPECT_EQ(strict_failure("# odtn-trace v1\n# nodes 2\n# nodes 2\n").code,
            TraceErrorCode::kDuplicateHeader);
  // A conflicting repeat is just as dead: first value wins in lenient,
  // strict refuses outright.
  EXPECT_EQ(strict_failure("# odtn-trace v1\n# nodes 2\n# nodes 9\n").code,
            TraceErrorCode::kDuplicateHeader);
  EXPECT_EQ(strict_failure("# odtn-trace v1\n# odtn-trace v1\n").code,
            TraceErrorCode::kDuplicateHeader);
  EXPECT_EQ(
      strict_failure(
          "# odtn-trace v1\n# nodes 2\n# directed 0\n# directed 1\n")
          .code,
      TraceErrorCode::kDuplicateHeader);
}

TEST(TraceErrors, RejectsMalformedHeaders) {
  EXPECT_EQ(strict_failure("# odtn-trace v1\n# nodes 5 seven\n").code,
            TraceErrorCode::kBadHeader);
  EXPECT_EQ(strict_failure("# odtn-trace v1\n# nodes -3\n").code,
            TraceErrorCode::kBadHeader);
  EXPECT_EQ(strict_failure("# odtn-trace v1\n# nodes two\n").code,
            TraceErrorCode::kBadHeader);
  EXPECT_EQ(strict_failure("# odtn-trace v1\n# nodes 2\n# directed 2\n").code,
            TraceErrorCode::kBadHeader);
}

TEST(TraceErrors, RejectsNodeCountBeyondNodeIdRange) {
  // 2^32 node ids cannot fit NodeId (the top value is kInvalidNode).
  const auto overflow =
      strict_failure("# odtn-trace v1\n# nodes 4294967296\n");
  EXPECT_EQ(overflow.code, TraceErrorCode::kNodeCountOverflow);
  EXPECT_EQ(
      strict_failure("# odtn-trace v1\n# nodes 99999999999999999999\n").code,
      TraceErrorCode::kBadHeader);  // does not even fit unsigned long long
  // Overflow is fatal even in lenient mode: every later range check
  // would be wrong.
  std::istringstream in("# odtn-trace v1\n# nodes 4294967296\n");
  EXPECT_THROW(read_trace(in, {ParseMode::kLenient}), TraceError);
}

TEST(TraceErrors, ErrorNamesAreStable) {
  EXPECT_STREQ(trace_error_name(TraceErrorCode::kBadContactSyntax),
               "bad-contact-syntax");
  EXPECT_STREQ(trace_error_name(TraceErrorCode::kNodeCountOverflow),
               "node-count-overflow");
  EXPECT_STREQ(trace_error_name(TraceErrorCode::kUnsupportedVersion),
               "unsupported-version");
}

// ---- Lenient mode ----

TEST(TraceLenient, SkipsDefectiveRecordsAndReportsThem) {
  std::istringstream in(
      "# odtn-trace v1\n"
      "# nodes 3\n"
      "0 1 0 1\n"
      "0 1 zero 1\n"    // bad syntax
      "0 9 0 1\n"       // out of range
      "1 2 3 2\n"       // reversed interval
      "1 2 5 6 junk\n"  // trailing data
      "0 2 7 8\n");
  ParseReport report;
  const auto g = read_trace(in, {ParseMode::kLenient}, &report);
  EXPECT_EQ(g.num_contacts(), 2u);
  EXPECT_EQ(report.skipped, 4u);
  ASSERT_EQ(report.diagnostics.size(), 4u);
  EXPECT_EQ(report.diagnostics[0].code, TraceErrorCode::kBadContactSyntax);
  EXPECT_EQ(report.diagnostics[1].code, TraceErrorCode::kNodeOutOfRange);
  EXPECT_EQ(report.diagnostics[2].code, TraceErrorCode::kMalformedContact);
  EXPECT_EQ(report.diagnostics[3].code, TraceErrorCode::kTrailingData);
  EXPECT_EQ(report.diagnostics[0].line, 4u);
  EXPECT_EQ(report.diagnostics[3].line, 7u);
  EXPECT_EQ(report.contact_lines, 2u);
  EXPECT_EQ(report.lines, 8u);

  // A written trace with ~5% of its contact lines corrupted: each one is
  // skipped and counted, every clean record is kept in order, and the
  // stored diagnostics stop at the default cap.
  Rng rng(99);
  std::vector<Contact> contacts;
  for (int i = 0; i < 2000; ++i) {
    const auto u = static_cast<NodeId>(rng.below(30));
    auto v = static_cast<NodeId>(rng.below(29));
    if (v >= u) ++v;
    const double begin = rng.uniform(0.0, kDay);
    contacts.push_back({u, v, begin, begin + rng.uniform(0.0, kHour)});
  }
  const TemporalGraph original(30, std::move(contacts));
  std::ostringstream out;
  write_trace(out, original);
  std::string text = out.str();
  std::vector<Contact> clean;
  std::size_t record = 0;
  for (std::size_t at = 0; at < text.size(); at = text.find('\n', at) + 1) {
    if (text[at] == '#') continue;
    if (rng.bernoulli(0.05))
      text[at] = 'x';
    else
      clean.push_back(original.contacts()[record]);
    ++record;
  }
  ASSERT_EQ(record, original.num_contacts());
  const std::size_t corrupted = record - clean.size();
  ASSERT_GT(corrupted, ParseOptions{}.max_diagnostics);
  std::istringstream broken(text);
  const auto kept = read_trace(broken, {ParseMode::kLenient}, &report);
  EXPECT_EQ(report.skipped, corrupted);
  EXPECT_TRUE(std::ranges::equal(kept.contacts(), clean));
  EXPECT_EQ(report.diagnostics.size(), ParseOptions{}.max_diagnostics);
}

TEST(TraceLenient, FirstHeaderWinsOnDuplicates) {
  std::istringstream in(
      "# odtn-trace v1\n# nodes 2\n# nodes 50\n# directed 1\n"
      "# directed 0\n0 1 0 1\n");
  ParseReport report;
  const auto g = read_trace(in, {ParseMode::kLenient}, &report);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_TRUE(g.directed());
  EXPECT_EQ(report.skipped, 2u);
}

TEST(TraceLenient, CapsStoredDiagnostics) {
  std::string text = "# odtn-trace v1\n# nodes 2\n";
  for (int i = 0; i < 10; ++i) text += "0 1 bad 1\n";
  std::istringstream in(text);
  ParseReport report;
  ParseOptions options{ParseMode::kLenient};
  options.max_diagnostics = 3;
  read_trace(in, options, &report);
  EXPECT_EQ(report.skipped, 10u);
  EXPECT_EQ(report.diagnostics.size(), 3u);
  EXPECT_NE(report.summary().find("7 more"), std::string::npos);
}

TEST(TraceLenient, CleanTraceSkipsNothing) {
  std::istringstream in("# odtn-trace v1\n# nodes 2\n0 1 0 1\n");
  ParseReport report;
  const auto g = read_trace(in, {ParseMode::kLenient}, &report);
  EXPECT_EQ(g.num_contacts(), 1u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_TRUE(report.diagnostics.empty());
}

// ---- Canonicalization ----

TEST(TraceCanonicalize, SortsMergesAndCrossChecks) {
  std::istringstream in(
      "# odtn-trace v1\n"
      "# nodes 8\n"
      "1 2 10 20\n"
      "0 1 0 5\n"      // out of order
      "2 1 15 30\n");  // overlaps the first record
  ParseOptions options;
  options.canonicalize = true;
  ParseReport report;
  const auto g = read_trace(in, options, &report);
  ASSERT_EQ(g.num_contacts(), 2u);
  EXPECT_EQ(g.contacts()[0], (Contact{0, 1, 0.0, 5.0}));
  EXPECT_EQ(g.contacts()[1], (Contact{1, 2, 10.0, 30.0}));
  EXPECT_TRUE(report.canonicalized);
  EXPECT_EQ(report.out_of_order, 1u);
  EXPECT_EQ(report.merged, 1u);
  EXPECT_EQ(report.contacts, 2u);
  EXPECT_EQ(report.declared_nodes, 8u);
  EXPECT_EQ(report.max_node_id, 2u);
  EXPECT_EQ(report.unused_node_ids(), 5u);

  // Dense unsorted records with many overlaps of the same pair: the
  // parse-time pass equals merge_overlapping_contacts on the raw list.
  Rng rng(7);
  std::vector<Contact> raw;
  std::string text = "# odtn-trace v1\n# nodes 12\n# directed 0\n";
  char line[128];
  for (int i = 0; i < 2000; ++i) {
    const auto u = static_cast<NodeId>(rng.below(12));
    auto v = static_cast<NodeId>(rng.below(11));
    if (v >= u) ++v;
    const double begin = rng.uniform(0.0, 500.0);
    raw.push_back({u, v, begin, begin + rng.uniform(0.0, 50.0)});
    std::snprintf(line, sizeof line, "%u %u %.17g %.17g\n", u, v, begin,
                  raw.back().end);
    text += line;
  }
  std::istringstream unsorted(text);
  const auto canonical = read_trace(unsorted, options, &report);
  const TemporalGraph expected(12, merge_overlapping_contacts(raw));
  EXPECT_TRUE(std::ranges::equal(canonical.contacts(), expected.contacts()));
  EXPECT_EQ(report.merged, raw.size() - canonical.num_contacts());
  EXPECT_GT(report.merged, 0u);
  EXPECT_GT(report.out_of_order, 0u);
}

TEST(TraceCanonicalize, ReportsSortedInputUntouched) {
  std::istringstream in("# odtn-trace v1\n# nodes 2\n0 1 0 1\n0 1 5 6\n");
  ParseOptions options;
  options.canonicalize = true;
  ParseReport report;
  const auto g = read_trace(in, options, &report);
  EXPECT_EQ(g.num_contacts(), 2u);
  EXPECT_EQ(report.out_of_order, 0u);
  EXPECT_EQ(report.merged, 0u);
}

TEST(TraceCanonicalize, EmptyTraceReportsAllNodesUnused) {
  std::istringstream in("# odtn-trace v1\n# nodes 4\n");
  ParseOptions options;
  options.canonicalize = true;
  ParseReport report;
  read_trace(in, options, &report);
  EXPECT_EQ(report.max_node_id, kInvalidNode);
  EXPECT_EQ(report.unused_node_ids(), 4u);
}

}  // namespace
}  // namespace odtn
