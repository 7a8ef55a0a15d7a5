#include "cli/args.hpp"
#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/trace_io.hpp"
#include "util/time_format.hpp"

namespace odtn::cli {
namespace {

TEST(ArgList, TakeOptionConsumes) {
  ArgList args({"--seed", "42", "pos"});
  EXPECT_EQ(args.take_option("seed"), "42");
  EXPECT_EQ(args.take_option("seed"), std::nullopt);
  EXPECT_EQ(args.take_positional(), "pos");
  EXPECT_NO_THROW(args.expect_empty());
}

TEST(ArgList, MissingValueThrows) {
  ArgList a({"--seed"});
  EXPECT_THROW(a.take_option("seed"), CliError);
  ArgList b({"--seed", "--other", "1"});
  EXPECT_THROW(b.take_option("seed"), CliError);
}

TEST(ArgList, FlagsAndPositionalsAreIndependent) {
  ArgList args({"file.txt", "--verbose"});
  EXPECT_TRUE(args.take_flag("verbose"));
  EXPECT_FALSE(args.take_flag("verbose"));
  EXPECT_EQ(args.take_positional(), "file.txt");
  EXPECT_EQ(args.take_positional(), std::nullopt);
}

TEST(ArgList, ExpectEmptyReportsLeftovers) {
  ArgList args({"--bogus", "x"});
  EXPECT_THROW(args.expect_empty(), CliError);
}

TEST(Parse, Numbers) {
  EXPECT_DOUBLE_EQ(parse_double("3.5", "x"), 3.5);
  EXPECT_EQ(parse_long("-7", "x"), -7);
  EXPECT_THROW(parse_double("abc", "x"), CliError);
  EXPECT_THROW(parse_long("1.5", "x"), CliError);
  EXPECT_THROW(parse_long("", "x"), CliError);
}

TEST(Parse, CountsRejectNegatives) {
  EXPECT_EQ(parse_count("42", "trials"), 42ul);
  EXPECT_EQ(parse_count("0", "trials"), 0ul);
  EXPECT_THROW(parse_count("-1", "trials"), CliError);
  EXPECT_THROW(parse_count("abc", "trials"), CliError);
  try {
    parse_count("-3", "n");
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    // The message must name the flag and the rejected value.
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
}

TEST(Parse, OutOfRangeValuesAreRejected) {
  // strtol saturates at LONG_MAX/LONG_MIN with ERANGE: never a value.
  EXPECT_THROW(parse_long("99999999999999999999", "x"), CliError);
  EXPECT_THROW(parse_long("-99999999999999999999", "x"), CliError);
  EXPECT_THROW(parse_count("99999999999999999999", "x"), CliError);
  // Caller-supplied ceilings guard the later narrowing casts.
  EXPECT_EQ(parse_count("4294967295", "src", 4294967295ul), 4294967295ul);
  EXPECT_THROW(parse_count("4294967296", "src", 4294967295ul), CliError);
  EXPECT_EQ(parse_int("2147483647", "max-hops", 1), 2147483647);
  EXPECT_THROW(parse_int("2147483648", "max-hops", 1), CliError);
  EXPECT_THROW(parse_int("4294967297", "max-hops", 1), CliError);
  EXPECT_THROW(parse_int("0", "max-hops", 1), CliError);
  EXPECT_EQ(parse_int("0", "poll-ms", 0), 0);
}

TEST(Parse, Durations) {
  EXPECT_DOUBLE_EQ(parse_duration("90", "x"), 90.0);
  EXPECT_DOUBLE_EQ(parse_duration("90s", "x"), 90.0);
  EXPECT_DOUBLE_EQ(parse_duration("10min", "x"), 600.0);
  EXPECT_DOUBLE_EQ(parse_duration("6h", "x"), 6 * kHour);
  EXPECT_DOUBLE_EQ(parse_duration("2d", "x"), 2 * kDay);
  EXPECT_DOUBLE_EQ(parse_duration("1wk", "x"), kWeek);
  EXPECT_THROW(parse_duration("10parsec", "x"), CliError);
  EXPECT_THROW(parse_duration("x", "x"), CliError);
}

class CliCommands : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const {
    return ::testing::TempDir() + "/odtn_cli_" + name;
  }
  void TearDown() override {
    for (const auto& f : created_) std::remove(f.c_str());
  }
  std::string track(const std::string& p) {
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

TEST_F(CliCommands, HelpSucceeds) {
  EXPECT_EQ(run_cli({"help"}), 0);
  EXPECT_NE(usage_text().find("generate"), std::string::npos);
}

TEST_F(CliCommands, NoArgsIsUsageError) { EXPECT_EQ(run_cli({}), 2); }

TEST_F(CliCommands, UnknownCommandIsUsageError) {
  EXPECT_EQ(run_cli({"frobnicate"}), 2);
}

TEST_F(CliCommands, GenerateStatsCdfRouteFilterPipeline) {
  const std::string trace = track(path("hk.trace"));
  ASSERT_EQ(run_cli({"generate", "--preset", "hong-kong", "--seed", "7",
                     "--out", trace}),
            0);
  // The file is a valid trace.
  const TemporalGraph g = read_trace_file(trace);
  EXPECT_EQ(g.num_nodes(), 906u);
  EXPECT_GT(g.num_contacts(), 1000u);

  EXPECT_EQ(run_cli({"stats", trace}), 0);

  const std::string filtered = track(path("hk_filtered.trace"));
  ASSERT_EQ(run_cli({"filter", trace, "--out", filtered, "--internal", "37",
                     "--min-duration", "4min"}),
            0);
  const TemporalGraph f = read_trace_file(filtered);
  EXPECT_EQ(f.num_nodes(), 37u);
  for (const Contact& c : f.contacts()) EXPECT_GE(c.duration(), 4 * kMinute);

  EXPECT_EQ(run_cli({"route", trace, "--src", "0", "--dst", "5", "--time",
                     "1d"}),
            0);
}

TEST_F(CliCommands, GenerateRejectsUnknownPreset) {
  EXPECT_EQ(run_cli({"generate", "--preset", "nope", "--out", "/tmp/x"}), 2);
}

TEST_F(CliCommands, GenerateRequiresOut) {
  EXPECT_EQ(run_cli({"generate", "--preset", "hong-kong"}), 2);
}

TEST_F(CliCommands, StatsMissingFileFails) {
  EXPECT_EQ(run_cli({"stats", "/no/such/file"}), 1);
}

TEST_F(CliCommands, FilterValidatesKeepProb) {
  const std::string trace = track(path("small.trace"));
  write_trace_file(trace, TemporalGraph(2, {{0, 1, 0.0, 1.0}}));
  EXPECT_EQ(run_cli({"filter", trace, "--out", track(path("o.trace")),
                     "--keep-prob", "1.5"}),
            2);
  EXPECT_EQ(run_cli({"filter", trace, "--out", track(path("o2.trace")),
                     "--window-lo", "0"}),
            2);  // window-hi missing
}

TEST_F(CliCommands, CdfOnTinyTrace) {
  const std::string trace = track(path("tiny.trace"));
  write_trace_file(
      trace, TemporalGraph(3, {{0, 1, 0.0, 600.0}, {1, 2, 900.0, 1800.0}}));
  EXPECT_EQ(run_cli({"cdf", trace, "--max-hops", "3", "--grid-lo", "60",
                     "--grid-hi", "1h"}),
            0);
}

TEST_F(CliCommands, CdfHopBudgetPastFixpointSucceeds) {
  // Two contacts => the DP fixpoint is at 2 hops; asking for more hop
  // columns than the result materializes must print, not crash
  // (regression: the hop-column loop indexed cdf_by_hops[k-1] blindly).
  const std::string trace = track(path("tiny_fix.trace"));
  write_trace_file(
      trace, TemporalGraph(3, {{0, 1, 0.0, 600.0}, {1, 2, 900.0, 1800.0}}));
  EXPECT_EQ(run_cli({"cdf", trace, "--max-hops", "12", "--grid-lo", "60",
                     "--grid-hi", "1h"}),
            0);
}

TEST_F(CliCommands, CdfValidatesMaxHops) {
  const std::string trace = track(path("tiny_hops.trace"));
  write_trace_file(trace, TemporalGraph(2, {{0, 1, 0.0, 1.0}}));
  EXPECT_EQ(run_cli({"cdf", trace, "--max-hops", "0"}), 2);
  EXPECT_EQ(run_cli({"cdf", trace, "--max-hops", "-4"}), 2);
}

TEST_F(CliCommands, CdfRejectsRemovedShardAndBatchFlags) {
  // The sharded and batched execution paths are gone: their flags are
  // unrecognized arguments (usage error), while the same run without
  // them succeeds.
  const std::string trace = track(path("tiny_shard.trace"));
  write_trace_file(
      trace, TemporalGraph(3, {{0, 1, 0.0, 600.0}, {1, 2, 900.0, 1800.0}}));
  EXPECT_EQ(run_cli({"cdf", trace, "--max-hops", "3", "--grid-lo", "60",
                     "--grid-hi", "1h"}),
            0);
  EXPECT_EQ(run_cli({"cdf", trace, "--shards", "2"}), 2);
  EXPECT_EQ(run_cli({"cdf", trace, "--shard-policy", "contiguous"}), 2);
  EXPECT_EQ(run_cli({"cdf", trace, "--batch-size", "4"}), 2);
}

TEST_F(CliCommands, GenerateRejectsNegativeSeed) {
  EXPECT_EQ(run_cli({"generate", "--preset", "hong-kong", "--seed", "-1",
                     "--out", track(path("neg.trace"))}),
            2);
}

TEST_F(CliCommands, PresetNamesAreCaseFoldedSafely) {
  // Mixed case must resolve; non-ASCII bytes (negative chars) must be
  // rejected cleanly, not hit UB in std::tolower.
  const std::string trace = track(path("case.trace"));
  EXPECT_EQ(run_cli({"generate", "--preset", "Hong-Kong", "--seed", "7",
                     "--out", trace}),
            0);
  EXPECT_EQ(run_cli({"generate", "--preset", "caf\xC3\xA9", "--out",
                     track(path("utf8.trace"))}),
            2);
}

TEST_F(CliCommands, CdfDaytimeWindows) {
  const std::string trace = track(path("tiny_day.trace"));
  // Contacts around 10:00 and 11:00 of day 0.
  write_trace_file(trace,
                   TemporalGraph(3, {{0, 1, 10 * kHour, 10 * kHour + 600},
                                     {1, 2, 11 * kHour, 11 * kHour + 600}}));
  EXPECT_EQ(run_cli({"cdf", trace, "--max-hops", "3", "--grid-lo", "60",
                     "--grid-hi", "2h", "--daytime", "9-18"}),
            0);
  EXPECT_EQ(run_cli({"cdf", trace, "--daytime", "18-9"}), 2);
  EXPECT_EQ(run_cli({"cdf", trace, "--daytime", "nonsense"}), 2);
  // Hours that never intersect the trace span.
  EXPECT_EQ(run_cli({"cdf", trace, "--daytime", "1-2"}), 2);
}

TEST_F(CliCommands, McRunsAndValidates) {
  EXPECT_EQ(run_cli({"mc", "--case", "short", "--n", "150", "--lambda",
                     "0.5", "--trials", "20", "--seed", "3"}),
            0);
  // Explicit budget + thread count; 0 threads = shared pool.
  EXPECT_EQ(run_cli({"mc", "--case", "long", "--n", "150", "--lambda", "0.5",
                     "--tau", "2.0", "--gamma", "1.0", "--trials", "20",
                     "--threads", "2"}),
            0);
  EXPECT_EQ(run_cli({"mc", "--case", "nope", "--n", "150", "--lambda",
                     "0.5"}),
            2);
  EXPECT_EQ(run_cli({"mc", "--case", "short", "--lambda", "0.5"}), 2);
  EXPECT_EQ(run_cli({"mc", "--case", "short", "--n", "150", "--lambda",
                     "0.5", "--threads", "-1"}),
            2);
}

TEST_F(CliCommands, NegativeCountsAreUsageErrors) {
  // Regression: these used to static_cast negative longs to unsigned,
  // silently wrapping into astronomically large values.
  EXPECT_EQ(run_cli({"mc", "--case", "short", "--n", "150", "--lambda",
                     "0.5", "--trials", "-1"}),
            2);
  EXPECT_EQ(run_cli({"mc", "--case", "short", "--n", "-3", "--lambda",
                     "0.5"}),
            2);
  EXPECT_EQ(run_cli({"mc", "--case", "short", "--n", "150", "--lambda",
                     "0.5", "--seed", "-1"}),
            2);
  const std::string trace = track(path("neg_counts.trace"));
  write_trace_file(trace, TemporalGraph(2, {{0, 1, 0.0, 1.0}}));
  EXPECT_EQ(run_cli({"filter", trace, "--out", track(path("neg_out.trace")),
                     "--internal", "-2"}),
            2);
  EXPECT_EQ(run_cli({"route", trace, "--src", "-1", "--dst", "1"}), 2);
}

TEST_F(CliCommands, NarrowingOverflowsAreUsageErrors) {
  // Values that used to wrap in a static_cast to NodeId / int: 2^32
  // became node 0 and 2^32 + 1 hops became 1.
  const std::string trace = track(path("narrow.trace"));
  write_trace_file(trace, TemporalGraph(2, {{0, 1, 0.0, 60.0}}));
  EXPECT_EQ(run_cli({"cdf", trace, "--max-hops", "4294967297"}), 2);
  EXPECT_EQ(run_cli({"cdf", trace, "--threads", "4294967297"}), 2);
  EXPECT_EQ(run_cli({"route", trace, "--src", "4294967296", "--dst", "1"}),
            2);
  EXPECT_EQ(run_cli({"route", trace, "--src", "0", "--dst", "4294967297"}),
            2);
  EXPECT_EQ(run_cli({"serve", "--trace", trace, "--input", "/dev/null",
                     "--max-hops", "4294967297"}),
            2);
  EXPECT_EQ(run_cli({"tail", trace, "--max-hops", "4294967297"}), 2);
  EXPECT_EQ(run_cli({"tail", trace, "--max-levels", "4294967297"}), 2);
  EXPECT_EQ(run_cli({"tail", trace, "--follow", "--poll-ms", "4294967296"}),
            2);
}

TEST_F(CliCommands, RouteRejectsBadNodes) {
  const std::string trace = track(path("tiny2.trace"));
  write_trace_file(trace, TemporalGraph(2, {{0, 1, 0.0, 1.0}}));
  EXPECT_EQ(run_cli({"route", trace, "--src", "0", "--dst", "9"}), 2);
}

TEST_F(CliCommands, ImportConvertsCrawdadAndOne) {
  const std::string crawdad = track(path("contacts.dat"));
  {
    std::ofstream out(crawdad);
    out << "# crawdad style\n1 2 100 200\n2 3 150 400\n";
  }
  const std::string converted = track(path("imported.trace"));
  ASSERT_EQ(run_cli({"import", crawdad, "--format", "crawdad", "--out",
                     converted}),
            0);
  const auto g = read_trace_file(converted);
  EXPECT_EQ(g.num_nodes(), 3u);  // ids shifted to 0-based
  EXPECT_EQ(g.num_contacts(), 2u);

  const std::string one = track(path("events.one"));
  {
    std::ofstream out(one);
    out << "10 CONN 0 1 up\n30 CONN 0 1 down\n";
  }
  const std::string converted2 = track(path("imported2.trace"));
  ASSERT_EQ(
      run_cli({"import", one, "--format", "one", "--out", converted2}), 0);
  EXPECT_EQ(read_trace_file(converted2).num_contacts(), 1u);

  EXPECT_EQ(run_cli({"import", crawdad, "--format", "nonsense", "--out",
                     track(path("x.trace"))}),
            2);
}

TEST_F(CliCommands, RejectsTrailingGarbage) {
  EXPECT_EQ(run_cli({"help", "--wat"}), 0);  // help ignores args
  const std::string trace = track(path("tiny3.trace"));
  write_trace_file(trace, TemporalGraph(2, {{0, 1, 0.0, 1.0}}));
  EXPECT_EQ(run_cli({"stats", trace, "--bogus"}), 2);
}

class CliServe : public CliCommands {
 protected:
  std::string serve_trace(const char* name) {
    const std::string trace = track(path(name));
    write_trace_file(trace, TemporalGraph(3, {{0, 1, 0.0, 600.0},
                                              {1, 2, 900.0, 1800.0}}));
    return trace;
  }
};

TEST_F(CliServe, ServeAnswersFinalLineWithoutNewline) {
  // Regression: a query batch whose final line has no trailing newline
  // must still be answered (the line-carry flush), not dropped at EOF.
  const std::string trace = serve_trace("srv_nl.trace");
  const std::string queries = track(path("srv_nl.q"));
  {
    std::ofstream out(queries);
    out << "cdf 0\ncdf 1";  // deliberately no final '\n'
  }
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(run_cli({"serve", "--trace", trace, "--input", queries,
                     "--grid-lo", "60", "--grid-hi", "1h", "--max-hops",
                     "3"}),
            0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("cdf src=0"), std::string::npos);
  EXPECT_NE(out.find("cdf src=1"), std::string::npos);
}

TEST_F(CliServe, ServeRejectsRemovedCacheShardsFlag) {
  // The serve cache is one LRU: --cache-shards is an unrecognized
  // argument (usage error), while the same run without it succeeds and
  // neither the usage text nor the start-up banner mentions shards.
  const std::string trace = serve_trace("srv_shards.trace");
  const std::string queries = track(path("srv_shards.q"));
  { std::ofstream out(queries); }
  EXPECT_EQ(run_cli({"serve", "--trace", trace, "--input", queries,
                     "--cache-shards", "4"}),
            2);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"serve", "--trace", trace, "--input", queries}), 0);
  const std::string banner = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(banner.find("odtn serve:"), std::string::npos) << banner;
  EXPECT_EQ(banner.find("shard"), std::string::npos) << banner;
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(run_cli({"help"}), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStdout().find("cache-shards"),
            std::string::npos);
}

TEST_F(CliServe, ServeIngestAppendsAndRefreshesAnswers) {
  const std::string trace = serve_trace("srv_ing.trace");
  const std::string queries = track(path("srv_ing.q"));
  {
    std::ofstream out(queries);
    // Before the ingest, node 2 only reaches node 1 (the 0--1 contact is
    // over by the time 2 first meets 1); the appended late 0--2 contact
    // makes node 0 reachable too.
    out << "reach 2 0\n"
        << "ingest 0 2 2000 2600\n"
        << "reach 2 0\n"
        << "ingest 0 1 100 200\n";  // below watermark: must error
  }
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(run_cli({"serve", "--trace", trace, "--input", queries,
                     "--grid-lo", "60", "--grid-hi", "1h", "--max-hops",
                     "3"}),
            0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("reach src=2 t=0 count=1"), std::string::npos);
  EXPECT_NE(out.find("ingest ok epoch=1 contacts=3"), std::string::npos);
  EXPECT_NE(out.find("reach src=2 t=0 count=2"), std::string::npos);
  EXPECT_NE(out.find("error"), std::string::npos);
}

TEST_F(CliServe, ServeIngestRejectsOutOfRangeNodes) {
  // 2^32 used to wrap to node 0 and append a 0--1 contact.
  const std::string trace = serve_trace("srv_wrap.trace");
  const std::string queries = track(path("srv_wrap.q"));
  {
    std::ofstream out(queries);
    out << "ingest 4294967296 1 2000 2001\n"
        << "ingest 0 4294967297 2000 2001\n"
        << "ingest 99999999999999999999 1 2000 2001\n";
  }
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(run_cli({"serve", "--trace", trace, "--input", queries,
                     "--grid-lo", "60", "--grid-hi", "1h"}),
            0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(out.find("ingest ok"), std::string::npos) << out;
  std::istringstream lines(out);
  int errors = 0;
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("error ", 0) == 0) ++errors;
  EXPECT_EQ(errors, 3) << out;
}

/// Strips the us=<latency> token so two runs can be compared bit-exactly.
std::string strip_latency(const std::string& text) {
  std::string out;
  std::istringstream in(text);
  for (std::string tok; in >> tok;)
    if (tok.compare(0, 3, "us=") != 0) out += tok + " ";
  return out;
}

TEST_F(CliServe, TailEpochSplitsEndIdentically) {
  // The final row of a many-epoch run must match the single-epoch run
  // bit for bit: incremental recompute may not depend on batching.
  const std::string trace = serve_trace("tail.trace");
  const auto last_line = [](const std::string& text) {
    const auto end = text.find_last_not_of('\n');
    const auto start = text.rfind('\n', end);
    return text.substr(start + 1, end - start);
  };
  std::vector<std::string> finals;
  for (const char* epoch : {"1", "1000"}) {
    ::testing::internal::CaptureStdout();
    ASSERT_EQ(run_cli({"tail", trace, "--epoch", epoch, "--grid-lo", "60",
                       "--grid-hi", "1h", "--max-hops", "3"}),
              0);
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("epoch="), std::string::npos);
    finals.push_back(strip_latency(last_line(out)));
  }
  EXPECT_EQ(finals[0], finals[1]);
  EXPECT_NE(finals[0].find("converged=1"), std::string::npos);
}

TEST_F(CliServe, TailRejectsHeaderlessFeed) {
  const std::string feed = track(path("tail_bad.trace"));
  {
    std::ofstream out(feed);
    out << "0 1 0 600\n";
  }
  EXPECT_EQ(run_cli({"tail", feed}), 1);
}

}  // namespace
}  // namespace odtn::cli
