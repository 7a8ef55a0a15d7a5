#include "cli/args.hpp"
#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/generators.hpp"
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

TEST_F(CliCommands, RouteTimePrintsTheDeliveryOfTheFirstUsableRoute) {
  // Three delay-optimal routes 0 -> 3: (LD, EA) = (1, 10) over 0-1-2-3,
  // the contemporaneous (52, 48) over 0-2-3 and (91, 90) direct. A message
  // created at t is delivered at max(t, EA) of the first route with
  // LD >= t, and never once t passes the last departure.
  const std::string trace = track(path("route_time.trace"));
  write_trace_file(trace, TemporalGraph(4, {{0, 1, 0.0, 1.0},
                                            {1, 2, 5.0, 6.0},
                                            {2, 3, 10.0, 11.0},
                                            {0, 2, 45.0, 55.0},
                                            {2, 3, 48.0, 52.0},
                                            {0, 3, 90.0, 91.0}}));
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"-5", "message created at -0+00:00:05 delivered at 0+00:00:10 "
             "(delay 15 s)"},
      {"1", "message created at 0+00:00:01 delivered at 0+00:00:10 "
            "(delay 9 s)"},
      {"20", "message created at 0+00:00:20 delivered at 0+00:00:48 "
             "(delay 28 s)"},
      {"50", "message created at 0+00:00:50 delivered at 0+00:00:50 "
             "(delay 0 s)"},
      {"1min", "message created at 0+00:01:00 delivered at 0+00:01:30 "
               "(delay 30 s)"},
      {"91", "message created at 0+00:01:31 delivered at 0+00:01:31 "
             "(delay 0 s)"},
      {"100", "message created at 0+00:01:40 is never delivered"},
  };
  for (const auto& [time, want] : cases) {
    ::testing::internal::CaptureStdout();
    ASSERT_EQ(run_cli({"route", trace, "--src", "0", "--dst", "3", "--time",
                       time}),
              0);
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("3 delay-optimal route(s) from 0 to 3:\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find(std::string("\n") + want + "\n"), std::string::npos)
        << "--time " << time << "\n"
        << out;
  }
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

TEST_F(CliServe, ServeRejectsNonFiniteQueryTimes) {
  // Each query used to get a silently wrong answer: 40 -nan values, all
  // zeros, value=1 and count=0.
  const std::string trace = serve_trace("srv_inf.trace");
  const std::string queries = track(path("srv_inf.q"));
  {
    std::ofstream out(queries);
    out << "cdf 0 inf inf\n"
        << "cdf 0 -inf inf\n"
        << "diameter 0.01 inf inf\n"
        << "reach 0 nan\n";
  }
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(run_cli({"serve", "--trace", trace, "--input", queries}), 0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  std::istringstream lines(out);
  int errors = 0;
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("error ", 0) == 0) ++errors;
  EXPECT_EQ(errors, 4) << out;
}

TEST_F(CliServe, ServeRejectsZeroMeasureQueryWindows) {
  // Equal explicit bounds used to answer silently: `cdf` with 40 zeros,
  // `diameter` with value=1. Each is now an error reply, and the session
  // goes on to answer the valid query after them.
  const std::string trace = serve_trace("srv_zero.trace");
  const std::string queries = track(path("srv_zero.q"));
  {
    std::ofstream out(queries);
    out << "cdf 0 5 5\n"
        << "diameter 0.01 5 5\n"
        << "cdf 0 0 1800\n";
  }
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(run_cli({"serve", "--trace", trace, "--input", queries}), 0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  std::istringstream lines(out);
  std::vector<std::string> replies;
  for (std::string line; std::getline(lines, line);) replies.push_back(line);
  ASSERT_EQ(replies.size(), 3u) << out;
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(replies[i].rfind("error ", 0), 0u) << replies[i];
    EXPECT_NE(replies[i].find("empty start-time window"), std::string::npos);
  }
  EXPECT_EQ(replies[2].rfind("cdf src=0", 0), 0u) << replies[2];
}

TEST_F(CliServe, TailRejectsInfiniteWindow) {
  const std::string trace = serve_trace("tail_inf.trace");
  ::testing::internal::CaptureStdout();
  EXPECT_NE(run_cli({"tail", trace, "--window-hi", "inf"}), 0);
  ::testing::internal::GetCapturedStdout();
}

TEST_F(CliServe, TailChecksWindowBeforeReadingTheFeed) {
  // The window is checked before the feed is opened, let alone
  // bootstrapped: on a feed that does not exist, the error is the
  // window's.
  const std::string missing = path("tail_missing.feed");
  const std::vector<std::vector<std::string>> windows{
      {"--window-hi", "inf"},
      {"--window-lo", "10", "--window-hi", "5"},
      {"--window-lo", "15", "--window-hi", "15"}};
  for (const std::vector<std::string>& window : windows) {
    std::vector<std::string> argv{"tail", missing};
    argv.insert(argv.end(), window.begin(), window.end());
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_cli(argv), 1);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("start-time window"), std::string::npos) << err;
  }
}

TEST_F(CliServe, CdfRejectsBadGridBoundsBeforeReadingTheTrace) {
  // A NaN or zero grid-lo used to build a NaN log grid, which failed deep
  // in the fold ("merging different grids"). Each bad pair is a usage
  // error, raised before the trace is read: a missing trace gives the
  // same error.
  const std::string trace = serve_trace("grid_cdf.trace");
  const std::string missing = path("grid_missing.trace");
  const std::vector<std::vector<std::string>> bad{
      {"--grid-lo", "nan"},
      {"--grid-lo", "0"},
      {"--grid-lo", "inf"},
      {"--grid-hi", "nan"},
      {"--grid-lo", "100", "--grid-hi", "10"}};
  for (const std::vector<std::string>& bounds : bad)
    for (const std::string& file : {trace, missing}) {
      std::vector<std::string> argv{"cdf", file};
      argv.insert(argv.end(), bounds.begin(), bounds.end());
      ::testing::internal::CaptureStderr();
      EXPECT_EQ(run_cli(argv), 2) << bounds[1] << " " << file;
      const std::string err = ::testing::internal::GetCapturedStderr();
      EXPECT_NE(err.find("grid-lo < grid-hi"), std::string::npos) << err;
    }
}

TEST_F(CliServe, ServeRejectsReversedGridBoundsAtStartup) {
  // Used to start up and then answer every cdf query with an error.
  const std::string trace = serve_trace("grid_srv.trace");
  const std::string queries = track(path("grid_srv.q"));
  {
    std::ofstream out(queries);
    out << "cdf 0\n";
  }
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"serve", "--trace", trace, "--input", queries,
                     "--grid-lo", "100", "--grid-hi", "10"}),
            2);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
  EXPECT_NE(err.find("grid-lo < grid-hi"), std::string::npos) << err;
}

/// Strips the epoch=<count> and us=<latency> tokens so the final rows of
/// two runs that cut the feed differently can be compared bit-exactly.
std::string strip_epoch_and_latency(const std::string& text) {
  std::string out;
  std::istringstream in(text);
  for (std::string tok; in >> tok;)
    if (tok.compare(0, 3, "us=") != 0 && tok.compare(0, 6, "epoch=") != 0)
      out += tok + " ";
  return out;
}

/// (epoch, contacts) of every `odtn tail` row in `text`.
std::vector<std::pair<unsigned long long, std::size_t>> tail_rows(
    const std::string& text) {
  std::vector<std::pair<unsigned long long, std::size_t>> rows;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    unsigned long long epoch = 0;
    std::size_t contacts = 0;
    if (std::sscanf(line.c_str(), "epoch=%llu contacts=%zu", &epoch,
                    &contacts) == 2)
      rows.emplace_back(epoch, contacts);
  }
  return rows;
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
  std::vector<std::size_t> row_counts;
  for (const char* epoch : {"1", "1000"}) {
    ::testing::internal::CaptureStdout();
    ASSERT_EQ(run_cli({"tail", trace, "--epoch", epoch, "--grid-lo", "60",
                       "--grid-hi", "1h", "--max-hops", "3"}),
              0);
    const std::string out = ::testing::internal::GetCapturedStdout();
    row_counts.push_back(tail_rows(out).size());
    finals.push_back(strip_epoch_and_latency(last_line(out)));
  }
  // One row per contact against one for the whole feed.
  EXPECT_EQ(row_counts[0], 2u);
  EXPECT_EQ(row_counts[1], 1u);
  EXPECT_EQ(finals[0], finals[1]);
  EXPECT_NE(finals[0].find("converged=1"), std::string::npos);
}

TEST_F(CliServe, TailWaitsForAWindowStartPastTheEarlyFeed) {
  // --window-lo 1.5 days into a 3-day feed: the epochs that end before
  // it have an empty window and print nothing, and the command goes on
  // to print a row for every epoch from the first one that reaches it.
  SyntheticTraceSpec spec;
  spec.num_internal = 12;
  spec.duration = 3 * kDay;
  spec.pair_contacts_mean = 300.0;  // several 64 KiB read chunks
  // Contacts clipped to an hour, so the trace's end time follows the
  // feed position (a gathering can otherwise last for days).
  std::vector<Contact> generated =
      generate_trace(spec, 7).graph.contacts_vector();
  for (Contact& c : generated) c.end = std::min(c.end, c.begin + kHour);
  const TemporalGraph g(spec.num_internal, std::move(generated), false);
  const std::string feed = track(path("tail_late_lo.trace"));
  write_trace_file(feed, g);
  const double t_lo = g.start_time() + 1.5 * kDay;
  const std::vector<std::string> common{"--epoch", "50", "--grid-lo", "60",
                                        "--grid-hi", "1d", "--max-hops", "3"};
  const auto run_tail = [&](std::vector<std::string> extra) {
    std::vector<std::string> argv{"tail", feed};
    argv.insert(argv.end(), common.begin(), common.end());
    argv.insert(argv.end(), extra.begin(), extra.end());
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(run_cli(argv), 0);
    return tail_rows(::testing::internal::GetCapturedStdout());
  };
  // The open window gives every epoch's contact count (50 per epoch but
  // the last, the same in both runs).
  const auto all = run_tail({});
  char lo[64];
  std::snprintf(lo, sizeof lo, "%.17g", t_lo);
  const auto late = run_tail({"--window-lo", lo});

  const auto contacts = g.contacts();
  const auto end_time = [&](std::size_t count) {
    double end = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < count; ++i) end = std::max(end, contacts[i].end);
    return end;
  };
  std::size_t first = 0;
  while (first < all.size() && end_time(all[first].second) <= t_lo) ++first;
  ASSERT_GE(first, 1u) << "the first epoch already reaches t_lo";
  ASSERT_LT(first + 1, all.size()) << "too few epochs past t_lo";
  ASSERT_EQ(late.size(), all.size() - first);
  for (std::size_t i = 0; i < late.size(); ++i)
    EXPECT_EQ(late[i], all[first + i]) << "row " << i;
}

TEST_F(CliServe, TailEpochsHoldTheRequestedContactCount) {
  // The feed spans several 64 KiB read chunks; epochs are cut at 50
  // contacts regardless, so row i reports 50 i contacts and only the
  // last row holds the remainder.
  SyntheticTraceSpec spec;
  spec.num_internal = 12;
  spec.duration = 3 * kDay;
  spec.pair_contacts_mean = 300.0;
  const TemporalGraph g = generate_trace(spec, 7).graph;
  const std::string feed = track(path("tail_epoch_count.trace"));
  write_trace_file(feed, g);
  const std::size_t c = g.num_contacts();
  ASSERT_GT(c, 5000u) << "the feed should span several read chunks";
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(run_cli({"tail", feed, "--epoch", "50", "--grid-lo", "60",
                     "--grid-hi", "1d", "--max-hops", "3"}),
            0);
  const auto rows = tail_rows(::testing::internal::GetCapturedStdout());
  ASSERT_EQ(rows.size(), (c + 49) / 50);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, i + 1) << "row " << i;
    EXPECT_EQ(rows[i].second, std::min(50 * (i + 1), c)) << "row " << i;
  }
}

TEST_F(CliServe, TailFailsWhenTheWindowNeverOpens) {
  const std::string trace = serve_trace("tail_never.trace");
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"tail", trace, "--epoch", "1", "--window-lo", "1e6"}), 1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(::testing::internal::GetCapturedStdout().find("epoch="),
            std::string::npos);
  EXPECT_NE(err.find("empty start-time window"), std::string::npos) << err;
}

TEST_F(CliServe, TailRejectsAWindowStartingAtTheFeedsEnd) {
  // --window-lo at the feed's end time, with the window's end following
  // the feed: [30, 30] is empty, so no epoch prints a row and the
  // command fails instead of printing CDFs of zeros.
  const std::string feed = track(path("tail_zero_span.trace"));
  {
    std::ofstream out(feed);
    out << "# odtn-trace v1\n# nodes 3\n# directed 0\n0 1 0 10\n1 2 20 30\n";
  }
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"tail", feed, "--window-lo", "30", "--epoch", "1"}), 1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(::testing::internal::GetCapturedStdout().find("epoch="),
            std::string::npos);
  EXPECT_NE(err.find("empty start-time window"), std::string::npos) << err;
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
