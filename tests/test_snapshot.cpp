#include "trace/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/diameter.hpp"
#include "stats/log_grid.hpp"

namespace odtn {
namespace {

TemporalGraph sample_graph() {
  return TemporalGraph(5, {{0, 1, 10.0, 20.0},
                           {1, 2, 15.0, 25.0},
                           {2, 3, 30.0, 40.0},
                           {3, 4, 35.0, 36.0},
                           {0, 4, 50.0, 90.0},
                           {1, 3, 55.0, 60.0}});
}

TemporalGraph decode_copy(const std::vector<std::uint8_t>& bytes) {
  return decode_snapshot(
      std::make_shared<const std::vector<std::uint8_t>>(bytes));
}

bool identical(const TemporalGraph& a, const TemporalGraph& b) {
  return a.num_nodes() == b.num_nodes() && a.directed() == b.directed() &&
         a.start_time() == b.start_time() && a.end_time() == b.end_time() &&
         std::ranges::equal(a.contacts(), b.contacts());
}

TEST(Snapshot, RoundTripsGraphAndBytes) {
  const TemporalGraph g = sample_graph();
  const std::vector<std::uint8_t> bytes = encode_snapshot(g);
  const TemporalGraph back = decode_copy(bytes);
  EXPECT_TRUE(identical(g, back));
  EXPECT_TRUE(back.is_view());
  EXPECT_FALSE(g.is_view());
  // encode is a pure function of the graph: re-encoding the decoded
  // view reproduces the file bit for bit.
  EXPECT_EQ(encode_snapshot(back), bytes);
}

TEST(Snapshot, RoundTripsDirectedGraph) {
  const TemporalGraph g(4, {{0, 1, 1.0, 2.0}, {1, 2, 3.0, 4.0}},
                        /*directed=*/true);
  const std::vector<std::uint8_t> bytes = encode_snapshot(g);
  const TemporalGraph back = decode_copy(bytes);
  EXPECT_TRUE(identical(g, back));
  EXPECT_TRUE(back.directed());
  // Directed graphs index only the observer side.
  EXPECT_EQ(back.neighbor_records().size(), back.num_contacts());
  EXPECT_EQ(encode_snapshot(back), bytes);
}

TEST(Snapshot, RoundTripsNegativeTimes) {
  // Epoch-shifted imports: all-negative timestamps must survive.
  const TemporalGraph g(3, {{0, 1, -100.0, -90.0}, {1, 2, -80.0, -50.0}});
  const TemporalGraph back = decode_copy(encode_snapshot(g));
  EXPECT_TRUE(identical(g, back));
  EXPECT_DOUBLE_EQ(back.start_time(), -100.0);
  EXPECT_DOUBLE_EQ(back.end_time(), -50.0);
}

TEST(Snapshot, RoundTripsEmptyTrace) {
  const TemporalGraph g(7, {});
  const std::vector<std::uint8_t> bytes = encode_snapshot(g);
  const TemporalGraph back = decode_copy(bytes);
  EXPECT_TRUE(identical(g, back));
  EXPECT_EQ(back.num_nodes(), 7u);
  EXPECT_EQ(back.num_contacts(), 0u);
  EXPECT_EQ(encode_snapshot(back), bytes);
}

TEST(Snapshot, ViewIsZeroCopyAndCopiesShareStorage) {
  const auto bytes =
      std::make_shared<const std::vector<std::uint8_t>>(
          encode_snapshot(sample_graph()));
  const TemporalGraph view = decode_snapshot(bytes);
  const std::uint8_t* lo = bytes->data();
  const std::uint8_t* hi = bytes->data() + bytes->size();
  const auto* contact_ptr =
      reinterpret_cast<const std::uint8_t*>(view.contacts().data());
  EXPECT_GE(contact_ptr, lo);
  EXPECT_LT(contact_ptr, hi);  // reads straight from the buffer

  const TemporalGraph copy = view;  // shares mapping AND indexes
  EXPECT_TRUE(copy.is_view());
  EXPECT_EQ(copy.contacts().data(), view.contacts().data());
  EXPECT_EQ(copy.neighbor_records().data(), view.neighbor_records().data());
}

TEST(Snapshot, ViewEngineRunsMatchOwnedGraphBitwise) {
  const TemporalGraph g = sample_graph();
  const TemporalGraph view = decode_copy(encode_snapshot(g));
  DelayCdfOptions opt;
  opt.grid = make_log_grid(1.0, 100.0, 16);
  opt.max_hops = 4;
  opt.num_threads = 1;
  const DelayCdfResult a = compute_delay_cdf(g, opt);
  const DelayCdfResult b = compute_delay_cdf(view, opt);
  EXPECT_EQ(a.cdf_by_hops, b.cdf_by_hops);
  EXPECT_EQ(a.cdf_unbounded, b.cdf_unbounded);
  EXPECT_EQ(a.denominator, b.denominator);
  EXPECT_EQ(a.fixpoint_hops, b.fixpoint_hops);
}

TEST(Snapshot, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/odtn_snapshot_test.odtns";
  const TemporalGraph g = sample_graph();
  write_snapshot_file(path, g);
  const TemporalGraph back = load_snapshot_file(path);
  EXPECT_TRUE(identical(g, back));
  EXPECT_TRUE(back.is_view());
  EXPECT_EQ(encode_snapshot(back), encode_snapshot(g));
  std::remove(path.c_str());
}

TEST(Snapshot, RewriteLeavesLoadedViewsIntact) {
  // `odtn snapshot` re-run over the file a running `odtn serve` mapped:
  // the served view must keep its own contacts, not read the new ones.
  const std::string path =
      ::testing::TempDir() + "/odtn_snapshot_rewrite.odtns";
  const TemporalGraph a = sample_graph();
  std::vector<Contact> shifted = a.contacts_vector();
  for (Contact& c : shifted) {
    c.begin += 1000.0;
    c.end += 1000.0;
  }
  const TemporalGraph b(a.num_nodes(), std::move(shifted));
  ASSERT_EQ(encode_snapshot(a).size(), encode_snapshot(b).size());

  write_snapshot_file(path, a);
  const TemporalGraph view = load_snapshot_file(path);
  write_snapshot_file(path, b);
  EXPECT_TRUE(identical(view, a));
  EXPECT_EQ(encode_snapshot(view), encode_snapshot(a));
  EXPECT_TRUE(identical(load_snapshot_file(path), b));
  std::remove(path.c_str());
}

TEST(Snapshot, WriteOverDirectoryFailsCleanly) {
  namespace fs = std::filesystem;
  const fs::path parent =
      fs::path(::testing::TempDir()) / "odtn_snapshot_dir";
  fs::remove_all(parent);
  const fs::path target = parent / "target.odtns";
  fs::create_directories(target);
  std::ofstream(target / "inside") << "kept";
  const auto listing = [](const fs::path& dir) {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir))
      names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
  };

  EXPECT_THROW(write_snapshot_file(target.string(), sample_graph()),
               SnapshotError);
  EXPECT_TRUE(fs::is_directory(target));
  EXPECT_EQ(listing(target), std::vector<std::string>{"inside"});
  EXPECT_EQ(listing(parent), std::vector<std::string>{"target.odtns"});
  fs::remove_all(parent);
}

TEST(Snapshot, ZeroContactFileRoundTripServesQueries) {
  // encode -> mmap -> adopt_view with zero contacts: every index span is
  // empty but valid, and a CDF engine over the view answers with zeros
  // instead of crashing on the degenerate [0, 0] window.
  const std::string path = ::testing::TempDir() + "/odtn_snapshot_zero.odtns";
  const TemporalGraph g(5, {});
  write_snapshot_file(path, g);
  const TemporalGraph view = load_snapshot_file(path);
  EXPECT_TRUE(view.is_view());
  EXPECT_TRUE(identical(g, view));
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_TRUE(view.neighbors_by_end(n).empty());
  }
  EXPECT_EQ(encode_snapshot(view), encode_snapshot(g));
  DelayCdfOptions o;
  o.grid = make_log_grid(1.0, 10.0, 4);
  o.max_hops = 3;
  const DelayCdfResult r = compute_delay_cdf(view, o);
  EXPECT_EQ(r.denominator, 0.0);
  for (const double v : r.cdf_unbounded) EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(r.converged);
  std::remove(path.c_str());
}

TEST(Snapshot, LoadRejectsMissingAndEmptyFiles) {
  EXPECT_THROW(load_snapshot_file("/nonexistent/path/x.odtns"), SnapshotError);
  const std::string path = ::testing::TempDir() + "/odtn_snapshot_empty";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_THROW(load_snapshot_file(path), SnapshotError);
  std::remove(path.c_str());
}

TEST(Snapshot, RejectsTruncationAtEveryPrefix) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(sample_graph());
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_THROW((void)decode_snapshot(bytes.data(), len, nullptr),
                 SnapshotError)
        << "prefix of " << len << " bytes accepted";
}

TEST(Snapshot, RejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes = encode_snapshot(sample_graph());
  bytes.push_back(0);
  EXPECT_THROW(decode_copy(bytes), SnapshotError);
}

TEST(Snapshot, RejectsBadMagicAndVersion) {
  const std::vector<std::uint8_t> good = encode_snapshot(sample_graph());
  std::vector<std::uint8_t> bad = good;
  bad[0] ^= 0xFF;  // magic, first byte
  EXPECT_THROW(decode_copy(bad), SnapshotError);
  bad = good;
  bad[4] = 0xFE;  // version
  EXPECT_THROW(decode_copy(bad), SnapshotError);
}

TEST(Snapshot, VersionOneFileNamesBothVersionsAndTheFix) {
  // Version 1 files are still on disk; the error must say what was
  // found, what this build reads and how to get a readable file.
  std::vector<std::uint8_t> bytes = encode_snapshot(sample_graph());
  ASSERT_EQ(bytes[4] | (bytes[5] << 8), kSnapshotVersion);
  bytes[4] = 1;
  bytes[5] = 0;
  try {
    (void)decode_copy(bytes);
    FAIL() << "version 1 accepted";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported format version 1"), std::string::npos)
        << what;
    EXPECT_NE(what.find("reads version 2"), std::string::npos) << what;
    EXPECT_NE(what.find("re-run `odtn snapshot`"), std::string::npos) << what;
  }
}

// Byte-patching matrix against the header fields: every lie about a
// count, flag or size must be caught, never trusted.
TEST(Snapshot, RejectsHeaderLies) {
  const std::vector<std::uint8_t> good = encode_snapshot(sample_graph());
  const auto patched = [&](std::size_t offset, std::uint64_t value) {
    std::vector<std::uint8_t> bytes = good;
    std::memcpy(bytes.data() + offset, &value, sizeof value);
    return bytes;
  };
  // Layout: magic(4) version(2) directed(1) reserved(1) num_nodes(8)
  // num_contacts(8) num_neighbors(8) start(8) end(8) total_size(8) ...
  EXPECT_THROW(decode_copy(patched(8, 1u << 20)), SnapshotError)   // nodes
      << "inflated num_nodes accepted";
  EXPECT_THROW(decode_copy(patched(16, 9999)), SnapshotError)      // contacts
      << "inflated num_contacts accepted";
  EXPECT_THROW(decode_copy(patched(24, 3)), SnapshotError)         // neighbors
      << "neighbor/contact count mismatch accepted";
  EXPECT_THROW(decode_copy(patched(48, 1)), SnapshotError)         // total
      << "lying total_size accepted";
  std::vector<std::uint8_t> bad = good;
  bad[6] = 2;  // directed flag out of {0, 1}
  EXPECT_THROW(decode_copy(bad), SnapshotError);
  bad = good;
  bad[7] = 1;  // reserved byte must be zero
  EXPECT_THROW(decode_copy(bad), SnapshotError);
}

TEST(Snapshot, RejectsCorruptedGraphInvariants) {
  const TemporalGraph g = sample_graph();
  const std::vector<std::uint8_t> good = encode_snapshot(g);
  // The contacts section starts at the first 64-byte boundary past the
  // 104-byte header; the section table's first offset says so too.
  const std::size_t contacts_at = 128;
  std::uint64_t table_offset = 0;
  std::memcpy(&table_offset, good.data() + 56, 8);
  ASSERT_EQ(table_offset, contacts_at);
  std::vector<std::uint8_t> bad = good;
  // Swap the first two contacts: canonical order violated.
  std::vector<std::uint8_t> tmp(24);
  std::memcpy(tmp.data(), bad.data() + contacts_at, 24);
  std::memcpy(bad.data() + contacts_at, bad.data() + contacts_at + 24, 24);
  std::memcpy(bad.data() + contacts_at + 24, tmp.data(), 24);
  EXPECT_THROW(decode_copy(bad), SnapshotError);

  bad = good;
  const std::uint32_t out_of_range = 99;  // node id beyond num_nodes
  std::memcpy(bad.data() + contacts_at, &out_of_range, 4);
  EXPECT_THROW(decode_copy(bad), SnapshotError);

  bad = good;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bad.data() + contacts_at + 8, &nan, 8);  // contact begin
  EXPECT_THROW(decode_copy(bad), SnapshotError);
}

TEST(Snapshot, RejectsMisalignedBuffer) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(sample_graph());
  std::vector<std::uint8_t> shifted(bytes.size() + 1);
  std::memcpy(shifted.data() + 1, bytes.data(), bytes.size());
  EXPECT_THROW((void)decode_snapshot(shifted.data() + 1, bytes.size(), nullptr),
               SnapshotError);
}

}  // namespace
}  // namespace odtn
