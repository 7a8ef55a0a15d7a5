// Live contact ingestion: glue between a growing byte feed and the
// incremental all-pairs engine.
//
// A live deployment watches contacts as they happen -- a tracer daemon
// appending to a file, a pipe from a radio logger, the serve socket --
// and wants the delay-CDF / diameter picture updated per batch without
// re-reading history. LiveTailReader produces the bytes (regular file
// with optional tail -f semantics, pipe, or stdin); LiveIngestSession
// pumps them through the StreamingTraceParser, sorts each drained batch
// into canonical order, drops records that sort before the engine
// watermark (history cannot be rewritten incrementally; the drop is
// counted, never silent), and commits the rest as one epoch of an
// IncrementalAllPairsEngine. `odtn tail` is a thin loop over these two
// classes; odtn_fuzz --live drives the same path differentially against
// cold recomputes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/incremental_engine.hpp"
#include "trace/trace_io.hpp"

namespace odtn {

/// Chunked reader over a live feed. "-" reads stdin; any other path is
/// opened read-only. In follow mode, end-of-file on a regular file is
/// treated as "no data yet": the reader sleeps poll_ms and retries, so
/// a file being appended to behaves like `tail -f`. Pipes already block
/// until data arrives, so their EOF (writer closed) always ends the
/// feed.
class LiveTailReader {
 public:
  /// Throws TraceError(kCannotOpen) when the path cannot be opened.
  LiveTailReader(const std::string& path, bool follow, int poll_ms);
  ~LiveTailReader();
  LiveTailReader(const LiveTailReader&) = delete;
  LiveTailReader& operator=(const LiveTailReader&) = delete;

  /// Reads up to `n` bytes into `buf`. Returns 0 only when the feed is
  /// finished (EOF and not following, or the pipe writer closed).
  /// Throws TraceError(kIoError) on read failure, and, in follow mode
  /// before each read of a regular file, when the file was truncated
  /// below what has been read, its path now names a different file
  /// (rotation), or the last bytes read (up to 64) now read differently
  /// (rewritten in place): a feed the reader can no longer continue
  /// fails instead of going silent or parsing from mid-record. A rewrite
  /// that keeps those bytes is not detected.
  std::size_t read_chunk(char* buf, std::size_t n);

 private:
  static constexpr std::size_t kTailBytes = 64;

  void check_not_replaced() const;

  int fd_ = -1;
  bool owns_fd_ = false;
  bool follow_ = false;
  bool regular_file_ = false;
  int poll_ms_ = 200;
  std::uint64_t offset_ = 0;  ///< bytes read so far
  std::string tail_;          ///< follow mode: the last kTailBytes read
  std::string path_;
};

/// What the session has accepted, committed and refused so far.
struct LiveIngestStats {
  std::uint64_t epochs = 0;             ///< committed append batches
  std::uint64_t contacts_ingested = 0;  ///< contacts now in the engine
  std::uint64_t below_watermark = 0;    ///< records dropped as too old
};

/// Parser-to-engine session. feed() bytes in any chunking; when enough
/// contacts are pending (or the feed pauses), commit_epoch() advances
/// the engine by exactly one epoch. The engine is created lazily at the
/// first commit, once the feed's '# nodes' / '# directed' headers are
/// known; its delay grid comes from the options given here and stays
/// fixed for the session. The constructor checks the start-time window
/// (check_window_bounds), so a bad one fails before the feed is read.
class LiveIngestSession {
 public:
  LiveIngestSession(IncrementalCdfOptions options, ParseOptions parse = {});

  /// Tokenizes one chunk (StreamingTraceParser semantics; throws
  /// TraceError per the parse options).
  void feed(const char* data, std::size_t n);

  /// Delivers a final line that arrived without a trailing newline.
  void flush();

  /// True once the feed's headers are complete (commit_epoch works).
  bool header_complete() const { return parser_.header_complete(); }

  /// Contacts parsed but not yet committed to the engine.
  std::size_t pending() const {
    return pending_.size() + parser_.pending_contacts();
  }

  /// Sorts every pending contact into canonical order, drops the ones
  /// below the engine watermark (counted in stats), appends the rest as
  /// one epoch. Returns the engine epoch afterwards (unchanged when
  /// nothing was appended). Throws std::logic_error before the headers
  /// are complete.
  std::uint64_t commit_epoch();

  /// The engine; valid after the first commit_epoch() (nullptr before).
  IncrementalAllPairsEngine* engine() { return engine_ ? &*engine_ : nullptr; }
  const IncrementalAllPairsEngine* engine() const {
    return engine_ ? &*engine_ : nullptr;
  }

  const LiveIngestStats& stats() const { return stats_; }
  ParseReport report() const { return parser_.report(); }

 private:
  IncrementalCdfOptions options_;
  StreamingTraceParser parser_;
  std::optional<IncrementalAllPairsEngine> engine_;
  std::vector<Contact> pending_;
  LiveIngestStats stats_;
};

}  // namespace odtn
