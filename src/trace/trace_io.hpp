// Plain-text contact trace format and its hardened streaming parser.
//
//   # odtn-trace v1          (magic, required before the first contact)
//   # nodes <N>              (required before the first contact)
//   # directed <0|1>         (optional, default 0)
//   <u> <v> <begin> <end>    (one contact per line)
//
// Comments (#) and blank lines are allowed anywhere. Timestamps are
// seconds as decimal doubles. This mirrors the shape of the published
// Haggle / Reality-Mining contact lists so real traces can be converted
// with a one-line awk script.
//
// Every evaluation workload flows through this layer, so the parser is
// both the fastest and the most defended piece of the trace substrate:
// a single-pass buffered tokenizer (std::from_chars, no per-line stream
// objects), a structured error taxonomy (TraceError: code, line, column,
// excerpt), a lenient mode that skips defective records and reports what
// was dropped (ParseReport), and an opt-in canonicalization pass (sort
// to canonical order, merge overlapping contacts of a pair, cross-check
// the declared node count). The seed line-stream parser is kept as
// read_trace_reference: tests/test_trace_parse.cpp and `odtn_fuzz
// --parser` cross-check the two on randomized traces; parse throughput
// is the `ingest_1m` workload of odtnbench.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/contact.hpp"
#include "core/temporal_graph.hpp"
#include "util/line_reader.hpp"

namespace odtn {

/// Machine-readable taxonomy of trace-ingestion failures.
enum class TraceErrorCode {
  kCannotOpen,          ///< file could not be opened for reading/writing
  kIoError,             ///< underlying stream failed mid-transfer
  kEmptyInput,          ///< no input at all
  kMissingMagic,        ///< data before (or without) '# odtn-trace v1'
  kUnsupportedVersion,  ///< magic present but the version is not v1
  kDuplicateHeader,     ///< repeated '# odtn-trace' / '# nodes' / '# directed'
  kBadHeader,           ///< header present but its value is malformed
  kNodeCountOverflow,   ///< '# nodes' exceeds the NodeId range
  kMissingNodesHeader,  ///< contact record before '# nodes'
  kBadContactSyntax,    ///< contact line is not '<u> <v> <begin> <end>'
  kTrailingData,        ///< extra tokens after the four contact fields
  kNodeOutOfRange,      ///< contact endpoint >= declared node count
  kMalformedContact,    ///< self-loop, reversed or non-finite interval
};

/// Stable kebab-case identifier for an error code ("bad-header", ...).
const char* trace_error_name(TraceErrorCode code) noexcept;

/// One diagnostic: what went wrong and where.
struct TraceDiagnostic {
  TraceErrorCode code = TraceErrorCode::kBadContactSyntax;
  std::size_t line = 0;    ///< 1-based; 0 = the input as a whole
  std::size_t column = 0;  ///< 1-based byte offset; 0 = the whole line
  std::string excerpt;     ///< offending line, truncated and sanitized
  std::string message;     ///< human-readable detail

  /// "<code> at line L, column C: <message> [excerpt]".
  std::string to_string() const;
};

/// Structured parse failure. Replaces the seed parser's bare
/// std::runtime_error; still derives from it so existing catch sites
/// keep working.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(TraceDiagnostic diagnostic);

  const TraceDiagnostic& diagnostic() const noexcept { return diagnostic_; }
  TraceErrorCode code() const noexcept { return diagnostic_.code; }
  std::size_t line() const noexcept { return diagnostic_.line; }
  std::size_t column() const noexcept { return diagnostic_.column; }

 private:
  TraceDiagnostic diagnostic_;
};

enum class ParseMode {
  kStrict,   ///< the first defect throws TraceError
  kLenient,  ///< record-level defects are skipped and reported
};

/// Parser configuration. Defects that make the whole input
/// uninterpretable (missing/unsupported magic, missing '# nodes', a node
/// count outside the NodeId range, I/O failure) are fatal in both modes;
/// lenient mode only downgrades record-level defects (bad contact
/// syntax, trailing data, out-of-range endpoints, malformed intervals,
/// duplicate or malformed headers) to skipped-and-reported.
struct ParseOptions {
  ParseMode mode = ParseMode::kStrict;
  /// Opt-in canonicalization: sort contacts into canonical
  /// (begin, end, u, v) order, merge overlapping/touching contacts of
  /// the same node pair (merge_overlapping_contacts), and record the
  /// declared-vs-used node-count cross-check in the report.
  bool canonicalize = false;
  /// Diagnostics kept in ParseReport::diagnostics; further defects are
  /// still counted in ParseReport::skipped.
  std::size_t max_diagnostics = 64;
};

/// What the parser saw, kept, dropped, and (optionally) normalized.
struct ParseReport {
  std::size_t lines = 0;          ///< physical lines scanned
  std::size_t contact_lines = 0;  ///< lines holding a parseable contact
  std::size_t contacts = 0;       ///< contacts in the resulting graph
  std::size_t skipped = 0;        ///< defective records dropped (lenient)
  std::vector<TraceDiagnostic> diagnostics;  ///< first max_diagnostics

  std::size_t declared_nodes = 0;        ///< the '# nodes' value
  bool directed = false;                 ///< the '# directed' value
  NodeId max_node_id = kInvalidNode;     ///< largest endpoint seen

  // Canonicalization results (ParseOptions::canonicalize only):
  bool canonicalized = false;
  std::size_t merged = 0;        ///< contacts absorbed by the overlap merge
  std::size_t out_of_order = 0;  ///< adjacent canonical-order violations

  /// Declared node ids never used by a contact (the '# nodes'
  /// cross-check; 0 when every id appears or the trace is empty).
  std::size_t unused_node_ids() const noexcept;

  /// Multi-line human-readable report (the body of `odtn validate`).
  std::string summary() const;
};

/// Push-mode core of the streaming tokenizer, exposed so live feeds can
/// reuse it byte for byte: read_trace pumps file chunks through feed()
/// and calls finish(); `odtn tail` and the serve ingest path instead
/// drain_contacts() after every feed and keep the parser alive while the
/// input grows. Chunk boundaries are invisible (a partial line is
/// carried until its newline or flush() arrives), so any byte-split of
/// an input parses identically to a one-shot pass -- odtn_fuzz --live
/// checks exactly that.
class StreamingTraceParser {
 public:
  explicit StreamingTraceParser(ParseOptions options = {});
  StreamingTraceParser(StreamingTraceParser&&) = default;
  StreamingTraceParser& operator=(StreamingTraceParser&&) = default;
  ~StreamingTraceParser();

  /// Tokenizes one chunk of raw bytes (any chunking, including one byte
  /// at a time). Throws TraceError on fatal defects (and, in strict
  /// mode, on any defect).
  void feed(const char* data, std::size_t n);

  /// Tokenizes one complete line ([begin, end), no terminator). feed()
  /// is built on this; exposed for consumers that already split lines.
  void feed_line(const char* begin, const char* end);

  /// Delivers a final line that arrived without a trailing newline.
  /// Returns true iff a carried line was flushed. Safe to call more
  /// than once.
  bool flush();

  /// True once both required headers ('# odtn-trace v1', '# nodes')
  /// were seen; declared_nodes()/directed() are meaningful from then on.
  bool header_complete() const noexcept { return saw_magic_ && saw_nodes_; }
  std::size_t declared_nodes() const noexcept { return num_nodes_; }
  bool directed() const noexcept { return directed_; }

  /// Contacts parsed since the last drain (live consumers pull batches
  /// out of the parser as the feed grows; order is input order).
  std::size_t pending_contacts() const noexcept { return contacts_.size(); }
  std::vector<Contact> drain_contacts();

  /// Snapshot of the running report (lines/skips/diagnostics as of now;
  /// contact counts include drained batches).
  ParseReport report() const;

  /// Flushes, validates the headers and builds the graph from every
  /// still-undrained contact (the read_trace path; live consumers that
  /// drained use their own graph). Leaves the parser finished.
  TemporalGraph finish(ParseReport* report = nullptr);

  /// Reports an input-stream failure as a fatal TraceError.
  [[noreturn]] void fail_io();

 private:
  [[noreturn]] void fatal(TraceErrorCode code, std::size_t line,
                          std::size_t column, std::string excerpt,
                          std::string message);
  void defect(TraceErrorCode code, std::size_t column, const char* begin,
              const char* end, std::string message);
  std::size_t column_of(const char* line_begin, const char* at) const;
  void header_line(const char* begin, const char* end);
  void contact_line(const char* begin, const char* end);

  ParseOptions options_;
  ParseReport report_;
  CarryLineReader carry_;  // partial line spanning feed() boundaries
  std::size_t line_no_ = 0;
  bool saw_magic_ = false;
  bool saw_nodes_ = false;
  bool saw_directed_ = false;
  std::size_t num_nodes_ = 0;
  bool directed_ = false;
  NodeId max_node_id_ = kInvalidNode;
  std::size_t drained_ = 0;
  std::vector<Contact> contacts_;
};

/// Parses a trace with the streaming tokenizer. Throws TraceError on
/// fatal defects (and, in strict mode, on any defect). When `report` is
/// non-null it is filled in even when lenient parsing skipped records.
TemporalGraph read_trace(std::istream& in, const ParseOptions& options,
                         ParseReport* report = nullptr);

/// Strict parse with default options; throws TraceError (a
/// std::runtime_error) with a line number on any malformed input.
TemporalGraph read_trace(std::istream& in);

/// Reads the file at `path`; throws TraceError if unreadable.
TemporalGraph read_trace_file(const std::string& path,
                              const ParseOptions& options,
                              ParseReport* report = nullptr);
TemporalGraph read_trace_file(const std::string& path);

/// The seed line-stream parser (one istringstream per line), kept as
/// the differential oracle: tests/test_trace_parse.cpp and
/// `odtn_fuzz --parser` cross-check both on randomized traces. Accepts the same valid inputs; its rejections carry no
/// taxonomy and it predates the header-strictness hardening.
TemporalGraph read_trace_reference(std::istream& in);

/// Writes `graph` in the format above (round-trip exact: timestamps at
/// precision 17).
void write_trace(std::ostream& out, const TemporalGraph& graph);

/// Writes to the file at `path`; throws TraceError on failure.
void write_trace_file(const std::string& path, const TemporalGraph& graph);

}  // namespace odtn
