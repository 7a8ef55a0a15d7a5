#include "cli/serve.hpp"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/query_engine.hpp"
#include "stats/log_grid.hpp"
#include "trace/live_ingest.hpp"
#include "trace/snapshot.hpp"
#include "trace/trace_io.hpp"
#include "util/line_reader.hpp"
#include "util/thread_pool.hpp"
#include "util/time_format.hpp"

namespace odtn::cli {
namespace {

std::uint64_t micros_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

NodeId parse_node(const QueryEngine& engine, const std::string& text,
                  const char* what) {
  const unsigned long id = parse_count(text, what);
  if (id >= engine.graph().num_nodes())
    throw CliError(std::string(what) + " out of range (trace has " +
                   std::to_string(engine.graph().num_nodes()) + " nodes)");
  return static_cast<NodeId>(id);
}

void append_f64(std::string& out, const char* prefix, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%.17g", prefix, v);
  out += buf;
}

/// Executes one query line and renders its one-line response. Runs on a
/// pool worker during batch execution, so everything here is local;
/// the QueryEngine's cache and fold paths are thread-safe.
std::string execute_query(QueryEngine& engine, const std::string& line) {
  std::istringstream in(line);
  std::string kind;
  in >> kind;
  std::vector<std::string> rest;
  for (std::string tok; in >> tok;) rest.push_back(tok);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  try {
    const auto t0 = std::chrono::steady_clock::now();
    if (kind == "cdf") {
      if (rest.size() != 1 && rest.size() != 3)
        throw CliError("cdf expects: cdf <src> [t_lo t_hi]");
      const NodeId src = parse_node(engine, rest[0], "src");
      const double lo = rest.size() == 3 ? parse_double(rest[1], "t_lo") : kNaN;
      const double hi = rest.size() == 3 ? parse_double(rest[2], "t_hi") : kNaN;
      const DelayCdfResult r = engine.source_cdf(src, lo, hi);
      std::string out;
      char head[128];
      std::snprintf(head, sizeof head, "cdf src=%lu hit=%d us=%llu n=%zu",
                    static_cast<unsigned long>(src),
                    r.stats.cache_hits > 0 ? 1 : 0,
                    static_cast<unsigned long long>(micros_since(t0)),
                    r.cdf_unbounded.size());
      out = head;
      for (const double v : r.cdf_unbounded) append_f64(out, " ", v);
      return out;
    }
    if (kind == "diameter") {
      if (rest.size() != 1 && rest.size() != 3)
        throw CliError("diameter expects: diameter <eps> [t_lo t_hi]");
      const double eps = parse_double(rest[0], "eps");
      if (!(eps > 0.0 && eps < 1.0))
        throw CliError("eps must lie in (0, 1)");
      const double lo = rest.size() == 3 ? parse_double(rest[1], "t_lo") : kNaN;
      const double hi = rest.size() == 3 ? parse_double(rest[2], "t_hi") : kNaN;
      const DelayCdfResult r = engine.all_pairs(lo, hi);
      std::string out = "diameter";
      append_f64(out, " eps=", eps);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    " value=%d fixpoint=%d converged=%d hits=%llu "
                    "misses=%llu evictions=%llu us=%llu",
                    r.diameter(eps), r.fixpoint_hops, r.converged ? 1 : 0,
                    static_cast<unsigned long long>(r.stats.cache_hits),
                    static_cast<unsigned long long>(r.stats.cache_misses),
                    static_cast<unsigned long long>(r.stats.cache_evictions),
                    static_cast<unsigned long long>(micros_since(t0)));
      return out + buf;
    }
    if (kind == "reach") {
      if (rest.size() != 2) throw CliError("reach expects: reach <src> <t>");
      const NodeId src = parse_node(engine, rest[0], "src");
      const double t = parse_double(rest[1], "t");
      const std::size_t count = engine.reachable_count(src, t);
      std::string out;
      char head[64];
      std::snprintf(head, sizeof head, "reach src=%lu",
                    static_cast<unsigned long>(src));
      out = head;
      append_f64(out, " t=", t);
      std::snprintf(head, sizeof head, " count=%zu us=%llu", count,
                    static_cast<unsigned long long>(micros_since(t0)));
      return out + head;
    }
    if (kind == "journey") {
      if (rest.size() != 2)
        throw CliError("journey expects: journey <src> <dst>");
      const NodeId src = parse_node(engine, rest[0], "src");
      const NodeId dst = parse_node(engine, rest[1], "dst");
      const JourneyOptima j = engine.journey(src, dst);
      std::string out;
      char head[96];
      std::snprintf(head, sizeof head,
                    "journey src=%lu dst=%lu reachable=%d hops=%d",
                    static_cast<unsigned long>(src),
                    static_cast<unsigned long>(dst), j.reachable() ? 1 : 0,
                    j.shortest_hops);
      out = head;
      append_f64(out, " duration=", j.fastest_duration);
      append_f64(out, " departure=", j.fastest_departure);
      std::snprintf(head, sizeof head, " us=%llu",
                    static_cast<unsigned long long>(micros_since(t0)));
      return out + head;
    }
    if (kind == "stats") {
      if (!rest.empty()) throw CliError("stats takes no arguments");
      const LruCacheStats s = engine.cache_stats();
      char buf[192];
      std::snprintf(buf, sizeof buf,
                    "stats hits=%llu misses=%llu evictions=%llu "
                    "inserts=%llu bytes=%zu entries=%zu",
                    static_cast<unsigned long long>(s.hits),
                    static_cast<unsigned long long>(s.misses),
                    static_cast<unsigned long long>(s.evictions),
                    static_cast<unsigned long long>(s.inserts), s.bytes,
                    s.entries);
      return buf;
    }
    throw CliError("unknown query '" + kind +
                   "' (cdf, diameter, reach, journey, stats, ingest, quit)");
  } catch (const std::exception& e) {
    return std::string("error ") + e.what();
  }
}

/// Executes one `ingest <u> <v> <begin> <end>` line. Runs alone on the
/// protocol thread -- never inside a concurrent batch -- because it
/// mutates the served graph.
std::string execute_ingest(QueryEngine& engine, const std::string& line) {
  std::istringstream in(line);
  std::string kind;
  in >> kind;
  std::vector<std::string> rest;
  for (std::string tok; in >> tok;) rest.push_back(tok);
  try {
    const auto t0 = std::chrono::steady_clock::now();
    if (rest.size() != 4)
      throw CliError("ingest expects: ingest <u> <v> <begin> <end>");
    const Contact c{parse_node(engine, rest[0], "u"),
                    parse_node(engine, rest[1], "v"),
                    parse_double(rest[2], "begin"),
                    parse_double(rest[3], "end")};
    const std::uint64_t epoch = engine.ingest(std::span<const Contact>(&c, 1));
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "ingest ok epoch=%llu contacts=%zu us=%llu",
                  static_cast<unsigned long long>(epoch),
                  engine.graph().num_contacts(),
                  static_cast<unsigned long long>(micros_since(t0)));
    return buf;
  } catch (const std::exception& e) {
    return std::string("error ") + e.what();
  }
}

/// Reads query lines from `in`, executing each batch (delimited by a
/// blank line, "quit" or EOF) concurrently on the shared pool and
/// writing responses to `out` in submission order. A final line without
/// a trailing newline is still a complete query: CarryLineReader::finish
/// delivers it before the EOF flush, so `printf 'cdf 0' | odtn serve`
/// answers rather than silently dropping the request. `ingest` lines
/// are sequencing points: the pending batch is answered on the
/// pre-ingest graph, then the append runs alone.
void serve_stream(QueryEngine& engine, std::FILE* in, std::FILE* out) {
  std::vector<std::string> batch;
  const auto flush_batch = [&] {
    if (batch.empty()) return;
    std::vector<std::string> responses(batch.size());
    if (batch.size() == 1) {
      responses[0] = execute_query(engine, batch[0]);
    } else {
      // Queries of one batch run concurrently; QueryEngine calls nest
      // their own parallel_for, which the pool runs inline (see
      // ThreadPool::parallel_for).
      shared_thread_pool().parallel_for(
          batch.size(), [&](std::size_t i, unsigned) {
            responses[i] = execute_query(engine, batch[i]);
          });
    }
    for (const std::string& r : responses) std::fprintf(out, "%s\n", r.c_str());
    std::fflush(out);
    batch.clear();
  };

  bool quit = false;
  const auto handle_line = [&](const char* begin, const char* end) {
    if (quit) return;
    if (begin != end && end[-1] == '\r') --end;
    std::string s(begin, end);
    if (s.empty()) {
      flush_batch();
    } else if (s == "quit") {
      quit = true;
    } else if (s.compare(0, 7, "ingest ") == 0 || s == "ingest") {
      flush_batch();
      std::fprintf(out, "%s\n", execute_ingest(engine, s).c_str());
      std::fflush(out);
    } else {
      batch.push_back(std::move(s));
    }
  };

  CarryLineReader lines;
  char chunk[1 << 16];
  while (!quit) {
    const std::size_t got = std::fread(chunk, 1, sizeof chunk, in);
    if (got == 0) break;
    lines.feed(chunk, got, handle_line);
  }
  lines.finish(handle_line);
  flush_batch();
}

int serve_socket(QueryEngine& engine, const std::string& path, bool once) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw CliError("--socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw CliError("cannot create unix socket");
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 4) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw CliError("cannot listen on '" + path + "': " + why);
  }
  std::fprintf(stderr, "odtn serve: listening on %s\n", path.c_str());

  int status = 0;
  for (;;) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      std::fprintf(stderr, "odtn serve: accept failed: %s\n",
                   std::strerror(errno));
      status = 1;
      break;
    }
    std::FILE* in = ::fdopen(conn, "r");
    std::FILE* out = ::fdopen(::dup(conn), "w");
    if (in && out) serve_stream(engine, in, out);
    if (in) std::fclose(in);  // closes conn
    if (out) std::fclose(out);
    if (once) break;
  }
  ::close(fd);
  ::unlink(path.c_str());
  return status;
}

}  // namespace

int cmd_snapshot(ArgList args) {
  const std::string path = required_positional(args, "trace file");
  const std::string out = required_positional(args, "output snapshot file");
  args.expect_empty();

  const TemporalGraph g = read_trace_file(path);
  try {
    write_snapshot_file(out, g);
    // Load it straight back: proves the written file passes the full
    // decoder validation before anyone depends on it.
    const TemporalGraph check = load_snapshot_file(out);
    if (check.num_contacts() != g.num_contacts() ||
        check.num_nodes() != g.num_nodes())
      throw SnapshotError("snapshot: verification reread disagrees");
  } catch (const SnapshotError& e) {
    throw CliError(e.what());
  }
  struct stat st{};
  const long long bytes =
      ::stat(out.c_str(), &st) == 0 ? static_cast<long long>(st.st_size) : -1;
  std::printf("snapshot: %zu nodes, %zu contacts, %s -> %s (%lld bytes, "
              "verified)\n",
              g.num_nodes(), g.num_contacts(),
              g.directed() ? "directed" : "undirected", out.c_str(), bytes);
  return 0;
}

int cmd_serve(ArgList args) {
  const auto snapshot = args.take_option("snapshot");
  const auto trace = args.take_option("trace");
  const auto input = args.take_option("input");
  const auto socket_path = args.take_option("socket");
  const bool once = args.take_flag("once");
  const auto max_hops = args.take_option("max-hops");
  const auto grid_lo = args.take_option("grid-lo");
  const auto grid_hi = args.take_option("grid-hi");
  const auto cache_mb = args.take_option("cache-mb");
  args.expect_empty();

  if (snapshot.has_value() == trace.has_value())
    throw CliError("pass exactly one of --snapshot or --trace");
  if (input && socket_path)
    throw CliError("--input and --socket are mutually exclusive");
  if (once && !socket_path) throw CliError("--once requires --socket");

  TemporalGraph g = [&] {
    if (trace) return read_trace_file(*trace);
    try {
      return load_snapshot_file(*snapshot);
    } catch (const SnapshotError& e) {
      throw CliError(e.what());
    }
  }();
  if (g.num_contacts() == 0) throw CliError("trace has no contacts");

  QueryEngineOptions qo;
  const double lo = grid_lo ? parse_duration(*grid_lo, "grid-lo") : 2 * kMinute;
  const double hi = grid_hi ? parse_duration(*grid_hi, "grid-hi")
                            : std::max(g.duration(), 2 * lo);
  qo.grid = make_log_grid(lo, hi, 40);
  qo.max_hops = max_hops ? parse_int(*max_hops, "max-hops", 1) : 10;
  qo.cache_bytes =
      static_cast<std::size_t>(
          cache_mb ? parse_count(*cache_mb, "cache-mb",
                                 std::numeric_limits<std::size_t>::max() >> 20)
                   : 256)
      << 20;

  const bool view = g.is_view();
  QueryEngine engine(std::move(g), qo);
  std::fprintf(stderr,
               "odtn serve: %zu nodes, %zu contacts (%s), grid %zu points, "
               "max-hops %d, cache %zu MiB\n",
               engine.graph().num_nodes(), engine.graph().num_contacts(),
               view ? "snapshot view" : "parsed trace", qo.grid.size(),
               qo.max_hops, qo.cache_bytes >> 20);

  if (socket_path) return serve_socket(engine, *socket_path, once);

  std::FILE* in = stdin;
  if (input) {
    in = std::fopen(input->c_str(), "r");
    if (!in) throw CliError("cannot open --input file '" + *input + "'");
  }
  serve_stream(engine, in, stdout);
  if (in != stdin) std::fclose(in);
  return 0;
}

int cmd_tail(ArgList args) {
  const std::string feed = required_positional(args, "feed file (or '-')");
  const bool follow = args.take_flag("follow");
  const auto poll_ms = args.take_option("poll-ms");
  const auto epoch_every = args.take_option("epoch");
  const auto max_hops = args.take_option("max-hops");
  const auto max_levels = args.take_option("max-levels");
  const auto grid_lo = args.take_option("grid-lo");
  const auto grid_hi = args.take_option("grid-hi");
  const auto eps_opt = args.take_option("eps");
  const auto window_lo = args.take_option("window-lo");
  const auto window_hi = args.take_option("window-hi");
  args.expect_empty();

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  IncrementalCdfOptions io;
  // The feed's span is unknown up front (it is still being written), so
  // the default grid covers minutes-to-a-week rather than the trace
  // duration the batch commands use.
  const double lo = grid_lo ? parse_duration(*grid_lo, "grid-lo") : 2 * kMinute;
  const double hi = grid_hi ? parse_duration(*grid_hi, "grid-hi")
                            : std::max(kWeek, 2 * lo);
  if (!(lo > 0.0 && hi > lo)) throw CliError("need 0 < grid-lo < grid-hi");
  io.grid = make_log_grid(lo, hi, 40);
  io.max_hops = max_hops ? parse_int(*max_hops, "max-hops", 1) : 10;
  io.max_levels = max_levels ? parse_int(*max_levels, "max-levels", 1) : 64;
  io.t_lo = window_lo ? parse_double(*window_lo, "window-lo") : kNaN;
  io.t_hi = window_hi ? parse_double(*window_hi, "window-hi") : kNaN;
  const double eps = eps_opt ? parse_double(*eps_opt, "eps") : 0.05;
  if (!(eps > 0.0 && eps < 1.0)) throw CliError("eps must lie in (0, 1)");
  const std::size_t batch_contacts =
      epoch_every ? parse_count(*epoch_every, "epoch") : 256;
  if (batch_contacts < 1) throw CliError("--epoch must be >= 1");

  LiveIngestSession session(io);
  LiveTailReader reader(feed, follow,
                        poll_ms ? parse_int(*poll_ms, "poll-ms", 0) : 200);

  const auto emit_row = [&](std::uint64_t epoch) {
    const auto t0 = std::chrono::steady_clock::now();
    IncrementalAllPairsEngine& eng = *session.engine();
    const DelayCdfResult r = eng.all_pairs();
    std::string row;
    char head[256];
    std::snprintf(head, sizeof head,
                  "epoch=%llu contacts=%zu fixpoint=%d converged=%d "
                  "diameter=%d",
                  static_cast<unsigned long long>(epoch),
                  eng.graph().num_contacts(), r.fixpoint_hops,
                  r.converged ? 1 : 0, r.diameter(eps));
    row = head;
    append_f64(row, " watermark=", eng.watermark());
    append_f64(row, " reach=",
               r.cdf_unbounded.empty() ? 0.0 : r.cdf_unbounded.back());
    std::snprintf(head, sizeof head, " us=%llu",
                  static_cast<unsigned long long>(micros_since(t0)));
    row += head;
    for (const double v : r.cdf_unbounded) append_f64(row, " ", v);
    std::printf("%s\n", row.c_str());
    std::fflush(stdout);
  };

  std::uint64_t last_epoch = 0;
  bool emitted_any = false;
  char chunk[1 << 16];
  for (;;) {
    const std::size_t got = reader.read_chunk(chunk, sizeof chunk);
    if (got == 0) break;
    session.feed(chunk, got);
    if (session.header_complete() && session.pending() >= batch_contacts) {
      const std::uint64_t e = session.commit_epoch();
      if (e != last_epoch) {
        last_epoch = e;
        emit_row(e);
        emitted_any = true;
      }
    }
  }
  session.flush();
  if (!session.header_complete())
    throw CliError("feed ended before the '# odtn-trace v1' / '# nodes' "
                   "headers");
  const std::uint64_t e = session.commit_epoch();
  if (e != last_epoch || !emitted_any) emit_row(e);
  const LiveIngestStats& st = session.stats();
  std::fprintf(stderr,
               "odtn tail: %llu epochs, %llu contacts ingested, %llu "
               "below-watermark records dropped\n",
               static_cast<unsigned long long>(st.epochs),
               static_cast<unsigned long long>(st.contacts_ingested),
               static_cast<unsigned long long>(st.below_watermark));
  return 0;
}

}  // namespace odtn::cli
