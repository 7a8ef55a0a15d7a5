// The snapshot/serve commands of the odtn CLI (split out of
// commands.cpp: they pull in the snapshot codec, the query engine and
// POSIX socket plumbing that no other command needs).
//
//   odtn snapshot <trace> <out.odtns>   parse + index once, write the
//                                       mmap-able binary snapshot
//   odtn serve --snapshot <file>        answer line-delimited query
//                                       batches over stdin, a file
//                                       (--input) or a unix socket
//                                       (--socket PATH [--once])
//   odtn tail <feed>                    live-ingest a growing trace feed
//                                       ('-' = stdin; --follow polls a
//                                       file like tail -f) and print a
//                                       diameter/CDF row per committed
//                                       epoch (--epoch N contacts)
//
// Serve protocol (one query per line; a blank line or EOF flushes the
// pending batch; batches run concurrently on the thread pool; a final
// line without a trailing newline is still a complete query):
//   cdf <src> [t_lo t_hi]      per-source delay CDF (unbounded hops)
//   diameter <eps> [t_lo t_hi] all-pairs (1-eps)-diameter
//   reach <src> <t>            nodes reachable from src at time t
//   journey <src> <dst>        fastest/shortest journey optima
//   stats                      cache counters
//   ingest <u> <v> <b> <e>     append one contact to the served graph
//                              (canonical order against history; runs
//                              alone: the pending batch is answered on
//                              the pre-ingest graph first; a
//                              successful ingest empties the cache,
//                              a refused one answers `error ...`)
//   quit                       finish after the current batch
// Every response is one line carrying `us=<latency>` plus, for cached
// query kinds, `hit=`/`hits=` counters; numeric payloads print with
// %.17g so repeated batches can be diffed bit-exactly (strip us= first).
#pragma once

#include "cli/args.hpp"

namespace odtn::cli {

int cmd_snapshot(ArgList args);
int cmd_serve(ArgList args);
int cmd_tail(ArgList args);

}  // namespace odtn::cli
