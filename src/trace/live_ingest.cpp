#include "trace/live_ingest.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <thread>

#include "core/contact.hpp"

namespace odtn {

LiveTailReader::LiveTailReader(const std::string& path, bool follow,
                               int poll_ms)
    : follow_(follow), poll_ms_(poll_ms < 1 ? 1 : poll_ms), path_(path) {
  if (path == "-") {
    fd_ = STDIN_FILENO;
    owns_fd_ = false;
  } else {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0)
      throw TraceError({TraceErrorCode::kCannotOpen, 0, 0, path,
                        "cannot open live feed: " + path + " (" +
                            std::strerror(errno) + ")"});
    owns_fd_ = true;
  }
  struct stat st {};
  if (::fstat(fd_, &st) == 0) regular_file_ = S_ISREG(st.st_mode);
}

LiveTailReader::~LiveTailReader() {
  if (owns_fd_ && fd_ >= 0) ::close(fd_);
}

std::size_t LiveTailReader::read_chunk(char* buf, std::size_t n) {
  const bool tailing = follow_ && regular_file_;
  for (;;) {
    // A followed file is checked before every read, so bytes written by
    // a rewrite are never parsed as a continuation of the old ones.
    if (tailing) check_not_replaced();
    const ssize_t got = ::read(fd_, buf, n);
    if (got > 0) {
      const auto g = static_cast<std::size_t>(got);
      offset_ += g;
      if (tailing) {
        // Keep the last kTailBytes bytes read.
        if (g >= kTailBytes) {
          tail_.assign(buf + g - kTailBytes, kTailBytes);
        } else {
          tail_.append(buf, g);
          if (tail_.size() > kTailBytes)
            tail_.erase(0, tail_.size() - kTailBytes);
        }
      }
      return g;
    }
    if (got == 0) {
      // EOF. A followed regular file may still grow; everything else
      // (pipe writer closed, stdin exhausted, one-shot file) is done.
      if (!tailing) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms_));
      continue;
    }
    if (errno == EINTR) continue;
    throw TraceError({TraceErrorCode::kIoError, 0, 0, path_,
                      "read failed on live feed: " + path_ + " (" +
                          std::strerror(errno) + ")"});
  }
}

void LiveTailReader::check_not_replaced() const {
  const auto fail = [&](const char* what) {
    throw TraceError({TraceErrorCode::kIoError, 0, 0, path_,
                      "live feed " + path_ + " " + what +
                          " while being followed"});
  };
  struct stat open_st {};
  if (::fstat(fd_, &open_st) != 0) return;
  // Truncated in place: the read offset sits past the new end, so read()
  // would return 0 forever while the rewritten records go unseen.
  if (static_cast<std::uint64_t>(open_st.st_size) < offset_)
    fail("was truncated");
  // Rotated: the path now names another file, and the one still open
  // will never grow. A path that is briefly missing (between a rename
  // and the new file's creation) is not an error yet.
  struct stat path_st {};
  if (owns_fd_ && ::stat(path_.c_str(), &path_st) == 0 &&
      (path_st.st_ino != open_st.st_ino || path_st.st_dev != open_st.st_dev))
    fail("was replaced by another file");
  // Rewritten in place at the same or a greater length: the size and the
  // inode pass, but the bytes just before the offset are no longer the
  // ones read there.
  if (tail_.empty()) return;
  char now[kTailBytes] = {};
  const ssize_t got =
      ::pread(fd_, now, tail_.size(),
              static_cast<off_t>(offset_ - tail_.size()));
  if (got != static_cast<ssize_t>(tail_.size()) ||
      std::memcmp(now, tail_.data(), tail_.size()) != 0)
    fail("was rewritten");
}

LiveIngestSession::LiveIngestSession(IncrementalCdfOptions options,
                                     ParseOptions parse)
    : options_(std::move(options)), parser_(std::move(parse)) {
  // Fail before the feed is read, not after the backlog's bootstrap.
  check_window_bounds(options_.t_lo, options_.t_hi);
}

void LiveIngestSession::feed(const char* data, std::size_t n) {
  parser_.feed(data, n);
}

void LiveIngestSession::flush() { parser_.flush(); }

std::uint64_t LiveIngestSession::commit_epoch() {
  std::vector<Contact> drained = parser_.drain_contacts();
  if (pending_.empty()) {
    pending_ = std::move(drained);
  } else {
    pending_.insert(pending_.end(), drained.begin(), drained.end());
  }
  if (!engine_) {
    if (!parser_.header_complete())
      throw std::logic_error(
          "live ingest: feed headers incomplete; cannot create the engine");
    engine_.emplace(parser_.declared_nodes(), parser_.directed(), options_);
  }
  if (pending_.empty()) return engine_->epoch();

  // A live batch may be mildly out of order internally; canonical order
  // within the batch is ours to restore. Order against already-committed
  // history is not: those records are dropped and counted.
  std::sort(pending_.begin(), pending_.end(), contact_less);
  std::size_t keep_from = 0;
  const auto committed = engine_->graph().contacts();
  if (!committed.empty()) {
    const Contact& last = committed.back();
    while (keep_from < pending_.size() &&
           contact_less(pending_[keep_from], last))
      ++keep_from;
  }
  stats_.below_watermark += keep_from;
  if (keep_from == pending_.size()) {
    pending_.clear();
    return engine_->epoch();
  }
  const std::span<const Contact> batch(pending_.data() + keep_from,
                                       pending_.size() - keep_from);
  const std::uint64_t epoch = engine_->append(batch);
  stats_.epochs += 1;
  stats_.contacts_ingested += batch.size();
  pending_.clear();
  return epoch;
}

}  // namespace odtn
