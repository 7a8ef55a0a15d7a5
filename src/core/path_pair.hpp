// The (LD, EA) summary algebra for time-respecting paths (paper §4.2).
//
// A sequence of contacts (e_1, ..., e_n) supports a time-respecting path
// iff there is a non-decreasing assignment of crossing times t_i with
// t_i in [begin_i, end_i] (Eq. 2). All such paths are summarized by two
// numbers:
//   LD (last departure)   = min_i end_i   -- the latest possible start,
//   EA (earliest arrival) = max_i begin_i -- the earliest possible finish.
// Facts (i)-(iv) of the paper: two sequences concatenate iff
// EA(left) <= LD(right), and then LD and EA compose by min / max.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "core/contact.hpp"

namespace odtn {

/// Summary of one contact sequence: depart the source by `ld`, arrive at
/// the destination no earlier than `ea`. Note ea < ld is legal and means
/// the whole sequence is contemporaneously connected on [ea, ld].
struct PathPair {
  double ld = -std::numeric_limits<double>::infinity();
  double ea = std::numeric_limits<double>::infinity();

  friend bool operator==(const PathPair&, const PathPair&) = default;
};

/// The empty sequence, the level-0 frontier of every source: the message
/// is at the source at all times, so it departs arbitrarily late and has
/// arrived before any contact.
constexpr PathPair identity_pair() noexcept {
  return {std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};
}

/// Summary of a single contact: LD = end, EA = begin.
inline PathPair pair_of_contact(const Contact& c) noexcept {
  return {c.end, c.begin};
}

/// True iff `a` is at least as good as `b` in both coordinates
/// (departs no earlier AND arrives no later). Reflexive.
inline bool dominates(const PathPair& a, const PathPair& b) noexcept {
  return a.ld >= b.ld && a.ea <= b.ea;
}

/// Fact (iv): the sequences summarized by `left` then `right` concatenate
/// into a valid sequence iff EA(left) <= LD(right).
inline bool can_concatenate(const PathPair& left,
                            const PathPair& right) noexcept {
  return left.ea <= right.ld;
}

/// Composition of summaries after concatenation. Precondition:
/// can_concatenate(left, right).
inline PathPair concatenate(const PathPair& left,
                            const PathPair& right) noexcept {
  return {left.ld < right.ld ? left.ld : right.ld,
          left.ea > right.ea ? left.ea : right.ea};
}

/// Optimal delivery time of a message created at time `t` for paths using
/// this sequence: max(t, ea) when t <= ld, +infinity otherwise (§4.3).
double deliver_at(const PathPair& p, double t) noexcept;

/// Checks Eq. (2) on an explicit contact sequence: consecutive contacts
/// must share the relay node (u_i of contact i+1 equals v_i of contact i
/// when `directed`; any shared endpoint orientation otherwise is the
/// caller's responsibility -- this function checks the *time* condition:
/// end_i >= max_{j<i} begin_j for all i).
bool is_time_respecting(std::span<const Contact> sequence) noexcept;

/// Summarizes an explicit sequence into its (LD, EA) pair. Precondition:
/// the sequence is non-empty and time-respecting.
PathPair summarize_sequence(std::span<const Contact> sequence) noexcept;

}  // namespace odtn
