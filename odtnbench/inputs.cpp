#include "inputs.hpp"

#include <numeric>
#include <utility>
#include <vector>

#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"

namespace odtnbench {

using namespace odtn;

namespace {

TemporalGraph conference_draw(std::size_t nodes, double days,
                              double pair_contacts_mean,
                              std::size_t communities, GatheringModel gather,
                              std::uint64_t draw) {
  SyntheticTraceSpec spec;
  spec.num_internal = nodes;
  spec.duration = days * kDay;
  spec.pair_contacts_mean = pair_contacts_mean;
  spec.num_communities = communities;
  spec.gatherings = gather;
  spec.profile = ActivityProfile::conference();
  return generate_trace(spec, draw).graph;
}

/// Random node permutation plus a whole-day time shift, both from `seed`.
/// The shift stays within [100, 200) days so every timestamp keeps the
/// same number of integer digits, and with it the trace text's size.
TemporalGraph seeded_variant(const TemporalGraph& base, std::uint64_t seed) {
  Rng rng = Rng::keyed(seed, 0x0d7b);
  std::vector<NodeId> perm(base.num_nodes());
  std::iota(perm.begin(), perm.end(), NodeId{0});
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[rng.below(i)]);
  const double shift = static_cast<double>(100 + rng.below(100)) * kDay;
  std::vector<Contact> contacts = base.contacts_vector();
  for (Contact& c : contacts) {
    c.u = perm[c.u];
    c.v = perm[c.v];
    c.begin += shift;
    c.end += shift;
  }
  return TemporalGraph(base.num_nodes(), std::move(contacts), base.directed());
}

}  // namespace

TemporalGraph batch_trace(std::uint64_t seed) {
  return seeded_variant(
      conference_draw(240, 3, 0.06, 12,
                      {25.0, 0.18, 0.04, 10 * kMinute, 0.75, 0.05}, 1717),
      seed);
}

TemporalGraph live_trace(std::uint64_t seed) {
  return seeded_variant(
      conference_draw(120, 20, 0.10, 8,
                      {25.0, 0.2, 0.04, 10 * kMinute, 0.8, 0.05}, 7117),
      seed);
}

TemporalGraph serve_trace(std::uint64_t seed) {
  return seeded_variant(
      conference_draw(120, 3, 0.10, 8,
                      {25.0, 0.2, 0.04, 10 * kMinute, 0.8, 0.05}, 7117),
      seed);
}

TemporalGraph uniform_trace(std::size_t nodes, std::size_t contacts,
                            std::uint64_t seed) {
  Rng rng = Rng::keyed(seed, 0x1f00);
  std::vector<Contact> all;
  all.reserve(contacts);
  const double horizon = 7.0 * kDay;
  for (std::size_t i = 0; i < contacts; ++i) {
    const auto u = static_cast<NodeId>(rng.below(nodes));
    auto v = static_cast<NodeId>(rng.below(nodes - 1));
    if (v >= u) ++v;
    const double begin = rng.uniform(0.0, horizon);
    all.push_back({u, v, begin, begin + rng.uniform(0.0, 3600.0)});
  }
  return TemporalGraph(nodes, std::move(all));
}

}  // namespace odtnbench
