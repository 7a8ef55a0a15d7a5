// Quickstart: the odtn library in ~60 lines.
//
//  1. Build a temporal network from contacts.
//  2. Compute every delay-optimal path from a source (the (LD, EA)
//     Pareto frontiers of Chaintreau et al., CoNEXT 2007).
//  3. Query the delivery function: "if I create a message at time t,
//     when does it arrive?"
//  4. Compute the network's 99%-diameter.
#include <cstdio>

#include "core/diameter.hpp"
#include "core/optimal_paths.hpp"
#include "stats/log_grid.hpp"

using namespace odtn;

int main() {
  // A tiny opportunistic network: four devices, five contacts.
  // Node 0 never meets node 3 directly; data must flow over time
  // through relays 1 and 2.
  const TemporalGraph network(4, {
                                     {0, 1, 10.0, 30.0},  // 0 sees 1
                                     {1, 2, 25.0, 45.0},  // overlaps: chain!
                                     {2, 3, 60.0, 80.0},  // store & forward
                                     {0, 1, 100.0, 110.0},
                                     {1, 3, 120.0, 130.0},
                                 });

  // All delay-optimal paths from node 0, for every hop budget.
  SingleSourceEngine engine(network, /*source=*/0);
  engine.run_to_fixpoint();

  std::printf("Delay-optimal paths from node 0 to node 3:\n");
  const DeliveryFunction to3 = engine.frontier(3);
  for (const PathPair& p : to3.to_pairs()) {
    std::printf("  depart by t=%-5.0f -> arrive at t=%-5.0f (%s)\n", p.ld,
                p.ea,
                p.ea <= p.ld ? "contemporaneous" : "store-and-forward");
  }

  // The delivery function answers point queries.
  for (double t : {0.0, 50.0, 105.0, 125.0}) {
    const double arrival = to3.deliver_at(t);
    if (arrival < 1e300) {
      std::printf("message created at t=%-4.0f delivered at t=%-4.0f "
                  "(delay %.0f)\n",
                  t, arrival, arrival - t);
    } else {
      std::printf("message created at t=%-4.0f is never delivered\n", t);
    }
  }

  // The (1-eps)-diameter: hops needed to match 99% of flooding at every
  // time scale, over all pairs and all start times.
  DelayCdfOptions options;
  options.grid = make_log_grid(1.0, 200.0, 32);
  const DelayCdfResult cdf = compute_delay_cdf(network, options);
  std::printf("network diameter (99%% of flooding): %d hops\n",
              cdf.diameter(0.01));
  std::printf("no delay-optimal path uses more than %d hops\n",
              cdf.fixpoint_hops);
  return 0;
}
