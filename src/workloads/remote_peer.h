/**
 * @file
 * memcached split across two machines for the cluster benches:
 *
 *  - MutilateClient — mutilate on a bare-metal client machine: N
 *    open-loop ETC flows, one per link (a synchronous cluster driver:
 *    arrivals are events, the driver just idles the machine to the
 *    end of the run).
 *  - MemcachedServer — fig8's serving loop alone (the client half of
 *    MemcachedBench removed); a synchronous cluster driver on the
 *    virtualized machine.
 *
 * The timing structure is MemcachedBench's: a request sent at t
 * arrives at t + serialization + latency, the server turns it around,
 * and the response lands after its own serialization + latency. Only
 * the event-queue *ownership* moved.
 */

#ifndef SVTSIM_WORKLOADS_REMOTE_PEER_H
#define SVTSIM_WORKLOADS_REMOTE_PEER_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "hv/virt_stack.h"
#include "io/net_port.h"
#include "io/virtio_net.h"
#include "sim/random.h"
#include "stats/summary.h"
#include "workloads/memcached.h"

namespace svtsim {

/**
 * mutilate on a bare-metal client machine: open-loop Poisson arrival
 * processes and the per-request latency measurement, talking raw
 * packets on its link ends (no virtio on bare metal). The ETC request
 * sampling lives here, like real mutilate: the sampled value size
 * rides in the packet payload for the server to decode.
 *
 * Each flow is an independent arrival process on one link with its
 * own RNG; flow i is seeded seed + i.
 */
class MutilateClient
{
  public:
    /** Per-flow outcome of the last run. */
    struct FlowStats
    {
        std::uint64_t completed = 0;
        Percentiles latency;
    };

    /** A client with no flows yet: add them with addFlow(). */
    MutilateClient(Machine &machine, std::uint64_t seed);

    /** A one-flow client on @p port, driven through runLoad(). */
    MutilateClient(Machine &machine, NetPort &port,
                   std::uint64_t seed = 42);

    /** Register a flow offering @p qps on @p port. Call before run().
     *  Returns the flow index. */
    int addFlow(NetPort &port, double qps);

    /**
     * Offer every flow's load for @p duration (from the machine's
     * current clock), then idle through @p grace to drain in-flight
     * responses. Synchronous: call from the client machine's cluster
     * driver. Receive handlers are cleared on return.
     */
    void run(Ticks duration, Ticks grace = msec(5));

    /** Offer @p qps on the only flow for @p duration; run()'s rules. */
    MemcachedPoint runLoad(double qps, Ticks duration);

    int flowCount() const { return static_cast<int>(flows_.size()); }
    const FlowStats &flow(int i) const { return flows_[i]->stats; }

  private:
    struct Flow
    {
        NetPort &port;
        double qps;
        Rng rng;
        std::uint64_t nextId = 1;
        std::unordered_map<std::uint64_t, Ticks> inflight;
        FlowStats stats;

        Flow(NetPort &p, double q, std::uint64_t seed)
            : port(p), qps(q), rng(seed)
        {}
    };

    void arm(Flow &flow, Ticks end);

    Machine &machine_;
    std::uint64_t seed_;
    EtcWorkload etc_;
    std::vector<std::unique_ptr<Flow>> flows_;
};

/**
 * The memcached serving half of MemcachedBench alone: the in-guest
 * serving loop plus the L1-kernel housekeeping interference. The
 * load-proportional housekeeping (vhost bookkeeping on the paired L1
 * vCPU) is posted when a request is *received* — in MemcachedBench it
 * is posted at the client's send, which is the same tick stream
 * shifted by the wire.
 */
class MemcachedServer
{
  public:
    /** Parameter semantics match MemcachedBench. */
    MemcachedServer(VirtStack &stack, VirtioNetStack &net,
                    std::uint64_t seed = 42,
                    double l1_housekeeping_rate_hz = 1000.0,
                    Ticks l1_housekeeping_cost = usec(14.5),
                    double l1_housekeeping_per_request = 0.9);

    /**
     * Serve until the machine clock reaches @p end, then drain the
     * backlog through a grace period. Synchronous: call from the
     * server machine's cluster driver. Returns requests served.
     */
    std::uint64_t serveUntil(Ticks end);

  private:
    void scheduleHousekeeping(Ticks end);

    VirtStack &stack_;
    VirtioNetStack &net_;
    MemcachedService service_;
    Rng rng_;
    double housekeepingRate_;
    Ticks housekeepingCost_;
    double housekeepingPerRequest_;
};

} // namespace svtsim

#endif // SVTSIM_WORKLOADS_REMOTE_PEER_H
