/**
 * @file
 * memcached + mutilate (Section 6.3.1) split across two machines, the
 * way the paper's testbed runs it:
 *
 *  - MutilateClient — mutilate on a bare-metal client machine: N
 *    open-loop ETC flows, one per link (a synchronous cluster driver:
 *    arrivals are events, the driver just idles the machine to the
 *    end of the run). Latency is measured at the client against a
 *    500 us 99th-percentile SLA.
 *  - MemcachedServer — the key-value store's serving loop in the
 *    guest plus the L1-kernel housekeeping interference; a
 *    synchronous cluster driver on the virtualized machine.
 *
 * A request sent at t arrives at t + serialization + latency, the
 * server turns it around, and the response lands after its own
 * serialization + latency.
 */

#ifndef SVTSIM_WORKLOADS_REMOTE_PEER_H
#define SVTSIM_WORKLOADS_REMOTE_PEER_H

#include <cstdint>
#include <deque>
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
        /** Requests put on the wire during the run. */
        std::uint64_t sent = 0;
        /** Responses that came back before the drain grace ended. */
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
     * current clock), then idle through a 5 ms grace to drain
     * in-flight responses. Synchronous: call from the client machine's
     * cluster driver. Receive handlers are cleared on return.
     */
    void run(Ticks duration);

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
 * memcached in the guest: the connection inbox, the per-request work
 * (parse, hash lookup, LRU bookkeeping, value access) and the
 * response, plus the L1-kernel housekeeping that interferes with the
 * serving vCPU. The load-proportional share (vhost bookkeeping on the
 * paired L1 vCPU) is posted when a request is received.
 */
class MemcachedServer
{
  public:
    /**
     * @param l1_housekeeping_per_request Load-proportional L1 work
     *        (vhost bookkeeping, irqfd signalling on the paired L1
     *        vCPU) in events per request. Serviced serially in the
     *        baseline; overlapped by the SVt-thread in SW SVt.
     */
    MemcachedServer(VirtStack &stack, VirtioNetStack &net,
                    std::uint64_t seed = 42,
                    double l1_housekeeping_per_request = 0.9);

    /**
     * Serve until the machine clock reaches @p end, drain the
     * backlog, then keep serving stragglers through a 5 ms grace
     * period. Synchronous: call from the server machine's cluster
     * driver. Returns requests served.
     */
    std::uint64_t serveUntil(Ticks end);

  private:
    struct Request
    {
        std::uint64_t id;
        bool get;
        std::uint32_t valueBytes;
    };

    void receive(const NetPacket &pkt);
    void serveOne();
    void scheduleHousekeeping(Ticks end);

    VirtStack &stack_;
    VirtioNetStack &net_;
    std::deque<Request> inbox_;
    Rng rng_;
    double housekeepingPerRequest_;
};

} // namespace svtsim

#endif // SVTSIM_WORKLOADS_REMOTE_PEER_H
