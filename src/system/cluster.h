/**
 * @file
 * Conservative-time-window parallel execution engine for multi-machine
 * scenarios.
 *
 * A Cluster owns N named NestedSystems — each with its own Machine,
 * EventQueue, RNG streams and MetricsRegistry — connected by
 * CrossLinks. ClusterSpec::realize (system/cluster_spec.h) is the only
 * way to make one; the caller then wires workloads to machines, stacks
 * and link ports by name, installs drivers and calls run() once.
 * Execution proceeds in epochs:
 *
 *   1. The coordinator computes each machine's *floor*: the earliest
 *      simulated time at which it can next act (min of its next event
 *      time and, for a parked synchronous driver, the advance target
 *      it is blocked on; 0 for a driver that has not started).
 *   2. Each machine gets a *per-pair* conservative horizon
 *      H_i = min over all j of (floor_j + C[j][i]), where C is the
 *      at-least-one-hop all-pairs shortest-path matrix over link
 *      latencies — C's diagonal is the shortest *cycle* through i,
 *      covering the echo of i's own sends (request out, response
 *      back); maxTick when no path into i exists, so an unreachable
 *      machine runs to completion in one window. Any packet that can
 *      reach i was caused by some machine j's state at the barrier,
 *      i.e. by an action at local time t >= floor_j, and arrives at
 *      t + serialization + path latency >= H_i, so i advancing below
 *      H_i cannot miss it. With homogeneous links this is within one
 *      hop of the classic min(floors) + min(latency); with
 *      heterogeneous links machines behind slow wires get
 *      proportionally larger windows instead of everyone collapsing
 *      to the slowest wire. run() lists each machine's finite
 *      (j, C[j][i]) pairs once, so an epoch visits only those, not
 *      all n^2.
 *   3. Every machine with work below its H_i advances to it
 *      concurrently on an epoch crew (system/epoch_crew.h): the
 *      coordinator and min(jobs, machines) - 1 member threads claim
 *      the epoch's steps by ticket, and the coordinator waits only
 *      for claimed steps to finish. At jobs <= 1 every step runs
 *      inline in machine-id order — the sequential oracle. Machines
 *      never touch each other's state inside a window; outbound
 *      packets are staged in the links.
 *   4. At the barrier the staged packets are merged into destination
 *      queues in canonical (deliveryTick, srcMachineId, seq) order.
 *
 * Within a window machines do not interact, so per-machine execution
 * is a pure function of the machine's own state at the window start;
 * the merge order is canonical; hence the whole run is byte-identical
 * for any --cluster-jobs count (enforced by a differential test).
 *
 * Synchronous workload code (a netperf loop, a memcached serving
 * loop) cannot be chopped into horizon-sized calls, so each machine
 * with a driver runs it on a stackful fiber whose EventQueue wears an
 * AdvanceGate: an advance that would cross the horizon drains what it
 * owns and parks by switching back to whoever resumed the fiber; the
 * epoch step resumes it with the new horizon on whichever crew
 * thread claimed the step and returns when it parks again or
 * finishes. There are no driver threads, and a fiber may move between
 * threads from one epoch to the next — the crew's generation publish
 * (release) and ticket claim (acquire) order its state between them.
 *
 * A driver error is kept in its machine's own slot, written only by
 * the thread stepping that machine. After each barrier the coordinator
 * rethrows the lowest machine id's error, so which error surfaces
 * when several machines fail in one epoch does not depend on thread
 * timing either.
 */

#ifndef SVTSIM_SYSTEM_CLUSTER_H
#define SVTSIM_SYSTEM_CLUSTER_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "io/cross_link.h"
#include "system/nested_system.h"

namespace svtsim {

class ClusterContext;

/** Aggregate run statistics (diagnostics and the speed bench). */
struct ClusterStats
{
    /** Epoch barriers executed. */
    std::uint64_t epochs = 0;
    /** Per-machine epoch steps actually run (skipped idle windows
     *  excluded). */
    std::uint64_t steps = 0;
    /** Cross-link packets merged at barriers. */
    std::uint64_t merged = 0;
};

/**
 * Named machines + cross links + drivers, advanced in conservative
 * epochs. Machine ids are declaration indices in the ClusterSpec; a
 * name that was not declared is a FatalError.
 */
class Cluster
{
  public:
    Cluster(Cluster &&) noexcept;
    ~Cluster();

    int size() const { return static_cast<int>(nodes_.size()); }
    Machine &machine(int id);
    Machine &machine(const std::string &name);
    VirtStack &stack(const std::string &name);

    /** The link between @p a and @p b (FatalError when not declared). */
    CrossLink &link(const std::string &a, const std::string &b);

    /** @p name's end of its link to @p peer — the NetPort a NIC model
     *  or bare-metal workload on @p name plugs into. */
    NetPort &port(const std::string &name, const std::string &peer);

    /**
     * Install @p fn as @p name's synchronous driver: it runs on a
     * fiber under the machine's AdvanceGate for the duration of
     * run(). Machines without a driver are advanced as pure event
     * followers.
     */
    Cluster &driver(const std::string &name,
                    std::function<void(NestedSystem &)> fn);

    /**
     * Run to completion: until every driver has returned (or, with no
     * drivers at all, until every queue drains). @p jobs <= 1 runs
     * every epoch step inline on the caller, in machine-id order —
     * the sequential oracle whose output any parallel run must match
     * byte for byte. Otherwise the caller and an epoch crew of
     * min(jobs, size()) - 1 member threads, alive for this call, run
     * each epoch's steps.
     *
     * May be called once per Cluster. A driver error is rethrown as a
     * SimError after all drivers have unwound; when several machines
     * fail in one epoch, the lowest machine id's error wins.
     */
    ClusterStats run(int jobs);

    /**
     * run(ctx.jobs()) inside a sweep scenario, bracketed for it:
     * installs the sweep's fault plan on every machine and one trace
     * session per machine before the run, then records each machine's
     * clock, machine 0's PMU snapshot and the trace reports into
     * @p ctx. Once per context.
     */
    ClusterStats run(ClusterContext &ctx);

  private:
    friend class ClusterSpec;
    Cluster() = default;

    /** A driver's fiber plus the AdvanceGate its queue wears
     *  (defined in cluster.cc, which keeps the fiber headers private). */
    class DriverGate;

    struct Node
    {
        /** Out of line, where DriverGate is complete. */
        Node();
        ~Node();

        std::string name;
        std::unique_ptr<NestedSystem> system;
        std::function<void(NestedSystem &)> driver;
        std::unique_ptr<DriverGate> gate;
        /** This machine's horizon for the current epoch (written by
         *  the coordinator before the step runs, read by step). */
        Ticks horizon = 0;
        /** Largest horizon ever granted: staged arrivals below this
         *  would land in the machine's executed past. */
        Ticks granted = 0;
        /** First error of this machine's driver or drain; written only
         *  by the thread stepping the machine, read by the coordinator
         *  after the barrier. */
        std::string error;
    };

    /** A CrossLink and the machine ids and latency it joins. */
    struct Link
    {
        int a;
        int b;
        Ticks latency;
        std::unique_ptr<CrossLink> wire;
    };

    /** Id of @p name (FatalError on unknown names). */
    int id(const std::string &name) const;
    /** The link joining @p a and @p b (FatalError when none). */
    const Link &linkBetween(const std::string &a,
                            const std::string &b) const;
    /** Earliest time machine @p n can next act (coordinator side;
     *  requires the machine parked/finished/follower). */
    Ticks floorOf(const Node &n) const;
    /** Advance machine @p n's window to @p horizon (crew side). */
    void stepMachine(Node &n, Ticks horizon);
    /** Throw the lowest machine id's error as a SimError, if any
     *  (coordinator side, after the barrier). */
    void rethrowError() const;
    /** Merge staged link packets canonically; returns count. Checks
     *  each arrival against the destination's granted horizon. */
    std::uint64_t mergeStaged();
    /** A finite entry C[from][i] of the lookahead matrix: machine
     *  @c from can cause an arrival at machine i no sooner than
     *  @c latency past its floor. */
    struct Inbound
    {
        int from;
        Ticks latency;
    };
    /** Each machine's inbound pairs, in machine-id order, from the
     *  at-least-one-hop all-pairs shortest-path latency matrix over
     *  the links (Floyd-Warshall with the diagonal seeded
     *  unreachable, so C[i][i] is the shortest cycle through i). A
     *  machine nothing can reach gets an empty list. */
    std::vector<std::vector<Inbound>> inboundLookahead() const;

    std::vector<std::unique_ptr<Node>> nodes_;
    /** In creation order, which breaks exact merge ties. */
    std::vector<Link> links_;
    bool ran_ = false;
    /** Barrier-merge scratch (reused across epochs). */
    std::vector<CrossLink::Delivery> scratch_;
};

} // namespace svtsim

#endif // SVTSIM_SYSTEM_CLUSTER_H
