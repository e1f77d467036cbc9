/**
 * @file
 * Conservative-time-window parallel execution engine for multi-machine
 * scenarios.
 *
 * A Cluster owns N NestedSystems — each with its own Machine,
 * EventQueue, RNG streams and MetricsRegistry — connected by
 * CrossLinks. Execution proceeds in epochs:
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
 */

#ifndef SVTSIM_SYSTEM_CLUSTER_H
#define SVTSIM_SYSTEM_CLUSTER_H

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/cross_link.h"
#include "sim/fault.h"
#include "system/nested_system.h"

namespace svtsim {

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
 * N machines + cross links + drivers, advanced in conservative epochs.
 */
class Cluster
{
  public:
    /** @param baseSeed Seed mixed with each machine's seed offset. */
    explicit Cluster(std::uint64_t baseSeed = 1);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /**
     * Add a machine built like a sweep scenario's NestedSystem:
     * paper topology for @p mode, validated config, seeded with
     * baseSeed + the machine index, so machines get decorrelated RNG
     * streams.
     *
     * @return The machine id (dense, starting at 0) used in merge
     *         ordering and CrossLink construction.
     */
    int addMachine(const std::string &name, VirtMode mode,
                   StackConfig config = {});

    /**
     * Add a machine with an explicit topology (the fleet scheduler's
     * per-slot machines model a single core, not the whole Table 4
     * box); the mode comes from @p config.mode.
     */
    int addMachine(const std::string &name,
                   const MachineTopology &topo, StackConfig config);

    int size() const { return static_cast<int>(nodes_.size()); }
    NestedSystem &system(int id);
    Machine &machine(int id);
    const std::string &machineName(int id) const;

    /**
     * Connect two machines with a CrossLink. Link latencies feed the
     * per-pair lookahead matrix computed at run(). Must be called
     * before run().
     */
    CrossLink &connect(int a, int b, Ticks latency,
                       double bits_per_sec);

    /**
     * Install @p fn as machine @p id's synchronous driver: it runs on
     * a fiber under the machine's AdvanceGate for the duration of
     * run(). Machines without a driver are advanced as pure event
     * followers.
     */
    void setDriver(int id, std::function<void(NestedSystem &)> fn);

    /** Install a fault plan on every machine (PR 4 semantics; each
     *  machine's injector streams key off its own seed). */
    void installFaultPlan(const FaultPlan &plan);

    /**
     * Run to completion: until every driver has returned (or, with no
     * drivers at all, until every queue drains). @p jobs <= 1 runs
     * every epoch step inline on the caller, in machine-id order —
     * the sequential oracle whose output any parallel run must match
     * byte for byte. Otherwise the caller and an epoch crew of
     * min(jobs, size()) - 1 member threads, alive for this call, run
     * each epoch's steps.
     *
     * May be called once per Cluster. Rethrows the first driver
     * error (SimError) after all drivers have unwound.
     */
    ClusterStats run(int jobs);

    /** min link latency (the worst-case lookahead bound), maxTick
     *  with no links. Per-pair horizons are at least this far past
     *  the global floor. */
    Ticks lookahead() const { return lookahead_; }

  private:
    /** A driver's fiber plus the AdvanceGate its queue wears
     *  (defined in cluster.cc, which keeps the fiber headers private). */
    class DriverGate;

    struct Node
    {
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
    };

    /** Earliest time machine @p n can next act (coordinator side;
     *  requires the machine parked/finished/follower). */
    Ticks floorOf(const Node &n) const;
    /** Advance machine @p n's window to @p horizon (crew side). */
    void stepMachine(Node &n, Ticks horizon);
    /** Keep @p what as the first error run() rethrows. Thread-safe. */
    void recordError(const std::string &what);
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

    std::uint64_t baseSeed_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<CrossLink>> links_;
    /** Link endpoints + latency, for the lookahead matrix. */
    struct LinkEnds
    {
        int a;
        int b;
        Ticks latency;
    };
    std::vector<LinkEnds> linkEnds_;
    Ticks lookahead_ = maxTick;
    bool ran_ = false;
    /** Barrier-merge scratch (reused across epochs). */
    std::vector<CrossLink::Delivery> scratch_;
    /** First driver error, rethrown from run(). */
    std::string driverError_;
    std::mutex errorMutex_;
};

} // namespace svtsim

#endif // SVTSIM_SYSTEM_CLUSTER_H
