/**
 * @file
 * sysbench-TPCC over a PostgreSQL-like server (Section 6.3.2): a
 * closed-loop client on the peer machine drives transactions against
 * a database in the nested guest; every statement is a network round
 * trip, commits write and flush the WAL through the virtio disk.
 */

#ifndef SVTSIM_WORKLOADS_TPCC_H
#define SVTSIM_WORKLOADS_TPCC_H

#include <deque>

#include "hv/virt_stack.h"
#include "io/net_port.h"
#include "io/virtio_blk.h"
#include "io/virtio_net.h"
#include "sim/random.h"

namespace svtsim {

/** Result of a TPC-C run. */
struct TpccResult
{
    double tpm = 0;
    std::uint64_t transactions = 0;
    double meanTxnMsec = 0;
};

/** Shape of one TPC-C transaction type. */
struct TpccTxnProfile
{
    const char *name;
    /** Mix weight (percent). */
    int weight;
    /** Client-server statement round trips. */
    int statements;
    /** Buffer-cache misses served from the virtio disk. */
    int diskReads;
    /** Data page writes beyond the WAL (checkpoint amortization). */
    int diskWrites;
    /** Mean per-statement server CPU. */
    Ticks statementCpu;
};

/**
 * The TPC-C benchmark harness: database server at the top level of
 * the stack, closed-loop client on the peer.
 */
class Tpcc
{
  public:
    /**
     * @param peer The client's end of the link @p net is attached to.
     * @param l1_housekeeping_per_statement Load-proportional L1-kernel
     *        work (vhost bookkeeping on the paired vCPU) per statement;
     *        serial in the baseline, overlapped under SW SVt.
     * @param cpu_scale Multiplier on per-statement server CPU (the
     *        fleet scheduler uses it to model SMT-sibling contention
     *        under the sibling-share policy).
     */
    Tpcc(VirtStack &stack, VirtioNetStack &net, NetPort &peer,
         VirtioBlkStack &blk, std::uint64_t seed = 7,
         double l1_housekeeping_per_statement = 4.5,
         Ticks l1_housekeeping_cost = usec(13),
         double cpu_scale = 1.0);

    /** Run for @p duration; returns throughput in transactions/min. */
    TpccResult run(Ticks duration);

    /** The standard transaction mix. */
    static const TpccTxnProfile *profiles(int &count);

  private:
    VirtStack &stack_;
    VirtioNetStack &net_;
    NetPort &peer_;
    VirtioBlkStack &blk_;
    Rng rng_;
    double housekeepingPerStatement_;
    Ticks housekeepingCost_;
    double cpuScale_;
};

} // namespace svtsim

#endif // SVTSIM_WORKLOADS_TPCC_H
