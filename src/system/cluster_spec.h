/**
 * @file
 * Declarative cluster construction: the only way to make a Cluster.
 *
 * A ClusterSpec declares a cluster as data — named machines and named
 * links — validated up front (the validateStackConfig discipline: a
 * malformed spec is a FatalError with an actionable message, not a
 * crash three layers down), then realized into a Cluster whose
 * machines, stacks and link ports are looked up by name:
 *
 *     Cluster c = ClusterSpec()
 *                     .machine("server", VirtMode::SwSvt)
 *                     .machine("client", VirtMode::Native)
 *                     .link("server", "client")
 *                     .realize(ctx);
 *     VirtioNetStack net(c.stack("server"), c.port("server", "client"));
 *     ...
 *     c.driver("server", [&](NestedSystem &) { ... });
 *     c.run(ctx);          // faults, traces, run, fingerprint capture
 *     ...record metrics...
 *
 * A link declared without wire parameters gets the paper testbed wire
 * (CostModel::wireLatency / linkBitsPerSec).
 */

#ifndef SVTSIM_SYSTEM_CLUSTER_SPEC_H
#define SVTSIM_SYSTEM_CLUSTER_SPEC_H

#include <optional>
#include <string>
#include <vector>

#include "system/cluster.h"
#include "system/sweep.h"

namespace svtsim {

/** Declarative machine + link list; validated before realization. */
class ClusterSpec
{
  public:
    /** Declare a machine with the paper topology for @p mode. */
    ClusterSpec &machine(std::string name, VirtMode mode,
                         StackConfig config = {});

    /** Declare a machine with an explicit topology; the mode comes
     *  from @p config.mode. */
    ClusterSpec &machine(std::string name, const MachineTopology &topo,
                         StackConfig config);

    /** Link two declared machines with the paper testbed wire. */
    ClusterSpec &link(const std::string &a, const std::string &b);

    /** Link with explicit wire parameters. */
    ClusterSpec &link(const std::string &a, const std::string &b,
                      Ticks latency, double bits_per_sec);

    /**
     * Validate the declaration: at least one machine, unique non-empty
     * machine names, valid stack configs (validateStackConfig), link
     * endpoints declared and distinct, at most one link per machine
     * pair (so Cluster::port(name, peer) is unambiguous), positive wire
     * parameters. FatalError with an actionable message otherwise.
     * realize() validates implicitly.
     */
    void validate() const;

    /** Build the Cluster: machine ids in declaration order, machine
     *  i seeded with @p seed + i, links created in declaration order. */
    Cluster realize(std::uint64_t seed) const;

    /** Shorthand: seed from the harness context. */
    Cluster realize(const ClusterContext &ctx) const;

  private:
    struct MachineDecl
    {
        std::string name;
        MachineTopology topo;
        /** config.mode is the machine's mode. */
        StackConfig config;
    };

    struct LinkDecl
    {
        std::string a;
        std::string b;
        /** Unset = paper testbed wire. */
        std::optional<Ticks> latency;
        std::optional<double> bitsPerSec;
    };

    int indexOf(const std::string &name) const;

    std::vector<MachineDecl> machines_;
    std::vector<LinkDecl> links_;
};

/** The former name of a realized spec; goes with ROADMAP item 6. */
using ClusterBuild = Cluster;

} // namespace svtsim

#endif // SVTSIM_SYSTEM_CLUSTER_SPEC_H
