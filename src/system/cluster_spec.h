/**
 * @file
 * Declarative cluster construction.
 *
 * Before this existed, every multi-machine bench hand-wired its
 * Cluster: addMachine calls with positional ids, connect calls
 * repeating the cost-model wire parameters, drivers keyed by integer
 * id. A ClusterSpec declares the same thing as data — named machines
 * and named links — validated up front (the validateStackConfig
 * discipline: a malformed spec is a FatalError with an actionable
 * message, not a crash three layers down), then realized into a
 * ClusterBuild that resolves names to machines, stacks and link
 * ports:
 *
 *     ClusterBuild b = ClusterSpec()
 *                          .machine("server", VirtMode::SwSvt)
 *                          .machine("client", VirtMode::Native)
 *                          .link("server", "client")
 *                          .realize(ctx.seed());
 *     VirtioNetStack net(b.stack("server"), b.port("server", "client"));
 *     ...
 *     b.driver("server", [&](NestedSystem &) { ... });
 *     b.run(ctx);          // ctx.prepare + Cluster::run(ctx.jobs())
 *     ...record metrics...
 *     ctx.finish(b.cluster(), result);
 *
 * A link declared without wire parameters gets the paper testbed wire
 * (CostModel::wireLatency / linkBitsPerSec).
 */

#ifndef SVTSIM_SYSTEM_CLUSTER_SPEC_H
#define SVTSIM_SYSTEM_CLUSTER_SPEC_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "system/cluster.h"
#include "system/sweep.h"

namespace svtsim {

class ClusterBuild;

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
     * machine names, link endpoints declared and distinct, at most one
     * link per machine pair (so ClusterBuild::port(name, peer) is
     * unambiguous), positive wire parameters. FatalError with an
     * actionable message otherwise. realize() validates implicitly.
     */
    void validate() const;

    /** Build the Cluster (machine ids in declaration order). */
    ClusterBuild realize(std::uint64_t seed) const;

    /** Shorthand: seed from the harness context. */
    ClusterBuild realize(const ClusterContext &ctx) const;

  private:
    struct MachineDecl
    {
        std::string name;
        std::optional<MachineTopology> topo;
        VirtMode mode = VirtMode::Nested;
        StackConfig config{};
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

/** A realized ClusterSpec: the Cluster plus name-based resolution. */
class ClusterBuild
{
  public:
    ClusterBuild(ClusterBuild &&) = default;
    ClusterBuild &operator=(ClusterBuild &&) = default;

    Cluster &cluster() { return *cluster_; }

    /** Machine id of @p name (FatalError on unknown names). */
    int id(const std::string &name) const;

    NestedSystem &system(const std::string &name)
    {
        return cluster_->system(id(name));
    }

    Machine &machine(const std::string &name)
    {
        return cluster_->machine(id(name));
    }

    VirtStack &stack(const std::string &name)
    {
        return system(name).stack();
    }

    /** The link between @p a and @p b (FatalError when not declared). */
    CrossLink &link(const std::string &a, const std::string &b);

    /** @p name's end of its link to @p peer — the NetPort a NIC model
     *  or bare-metal workload on @p name plugs into. */
    NetPort &port(const std::string &name, const std::string &peer);

    /** Install @p name's synchronous driver (Cluster::setDriver). */
    ClusterBuild &driver(const std::string &name,
                         std::function<void(NestedSystem &)> fn);

    /** ctx.prepare(cluster) + Cluster::run(ctx.jobs()). The caller
     *  still records metrics and then calls ctx.finish(). */
    ClusterStats run(ClusterContext &ctx);

    /** Standalone run (tests): no harness context. */
    ClusterStats run(int jobs) { return cluster_->run(jobs); }

  private:
    friend class ClusterSpec;
    ClusterBuild() = default;

    struct BuiltLink
    {
        std::string a;
        std::string b;
        CrossLink *link;
    };

    std::unique_ptr<Cluster> cluster_;
    std::vector<std::string> names_;
    std::vector<BuiltLink> links_;
};

} // namespace svtsim

#endif // SVTSIM_SYSTEM_CLUSTER_SPEC_H
