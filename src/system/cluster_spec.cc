#include "system/cluster_spec.h"

#include <memory>
#include <unordered_set>

#include "sim/log.h"

namespace svtsim {

ClusterSpec &
ClusterSpec::machine(std::string name, VirtMode mode,
                     StackConfig config)
{
    config.mode = mode;
    return machine(std::move(name), paperTopology(mode), config);
}

ClusterSpec &
ClusterSpec::machine(std::string name, const MachineTopology &topo,
                     StackConfig config)
{
    machines_.push_back({std::move(name), topo, config});
    return *this;
}

ClusterSpec &
ClusterSpec::link(const std::string &a, const std::string &b)
{
    links_.push_back({a, b, {}, {}});
    return *this;
}

ClusterSpec &
ClusterSpec::link(const std::string &a, const std::string &b,
                  Ticks latency, double bits_per_sec)
{
    links_.push_back({a, b, latency, bits_per_sec});
    return *this;
}

int
ClusterSpec::indexOf(const std::string &name) const
{
    for (std::size_t i = 0; i < machines_.size(); ++i)
        if (machines_[i].name == name)
            return static_cast<int>(i);
    return -1;
}

void
ClusterSpec::validate() const
{
    if (machines_.empty())
        fatal("ClusterSpec: no machines declared; call "
              "machine(name, mode) at least once before realize()");
    std::unordered_set<std::string> seen;
    for (const MachineDecl &m : machines_) {
        if (m.name.empty())
            fatal("ClusterSpec: machine declared with an empty name; "
                  "every machine needs a unique non-empty name (it "
                  "keys port/driver lookup)");
        if (!seen.insert(m.name).second)
            fatal("ClusterSpec: machine '%s' declared twice; names "
                  "must be unique (they key port/driver lookup)",
                  m.name.c_str());
        validateStackConfig(m.config);
    }
    std::unordered_set<std::string> pairs;
    for (const LinkDecl &l : links_) {
        if (indexOf(l.a) < 0)
            fatal("ClusterSpec: link endpoint '%s' is not a declared "
                  "machine; declare it with machine('%s', mode) "
                  "before linking",
                  l.a.c_str(), l.a.c_str());
        if (indexOf(l.b) < 0)
            fatal("ClusterSpec: link endpoint '%s' is not a declared "
                  "machine; declare it with machine('%s', mode) "
                  "before linking",
                  l.b.c_str(), l.b.c_str());
        if (l.a == l.b)
            fatal("ClusterSpec: link connects machine '%s' to "
                  "itself; a cluster link needs two distinct machines "
                  "(build a same-machine peer with "
                  "CrossLink(machine, latency, rate))",
                  l.a.c_str());
        const std::string key = l.a < l.b ? l.a + "\n" + l.b
                                          : l.b + "\n" + l.a;
        if (!pairs.insert(key).second)
            fatal("ClusterSpec: machines '%s' and '%s' are linked "
                  "twice; declare one link per pair (port(name, "
                  "peer) resolution must be unambiguous)",
                  l.a.c_str(), l.b.c_str());
        if (l.latency && *l.latency <= 0)
            fatal("ClusterSpec: link '%s'-'%s' has non-positive "
                  "latency %lld; the propagation delay is the "
                  "conservative lookahead and must be > 0",
                  l.a.c_str(), l.b.c_str(),
                  static_cast<long long>(*l.latency));
        if (l.bitsPerSec && *l.bitsPerSec <= 0)
            fatal("ClusterSpec: link '%s'-'%s' has non-positive "
                  "rate %g bits/s",
                  l.a.c_str(), l.b.c_str(), *l.bitsPerSec);
    }
}

Cluster
ClusterSpec::realize(std::uint64_t seed) const
{
    validate();
    Cluster cluster;
    for (const MachineDecl &m : machines_) {
        // The base seed plus the machine id decorrelates the machines'
        // RNG streams.
        auto node = std::make_unique<Cluster::Node>();
        node->name = m.name;
        node->system = std::make_unique<NestedSystem>(
            m.topo, m.config,
            seed + static_cast<std::uint64_t>(cluster.size()));
        cluster.nodes_.push_back(std::move(node));
    }
    for (const LinkDecl &l : links_) {
        const int a = indexOf(l.a);
        const int b = indexOf(l.b);
        // Defaults: the paper testbed wire, from machine a's cost model.
        const CostModel &costs = cluster.machine(a).costs();
        const Ticks latency = l.latency.value_or(costs.wireLatency);
        cluster.links_.push_back(
            {a, b, latency,
             std::make_unique<CrossLink>(
                 cluster.machine(a), a, cluster.machine(b), b, latency,
                 l.bitsPerSec.value_or(costs.linkBitsPerSec))});
    }
    return cluster;
}

Cluster
ClusterSpec::realize(const ClusterContext &ctx) const
{
    return realize(ctx.seed());
}

} // namespace svtsim
