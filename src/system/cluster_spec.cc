#include "system/cluster_spec.h"

#include <unordered_set>

#include "sim/log.h"

namespace svtsim {

ClusterSpec &
ClusterSpec::machine(std::string name, VirtMode mode,
                     StackConfig config)
{
    MachineDecl decl;
    decl.name = std::move(name);
    decl.mode = mode;
    decl.config = config;
    machines_.push_back(std::move(decl));
    return *this;
}

ClusterSpec &
ClusterSpec::machine(std::string name, const MachineTopology &topo,
                     StackConfig config)
{
    MachineDecl decl;
    decl.name = std::move(name);
    decl.topo = topo;
    decl.mode = config.mode;
    decl.config = config;
    machines_.push_back(std::move(decl));
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

ClusterBuild
ClusterSpec::realize(std::uint64_t seed) const
{
    validate();
    ClusterBuild build;
    build.cluster_ = std::make_unique<Cluster>(seed);
    for (const MachineDecl &m : machines_) {
        if (m.topo) {
            StackConfig config = m.config;
            config.mode = m.mode;
            build.cluster_->addMachine(m.name, *m.topo, config);
        } else {
            build.cluster_->addMachine(m.name, m.mode, m.config);
        }
        build.names_.push_back(m.name);
    }
    for (const LinkDecl &l : links_) {
        const int a = indexOf(l.a);
        const int b = indexOf(l.b);
        // Defaults: the paper testbed wire, from machine a's (live)
        // cost model so post-construction cost tweaks are honored.
        const CostModel &costs = build.cluster_->machine(a).costs();
        CrossLink &link = build.cluster_->connect(
            a, b, l.latency ? *l.latency : costs.wireLatency,
            l.bitsPerSec ? *l.bitsPerSec : costs.linkBitsPerSec);
        build.links_.push_back({l.a, l.b, &link});
    }
    return build;
}

ClusterBuild
ClusterSpec::realize(const ClusterContext &ctx) const
{
    return realize(ctx.seed());
}

int
ClusterBuild::id(const std::string &name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<int>(i);
    fatal("ClusterBuild: unknown machine '%s'", name.c_str());
}

CrossLink &
ClusterBuild::link(const std::string &a, const std::string &b)
{
    for (const BuiltLink &l : links_)
        if ((l.a == a && l.b == b) || (l.a == b && l.b == a))
            return *l.link;
    fatal("ClusterBuild: no link between '%s' and '%s' was declared",
          a.c_str(), b.c_str());
}

NetPort &
ClusterBuild::port(const std::string &name, const std::string &peer)
{
    for (const BuiltLink &l : links_) {
        if (l.a == name && l.b == peer)
            return l.link->port(0);
        if (l.a == peer && l.b == name)
            return l.link->port(1);
    }
    fatal("ClusterBuild: no link between '%s' and '%s' was declared",
          name.c_str(), peer.c_str());
}

ClusterBuild &
ClusterBuild::driver(const std::string &name,
                     std::function<void(NestedSystem &)> fn)
{
    cluster_->setDriver(id(name), std::move(fn));
    return *this;
}

ClusterStats
ClusterBuild::run(ClusterContext &ctx)
{
    ctx.prepare(*cluster_);
    return cluster_->run(ctx.jobs());
}

} // namespace svtsim
