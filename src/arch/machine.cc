#include "arch/machine.h"

#include <algorithm>
#include <string_view>

#include "sim/compiler.h"
#include "sim/log.h"
#include "sim/trace.h"

namespace svtsim {

namespace {

/** One attribution scope: its bucket/span name and trace category. */
struct ScopeInfo
{
    const char *name;
    TraceCategory category;
};

/** Indexed by ScopeId. */
constexpr ScopeInfo scopeTable[] = {
#define SVTSIM_STAGE_SCOPE_INFO(id, name) {name, TraceCategory::Stage},
    SVTSIM_STAGE_SCOPES(SVTSIM_STAGE_SCOPE_INFO)
#undef SVTSIM_STAGE_SCOPE_INFO
#define SVTSIM_EXIT_SCOPE_INFO(reason, name)                              \
    {"exit." name, TraceCategory::Exit},
    SVTSIM_EXIT_REASONS(SVTSIM_EXIT_SCOPE_INFO)
#undef SVTSIM_EXIT_SCOPE_INFO
};
static_assert(std::size(scopeTable) == numScopes,
              "one scopeTable entry per ScopeId");

constexpr const ScopeInfo &
scopeInfo(ScopeId id)
{
    return scopeTable[static_cast<std::size_t>(id)];
}

/** Scope ids sorted by name: the order snapshotMetrics() emits. */
constexpr auto scopesByName = [] {
    std::array<ScopeId, numScopes> ids{};
    for (std::size_t i = 0; i < numScopes; ++i)
        ids[i] = static_cast<ScopeId>(i);
    std::sort(ids.begin(), ids.end(), [](ScopeId a, ScopeId b) {
        return std::string_view(scopeInfo(a).name) < scopeInfo(b).name;
    });
    return ids;
}();

} // namespace

const char *
scopeName(ScopeId id)
{
    return scopeInfo(id).name;
}

void
validateTopology(const MachineTopology &topo)
{
    auto bad = [](int n) { return n < 1 || n > 1024; };
    if (bad(topo.numaNodes) || bad(topo.coresPerNode) ||
        bad(topo.threadsPerCore))
        fatal("MachineTopology: %d nodes x %d cores x %d-way SMT is "
              "not a machine; every dimension must be >= 1 and <= 1024",
              topo.numaNodes, topo.coresPerNode, topo.threadsPerCore);
}

Machine::Machine(MachineTopology topo, CostModel costs,
                 std::uint64_t seed)
    : topo_(topo), costs_(costs), rng_(seed), seed_(seed)
{
    validateTopology(topo_);
    scopeStack_.reserve(16);
    int id = 0;
    for (int node = 0; node < topo_.numaNodes; ++node) {
        for (int c = 0; c < topo_.coresPerNode; ++c) {
            cores_.push_back(std::make_unique<SmtCore>(
                eq_, costs_, id++, topo_.threadsPerCore, node,
                &metrics_));
        }
    }
}

SmtCore &
Machine::core(int i)
{
    if (i < 0 || i >= numCores())
        panic("Machine::core index %d out of range", i);
    return *cores_[static_cast<std::size_t>(i)];
}

void
Machine::setTraceSink(TraceSink *sink)
{
    eq_.setTraceSink(sink);
    ledger_ = Ledger{noWindow};
}

void
Machine::negativeConsume()
{
    panic("Machine::consume negative time");
}

void
Machine::idleUntil(Ticks when)
{
    // idleTo() may return early under a cluster AdvanceGate (with
    // now() < when), so idle time is charged from the actual
    // distance advanced, keeping the conservation check exact.
    const Ticks before = now();
    eq_.idleTo(when);
    if (SVTSIM_UNLIKELY(eq_.traceSink() != nullptr)) {
        if (Ledger *l = ledger())
            l->idle += now() - before;
    }
}

void
Machine::drainUntil(Ticks horizon)
{
    Ledger *l = ledger();
    if (l == nullptr) {
        eq_.runUntilTick(horizon);
        return;
    }
    const Ticks t0 = now();
    const Ticks charged0 = l->charged();
    eq_.runUntilTick(horizon);
    l->idle += (now() - t0) - (l->charged() - charged0);
}

Machine::Ledger *
Machine::ledger()
{
    TraceSink *sink = eq_.traceSink();
    if (sink == nullptr || !sink->enabled())
        return nullptr;
    if (ledger_.origin != sink->origin())
        ledger_ = Ledger{sink->origin()};
    return &ledger_;
}

bool
Machine::ledgerCurrent() const
{
    const TraceSink *sink = eq_.traceSink();
    return sink != nullptr && sink->enabled() &&
           ledger_.origin == sink->origin();
}

void
Machine::chargeConsumed(Ticks t)
{
    Ledger *l = ledger();
    if (l == nullptr)
        return;
    for (auto it = scopeStack_.rbegin(); it != scopeStack_.rend(); ++it) {
        if (scopeInfo(it->id).category == TraceCategory::Stage) {
            l->self[static_cast<std::size_t>(it->id)] += t;
            l->attributed += t;
            return;
        }
    }
    l->unattributed += t;
}

Machine::Conservation
Machine::conservation() const
{
    Conservation c;
    const TraceSink *sink = eq_.traceSink();
    if (sink == nullptr || !sink->enabled())
        return c;
    c.elapsed = now() - sink->origin();
    if (ledgerCurrent()) {
        c.attributed = ledger_.attributed;
        c.idle = ledger_.idle;
        c.unattributed = ledger_.unattributed;
    }
    return c;
}

Ticks
Machine::selfTicks(ScopeId id) const
{
    return ledgerCurrent() ? ledger_.self[static_cast<std::size_t>(id)]
                           : 0;
}

Ticks
Machine::tracedStart() const
{
    const TraceSink *sink = eq_.traceSink();
    return sink != nullptr && sink->enabled() ? now() : untraced;
}

void
Machine::emitSpan(const OpenScope &scope)
{
    if (TraceSink *sink = eq_.traceSink()) {
        const ScopeInfo &info = scopeInfo(scope.id);
        sink->complete(info.category, info.name, scope.start,
                       now() - scope.start);
    }
}

void
Machine::popWithoutPush()
{
    panic("Machine::popScope with no open scope");
}

Ticks
Machine::scopeTotal(ScopeId id) const
{
    Ticks total = buckets_[static_cast<std::size_t>(id)];
    for (const OpenScope &scope : scopeStack_) {
        if (scope.id == id)
            total += consumed_ - scope.mark;
    }
    return total;
}

void
Machine::resetAttribution()
{
    buckets_.fill(0);
    for (OpenScope &scope : scopeStack_)
        scope.mark = consumed_;
}

std::uint64_t
Machine::counter(const std::string &key) const
{
    return metrics_.counterValue(key);
}

void
Machine::installFaultPlan(const FaultPlan &plan)
{
    faults_ = std::make_unique<FaultInjector>(plan, seed_);
    for (std::size_t i = 0; i < numFaultSites; ++i) {
        faultMetric_[i] = metrics_.counter(
            MetricScope::Machine, "fault",
            std::string("fault.injected.") +
                faultSiteName(static_cast<FaultSite>(i)));
    }
    faults_->setOnInject([this](FaultSite site) {
        faultMetric_[static_cast<std::size_t>(site)].inc();
        if (TraceSink *sink = eq_.traceSink()) {
            sink->instant(TraceCategory::Sim,
                          std::string("fault.") + faultSiteName(site));
        }
    });
    eq_.setFaultInjector(faults_.get());
}

MetricsSnapshot
Machine::snapshotMetrics() const
{
    MetricsSnapshot snap = metrics_.snapshot();
    for (ScopeId id : scopesByName) {
        if (Ticks t = scopeTotal(id); t != 0)
            snap.scopes.emplace_back(scopeName(id), t);
    }
    return snap;
}

} // namespace svtsim
