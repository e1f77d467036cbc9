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
    {"stage.l2", TraceCategory::Stage},
    {"stage.switch_l2_l0", TraceCategory::Stage},
    {"stage.transform", TraceCategory::Stage},
    {"stage.l0_handler", TraceCategory::Stage},
    {"stage.switch_l0_l1", TraceCategory::Stage},
    {"stage.l1_handler", TraceCategory::Stage},
    {"stage.channel", TraceCategory::Stage},
    {"stage.l1_housekeeping", TraceCategory::Stage},
    {"stage.svt_watchdog", TraceCategory::Stage},
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

Machine::Machine(MachineTopology topo, CostModel costs,
                 std::uint64_t seed)
    : topo_(topo), costs_(costs), rng_(seed), seed_(seed)
{
    if (topo_.numaNodes < 1 || topo_.coresPerNode < 1 ||
        topo_.threadsPerCore < 1) {
        fatal("Machine topology must have at least one of everything");
    }
    scopeStack_.reserve(16);
    int id = 0;
    for (int node = 0; node < topo_.numaNodes; ++node) {
        for (int c = 0; c < topo_.coresPerNode; ++c) {
            cores_.push_back(std::make_unique<SmtCore>(
                eq_, costs_, id++, topo_.threadsPerCore, node,
                SmtCore::defaultPrfSize, &metrics_));
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
Machine::consume(Ticks t)
{
    if (SVTSIM_UNLIKELY(t < 0))
        panic("Machine::consume negative time");
    if (t == 0)
        return;
    for (const OpenScope &scope : scopeStack_)
        buckets_[static_cast<std::size_t>(scope.id)] += t;
    if (SVTSIM_UNLIKELY(eq_.traceSink() != nullptr))
        chargeConsumed(t);
    eq_.advanceBy(t);
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

void
Machine::pushScope(ScopeId id)
{
    TraceSink *sink = eq_.traceSink();
    Ticks start = untraced;
    if (SVTSIM_UNLIKELY(sink != nullptr && sink->enabled()))
        start = now();
    scopeStack_.push_back({id, start});
}

void
Machine::popScope()
{
    if (scopeStack_.empty())
        panic("Machine::popScope with no open scope");
    const OpenScope &scope = scopeStack_.back();
    if (SVTSIM_UNLIKELY(scope.start != untraced)) {
        if (TraceSink *sink = eq_.traceSink()) {
            const ScopeInfo &info = scopeInfo(scope.id);
            sink->complete(info.category, info.name, scope.start,
                           now() - scope.start);
        }
    }
    scopeStack_.pop_back();
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
