/**
 * @file
 * Top-level machine: cores, event queue, cost model, time attribution.
 */

#ifndef SVTSIM_ARCH_MACHINE_H
#define SVTSIM_ARCH_MACHINE_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/cost_model.h"
#include "arch/exit_reason.h"
#include "arch/smt_core.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/random.h"
#include "stats/metrics.h"

namespace svtsim {

/** Physical machine shape (Table 4: 2x 8-core 2-SMT Xeon). */
struct MachineTopology
{
    int numaNodes = 2;
    int coresPerNode = 8;
    int threadsPerCore = 2;

    int totalCores() const { return numaNodes * coresPerNode; }
};

/**
 * Time-attribution scopes: one fixed table shared by Machine's buckets,
 * TimeScope and the trace spans. The Table 1 stages come first, then
 * one `exit.<REASON>` scope per ExitReason, in ExitReason order. Each
 * entry's name and trace category live in machine.cc.
 */
enum class ScopeId : std::uint8_t
{
    StageL2,             ///< stage.l2
    StageSwitchL2L0,     ///< stage.switch_l2_l0
    StageTransform,      ///< stage.transform
    StageL0Handler,      ///< stage.l0_handler
    StageSwitchL0L1,     ///< stage.switch_l0_l1
    StageL1Handler,      ///< stage.l1_handler
    StageChannel,        ///< stage.channel
    StageL1Housekeeping, ///< stage.l1_housekeeping
    StageSvtWatchdog,    ///< stage.svt_watchdog
#define SVTSIM_EXIT_SCOPE_ID(reason, name) Exit##reason,
    SVTSIM_EXIT_REASONS(SVTSIM_EXIT_SCOPE_ID)
#undef SVTSIM_EXIT_SCOPE_ID
    NumScopes,
};

/** Number of attribution scopes. */
constexpr std::size_t numScopes =
    static_cast<std::size_t>(ScopeId::NumScopes);

/** The `exit.<REASON>` scope of @p reason. */
constexpr ScopeId
exitScope(ExitReason reason)
{
    return static_cast<ScopeId>(
        static_cast<std::size_t>(ScopeId::ExitNone) +
        static_cast<std::size_t>(reason));
}

/** Table name of a scope (`stage.l0_handler`, `exit.CPUID`). */
const char *scopeName(ScopeId id);

/**
 * The simulated machine: owns the event queue, cost model, RNG and the
 * cores, and provides the time-attribution machinery that benches use
 * to regenerate stage breakdowns (Table 1) and exit-reason profiles
 * (Section 6.2).
 */
class Machine
{
  public:
    explicit Machine(MachineTopology topo = {}, CostModel costs = {},
                     std::uint64_t seed = 1);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineTopology &topology() const { return topo_; }
    const CostModel &costs() const { return costs_; }
    CostModel &costs() { return costs_; }

    EventQueue &events() { return eq_; }
    Rng &rng() { return rng_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * Attach/detach a trace sink (not owned). While attached and
     * enabled, consume()/idleUntil() feed the sink's time-conservation
     * accounting and pushScope()/popScope() mirror into trace spans.
     */
    void setTraceSink(TraceSink *sink) { eq_.setTraceSink(sink); }
    TraceSink *traceSink() const { return eq_.traceSink(); }

    SmtCore &core(int i);
    int numCores() const { return static_cast<int>(cores_.size()); }

    // -- Time ------------------------------------------------------------
    Ticks now() const { return eq_.now(); }

    /**
     * Consume @p t ticks of simulated time. Runs due events and adds
     * @p t to every open attribution scope.
     */
    void consume(Ticks t);

    /** Let simulated time pass without attributing it to any open
     *  scope (used for idle/wait periods). */
    void idleUntil(Ticks when);

    // -- Attribution scopes ----------------------------------------------
    /** Open an attribution scope; time consumed while open accrues to
     *  its bucket. Scopes nest; all open scopes accrue. */
    void pushScope(ScopeId id);
    void popScope();

    /** Total ticks accrued to @p id since the last reset. */
    Ticks scopeTotal(ScopeId id) const
    {
        return buckets_[static_cast<std::size_t>(id)];
    }

    void resetAttribution() { buckets_.fill(0); }

    // -- Simulated PMU -----------------------------------------------------
    /** The machine's metrics registry (the simulated PMU). Components
     *  intern handles here at construction time. */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /**
     * Compat shim over the old string-keyed counter map: adds to a
     * pre-registered counter by name. Raises FatalError on keys no
     * component registered — a typo'd key is a config bug, not a new
     * counter.
     */
    void count(const std::string &key, std::uint64_t n = 1);
    std::uint64_t counter(const std::string &key) const;

    // -- Fault injection ---------------------------------------------------
    /**
     * Install a fault plan: builds a FaultInjector keyed off this
     * machine's seed, registers a `fault.injected.<site>` PMU counter
     * per site and publishes the injector on the event queue so hook
     * points (rings, LAPICs, devices) can consult it. Installing a
     * new plan replaces the previous one; the decision streams
     * restart from the seed.
     */
    void installFaultPlan(const FaultPlan &plan);

    /** The installed injector, or null when no plan is active. */
    FaultInjector *faults() { return faults_.get(); }

    /**
     * Allocate the next local-APIC id on this machine. Per-machine
     * (not process-global) so concurrently constructed machines get
     * identical, deterministic id sequences.
     */
    int allocApicId() { return nextApicId_++; }

    /** All registered counters as a name -> value map (by value now
     *  that the backing store is the registry). */
    std::map<std::string, std::uint64_t> counters() const
    {
        return metrics_.counterValues();
    }
    void resetCounters() { metrics_.reset(); }

    /** Registry snapshot plus this machine's non-zero attribution
     *  buckets, in name order. */
    MetricsSnapshot snapshotMetrics() const;

  private:
    MachineTopology topo_;
    CostModel costs_;
    EventQueue eq_;
    Rng rng_;
    std::uint64_t seed_;
    /** Declared before cores_: cores (and their lapics) intern metric
     *  handles during construction. */
    MetricsRegistry metrics_;
    std::vector<std::unique_ptr<SmtCore>> cores_;
    struct OpenScope
    {
        ScopeId id;
        /** Trace-span handle; noTraceSpan when the sink was
         *  absent/disabled at pushScope() time. */
        std::size_t span;
    };
    /** Reserved at construction, so pushes do not allocate. */
    std::vector<OpenScope> scopeStack_;
    std::array<Ticks, numScopes> buckets_{};
    std::unique_ptr<FaultInjector> faults_;
    std::array<Counter, numFaultSites> faultMetric_;
    int nextApicId_ = 1000;
};

/** RAII attribution scope. */
class TimeScope
{
  public:
    TimeScope(Machine &machine, ScopeId id)
        : machine_(machine)
    {
        machine_.pushScope(id);
    }

    ~TimeScope() { machine_.popScope(); }

    TimeScope(const TimeScope &) = delete;
    TimeScope &operator=(const TimeScope &) = delete;

  private:
    Machine &machine_;
};

} // namespace svtsim

#endif // SVTSIM_ARCH_MACHINE_H
