/**
 * @file
 * Top-level machine: cores, event queue, cost model, time attribution.
 */

#ifndef SVTSIM_ARCH_MACHINE_H
#define SVTSIM_ARCH_MACHINE_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/cost_model.h"
#include "arch/exit_reason.h"
#include "arch/smt_core.h"
#include "sim/compiler.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/random.h"
#include "stats/metrics.h"

namespace svtsim {

/** Physical machine shape (Table 4: 2x 8-core 2-SMT Xeon); each
 *  dimension in [1, 1024] (see validateTopology). */
struct MachineTopology
{
    int numaNodes = 2;
    int coresPerNode = 8;
    int threadsPerCore = 2;

    int totalCores() const { return numaNodes * coresPerNode; }
};

/** FatalError unless every dimension of @p topo is in [1, 1024], so
 *  every hardware-thread count (at most 2^30) fits an int. */
void validateTopology(const MachineTopology &topo);

/** The `stage.*` scopes in ScopeId order, as X(enumerator, name): the
 *  Table 1 stages, then SW SVt's ring, L1 housekeeping, the watchdog. */
#define SVTSIM_STAGE_SCOPES(X)                                            \
    X(StageL2, "stage.l2")                                                \
    X(StageSwitchL2L0, "stage.switch_l2_l0")                              \
    X(StageTransform, "stage.transform")                                  \
    X(StageL0Handler, "stage.l0_handler")                                 \
    X(StageSwitchL0L1, "stage.switch_l0_l1")                              \
    X(StageL1Handler, "stage.l1_handler")                                 \
    X(StageChannel, "stage.channel")                                      \
    X(StageL1Housekeeping, "stage.l1_housekeeping")                       \
    X(StageSvtWatchdog, "stage.svt_watchdog")

/**
 * Time-attribution scopes: one fixed table shared by Machine's buckets
 * and ledger, TimeScope and the trace spans. The stages come first
 * (the ledger charges them; `exit.*` scopes are transparent), then one
 * `exit.<REASON>` scope per ExitReason. Both lists generate this enum
 * and machine.cc's name table.
 */
enum class ScopeId : std::uint8_t
{
#define SVTSIM_STAGE_SCOPE_ID(id, name) id,
    SVTSIM_STAGE_SCOPES(SVTSIM_STAGE_SCOPE_ID)
#undef SVTSIM_STAGE_SCOPE_ID
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
     * enabled, consume()/idleUntil() charge the time-conservation
     * ledger and every scope pushed hands its span to the sink when
     * it pops. Attaching starts a fresh ledger.
     */
    void setTraceSink(TraceSink *sink);
    TraceSink *traceSink() const { return eq_.traceSink(); }

    SmtCore &core(int i);
    int numCores() const { return static_cast<int>(cores_.size()); }

    // -- Time ------------------------------------------------------------
    Ticks now() const { return eq_.now(); }

    /**
     * Consume @p t ticks of simulated time. Runs due events and adds
     * @p t to every open attribution scope (lazily: see pushScope()).
     */
    SVTSIM_ALWAYS_INLINE void
    consume(Ticks t)
    {
        if (SVTSIM_UNLIKELY(t <= 0)) {
            if (t < 0)
                negativeConsume();
            return;
        }
        consumed_ += t;
        if (SVTSIM_UNLIKELY(eq_.traceSink() != nullptr))
            chargeConsumed(t);
        eq_.advanceBy(t);
    }

    /** Let simulated time pass without attributing it to any open
     *  scope (used for idle/wait periods). */
    void idleUntil(Ticks when);

    /** Run due events up to @p horizon with no consume() of this
     *  machine's own (a cluster follower's drain). The ledger charges
     *  whatever time the drain advances beyond its handlers' consume()
     *  calls as idle. */
    void drainUntil(Ticks horizon);

    // -- Attribution scopes ----------------------------------------------
    /** Open an attribution scope; time consumed while open accrues to
     *  its bucket. Scopes nest; all open scopes accrue. A scope marks
     *  the running consumed-tick count at push and adds the difference
     *  to its bucket at pop, so consume() costs the same at any depth. */
    SVTSIM_ALWAYS_INLINE void
    pushScope(ScopeId id)
    {
        Ticks start = untraced;
        if (SVTSIM_UNLIKELY(eq_.traceSink() != nullptr))
            start = tracedStart();
        scopeStack_.push_back({id, start, consumed_});
    }

    SVTSIM_ALWAYS_INLINE void
    popScope()
    {
        if (SVTSIM_UNLIKELY(scopeStack_.empty()))
            popWithoutPush();
        const OpenScope &scope = scopeStack_.back();
        buckets_[static_cast<std::size_t>(scope.id)] +=
            consumed_ - scope.mark;
        if (SVTSIM_UNLIKELY(scope.start != untraced))
            emitSpan(scope);
        scopeStack_.pop_back();
    }

    /** Total ticks accrued to @p id since the last reset, including
     *  what its open instances have accrued so far. */
    Ticks scopeTotal(ScopeId id) const;

    /** Zero every bucket; open scopes accrue from here on. */
    void resetAttribution();

    // -- Time conservation -------------------------------------------------
    /**
     * The ledger: exclusive time per recording window of the attached
     * sink. Every consumed tick goes to the innermost open `stage.*`
     * scope (`exit.*` scopes are transparent), or to `unattributed`
     * when none is open; idle time goes to `idle`.
     */
    struct Conservation
    {
        Ticks elapsed = 0;      ///< Ticks since the window opened.
        Ticks attributed = 0;   ///< Sum of per-stage self ticks.
        Ticks idle = 0;         ///< Ticks passed idle or in a drain.
        Ticks unattributed = 0; ///< Consumed with no stage scope open.
        /** attributed + idle + unattributed == elapsed. A violation
         *  means time advanced behind the accounting's back. */
        bool conserved() const
        {
            return attributed + idle + unattributed == elapsed;
        }
        /** Strict form: conserved and every consumed tick landed in a
         *  named stage (what checked nested-trap runs assert). */
        bool fullyAttributed() const
        {
            return conserved() && unattributed == 0;
        }
    };

    /** Snapshot of the attached sink's current window (all zero when
     *  no enabled sink is attached). */
    Conservation conservation() const;

    /** Self ticks charged to @p id in the current window. */
    Ticks selfTicks(ScopeId id) const;

    // -- Simulated PMU -----------------------------------------------------
    /** The machine's metrics registry (the simulated PMU). Components
     *  intern handles here at construction time. */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /** Value of a registered counter by name; raises FatalError on
     *  keys no component registered (a typo'd key is a config bug). */
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
        /** Push tick when an enabled sink was attached at pushScope()
         *  time (popScope() hands the span to it), else untraced. */
        Ticks start;
        /** consumed_ at push (or at the last resetAttribution()). */
        Ticks mark;
    };
    static constexpr Ticks untraced = -1;
    struct Ledger
    {
        /** The sink's origin() when this window opened; noWindow
         *  until the first charge after an attach. */
        Ticks origin;
        std::array<Ticks, numScopes> self{};
        Ticks attributed = 0;
        Ticks idle = 0;
        Ticks unattributed = 0;

        Ticks charged() const { return attributed + idle + unattributed; }
    };
    static constexpr Ticks noWindow = -1;

    /** The ledger of the attached sink's current window (started
     *  afresh when the sink re-opened its window), or null when no
     *  enabled sink is attached. */
    Ledger *ledger();
    /** Whether ledger_ covers the attached, enabled sink's window. */
    bool ledgerCurrent() const;
    /** consume()'s ledger charge, kept out of the untraced path. */
    void chargeConsumed(Ticks t);
    [[noreturn]] static void negativeConsume();
    /** pushScope()'s start tick while a sink is attached: now() if
     *  the sink is enabled, else untraced. */
    Ticks tracedStart() const;
    /** popScope()'s hand-off of a traced scope's span to the sink. */
    void emitSpan(const OpenScope &scope);
    [[noreturn]] static void popWithoutPush();

    /** Reserved at construction, so pushes do not allocate. */
    std::vector<OpenScope> scopeStack_;
    /** Ticks passed to consume() over the machine's life. */
    Ticks consumed_ = 0;
    /** Ticks of closed scopes per id (open ones add theirs at pop). */
    std::array<Ticks, numScopes> buckets_{};
    std::unique_ptr<FaultInjector> faults_;
    std::array<Counter, numFaultSites> faultMetric_;
    int nextApicId_ = 1000;
    Ledger ledger_{noWindow};
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
