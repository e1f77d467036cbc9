/**
 * @file
 * Deterministic fault injection.
 *
 * A FaultPlan is a parsed `--faults=<spec>` description of which fault
 * sites fire and when; a FaultInjector executes the plan against one
 * machine. Determinism contract: decisions are a pure function of
 * (plan, seed, per-site occurrence sequence). Each site draws from its
 * own seeded SplitMix64 stream, so consulting one site never perturbs
 * another and results are byte-identical for any `--jobs` value.
 *
 * Spec grammar (clauses separated by `;`):
 *
 *     clause  := site '@' trigger (',' 'd' TIME)?
 *     trigger := 'n' N ('+' COUNT)?   nth occurrence (1-based), or a
 *                                     window of COUNT occurrences
 *              | 'p' PROB             each occurrence fires with
 *                                     probability PROB in [0, 1]
 *     TIME    := NUMBER ('ns'|'us'|'ms')
 *     N, COUNT := DIGITS
 *     PROB, NUMBER := DIGITS ('.' DIGITS?)?
 *
 * Numbers are decimal digits only: no sign, space, exponent, hex
 * prefix, `inf` or `nan` (sim/decimal.h, the parser the bench command
 * line uses too). A TIME above maxFaultDelay (1000 ms) and a window
 * whose end N + COUNT passes 2^64 - 1 are rejected like any malformed
 * text.
 *
 * Examples: `ipi.drop@n2`, `ipi.delay@p0.5,d2us`,
 * `ring.post.drop@n1+3;virtio.completion.delay@p0.1,d50us`.
 */

#ifndef SVTSIM_SIM_FAULT_H
#define SVTSIM_SIM_FAULT_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/random.h"
#include "sim/ticks.h"

namespace svtsim {

/**
 * Largest delay one fault decision injects: a clause's TIME and the
 * sum of the clauses that fire at one occurrence are bounded here, so
 * a hook point can add it to simulated time without overflowing (the
 * clock would need about 9.2 million maximal injections). The largest
 * delay a bench or test plan uses is 50 us.
 */
constexpr Ticks maxFaultDelay = msec(1000);

/** Where a fault can be injected (the hook points in the model). */
enum class FaultSite : std::uint8_t
{
    /** SW SVt command ring: the posted command is lost (the doorbell
     *  store never reaches the waiter). */
    RingPostDrop,
    /** SW SVt command ring: the waiter observes the doorbell late. */
    RingDoorbellDelay,
    /** SW SVt command ring: spurious mwait wakeup — the waiter wakes,
     *  finds no command and re-arms the monitor. */
    RingSpuriousWake,
    /** LAPIC: an in-flight IPI is lost on the interconnect. */
    IpiDrop,
    /** LAPIC: an in-flight IPI is delivered late. */
    IpiDelay,
    /** Virtio completion path: the device-side completion is delayed
     *  (latency spike). */
    VirtioCompletionDelay,
    /** Virtqueue: a post behaves as if the ring were full (consumer
     *  stalled), forcing producer back-pressure. */
    VirtioBackpressure,

    NumSites,
};

constexpr std::size_t numFaultSites =
    static_cast<std::size_t>(FaultSite::NumSites);

/** Stable spec/metric name of a site, e.g. "ipi.drop". */
const char *faultSiteName(FaultSite site);

/** One parsed spec clause. */
struct FaultClause
{
    FaultSite site = FaultSite::RingPostDrop;
    /** Probabilistic trigger (`pPROB`) vs occurrence window (`nN+C`). */
    bool probabilistic = false;
    double probability = 0.0;
    /** First occurrence that fires, 1-based (occurrence triggers). */
    std::uint64_t first = 1;
    /** Number of consecutive occurrences that fire. */
    std::uint64_t count = 1;
    /** Injected delay (delay sites only). */
    Ticks delay = 0;
};

/**
 * A parsed, validated fault plan. Immutable; shareable across the
 * scenarios of a sweep (each scenario gets its own FaultInjector).
 */
class FaultPlan
{
  public:
    /** The empty plan (no clauses, nothing ever fires). */
    FaultPlan() = default;

    /**
     * Parse a spec string (see the file comment for the grammar).
     * Raises FatalError with an actionable message on invalid input;
     * an empty spec yields the empty plan.
     */
    static FaultPlan parse(const std::string &spec);

    bool empty() const { return clauses_.empty(); }
    const std::vector<FaultClause> &clauses() const { return clauses_; }

  private:
    std::vector<FaultClause> clauses_;
};

/** Outcome of consulting the injector at one site occurrence. */
struct FaultDecision
{
    bool fire = false;
    Ticks delay = 0;
};

/**
 * Executes a FaultPlan against one machine. Hook points call fires()
 * or delay() once per occurrence; the injector advances that site's
 * occurrence counter and RNG stream and reports injections through
 * the onInject callback (the owning Machine bumps the
 * `fault.injected.<site>` PMU counters there).
 */
class FaultInjector
{
  public:
    FaultInjector(FaultPlan plan, std::uint64_t seed);

    /**
     * Consult the plan for the next occurrence of @p site. Every call
     * counts as one occurrence, whether or not anything fires.
     */
    FaultDecision decide(FaultSite site);

    /** decide().fire shorthand for drop-style sites. */
    bool fires(FaultSite site) { return decide(site).fire; }

    /** decide().delay shorthand for delay-style sites (0 = no fault). */
    Ticks delay(FaultSite site) { return decide(site).delay; }

    /** Total injections at @p site so far. */
    std::uint64_t injectedCount(FaultSite site) const;

    /** Occurrences (consultations) of @p site so far. */
    std::uint64_t occurrenceCount(FaultSite site) const;

    const FaultPlan &plan() const { return plan_; }

    /** Invoked on every injection, before decide() returns. */
    void setOnInject(std::function<void(FaultSite)> fn)
    {
        onInject_ = std::move(fn);
    }

  private:
    struct SiteState
    {
        std::uint64_t occurrences = 0;
        std::uint64_t injected = 0;
        Rng rng{0};
    };

    FaultPlan plan_;
    std::array<SiteState, numFaultSites> sites_;
    std::function<void(FaultSite)> onInject_;
};

} // namespace svtsim

#endif // SVTSIM_SIM_FAULT_H
