#include "sim/fault.h"

#include <algorithm>
#include <cctype>
#include <cstdint>

#include "sim/decimal.h"
#include "sim/log.h"

namespace svtsim {

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::RingPostDrop: return "ring.post.drop";
      case FaultSite::RingDoorbellDelay: return "ring.doorbell.delay";
      case FaultSite::RingSpuriousWake: return "ring.wake.spurious";
      case FaultSite::IpiDrop: return "ipi.drop";
      case FaultSite::IpiDelay: return "ipi.delay";
      case FaultSite::VirtioCompletionDelay:
        return "virtio.completion.delay";
      case FaultSite::VirtioBackpressure: return "virtio.backpressure";
      case FaultSite::NumSites: break;
    }
    return "?";
}

namespace {

/** Whether the site's effect is a time shift (takes/needs `dTIME`). */
bool
faultSiteIsDelay(FaultSite site)
{
    return site == FaultSite::RingDoorbellDelay ||
           site == FaultSite::IpiDelay ||
           site == FaultSite::VirtioCompletionDelay;
}

/** The site called @p name; FatalError, listing every site, if none. */
FaultSite
lookupSite(const std::string &name)
{
    std::string known;
    for (std::size_t i = 0; i < numFaultSites; ++i) {
        const auto site = static_cast<FaultSite>(i);
        if (name == faultSiteName(site))
            return site;
        known += (i > 0 ? ", " : "") + std::string(faultSiteName(site));
    }
    fatal("fault spec names unknown site '%s' (known sites: %s)",
          name.c_str(), known.c_str());
}

/** Parse "NUMBER(ns|us|ms)" into Ticks; false when the tick count
 *  is negative or does not fit in Ticks. */
bool
parseTime(const std::string &text, Ticks &out)
{
    // The unit follows the last digit or '.' (npos + 1 is 0).
    const std::size_t unit = text.find_last_of("0123456789.") + 1;
    double value = 0;
    if (!parseDecimal(text.substr(0, unit), value))
        return false;
    // nsec()/usec()'s products, range-checked before the cast (which
    // also keeps a double at or past 2^63, with no Ticks value, out);
    // -1 marks an unknown unit.
    const std::string suffix = text.substr(unit);
    const double ticks = suffix == "ns"   ? value * 1e3
                         : suffix == "us" ? value * 1e6
                         : suffix == "ms" ? value * 1000.0 * 1e6
                                          : -1.0;
    if (!(ticks >= 0 && ticks <= static_cast<double>(maxFaultDelay)))
        return false;
    out = static_cast<Ticks>(ticks);
    return true;
}

std::vector<std::string>
splitTrimmed(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t begin = 0;
    while (begin <= text.size()) {
        std::size_t end = text.find(sep, begin);
        if (end == std::string::npos)
            end = text.size();
        std::size_t lo = begin, hi = end;
        while (lo < hi &&
               std::isspace(static_cast<unsigned char>(text[lo])))
            ++lo;
        while (hi > lo &&
               std::isspace(static_cast<unsigned char>(text[hi - 1])))
            --hi;
        parts.push_back(text.substr(lo, hi - lo));
        if (end == text.size())
            break;
        begin = end + 1;
    }
    return parts;
}

FaultClause
parseClause(const std::string &text)
{
    std::size_t at = text.find('@');
    if (at == std::string::npos) {
        fatal("fault spec clause '%s' has no '@trigger' part "
              "(expected site@trigger[,dTIME])",
              text.c_str());
    }

    FaultClause clause;
    clause.site = lookupSite(text.substr(0, at));

    std::vector<std::string> parts =
        splitTrimmed(text.substr(at + 1), ',');
    const std::string &trigger = parts[0];
    if (trigger.empty()) {
        fatal("fault spec clause '%s' has an empty trigger",
              text.c_str());
    }
    if (trigger[0] == 'n') {
        const std::string body = trigger.substr(1);
        const std::size_t plus = body.find('+');
        if (!parseDecimal(body.substr(0, plus), clause.first) ||
            clause.first == 0) {
            fatal("fault trigger '%s': occurrence index must be a "
                  "positive integer (occurrences are 1-based)",
                  trigger.c_str());
        }
        if (plus != std::string::npos) {
            if (!parseDecimal(body.substr(plus + 1), clause.count) ||
                clause.count == 0) {
                fatal("fault trigger '%s': occurrence count must be a "
                      "positive integer",
                      trigger.c_str());
            }
        }
        // decide() fires on [first, first + count), which must not wrap.
        if (clause.count > UINT64_MAX - clause.first)
            fatal("fault trigger '%s': occurrence window ends past "
                  "2^64 - 1", trigger.c_str());
    } else if (trigger[0] == 'p') {
        clause.probabilistic = true;
        // A range test, so that a NaN (which fails both) is rejected.
        if (!parseDecimal(trigger.substr(1), clause.probability) ||
            !(clause.probability >= 0.0 && clause.probability <= 1.0)) {
            fatal("fault trigger '%s': probability must be in [0, 1]",
                  trigger.c_str());
        }
    } else {
        fatal("fault trigger '%s': expected 'n<N>[+COUNT]' or "
              "'p<PROB>'",
              trigger.c_str());
    }

    bool have_delay = false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &param = parts[i];
        if (param.empty() || param[0] != 'd') {
            fatal("fault spec clause '%s': unknown parameter '%s' "
                  "(only 'dTIME' is defined)",
                  text.c_str(), param.c_str());
        }
        if (!parseTime(param.substr(1), clause.delay)) {
            fatal("fault spec clause '%s': bad delay '%s' (expected "
                  "NUMBER followed by ns, us or ms, at most 1000ms)",
                  text.c_str(), param.c_str());
        }
        have_delay = true;
    }

    if (faultSiteIsDelay(clause.site) && !have_delay) {
        fatal("fault site %s shifts time and needs a ',dTIME' "
              "parameter (e.g. %s@p0.5,d2us)",
              faultSiteName(clause.site), faultSiteName(clause.site));
    }
    if (!faultSiteIsDelay(clause.site) && have_delay) {
        fatal("fault site %s does not take a delay; drop the ',dTIME' "
              "parameter",
              faultSiteName(clause.site));
    }
    return clause;
}

/** SplitMix64 finalizer; decorrelates the per-site RNG streams. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t site)
{
    std::uint64_t z = seed + (site + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &clause : splitTrimmed(spec, ';')) {
        if (clause.empty())
            continue;
        plan.clauses_.push_back(parseClause(clause));
    }
    return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan))
{
    for (std::size_t i = 0; i < numFaultSites; ++i)
        sites_[i].rng = Rng(mixSeed(seed, i));
}

FaultDecision
FaultInjector::decide(FaultSite site)
{
    SiteState &state = sites_[static_cast<std::size_t>(site)];
    std::uint64_t occurrence = ++state.occurrences;

    FaultDecision decision;
    for (const FaultClause &clause : plan_.clauses()) {
        if (clause.site != site)
            continue;
        bool hit;
        if (clause.probabilistic) {
            // Draw unconditionally so a clause's own history is the
            // only input to its stream.
            hit = state.rng.chance(clause.probability);
        } else {
            hit = occurrence >= clause.first &&
                  occurrence < clause.first + clause.count;
        }
        if (hit) {
            // Each delay is in [0, maxFaultDelay]; the sum saturates
            // there.
            decision.fire = true;
            decision.delay =
                std::min(decision.delay + clause.delay, maxFaultDelay);
        }
    }
    if (decision.fire) {
        ++state.injected;
        if (onInject_)
            onInject_(site);
    }
    return decision;
}

std::uint64_t
FaultInjector::injectedCount(FaultSite site) const
{
    return sites_[static_cast<std::size_t>(site)].injected;
}

std::uint64_t
FaultInjector::occurrenceCount(FaultSite site) const
{
    return sites_[static_cast<std::size_t>(site)].occurrences;
}

} // namespace svtsim
