/**
 * @file
 * Bench-facing trace plumbing: a ScopedTrace that attaches a
 * TraceSink to a Machine for the duration of a measured run and
 * exports Chrome trace JSON (`<file>`) plus a CSV stage summary of
 * the Machine's ledger (`<file>.csv`) on the way out. The `--trace=<file>` flag itself is
 * parsed by BenchHarness, which labels one session per sweep
 * scenario.
 */

#ifndef SVTSIM_SYSTEM_TRACE_SESSION_H
#define SVTSIM_SYSTEM_TRACE_SESSION_H

#include <memory>
#include <string>

#include "arch/machine.h"
#include "sim/trace.h"

namespace svtsim {

/**
 * RAII trace session over one Machine.
 *
 * Construction attaches and enables a TraceSink; destruction writes
 * the Chrome trace to @p path and the CSV summary to `<path>.csv`,
 * prints a one-line conservation report to stderr, and detaches.
 * With an empty @p path the session is inert (benches construct one
 * unconditionally and let the flag decide).
 */
class ScopedTrace
{
  public:
    /** @param label Suffix inserted before the file extension when a
     *  bench traces several machines (e.g. one per Figure 6 bar). */
    ScopedTrace(Machine &machine, const std::string &path,
                const std::string &label = {});
    ~ScopedTrace();

    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

    bool active() const { return sink_ != nullptr; }
    TraceSink *sink() { return sink_.get(); }

    /**
     * Export the trace files, detach the sink and return the one-line
     * conservation report (empty for an inert session). Idempotent;
     * when the caller does not invoke it, the destructor does and
     * prints the report to stderr. The parallel sweep engine calls it
     * explicitly so reports can be emitted in scenario declaration
     * order instead of thread completion order.
     */
    std::string finish();

  private:
    Machine &machine_;
    std::string tracePath_;
    std::unique_ptr<TraceSink> sink_;
    bool finished_ = false;
};

} // namespace svtsim

#endif // SVTSIM_SYSTEM_TRACE_SESSION_H
