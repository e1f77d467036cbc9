/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into the
 * simulator's layers.
 *
 * A span has a name, a host start and end (steady_clock), a parent
 * span and a request id. Spans live in memory and are written as
 * Chrome trace-event JSON when the run ends. Every span's duration is
 * also kept per name, so percentiles cover all samples even when only
 * the first maxKept spans are written to the file.
 *
 * Nothing here touches simulated state: a traced and an untraced
 * round produce identical simulated results.
 */

#ifndef HOSTBENCH_SPANS_H
#define HOSTBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

class Tracer
{
  public:
    /** Spans written to the Chrome file; later spans only feed the
     *  per-name duration samples. */
    static constexpr std::size_t maxKept = 200000;
    static constexpr std::int64_t noParent = -1;

    Tracer();

    /** Record a finished span; returns its id (for children). */
    std::int64_t record(const char *name, Clock::time_point start,
                        Clock::time_point end, std::int64_t parent,
                        std::uint64_t req);

    /** Reserve an id for a span whose children finish before it does;
     *  complete it with finish(). */
    std::int64_t open(const char *name, std::int64_t parent,
                      std::uint64_t req);
    void finish(std::int64_t id, Clock::time_point start,
                Clock::time_point end);

    /** Host nanoseconds of every span named @p name, in record order. */
    const std::vector<double> &samples(const std::string &name) const;

    /** Write kept spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChrome(const std::string &path) const;

  private:
    struct SpanRec
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t parent;
        std::uint64_t req;
        int tid;
    };

    int tidOf(std::thread::id id);
    std::int64_t since(Clock::time_point t) const;

    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<SpanRec> spans_;
    std::map<std::string, std::vector<double>> samples_;
    std::vector<std::thread::id> threads_;
    std::int64_t nextId_ = 0;
};

/** RAII span; a null tracer makes it a no-op. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name,
         std::int64_t parent = Tracer::noParent, std::uint64_t req = 0)
        : tracer_(tracer), name_(name), parent_(parent), req_(req)
    {
        if (tracer_)
            start_ = Clock::now();
    }

    ~Span()
    {
        if (tracer_)
            tracer_->record(name_, start_, Clock::now(), parent_, req_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    const char *name_;
    std::int64_t parent_;
    std::uint64_t req_;
    Clock::time_point start_{};
};

/** Linear-interpolated quantile of @p v (copied and sorted); 0 when
 *  empty. */
double quantile(std::vector<double> v, double q);

} // namespace hostbench

#endif // HOSTBENCH_SPANS_H
