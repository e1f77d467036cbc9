#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hostbench {

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t
Tracer::since(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
}

int
Tracer::tidOf(std::thread::id id)
{
    for (std::size_t i = 0; i < threads_.size(); ++i)
        if (threads_[i] == id)
            return static_cast<int>(i);
    threads_.push_back(id);
    return static_cast<int>(threads_.size() - 1);
}

std::int64_t
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, std::int64_t parent,
               std::uint64_t req)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t id = nextId_++;
    const std::int64_t s = since(start), e = since(end);
    if (spans_.size() < maxKept)
        spans_.push_back(SpanRec{name, s, e, parent, req,
                                 tidOf(std::this_thread::get_id())});
    samples_[name].push_back(static_cast<double>(e - s));
    return id;
}

std::int64_t
Tracer::open(const char *name, std::int64_t parent, std::uint64_t req)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t id = nextId_++;
    if (spans_.size() < maxKept)
        spans_.push_back(SpanRec{name, 0, 0, parent, req,
                                 tidOf(std::this_thread::get_id())});
    return id;
}

void
Tracer::finish(std::int64_t id, Clock::time_point start,
               Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t s = since(start), e = since(end);
    const char *name = nullptr;
    // Ids and indices coincide until the kept-span cap is reached.
    if (id >= 0 && static_cast<std::size_t>(id) < spans_.size()) {
        SpanRec &rec = spans_[static_cast<std::size_t>(id)];
        rec.startNs = s;
        rec.endNs = e;
        name = rec.name;
    }
    if (name)
        samples_[name].push_back(static_cast<double>(e - s));
}

const std::vector<double> &
Tracer::samples(const std::string &name) const
{
    static const std::vector<double> none;
    auto it = samples_.find(name);
    return it == samples_.end() ? none : it->second;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %lld, "
                     "\"req\": %llu}}\n",
                     i ? "," : "", s.name, s.tid, s.startNs / 1e3,
                     (s.endNs - s.startNs) / 1e3, i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.req));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

} // namespace hostbench
