/**
 * @file
 * hostbench: host-speed benchmark of the svtsim simulator.
 *
 *   hostbench --workload W --seed N [--seconds S] [--trace 0|1]
 *             [--size full|tiny] [--rounds K] [--trace-out FILE]
 *
 * Repeats rounds of workload W (same seed, same inputs) for about S
 * seconds and prints one JSON line: end-to-end metrics as medians over
 * the untraced rounds (times in reference seconds, see
 * calibRefSeconds), the fingerprint of the simulated outcome, the
 * operation counts and a host record. With --trace 1 every other round
 * is traced and the line also carries the per-layer metrics; layers W
 * does not exercise are measured on as many tiny traced rounds of the
 * workload that does, and "layer_sources" names that workload for each
 * such metric. Exit status 2 means the run could not start.
 */

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "calib.h"
#include "spans.h"
#include "workloads.h"

using namespace hostbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    Size size = Size::Full;
    /** >0: exactly this many rounds (of each kind when tracing). */
    int rounds = 0;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload "
                 "trap_rounds|disk_rw|memcached_rpc|fleet_mix --seed N "
                 "[--seconds S] [--trace 0|1] [--size full|tiny] "
                 "[--rounds K] [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = val;
            else if (arg == "--seed")
                o.seed = std::stoull(val);
            else if (arg == "--seconds")
                o.seconds = std::stod(val);
            else if (arg == "--trace")
                o.trace = std::stoi(val) != 0;
            else if (arg == "--rounds")
                o.rounds = std::stoi(val);
            else if (arg == "--trace-out")
                o.traceOut = val;
            else if (arg == "--size" && (val == "full" || val == "tiny"))
                o.size = val == "full" ? Size::Full : Size::Tiny;
            else
                usage(("bad argument " + arg + " " + val).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/** Pin the process to the last @p n CPUs it may use; returns them. */
std::vector<int>
pinCpus(int n)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    if (static_cast<int>(cpus.size()) > n)
        cpus.erase(cpus.begin(), cpus.end() - n);
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
    return cpus;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto pos = line.find(':');
            return pos == std::string::npos ? line : line.substr(pos + 2);
        }
    }
    return "unknown";
}

/** Peak resident set of this process image. VmHWM, unlike
 *  ru_maxrss, starts afresh at exec, so a large parent (the Python
 *  runner) does not leak into the figure. */
double
peakRssKb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6));
    return 0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

template <typename F>
double
medianOf(const std::vector<Round> &rounds, F f)
{
    std::vector<double> v;
    for (const Round &r : rounds)
        v.push_back(f(r));
    return median(v);
}

/**
 * The calibration loop's time on an otherwise idle host of the kind the
 * benchmark was tuned on (4-CPU Intel Xeon container). Host times are
 * reported in reference seconds: measured seconds scaled by how much
 * slower than this the loop ran beside the same round. Co-tenants that
 * slow the host slow the loop alike, so the scaled figure stays put
 * while raw seconds drift (README.md shows both).
 */
constexpr double calibRefSeconds = 0.055;

/** @p t host time (any unit) beside round @p r, in reference units. */
double
refSeconds(const Round &r, double t)
{
    return t * calibRefSeconds / r.calibS;
}

bool
isTime(const Metric &m)
{
    return m.unit == "ns" || m.unit == "us" || m.unit == "ms" ||
           m.unit == "s";
}

/** Median of @p field over @p rounds, in reference seconds when
 *  @p ref. */
double
medianField(const std::vector<Round> &rounds, double Round::*field,
            bool ref)
{
    return medianOf(rounds, [field, ref](const Round &r) {
        return ref ? refSeconds(r, r.*field) : r.*field;
    });
}

/** Every per-layer metric the @p traced rounds of @p w yield: the
 *  exact counts of @p counts, and medians of the host times in
 *  reference units. */
MetricMap
layerMetrics(const Workload &w, const Round &counts,
             const std::vector<Round> &traced, const Tracer &tracer)
{
    MetricMap out = counts.counts;
    std::map<std::string, std::vector<double>> times;
    for (const Round &r : traced) {
        for (const auto &[name, m] : r.times) {
            times[name].push_back(refSeconds(r, m.value));
            out[name].unit = m.unit;
        }
    }
    for (auto &[name, v] : times)
        out[name].value = median(v);
    // Span percentiles pool the samples of every traced round, so they
    // scale by the rounds' median calibration.
    MetricMap spans;
    w.spanTimes(tracer, spans);
    const double scale =
        calibRefSeconds / medianField(traced, &Round::calibS, false);
    for (auto &[name, m] : spans) {
        if (isTime(m))
            m.value *= scale;
        out[name] = m;
    }
    return out;
}

/** @p n tiny traced rounds of @p w, calibrated like the main rounds
 *  with the loop on @p threads threads. */
std::vector<Round>
probeRounds(const Workload &w, std::uint64_t seed, std::size_t n,
            int threads, Tracer &tracer)
{
    std::vector<Round> rounds;
    double calibBefore = calibrate(threads).seconds;
    while (rounds.size() < n) {
        Round r = w.run(seed, Size::Tiny, &tracer);
        const double calibAfter = calibrate(threads).seconds;
        r.calibS = (calibBefore + calibAfter) / 2;
        calibBefore = calibAfter;
        rounds.push_back(std::move(r));
    }
    return rounds;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    const Workload *w = findWorkload(opt.workload);
    if (!w)
        usage(("unknown workload " + opt.workload).c_str());
    const std::string buildType = HOSTBENCH_BUILD_TYPE;
    if (buildType != "Release") {
        std::fprintf(stderr,
                     "hostbench: built as %s; host timings are only "
                     "comparable between Release builds\n",
                     buildType.c_str());
        return 2;
    }
    const std::vector<int> cpus = pinCpus(w->workers);

    std::vector<Round> plain, traced;
    Tracer tracer;
    std::uint64_t attempted = 0, failed = 0;
    std::string error;
    calibrate(w->workers); // fault in the allocator's pages once
    // Each round's calibration is the mean of the loops just before
    // and just after it; adjacent rounds share the one between them.
    double calibBefore = calibrate(w->workers).seconds;
    const auto start = Clock::now();
    const std::size_t wanted =
        opt.rounds > 0 ? static_cast<std::size_t>(opt.rounds) : 3;
    try {
        for (int i = 0;; ++i) {
            const bool doTrace = opt.trace && i % 2 == 1;
            Round r = w->run(opt.seed, opt.size,
                             doTrace ? &tracer : nullptr);
            const double calibAfter = calibrate(w->workers).seconds;
            r.calibS = (calibBefore + calibAfter) / 2;
            calibBefore = calibAfter;
            (doTrace ? traced : plain).push_back(std::move(r));
            if (plain.size() < wanted ||
                (opt.trace && traced.size() < wanted))
                continue;
            // Start another round only if it should end in time.
            const double elapsed =
                std::chrono::duration<double>(Clock::now() - start)
                    .count();
            if (opt.rounds > 0 || elapsed + elapsed / (i + 1) > opt.seconds)
                break;
        }
    } catch (const std::exception &e) {
        error = e.what();
    }

    // Every round repeats the same inputs, so it must reproduce the
    // same simulated outcome.
    std::vector<Round> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    for (const Round &r : all) {
        attempted += r.attempted;
        failed += r.failed;
        if (r.fingerprint != all.front().fingerprint ||
            r.inputs != all.front().inputs) {
            ++failed;
            error = "rounds disagree on the simulated outcome";
        }
    }

    MetricMap metrics;
    if (!plain.empty()) {
        metrics["wall_s"] = {medianField(plain, &Round::wallS, true), "s"};
        metrics["setup_s"] = {medianField(plain, &Round::setupS, true),
                              "s"};
        metrics["cpu_s"] = {medianField(plain, &Round::cpuS, true), "s"};
        metrics["sim_us_per_s"] = {
            medianOf(plain,
                     [](const Round &r) {
                         return r.simUs / refSeconds(r, r.wallS);
                     }),
            "us/s"};
        metrics["raw.wall_s"] = {medianField(plain, &Round::wallS, false),
                                 "s"};
        metrics["raw.setup_s"] = {
            medianField(plain, &Round::setupS, false), "s"};
        metrics["raw.cpu_s"] = {medianField(plain, &Round::cpuS, false),
                                "s"};
        metrics["calib_s"] = {medianField(plain, &Round::calibS, false),
                              "s"};
    }
    metrics["max_rss_mb"] = {peakRssKb() / 1024.0, "MB"};

    // Per-layer metrics this workload does not produce, and the
    // workload whose probe rounds they were taken from.
    std::map<std::string, std::string> borrowed;
    if (opt.trace && !plain.empty() && !traced.empty() && error.empty()) {
        MetricMap layers = layerMetrics(*w, plain.front(), traced, tracer);
        layers["trace.overhead_s"] = {
            medianField(traced, &Round::wallS, true) -
                medianField(plain, &Round::wallS, true),
            "s"};
        // Layers this workload does not exercise: as many tiny traced
        // rounds of each other workload as this one had traced rounds.
        for (const Workload &other : workloads()) {
            if (&other == w)
                continue;
            try {
                Tracer probeTracer;
                const std::vector<Round> probe = probeRounds(
                    other, opt.seed, traced.size(), w->workers, probeTracer);
                for (const Round &r : probe) {
                    attempted += r.attempted;
                    failed += r.failed;
                    if (r.fingerprint != probe.front().fingerprint) {
                        ++failed;
                        error = std::string(other.name) +
                                " probe rounds disagree on the simulated "
                                "outcome";
                    }
                }
                for (const auto &[name, m] : layerMetrics(
                         other, probe.front(), probe, probeTracer))
                    if (layers.emplace(name, m).second)
                        borrowed[name] = other.name;
            } catch (const std::exception &e) {
                error = std::string(other.name) + " probe: " + e.what();
            }
        }
        for (const auto &[name, m] : layers)
            metrics[name] = m;
        if (!opt.traceOut.empty() && !tracer.writeChrome(opt.traceOut))
            std::fprintf(stderr, "hostbench: cannot write %s\n",
                         opt.traceOut.c_str());
    }

    if (!error.empty()) {
        std::fprintf(stderr, "hostbench: %s\n", error.c_str());
        if (failed == 0)
            failed = 1;
        attempted = std::max(attempted, failed);
    }
    const bool correct = error.empty() && failed == 0 && attempted > 0;

    std::string cpuList;
    for (int c : cpus)
        cpuList += (cpuList.empty() ? "" : ", ") + std::to_string(c);

    std::string out = "{\"workload\": " + jsonString(w->name) +
                      ", \"seed\": " + std::to_string(opt.seed) +
                      ", \"size\": " +
                      jsonString(opt.size == Size::Full ? "full" : "tiny") +
                      ", \"trace\": " + (opt.trace ? "1" : "0") +
                      ", \"rounds\": " + std::to_string(plain.size()) +
                      ", \"traced_rounds\": " +
                      std::to_string(traced.size()) + ", \"correct\": " +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"fail_frac\": " +
                      num(attempted ? static_cast<double>(failed) /
                                          static_cast<double>(attempted)
                                    : 1.0) +
                      ", \"fingerprint\": " +
                      jsonString(all.empty() ? ""
                                             : hex(all.front().fingerprint)) +
                      ", \"inputs\": " +
                      jsonString(all.empty() ? ""
                                             : hex(all.front().inputs)) +
                      ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        out += (first ? "" : ", ") + jsonString(name) +
               ": {\"value\": " + num(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
        first = false;
    }
    out += "}, \"layer_sources\": {";
    first = true;
    for (const auto &[name, source] : borrowed) {
        out += (first ? "" : ", ") + jsonString(name) + ": " +
               jsonString(source);
        first = false;
    }
    out += "}, \"round_wall_s\": [";
    for (std::size_t i = 0; i < plain.size(); ++i)
        out += (i ? ", " : "") + num(plain[i].wallS);
    out += "], \"round_calib_s\": [";
    for (std::size_t i = 0; i < plain.size(); ++i)
        out += (i ? ", " : "") + num(plain[i].calibS);
    out += "], \"host\": {\"nproc\": " +
           std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ", \"affinity\": [" + cpuList +
           "], \"workers\": " + std::to_string(w->workers) +
           ", \"cpu_model\": " + jsonString(cpuModel()) +
           ", \"build_type\": " + jsonString(buildType) +
           ", \"compiler\": " + jsonString(HOSTBENCH_COMPILER) + "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
