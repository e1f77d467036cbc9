/**
 * @file
 * Regression tests for the deterministic parallel sweep engine, the
 * BenchHarness CLI surface and StackConfig validation: same-seed
 * reruns are identical, jobs=1 and jobs=8 produce byte-identical
 * JSON, and inconsistent knob combinations are rejected up front.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/random.h"
#include "system/bench_harness.h"
#include "system/epoch_crew.h"
#include "system/sweep.h"
#include "workloads/microbench.h"

namespace svtsim {
namespace {

/** A measurement whose outcome depends on mode, simulated time and
 *  the machine's seeded RNG — enough surface to catch any
 *  nondeterminism in the engine. */
void
probeScenario(NestedSystem &sys, ScenarioResult &r)
{
    GuestApi &api = sys.api();
    for (int i = 0; i < 32; ++i)
        api.cpuid(1);
    r.record("now_usec", toUsec(sys.machine().now()));
    r.record("rng_draw",
             static_cast<double>(sys.machine().rng().next() % 100000));
}

std::vector<Scenario>
probeSweep()
{
    std::vector<Scenario> sweep;
    for (VirtMode mode :
         {VirtMode::Native, VirtMode::Single, VirtMode::Nested,
          VirtMode::SwSvt, VirtMode::HwSvt}) {
        Scenario s;
        s.name = virtModeName(mode);
        s.mode = mode;
        s.run = probeScenario;
        sweep.push_back(std::move(s));
    }
    return sweep;
}

void
expectIdentical(const SweepResults &a, const SweepResults &b)
{
    ASSERT_EQ(a.all().size(), b.all().size());
    for (std::size_t i = 0; i < a.all().size(); ++i) {
        const ScenarioResult &ra = a.all()[i];
        const ScenarioResult &rb = b.all()[i];
        EXPECT_EQ(ra.name(), rb.name());
        EXPECT_EQ(ra.seed(), rb.seed());
        EXPECT_EQ(ra.finalTicks(), rb.finalTicks());
        ASSERT_EQ(ra.metrics().size(), rb.metrics().size());
        for (std::size_t k = 0; k < ra.metrics().size(); ++k) {
            EXPECT_EQ(ra.metrics()[k].first, rb.metrics()[k].first);
            EXPECT_EQ(ra.metrics()[k].second, rb.metrics()[k].second);
        }
    }
}

TEST(Sweep, SameSeedTwiceIsIdentical)
{
    SweepOptions opts;
    opts.baseSeed = 42;
    SweepResults first = runSweep(probeSweep(), opts);
    SweepResults second = runSweep(probeSweep(), opts);
    ASSERT_TRUE(first.allOk());
    expectIdentical(first, second);
}

TEST(Sweep, JobsOneAndJobsEightAreIdentical)
{
    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions parallel;
    parallel.jobs = 8;
    SweepResults a = runSweep(probeSweep(), serial);
    SweepResults b = runSweep(probeSweep(), parallel);
    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());
    expectIdentical(a, b);

    // A sweep longer than one crew round (EpochCrew::kMaxSteps steps)
    // runs every scenario once, into its own slot. The scenarios are
    // cluster bodies that build nothing, so the sweep stays cheap.
    std::vector<Scenario> many(EpochCrew::kMaxSteps + 2);
    for (std::size_t i = 0; i < many.size(); ++i) {
        many[i].name = "s" + std::to_string(i);
        many[i].clusterRun = [i](ClusterContext &, ScenarioResult &r) {
            r.record("index", static_cast<double>(i));
        };
    }
    a = runSweep(many, serial);
    b = runSweep(many, parallel);
    ASSERT_EQ(a.all().size(), many.size());
    for (std::size_t i = 0; i < many.size(); ++i) {
        ASSERT_EQ(a.all()[i].name(), many[i].name);
        ASSERT_EQ(a.all()[i].metric("index"), static_cast<double>(i));
    }
    expectIdentical(a, b);
}

TEST(Sweep, SeedOffsetsAndBaseSeedPlumbThrough)
{
    SweepOptions opts;
    opts.baseSeed = 7;
    SweepResults res = runSweep(probeSweep(), opts);
    const auto &all = res.all();
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].seed(), 7u);
    // A different base seed changes the RNG-derived metric but not
    // the simulated-time fingerprint of a deterministic workload.
    SweepOptions other;
    other.baseSeed = 8;
    SweepResults res2 = runSweep(probeSweep(), other);
    EXPECT_EQ(res.at("nested-baseline").finalTicks(),
              res2.at("nested-baseline").finalTicks());
    EXPECT_NE(res.at("nested-baseline").metric("rng_draw"),
              res2.at("nested-baseline").metric("rng_draw"));
}

TEST(Sweep, ScenarioErrorIsCapturedNotPropagated)
{
    std::vector<Scenario> sweep = probeSweep();
    Scenario bad;
    bad.name = "exploder";
    bad.mode = VirtMode::Nested;
    bad.run = [](NestedSystem &, ScenarioResult &) {
        fatal("scenario exploded on purpose");
    };
    sweep.push_back(std::move(bad));
    Scenario thrower;
    thrower.name = "thrower";
    thrower.clusterRun = [](ClusterContext &, ScenarioResult &) {
        throw std::out_of_range("not a SimError");
    };
    sweep.push_back(std::move(thrower));
    // Inline, and at jobs = 4, where the errors may be raised on crew
    // member threads and must still land on their own results.
    for (int jobs : {1, 4}) {
        SweepOptions opts;
        opts.jobs = jobs;
        SweepResults res = runSweep(sweep, opts);
        EXPECT_FALSE(res.allOk()) << "jobs " << jobs;
        EXPECT_FALSE(res.at("exploder").ok()) << "jobs " << jobs;
        EXPECT_NE(res.at("exploder").error().find("exploded"),
                  std::string::npos)
            << "jobs " << jobs;
        EXPECT_EQ(res.at("thrower").error(), "not a SimError")
            << "jobs " << jobs;
        EXPECT_TRUE(res.at("nested-baseline").ok()) << "jobs " << jobs;
    }
}

TEST(Sweep, RejectsDuplicateNamesAndMissingCallbacks)
{
    std::vector<Scenario> dup = probeSweep();
    dup.push_back(dup.front());
    EXPECT_THROW(runSweep(dup, SweepOptions{}), FatalError);

    std::vector<Scenario> norun(1);
    norun[0].name = "no-callback";
    EXPECT_THROW(runSweep(norun, SweepOptions{}), FatalError);
}

TEST(ScenarioResult, MetricLookupIsTypoProof)
{
    SweepResults res = runSweep(probeSweep(), SweepOptions{});
    EXPECT_TRUE(res.at("native").has("now_usec"));
    EXPECT_FALSE(res.at("native").has("nope"));
    EXPECT_THROW(res.at("native").metric("nope"), FatalError);
    EXPECT_THROW(res.at("no-such-scenario"), FatalError);
}

BenchHarness
makeHarness()
{
    BenchHarness bench("sweep_test_bench", "harness under test");
    for (VirtMode mode : {VirtMode::Nested, VirtMode::SwSvt})
        bench.add(virtModeName(mode), mode, probeScenario);
    return bench;
}

int
runHarness(BenchHarness &bench, std::vector<std::string> args)
{
    std::vector<char *> argv;
    args.insert(args.begin(), "sweep_test_bench");
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench.main(static_cast<int>(argv.size()), argv.data());
}

/** A custom main with two flags of its own, counting its runs. */
struct CustomBench
{
    BenchHarness bench{"custom_bench", "custom main under test"};
    std::uint64_t workers = 0;
    bool quick = false;
    int ran = 0;

    CustomBench()
    {
        bench.flag("--workers=N", workers, "threads",
                   BenchHarness::kMaxThreads);
        bench.flag("--quick", quick, "CI sizes");
        bench.onCustomMain([this](const BenchOptions &) {
            ++ran;
            return 0;
        });
    }
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(BenchHarness, JsonIsByteIdenticalAcrossJobs)
{
    std::string p1 = testing::TempDir() + "sweep_jobs1.json";
    std::string p8 = testing::TempDir() + "sweep_jobs8.json";
    BenchHarness bench = makeHarness();
    ASSERT_EQ(runHarness(bench, {"--jobs=1", "--json=" + p1}), 0);
    ASSERT_EQ(runHarness(bench, {"--jobs=8", "--json=" + p8}), 0);
    std::string j1 = slurp(p1);
    ASSERT_FALSE(j1.empty());
    EXPECT_EQ(j1, slurp(p8));
    // The worker count must not leak into the machine-readable
    // output, or byte-identity across --jobs would be impossible.
    EXPECT_EQ(j1.find("jobs"), std::string::npos);
    EXPECT_NE(j1.find("\"final_ticks\""), std::string::npos);
}

TEST(BenchHarness, SeedFlagReachesJsonAndScenarios)
{
    std::string path = testing::TempDir() + "sweep_seed.json";
    BenchHarness bench = makeHarness();
    ASSERT_EQ(runHarness(bench, {"--seed=123", "--json=" + path}), 0);
    std::string json = slurp(path);
    EXPECT_NE(json.find("\"seed\": 123"), std::string::npos);
}

TEST(BenchHarness, RejectsUnknownFlags)
{
    BenchHarness bench = makeHarness();
    EXPECT_EQ(runHarness(bench, {"--bogus"}), 2);
    EXPECT_EQ(runHarness(bench, {"--jobs=notanumber"}), 2);
    // Numeric flags take decimal digits only: no sign, no leading
    // space, no base prefix, nothing trailing.
    for (const char *arg :
         {"--seed=-1", "--seed= 010", "--seed=0x10", "--seed=", "--seed=5x",
          "--jobs=+2", "--jobs=-1", "--jobs= 2", "--cluster-jobs=+1",
          "--seed=18446744073709551616"})
        EXPECT_EQ(runHarness(bench, {arg}), 2) << arg;

    // A custom main's command line is --seed, --help and the flags it
    // declares, validated like the harness's own.
    CustomBench custom;
    for (const char *arg :
         {"--workers=2.9", "--workers=3abc", "--workers=1e300",
          "--workers=-1", "--workers=+2", "--workers=4097", "--workers",
          "--quick=1", "--json=x", "--faults=ipi.drop@n1", "--jobs=2",
          "--cluster-jobs=4", "--breakdown", "--list", "--bogus"})
        EXPECT_EQ(runHarness(custom.bench, {arg}), 2) << arg;
    EXPECT_EQ(custom.ran, 0);
    EXPECT_EQ(
        runHarness(custom.bench, {"--workers=3", "--quick", "--seed=7"}),
        0);
    EXPECT_EQ(custom.ran, 1);
    EXPECT_EQ(custom.workers, 3u);
    EXPECT_TRUE(custom.quick);
}

TEST(BenchHarness, RandomArgvExitsZeroOrTwo)
{
    // Seeded argument lists of 1-4 tokens, each a flag name (or
    // nothing) followed by up to five pieces a hostile command line is
    // made of. Every run either succeeds or is a usage error, and a
    // success never leaves a thread count above the flag's bound.
    const char *names[] = {"--workers", "--workers=", "--seed", "--seed=",
                           "--quick",   "--help",     ""};
    const char *pieces[] = {"0", "1", "2", "3", "4", "5", "6", "7", "8",
                            "9", "=", "+", "-", ".", "e", "x", " ", ""};
    CustomBench custom;
    Rng rng(2032);
    int zeros = 0, twos = 0;
    std::string firstBad; // the harness's usage text is captured
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::string> args;
        std::string line;
        for (std::uint64_t t = 0, n = 1 + rng.below(4); t < n; ++t) {
            std::string token = names[rng.below(std::size(names))];
            for (std::uint64_t p = 0, m = rng.below(6); p < m; ++p)
                token += pieces[rng.below(std::size(pieces))];
            args.push_back(token);
            line += " '" + token + "'";
        }
        custom.workers = 0;
        const int status = runHarness(custom.bench, args);
        zeros += status == 0;
        twos += status == 2;
        const bool ok =
            status == 2 ||
            (status == 0 && custom.workers <= BenchHarness::kMaxThreads);
        if (!ok && firstBad.empty())
            firstBad = line + " exited " + std::to_string(status) +
                       " with workers " + std::to_string(custom.workers);
    }
    testing::internal::GetCapturedStderr();
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(firstBad, "");
    // About 3% of the lists are well formed (61 of 2,000 at this seed).
    EXPECT_GT(zeros, 40);
    EXPECT_GT(twos, 1000);
}

TEST(BenchHarness, DeclaredFlagIsReadWhenScenariosRun)
{
    BenchHarness bench("quick_bench", "declared flag under test");
    bool quick = false;
    bench.flag("--quick", quick, "CI sizes");
    bench.add("probe", VirtMode::Native,
              [&quick](NestedSystem &, ScenarioResult &r) {
                  r.record("quick", quick ? 1.0 : 0.0);
              });
    const std::string path = testing::TempDir() + "sweep_quick.json";
    ASSERT_EQ(runHarness(bench, {"--quick", "--json=" + path}), 0);
    EXPECT_NE(slurp(path).find("\"quick\": 1"), std::string::npos);
}

TEST(BenchHarness, FailingScenarioYieldsExitOne)
{
    BenchHarness bench("failing_bench", "one scenario fails");
    bench.add("boom", VirtMode::Nested,
              [](NestedSystem &, ScenarioResult &) {
                  fatal("boom");
              });
    EXPECT_EQ(runHarness(bench, {}), 1);
}

TEST(StackConfigValidation, RejectsEachInconsistentCombo)
{
    {
        // Direct reflection is the HW SVt fast path.
        StackConfig cfg;
        cfg.svtDirectReflect = true;
        EXPECT_THROW(NestedSystem(VirtMode::Nested, cfg), FatalError);
        EXPECT_THROW(NestedSystem(VirtMode::SwSvt, cfg), FatalError);
    }
    {
        // Channel tuning only exists on the SW SVt shared-memory path.
        StackConfig cfg;
        cfg.channel.mechanism = WaitMechanism::Poll;
        EXPECT_THROW(NestedSystem(VirtMode::Nested, cfg), FatalError);
        EXPECT_THROW(NestedSystem(VirtMode::HwSvt, cfg), FatalError);
    }
    {
        // The blocked-vCPU fix toggle models an SVt-only pathology.
        StackConfig cfg;
        cfg.svtBlockedFix = false;
        EXPECT_THROW(NestedSystem(VirtMode::Nested, cfg), FatalError);
    }
    {
        // VMCS shadowing only matters with an L1 hypervisor present.
        StackConfig cfg;
        cfg.hwVmcsShadowing = false;
        EXPECT_THROW(NestedSystem(VirtMode::Native, cfg), FatalError);
        EXPECT_THROW(NestedSystem(VirtMode::Single, cfg), FatalError);
    }
}

TEST(StackConfigValidation, AcceptsConsistentCombos)
{
    {
        StackConfig cfg;
        cfg.svtDirectReflect = true;
        EXPECT_NO_THROW(NestedSystem(VirtMode::HwSvt, cfg));
    }
    {
        StackConfig cfg;
        cfg.channel.mechanism = WaitMechanism::Mutex;
        cfg.channel.placement = Placement::SameNode;
        cfg.svtBlockedFix = false;
        EXPECT_NO_THROW(NestedSystem(VirtMode::SwSvt, cfg));
    }
    {
        StackConfig cfg;
        cfg.hwVmcsShadowing = false;
        EXPECT_NO_THROW(NestedSystem(VirtMode::Nested, cfg));
    }
}

} // namespace
} // namespace svtsim
