// Fortify's longjmp check aborts a jump to another stack (DriverGate).
#undef _FORTIFY_SOURCE
#include "system/cluster.h"

#include <setjmp.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <exception>

#include "sim/log.h"
#include "system/epoch_crew.h"
#include "system/sweep.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace svtsim {

/*
 * Lookahead safety argument (see also the header and DESIGN.md):
 *
 * Let floor_j be machine j's floor at a barrier and C[j][i] the
 * at-least-one-hop shortest-path latency from j to i over the links
 * (Floyd-Warshall with the diagonal seeded unreachable, so C[i][i]
 * converges to the shortest *cycle* through i; links are
 * bidirectional so C is symmetric; maxTick = no path). Machine i's
 * horizon is H_i = min over ALL j of (floor_j + C[j][i]) — the
 * j = i term is load-bearing: i's own state can cause a future
 * arrival back at itself (send a request at floor_i, the neighbor
 * responds), and that echo lands no earlier than floor_i + C[i][i].
 * Any packet that can reach i originates from some machine j's
 * current state, i.e. from an action at local time t >= floor_j (j's
 * first action in the window is at its floor, every later action —
 * including reactions to packets merged at later barriers — is later
 * still), and arrives after >= 1 hops, so at
 * t + serialization + path latency >= floor_j + C[j][i] >= H_i.
 *
 * Horizons granted earlier stay safe across later epochs because H_i
 * is monotone: a stepped machine's floor rises to >= its horizon,
 * an unstepped machine's floor can only drop to a merged arrival
 * time >= H_j(E) = min_k(floor_k(E) + C[k][j]), and C obeys the
 * triangle inequality (concatenating >=1-hop paths k->j and j->i
 * yields a >=1-hop path k->i), so
 * H_i(E+1) >= min_k(floor_k(E) + C[k][i]) = H_i(E). Hence every
 * staged arrival is >= the destination's largest granted horizon
 * (asserted per delivery in mergeStaged): merging at the barrier
 * loses nothing and reorders nothing. A machine with no inbound path
 * can never receive anything and runs to completion in one window
 * (H = maxTick); having no links it cannot send either.
 *
 * Progress: the machine with the global min floor gets
 * H >= minFloor + (min latency or cycle) > its floor, so it is
 * always steppable, and stepping it raises its floor to >= H — the
 * global min floor strictly increases every epoch.
 *
 * Byte-identity across worker counts: within a window machines only
 * touch their own state plus the src side of their links, so each
 * machine's window execution is a pure function of its state at the
 * window start; the barrier merge orders staged packets canonically
 * by (deliveryTick, srcMachineId, seq) (ties across distinct links
 * broken by link creation order via stable_sort over the fixed drain
 * order); horizons are computed from simulated state only. Nothing
 * anywhere depends on wall-clock interleaving.
 */

namespace {

/**
 * Usable bytes of a driver fiber's stack. Drivers are workload loops
 * whose deep frames (trap rounds, event handlers, virtio paths) return
 * before they advance time again. The deepest use measured over every
 * bench and test is about 5 KiB (5,160 bytes, fig7, x86-64 Release
 * build), so 256 KiB leaves a fifty-fold margin for sanitizer
 * redzones and exception unwinding. The mapping is lazily backed:
 * only the pages a driver touches cost RSS.
 */
constexpr std::size_t kFiberStackBytes = 256 * 1024;

} // namespace

/**
 * A driver's stackful fiber and the AdvanceGate its queue wears.
 * resume() runs the fiber on the calling thread until it parks in
 * awaitHorizon() or its driver returns; the two switch points are the
 * only places either side's stack changes hands, so the fiber may be
 * resumed by a different thread every epoch. After one setcontext
 * entry, each switch is a _setjmp by the side that leaves and a
 * _longjmp to the other, so none makes a signal-mask system call.
 */
class Cluster::DriverGate final : public AdvanceGate
{
  public:
    explicit DriverGate(Node &node);
    ~DriverGate() override { releaseStack(); }

    DriverGate(const DriverGate &) = delete;
    DriverGate &operator=(const DriverGate &) = delete;

    /** Fiber side: park on @p target until resumed with a horizon. */
    Ticks awaitHorizon(Ticks target) override;

    /** Run the fiber until it parks again or its driver returns;
     *  unmaps the stack as soon as the driver has returned. */
    void resume(Ticks horizon);

    bool finished = false;
    /** Advance target the driver is parked on (maxTick while it
     *  runs or before it first parks). */
    Ticks parkedTarget = maxTick;
    /** Horizon handed to the driver by the latest resume(). */
    Ticks grant = 0;

  private:
    /** makecontext entry: the gate's address split into two ints. */
    static void entry(unsigned hi, unsigned lo);
    /** Switch from the fiber back to its resumer. The @p last switch,
     *  once the driver has returned, never comes back. */
    void switchToResumer(bool last);
    void releaseStack();

    Node &node_;
    /** mmap base: one PROT_NONE guard page, then the stack. */
    char *map_ = nullptr;
    std::size_t mapBytes_ = 0;
    /** Entry context, used by the first resume() only. */
    ucontext_t fiber_{};
    bool entered_ = false;
    jmp_buf fiberJmp_{};
    jmp_buf resumerJmp_{};
#if defined(__SANITIZE_ADDRESS__)
    void *fiberFakeStack_ = nullptr;
    const void *resumerStack_ = nullptr;
    std::size_t resumerStackBytes_ = 0;
#endif
#if defined(__SANITIZE_THREAD__)
    void *tsanFiber_ = nullptr;
    void *tsanResumer_ = nullptr;
#endif
};

Cluster::DriverGate::DriverGate(Node &node) : node_(node)
{
    const std::size_t guard =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    mapBytes_ = guard + kFiberStackBytes;
    void *map = mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (map == MAP_FAILED)
        panic("Cluster: cannot map a driver fiber stack for '%s'",
              node.name.c_str());
    // Stacks grow down: an overflow runs into the guard page and
    // faults instead of corrupting whatever is mapped below.
    if (mprotect(map, guard, PROT_NONE) != 0 ||
        getcontext(&fiber_) != 0) {
        munmap(map, mapBytes_);
        panic("Cluster: cannot set up the driver fiber for '%s'",
              node.name.c_str());
    }
    map_ = static_cast<char *>(map);
    fiber_.uc_stack.ss_sp = map_ + guard;
    fiber_.uc_stack.ss_size = kFiberStackBytes;
    fiber_.uc_link = nullptr;
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&fiber_, reinterpret_cast<void (*)()>(&DriverGate::entry),
                2, static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
#if defined(__SANITIZE_THREAD__)
    tsanFiber_ = __tsan_create_fiber(0);
#endif
}

void
Cluster::DriverGate::entry(unsigned hi, unsigned lo)
{
    auto *gate = reinterpret_cast<DriverGate *>(
        (static_cast<std::uintptr_t>(hi) << 32) | lo);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &gate->resumerStack_,
                                    &gate->resumerStackBytes_);
#endif
    // Nothing may escape a fiber's entry function: record every
    // driver failure for run() to rethrow as a SimError.
    Node &n = gate->node_;
    try {
        n.driver(*n.system);
    } catch (const std::exception &e) {
        n.error = n.name + ": " + e.what();
    } catch (...) {
        n.error = n.name + ": driver threw a non-standard exception";
    }
    gate->finished = true;
    gate->switchToResumer(true);
}

void
Cluster::DriverGate::switchToResumer([[maybe_unused]] bool last)
{
#if defined(__SANITIZE_ADDRESS__)
    // A null fake-stack slot tells ASan this fiber is exiting.
    __sanitizer_start_switch_fiber(last ? nullptr : &fiberFakeStack_,
                                   resumerStack_, resumerStackBytes_);
#endif
    if (_setjmp(fiberJmp_) == 0) {
#if defined(__SANITIZE_THREAD__)
        __tsan_switch_to_fiber(tsanResumer_, 0);
#endif
        _longjmp(resumerJmp_, 1);
    }
#if defined(__SANITIZE_ADDRESS__)
    // Resumed, possibly by another thread: learn its stack afresh.
    __sanitizer_finish_switch_fiber(fiberFakeStack_, &resumerStack_,
                                    &resumerStackBytes_);
#endif
}

Ticks
Cluster::DriverGate::awaitHorizon(Ticks target)
{
    parkedTarget = target;
    switchToResumer(false);
    parkedTarget = maxTick;
    return grant;
}

void
Cluster::DriverGate::resume(Ticks horizon)
{
    simAssert(!finished && map_ != nullptr,
              "Cluster: resumed a finished driver fiber");
    grant = horizon;
#if defined(__SANITIZE_ADDRESS__)
    void *fakeStack = nullptr;
    __sanitizer_start_switch_fiber(&fakeStack, fiber_.uc_stack.ss_sp,
                                   fiber_.uc_stack.ss_size);
#endif
    if (_setjmp(resumerJmp_) == 0) {
#if defined(__SANITIZE_THREAD__)
        tsanResumer_ = __tsan_get_current_fiber();
        __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
        if (entered_)
            _longjmp(fiberJmp_, 1);
        entered_ = true;
        setcontext(&fiber_);
    }
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#endif
    if (finished)
        releaseStack();
}

void
Cluster::DriverGate::releaseStack()
{
    if (map_ == nullptr)
        return;
    munmap(map_, mapBytes_);
    map_ = nullptr;
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsanFiber_);
    tsanFiber_ = nullptr;
#endif
}

Cluster::Node::Node() = default;
Cluster::Node::~Node() = default;

Cluster::Cluster(Cluster &&) noexcept = default;

Cluster::~Cluster()
{
    // run() finishes every driver fiber on all paths; a Cluster that
    // never ran never made any.
    for (auto &np : nodes_)
        simAssert(!np->gate || np->gate->finished,
                  "Cluster destroyed with a live driver fiber");
}

int
Cluster::id(const std::string &name) const
{
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i]->name == name)
            return static_cast<int>(i);
    fatal("Cluster: unknown machine '%s'", name.c_str());
}

Machine &
Cluster::machine(int id)
{
    simAssert(id >= 0 && id < size(), "Cluster::machine bad id");
    return nodes_[static_cast<std::size_t>(id)]->system->machine();
}

Machine &
Cluster::machine(const std::string &name)
{
    return machine(id(name));
}

VirtStack &
Cluster::stack(const std::string &name)
{
    return nodes_[static_cast<std::size_t>(id(name))]->system->stack();
}

const Cluster::Link &
Cluster::linkBetween(const std::string &a, const std::string &b) const
{
    const int ia = id(a);
    const int ib = id(b);
    for (const Link &l : links_)
        if ((l.a == ia && l.b == ib) || (l.a == ib && l.b == ia))
            return l;
    fatal("Cluster: no link between '%s' and '%s' was declared",
          a.c_str(), b.c_str());
}

CrossLink &
Cluster::link(const std::string &a, const std::string &b)
{
    return *linkBetween(a, b).wire;
}

NetPort &
Cluster::port(const std::string &name, const std::string &peer)
{
    const Link &l = linkBetween(name, peer);
    return l.wire->port(l.a == id(name) ? 0 : 1);
}

Cluster &
Cluster::driver(const std::string &name,
                std::function<void(NestedSystem &)> fn)
{
    simAssert(!ran_, "Cluster::driver after run()");
    nodes_[static_cast<std::size_t>(id(name))]->driver = std::move(fn);
    return *this;
}

Ticks
Cluster::floorOf(const Node &n) const
{
    // Only called at the barrier, while every fiber is parked or
    // finished; the crew's finished count (release/acquire) orders
    // the state the last epoch step wrote before these reads.
    const Ticks next = n.system->machine().events().nextEventTime();
    if (n.gate && !n.gate->finished)
        return std::min(next, n.gate->parkedTarget);
    return next;
}

void
Cluster::rethrowError() const
{
    for (const auto &np : nodes_)
        if (!np->error.empty())
            throw SimError(np->error);
}

void
Cluster::stepMachine(Node &n, Ticks horizon)
{
    if (n.gate && !n.gate->finished) {
        // Run the driver on this thread until it parks at the new
        // horizon (or returns).
        n.gate->resume(horizon);
        return;
    }
    // Follower (or finished-driver) machine: plain horizon drain on
    // the stepping thread itself, with no driver code between events.
    n.system->machine().drainUntil(horizon);
}

std::uint64_t
Cluster::mergeStaged()
{
    scratch_.clear();
    for (Link &l : links_)
        l.wire->drainStaged(scratch_);
    if (scratch_.empty())
        return 0;
    std::stable_sort(scratch_.begin(), scratch_.end(),
                     CrossLink::canonicalLess);
    for (const CrossLink::Delivery &d : scratch_) {
        const Ticks granted =
            nodes_[static_cast<std::size_t>(d.dstId)]->granted;
        if (d.arrival < granted)
            panic("Cluster: staged arrival %lld below machine %d's "
                  "granted horizon %lld (lookahead violated)",
                  static_cast<long long>(d.arrival), d.dstId,
                  static_cast<long long>(granted));
        d.link->deliver(d);
    }
    return scratch_.size();
}

std::vector<std::vector<Cluster::Inbound>>
Cluster::inboundLookahead() const
{
    const int n = size();
    std::vector<Ticks> dist(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
        maxTick);
    auto at = [&dist, n](int i, int j) -> Ticks & {
        return dist[static_cast<std::size_t>(i) * n + j];
    };
    for (const Link &l : links_) {
        at(l.a, l.b) = std::min(at(l.a, l.b), l.latency);
        at(l.b, l.a) = std::min(at(l.b, l.a), l.latency);
    }
    for (int k = 0; k < n; ++k)
        for (int i = 0; i < n; ++i) {
            const Ticks dik = at(i, k);
            if (dik >= maxTick)
                continue;
            for (int j = 0; j < n; ++j) {
                const Ticks dkj = at(k, j);
                if (dkj >= maxTick)
                    continue;
                const Ticks via =
                    dik >= maxTick - dkj ? maxTick : dik + dkj;
                if (via < at(i, j))
                    at(i, j) = via;
            }
        }
    std::vector<std::vector<Inbound>> inbound(
        static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (at(j, i) < maxTick)
                inbound[static_cast<std::size_t>(i)].push_back(
                    {j, at(j, i)});
    return inbound;
}

ClusterStats
Cluster::run(int jobs)
{
    simAssert(!ran_, "Cluster::run may only be called once");
    ran_ = true;
    ClusterStats stats;
    if (nodes_.empty())
        return stats;

    bool anyDriver = false;
    try {
        for (auto &np : nodes_) {
            Node &n = *np;
            if (!n.driver)
                continue;
            anyDriver = true;
            n.gate = std::make_unique<DriverGate>(n);
            // The driver's setup code runs before the first epoch;
            // horizon 0 parks it at its first advance, which is where
            // the coordinator picks it up.
            n.system->machine().events().setAdvanceGate(n.gate.get(), 0);
            n.gate->resume(0);
        }

        // The machines stepping this epoch, in machine-id order; the
        // crew's step k advances active[k] to its horizon.
        std::vector<Node *> active;
        active.reserve(nodes_.size());
        // Crew steps must not throw: a follower drain that panics (an
        // event handler bug) is recorded and surfaced after the
        // barrier instead of escaping a member thread.
        auto step = [this, &active](std::size_t k) {
            Node &node = *active[k];
            try {
                stepMachine(node, node.horizon);
            } catch (const std::exception &e) {
                if (node.error.empty())
                    node.error = node.name + ": " + e.what();
            }
        };
        // The coordinator steps machines beside the members, so at
        // most min(jobs, machines) threads run epoch steps; none are
        // started at jobs <= 1.
        EpochCrew crew(std::min(jobs, size()) - 1, step);

        // Per-pair lookahead, fixed once links are final: each
        // machine's inbound (j, C[j][i]) pairs with finite C.
        const std::vector<std::vector<Inbound>> inbound =
            inboundLookahead();
        const int n = size();
        std::vector<Ticks> floors(static_cast<std::size_t>(n));

        for (;;) {
            // Errors from the drivers' setup or the last epoch; the
            // crew's barrier orders every slot before this read.
            rethrowError();
            stats.merged += mergeStaged();

            bool driverAlive = false;
            Ticks minFloor = maxTick;
            for (int i = 0; i < n; ++i) {
                Node &node = *nodes_[static_cast<std::size_t>(i)];
                if (node.gate && !node.gate->finished)
                    driverAlive = true;
                floors[static_cast<std::size_t>(i)] = floorOf(node);
                minFloor = std::min(
                    minFloor, floors[static_cast<std::size_t>(i)]);
            }
            // Termination: every driver returned (driver mode), or
            // every queue drained (pure event-follower mode).
            if (anyDriver ? !driverAlive : minFloor == maxTick)
                break;
            if (minFloor == maxTick)
                panic("Cluster: deadlock — drivers outstanding but no "
                      "machine can ever advance");

            active.clear();
            for (int i = 0; i < n; ++i) {
                Node &node = *nodes_[static_cast<std::size_t>(i)];
                // H_i = min over ALL j of floor_j + C[j][i], where
                // C's diagonal is the shortest cycle through i: a
                // machine's own state can cause a future arrival back
                // at itself via a round trip (request out, response
                // in), so the self-term is load-bearing — without it
                // a request/response neighbor gets over-granted.
                // maxTick when nothing can ever reach i (an empty
                // inbound list).
                Ticks h = maxTick;
                for (const Inbound &in :
                     inbound[static_cast<std::size_t>(i)]) {
                    const Ticks fj =
                        floors[static_cast<std::size_t>(in.from)];
                    if (fj >= maxTick - in.latency)
                        continue;
                    h = std::min(h, fj + in.latency);
                }
                bool needs =
                    node.system->machine().events().nextEventTime() < h;
                if (node.gate && !node.gate->finished)
                    needs = needs || node.gate->parkedTarget < h;
                if (!needs)
                    continue;
                node.horizon = h;
                node.granted = std::max(node.granted, h);
                active.push_back(&node);
            }
            // The global-min-floor machine always gets a horizon
            // above its floor, so someone can step.
            simAssert(!active.empty(),
                      "Cluster: epoch horizon failed to advance");
            ++stats.epochs;
            stats.steps += active.size();
            crew.run(active.size());
        }
    } catch (...) {
        // Release every parked driver: a maxTick grant un-gates its
        // queue, so it runs to its end on this thread (a driver that
        // then hits its own error records it). Then rethrow the
        // coordinator's error.
        for (auto &np : nodes_)
            if (np->gate)
                while (!np->gate->finished)
                    np->gate->resume(maxTick);
        for (auto &np : nodes_)
            np->system->machine().events().setAdvanceGate(nullptr, 0);
        throw;
    }

    for (auto &np : nodes_)
        np->system->machine().events().setAdvanceGate(nullptr, 0);
    return stats;
}

ClusterStats
Cluster::run(ClusterContext &ctx)
{
    ctx.prepare(*this);
    const ClusterStats stats = run(ctx.jobs());
    ctx.capture(*this);
    return stats;
}

} // namespace svtsim
