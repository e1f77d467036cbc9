#include "workloads/tpcc.h"

#include <iterator>

#include <unordered_map>

#include "stats/summary.h"
#include "workloads/guest_os.h"

namespace svtsim {

namespace {

const TpccTxnProfile kProfiles[] = {
    // name, weight, statements, reads, writes, per-statement CPU
    {"new-order", 45, 48, 5, 2, usec(55)},
    {"payment", 43, 26, 3, 1, usec(45)},
    {"order-status", 4, 22, 4, 0, usec(50)},
    {"delivery", 4, 42, 6, 3, usec(60)},
    {"stock-level", 4, 30, 8, 0, usec(65)},
};

} // namespace

const TpccTxnProfile *
Tpcc::profiles(int &count)
{
    count = static_cast<int>(std::size(kProfiles));
    return kProfiles;
}

Tpcc::Tpcc(VirtStack &stack, VirtioNetStack &net, NetPort &peer,
           VirtioBlkStack &blk, std::uint64_t seed,
           double l1_housekeeping_per_statement,
           Ticks l1_housekeeping_cost, double cpu_scale)
    : stack_(stack), net_(net), peer_(peer), blk_(blk), rng_(seed),
      housekeepingPerStatement_(l1_housekeeping_per_statement),
      housekeepingCost_(l1_housekeeping_cost), cpuScale_(cpu_scale)
{
}

TpccResult
Tpcc::run(Ticks duration)
{
    Machine &machine = stack_.machine();
    GuestApi &api = stack_.api();

    // ---- client state machine (on the peer machine) -----------------
    // The closed-loop sysbench client sends the next statement as
    // soon as it receives the previous response.
    std::uint64_t completed_txns = 0;
    Summary txn_ms;
    std::deque<std::uint64_t> pending_queries; // server inbox
    std::uint64_t next_query_id = 1;

    struct ClientState
    {
        const TpccTxnProfile *profile = nullptr;
        int remaining_statements = 0;
        Ticks txn_start = 0;
    } client;

    auto pick_profile = [&]() -> const TpccTxnProfile * {
        int r = static_cast<int>(rng_.below(100));
        int acc = 0;
        for (const auto &p : kProfiles) {
            acc += p.weight;
            if (r < acc)
                return &p;
        }
        return &kProfiles[0];
    };

    auto client_send_statement = [&] {
        std::uint64_t id = next_query_id++;
        peer_.send(NetPacket{id, 180, 0});
        // Load-proportional L1-kernel work triggered by this
        // statement's I/O (vhost bookkeeping on the paired vCPU).
        double events = housekeepingPerStatement_;
        while (events >= 1.0 || rng_.chance(events)) {
            stack_.postL1Housekeeping(housekeepingCost_);
            events -= 1.0;
            if (events <= 0)
                break;
        }
    };

    auto client_begin_txn = [&] {
        client.profile = pick_profile();
        client.remaining_statements = client.profile->statements;
        client.txn_start = machine.now();
        client_send_statement();
    };

    Ticks t0 = machine.now();
    Ticks end = t0 + duration;

    // Client-side events capture this frame by reference. Under a
    // cluster the machine keeps draining its queue as an event
    // follower after this function returns, so any straggler (a
    // statement scheduled just before the loop exited) must become a
    // no-op instead of touching a dead frame.
    auto alive = std::make_shared<bool>(true);

    peer_.setReceiveHandler([&](NetPacket) {
        // A statement response arrived at the client.
        --client.remaining_statements;
        if (client.remaining_statements > 0) {
            machine.events().scheduleIn(usec(25), [&, alive] {
                if (*alive)
                    client_send_statement();
            });
            return;
        }
        // Transaction committed.
        ++completed_txns;
        txn_ms.add(toUsec(machine.now() - client.txn_start) / 1000.0);
        if (machine.now() < end) {
            machine.events().scheduleIn(usec(40), [&, alive] {
                if (*alive)
                    client_begin_txn();
            });
        }
    });

    // ---- server side --------------------------------------------------
    net_.setRxHandler([&](NetPacket pkt) {
        pending_queries.push_back(pkt.id);
    });

    std::uint64_t io_done = 0;
    blk_.setCompletionHandler([&](std::uint64_t) { ++io_done; });
    std::uint64_t next_io_id = 1ULL << 40;

    auto blocking_io = [&](std::uint32_t bytes, bool write) {
        std::uint64_t want = io_done + 1;
        blk_.submit(next_io_id++, rng_.below(1 << 20), bytes, write);
        GuestOs::idleWait(api, [&] { return io_done >= want; });
    };

    client_begin_txn();

    // The database worker: execute each arriving statement; the last
    // statement of a transaction carries the commit work (WAL write
    // plus flush), and buffer-cache misses are spread over the
    // transaction's statements.
    const TpccTxnProfile *server_profile = nullptr;
    int server_stmt_idx = 0;
    while (machine.now() < end || !pending_queries.empty()) {
        if (pending_queries.empty()) {
            if (machine.now() >= end)
                break;
            GuestOs::idleWait(api, [&] {
                return !pending_queries.empty() ||
                       machine.now() >= end;
            });
            continue;
        }
        std::uint64_t id = pending_queries.front();
        pending_queries.pop_front();

        if (!server_profile) {
            server_profile = client.profile;
            server_stmt_idx = 0;
        }
        // Parse/plan/execute.
        api.compute(static_cast<Ticks>(
            server_profile->statementCpu * cpuScale_));
        // Spread the buffer-cache misses across the statements.
        int stmts = server_profile->statements;
        int reads_before = server_profile->diskReads *
                           server_stmt_idx / stmts;
        int reads_after = server_profile->diskReads *
                          (server_stmt_idx + 1) / stmts;
        for (int r = reads_before; r < reads_after; ++r)
            blocking_io(8192, false);

        ++server_stmt_idx;
        bool is_commit = (server_stmt_idx >= stmts);
        if (is_commit) {
            // Data-page writes plus the WAL write and its flush.
            for (int w = 0; w < server_profile->diskWrites; ++w)
                blocking_io(8192, true);
            blocking_io(16384, true); // WAL
            blocking_io(0, true);     // fsync/flush
            server_profile = nullptr;
        }
        net_.send(is_commit ? 64 : 220, id);
    }

    TpccResult result;
    result.transactions = completed_txns;
    result.tpm = static_cast<double>(completed_txns) /
                 (toSec(machine.now() - t0) / 60.0);
    result.meanTxnMsec = txn_ms.mean();
    // Detach handlers from this invocation's state.
    *alive = false;
    peer_.setReceiveHandler([](NetPacket) {});
    net_.setRxHandler([](NetPacket) {});
    blk_.setCompletionHandler([](std::uint64_t) {});
    return result;
}

} // namespace svtsim
