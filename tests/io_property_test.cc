/**
 * @file
 * Property tests for the io substrate: virtqueue invariants under
 * random operation sequences, packet conservation on a same-machine
 * link, ramdisk ordering, and AsyncStage work conservation.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "arch/machine.h"
#include "io/async_stage.h"
#include "io/cross_link.h"
#include "io/ramdisk.h"
#include "io/virtqueue.h"
#include "sim/random.h"

namespace svtsim {
namespace {

// ------------------------------------------------------------- virtqueue

TEST(VirtqueueProperty, RandomSequencePreservesFifoAndCounts)
{
    Rng rng(314);
    for (int trial = 0; trial < 12; ++trial) {
        Machine machine(MachineTopology{1, 1, 2});
        Virtqueue q(machine, "prop", 64);
        std::deque<std::uint64_t> model_avail;
        std::deque<std::uint64_t> model_used;
        std::uint64_t next_id = 1;
        std::uint64_t kicks = 0;

        for (int op = 0; op < 600; ++op) {
            switch (rng.below(4)) {
              case 0: // driver posts
                if (model_avail.size() < 64) {
                    std::uint64_t id = next_id++;
                    if (q.post(VirtioBuffer{id, 1, 0, false}))
                        ++kicks;
                    model_avail.push_back(id);
                }
                break;
              case 1: { // device takes
                VirtioBuffer buf;
                bool got = q.take(buf);
                EXPECT_EQ(got, !model_avail.empty());
                if (got) {
                    EXPECT_EQ(buf.id, model_avail.front());
                    model_avail.pop_front();
                    if (model_used.size() < 64) {
                        q.complete(buf);
                        model_used.push_back(buf.id);
                    }
                }
                break;
              }
              case 2: { // driver reaps
                VirtioBuffer buf;
                bool got = q.popUsed(buf);
                EXPECT_EQ(got, !model_used.empty());
                if (got) {
                    EXPECT_EQ(buf.id, model_used.front());
                    model_used.pop_front();
                }
                break;
              }
              case 3: // device declares polling
                if (rng.chance(0.5))
                    q.deviceBusy();
                break;
            }
            EXPECT_EQ(q.availDepth(), model_avail.size());
        }
        EXPECT_EQ(q.kicksNeeded(), kicks);
        EXPECT_EQ(q.postedCount(), next_id - 1);
    }
}

TEST(VirtqueueProperty, KickOnlyWhenDeviceIdle)
{
    Machine machine(MachineTopology{1, 1, 2});
    Virtqueue q(machine, "kick");
    // A post after deviceBusy() never kicks until the device drains
    // the ring and goes idle.
    q.deviceBusy();
    EXPECT_FALSE(q.post(VirtioBuffer{1, 1, 0, false}));
    VirtioBuffer buf;
    while (q.take(buf)) {
    }
    EXPECT_TRUE(q.post(VirtioBuffer{2, 1, 0, false}));
}

// ------------------------------------------------- same-machine link

TEST(FabricProperty, EveryPacketArrivesExactlyOnceInOrder)
{
    Rng rng(271);
    Machine machine(MachineTopology{1, 1, 2});
    CrossLink link(machine, usec(3), 10e9);
    std::vector<std::uint64_t> to_peer, to_local;
    link.port(1).setReceiveHandler(
        [&](NetPacket p) { to_peer.push_back(p.id); });
    link.port(0).setReceiveHandler(
        [&](NetPacket p) { to_local.push_back(p.id); });

    std::vector<std::uint64_t> sent_peer, sent_local;
    for (int i = 0; i < 300; ++i) {
        NetPacket pkt{static_cast<std::uint64_t>(i),
                      static_cast<std::uint32_t>(
                          64 + rng.below(9000)),
                      0};
        if (rng.chance(0.5)) {
            link.port(0).send(pkt);
            sent_peer.push_back(pkt.id);
        } else {
            link.port(1).send(pkt);
            sent_local.push_back(pkt.id);
        }
        if (rng.chance(0.3))
            machine.events().advanceBy(usec(rng.below(30)));
    }
    machine.events().advanceBy(msec(10));
    EXPECT_EQ(to_peer, sent_peer);
    EXPECT_EQ(to_local, sent_local);
    EXPECT_EQ(link.delivered(1), sent_peer.size());
    EXPECT_EQ(link.delivered(0), sent_local.size());
}

TEST(FabricProperty, ArrivalSpacingRespectsSerialization)
{
    // Regardless of send pattern, same-direction arrivals can never
    // be closer together than the wire's serialization time.
    Machine machine(MachineTopology{1, 1, 2});
    CrossLink link(machine, usec(5), 10e9);
    std::vector<Ticks> arrivals;
    link.port(1).setReceiveHandler(
        [&](NetPacket) { arrivals.push_back(machine.now()); });
    for (int i = 0; i < 50; ++i)
        link.port(0).send(NetPacket{static_cast<std::uint64_t>(i),
                                    16384, 0});
    machine.events().advanceBy(msec(20));
    Ticks min_gap = link.port(0).serialization(16384);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i] - arrivals[i - 1], min_gap);
}

// --------------------------------------------------------------- ramdisk

TEST(RamDiskProperty, CompletionsAreFifoAndConserved)
{
    Rng rng(161);
    Machine machine(MachineTopology{1, 1, 2});
    RamDisk disk(machine, "prop");
    std::vector<std::uint64_t> completed;
    disk.setCompletionHandler(
        [&](std::uint64_t id) { completed.push_back(id); });
    std::vector<std::uint64_t> submitted;
    for (int i = 0; i < 120; ++i) {
        disk.submit(static_cast<std::uint64_t>(i), rng.below(1000),
                    static_cast<std::uint32_t>(512 << rng.below(5)),
                    rng.chance(0.4));
        submitted.push_back(static_cast<std::uint64_t>(i));
        if (rng.chance(0.25))
            machine.events().advanceBy(usec(rng.below(20)));
    }
    machine.events().advanceBy(msec(50));
    EXPECT_EQ(completed, submitted);
    EXPECT_EQ(disk.completedCount(), submitted.size());
}

// ------------------------------------------------------------ async stage

TEST(AsyncStageProperty, ServerIsWorkConservingAndOrdered)
{
    Rng rng(99);
    AsyncStage stage;
    Ticks prev_done = 0;
    Ticks total_service = 0;
    Ticks first_ready = -1;
    for (int i = 0; i < 200; ++i) {
        Ticks ready = static_cast<Ticks>(rng.below(usec(500)));
        Ticks service = nsec(50 + rng.below(3000));
        Ticks done = stage.completeAt(ready, service);
        // Completions are monotone (FIFO server).
        EXPECT_GE(done, prev_done);
        // A job never finishes before ready + service.
        EXPECT_GE(done, ready + service);
        prev_done = done;
        total_service += service;
        if (first_ready < 0)
            first_ready = ready;
    }
    // Makespan is bounded by total service plus the last idle gap:
    // the busy horizon can never exceed "everything back to back
    // from the first instant work could start".
    EXPECT_LE(stage.freeAt(), usec(500) + total_service);
}

} // namespace
} // namespace svtsim
