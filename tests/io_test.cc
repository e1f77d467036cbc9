/**
 * @file
 * Tests for the io module: virtqueues, the same-machine link, the
 * ramdisk, and the full nested virtio-net / virtio-blk paths.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hv/vectors.h"
#include "hv/virt_stack.h"
#include "io/cross_link.h"
#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/virtio_net.h"
#include "io/virtqueue.h"
#include "sim/log.h"
#include "system/nested_system.h"

namespace svtsim {
namespace {

// -------------------------------------------------------------- virtqueue

class VirtqueueTest : public ::testing::Test
{
  protected:
    Machine machine{MachineTopology{1, 1, 2}};
};

TEST_F(VirtqueueTest, PostTakeCompleteRoundTrip)
{
    Virtqueue q(machine, "q");
    EXPECT_TRUE(q.post(VirtioBuffer{1, 100, 7, false}));
    VirtioBuffer buf;
    EXPECT_TRUE(q.take(buf));
    EXPECT_EQ(buf.id, 1u);
    EXPECT_EQ(buf.bytes, 100u);
    EXPECT_EQ(buf.payload, 7u);
    q.complete(buf);
    VirtioBuffer out;
    EXPECT_TRUE(q.popUsed(out));
    EXPECT_EQ(out.id, 1u);
    EXPECT_FALSE(q.popUsed(out));
}

TEST_F(VirtqueueTest, KickSuppressionWhileDeviceRuns)
{
    Virtqueue q(machine, "q");
    // First post kicks; subsequent posts ride on the running device.
    EXPECT_TRUE(q.post(VirtioBuffer{1, 1, 0, false}));
    EXPECT_FALSE(q.post(VirtioBuffer{2, 1, 0, false}));
    EXPECT_FALSE(q.post(VirtioBuffer{3, 1, 0, false}));
    VirtioBuffer buf;
    while (q.take(buf)) {
    }
    // Device drained and went idle: next post kicks again.
    EXPECT_TRUE(q.post(VirtioBuffer{4, 1, 0, false}));
    EXPECT_EQ(q.kicksNeeded(), 2u);
    EXPECT_EQ(q.postedCount(), 4u);
}

TEST_F(VirtqueueTest, FifoOrder)
{
    Virtqueue q(machine, "q");
    for (std::uint64_t i = 0; i < 10; ++i)
        q.post(VirtioBuffer{i, 1, 0, false});
    VirtioBuffer buf;
    for (std::uint64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.take(buf));
        EXPECT_EQ(buf.id, i);
    }
}

TEST_F(VirtqueueTest, FullRingBackPressuresInsteadOfPanicking)
{
    Virtqueue q(machine, "q", 2);
    q.post(VirtioBuffer{0, 1, 0, false});
    q.post(VirtioBuffer{1, 1, 0, false});
    // The third post stalls the driver (ringFullWait) but is never
    // lost; the full counter records the stall.
    Ticks before = machine.now();
    q.post(VirtioBuffer{2, 1, 0, false});
    EXPECT_EQ(q.fullCount(), 1u);
    EXPECT_GE(machine.now() - before, machine.costs().ringFullWait);
    VirtioBuffer buf;
    for (std::uint64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(q.take(buf));
        EXPECT_EQ(buf.id, i);
    }
}

TEST_F(VirtqueueTest, ZeroSizeRejected)
{
    EXPECT_THROW(Virtqueue(machine, "q", 0), FatalError);
}

TEST_F(VirtqueueTest, TakeOnEmptyMarksIdle)
{
    Virtqueue q(machine, "q");
    VirtioBuffer buf;
    EXPECT_FALSE(q.take(buf));
    EXPECT_TRUE(q.post(VirtioBuffer{}));
}

// ------------------------------------------------- same-machine link

class FabricTest : public ::testing::Test
{
  protected:
    Machine machine{MachineTopology{1, 1, 2}};
};

TEST_F(FabricTest, DeliversAfterLatencyAndSerialization)
{
    CrossLink link(machine, usec(5), 10e9);
    std::vector<NetPacket> got;
    link.port(1).setReceiveHandler([&](NetPacket p) { got.push_back(p); });
    link.port(0).send(NetPacket{1, 1, 0});
    Ticks expected = machine.now() + link.port(0).serialization(1) + usec(5);
    machine.events().advanceTo(expected - 1);
    EXPECT_TRUE(got.empty());
    machine.events().advanceBy(1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].id, 1u);
}

TEST_F(FabricTest, SerializationMatchesLineRate)
{
    CrossLink link(machine, 0, 10e9);
    // 16 KB + framing at 10 Gb/s ~= 12.9 us.
    Ticks t = link.port(0).serialization(16384);
    EXPECT_NEAR(toUsec(t), (16384 + 78) * 8.0 / 10e9 * 1e6, 0.01);
}

TEST_F(FabricTest, BackToBackPacketsQueueOnTheLink)
{
    CrossLink link(machine, 0, 10e9);
    std::vector<Ticks> arrivals;
    link.port(1).setReceiveHandler(
        [&](NetPacket) { arrivals.push_back(machine.now()); });
    // Two full-size segments sent at the same instant: the second
    // serializes after the first.
    link.port(0).send(NetPacket{1, 16384, 0});
    link.port(0).send(NetPacket{2, 16384, 0});
    machine.events().advanceTo(msec(1));
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[1] - arrivals[0], link.port(0).serialization(16384));
}

TEST_F(FabricTest, DirectionsAreIndependent)
{
    CrossLink link(machine, usec(1), 10e9);
    int to_peer = 0, to_local = 0;
    link.port(1).setReceiveHandler([&](NetPacket) { ++to_peer; });
    link.port(0).setReceiveHandler([&](NetPacket) { ++to_local; });
    link.port(0).send(NetPacket{1, 100, 0});
    link.port(1).send(NetPacket{2, 100, 0});
    machine.events().advanceTo(msec(1));
    EXPECT_EQ(to_peer, 1);
    EXPECT_EQ(to_local, 1);
    EXPECT_EQ(link.delivered(1), 1u);
    EXPECT_EQ(link.delivered(0), 1u);
}

TEST_F(FabricTest, NoReceiverPanics)
{
    CrossLink link(machine, 0, 10e9);
    EXPECT_THROW(link.port(0).send(NetPacket{}), PanicError);
}

TEST_F(FabricTest, InvalidRateRejected)
{
    EXPECT_THROW(CrossLink(machine, 0, 0), FatalError);
}

// -------------------------------------------------------------- ramdisk

class RamDiskTest : public ::testing::Test
{
  protected:
    Machine machine{MachineTopology{1, 1, 2}};
};

TEST_F(RamDiskTest, CompletesAfterServiceTime)
{
    RamDisk disk(machine, "d");
    std::vector<std::uint64_t> done;
    disk.setCompletionHandler(
        [&](std::uint64_t id) { done.push_back(id); });
    disk.submit(7, 0, 512, false);
    Ticks expect = machine.now() + disk.serviceTime(512, false);
    machine.events().advanceTo(expect - 1);
    EXPECT_TRUE(done.empty());
    machine.events().advanceBy(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], 7u);
}

TEST_F(RamDiskTest, WritesCostMoreThanReads)
{
    RamDisk disk(machine, "d");
    EXPECT_GT(disk.serviceTime(4096, true),
              disk.serviceTime(4096, false));
    EXPECT_GT(disk.serviceTime(65536, false),
              disk.serviceTime(512, false));
}

TEST_F(RamDiskTest, RequestsSerialize)
{
    RamDisk disk(machine, "d");
    std::vector<Ticks> times;
    disk.setCompletionHandler(
        [&](std::uint64_t) { times.push_back(machine.now()); });
    disk.submit(1, 0, 4096, false);
    disk.submit(2, 8, 4096, false);
    machine.events().advanceTo(msec(1));
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[1] - times[0], disk.serviceTime(4096, false));
    EXPECT_EQ(disk.completedCount(), 2u);
}

TEST_F(RamDiskTest, SubmitWithoutHandlerPanics)
{
    RamDisk disk(machine, "d");
    EXPECT_THROW(disk.submit(1, 0, 512, false), PanicError);
}

// --------------------------------------------------- end-to-end network

/** Full system with a 1-byte-echo peer on the wire. */
struct NetRig
{
    explicit NetRig(VirtMode mode)
        : sys(mode),
          link(sys.machine(), sys.machine().costs().wireLatency,
               sys.machine().costs().linkBitsPerSec),
          net(sys.stack(), link.port(0))
    {
        // Bare-metal peer: echo after the turnaround time.
        link.port(1).setReceiveHandler([this](NetPacket pkt) {
            sys.machine().events().scheduleIn(
                sys.machine().costs().remotePeerTurnaround,
                [this, pkt] { link.port(1).send(pkt); });
        });
    }

    /** One request/response round; returns the RTT. */
    Ticks
    pingPong(std::uint32_t bytes)
    {
        bool got = false;
        net.setRxHandler([&](NetPacket) { got = true; });
        Ticks t0 = sys.machine().now();
        net.send(bytes, next_id++);
        while (!got)
            sys.api().halt();
        return sys.machine().now() - t0;
    }

    /** Mean RTT over several spaced rounds (vhost poll jitter). */
    Ticks
    meanRtt(std::uint32_t bytes, int rounds)
    {
        pingPong(bytes); // warm up
        Ticks total = 0;
        for (int i = 0; i < rounds; ++i) {
            sys.api().compute(usec(100)); // client think time
            total += pingPong(bytes);
        }
        return total / rounds;
    }

    NestedSystem sys;
    CrossLink link;
    VirtioNetStack net;
    std::uint64_t next_id = 1;
};

TEST(VirtioNet, EndToEndEchoInAllModes)
{
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt}) {
        NetRig rig(mode);
        Ticks rtt = rig.pingPong(1);
        EXPECT_GT(rtt, 2 * rig.sys.machine().costs().wireLatency)
            << virtModeName(mode);
        EXPECT_EQ(rig.net.txPackets(), 1u);
        EXPECT_EQ(rig.net.rxPackets(), 1u);
    }
}

TEST(VirtioNet, RttImprovesWithSvt)
{
    NetRig base(VirtMode::Nested);
    NetRig sw(VirtMode::SwSvt);
    NetRig hw(VirtMode::HwSvt);
    Ticks t_base = base.meanRtt(1, 5);
    Ticks t_sw = sw.meanRtt(1, 5);
    Ticks t_hw = hw.meanRtt(1, 5);
    EXPECT_LT(t_sw, t_base);
    EXPECT_LT(t_hw, t_sw);
}

TEST(VirtioNet, KickPathGeneratesEptMisconfig)
{
    NetRig rig(VirtMode::Nested);
    rig.pingPong(1);
    EXPECT_GE(rig.sys.machine().counter("l2.exit.EPT_MISCONFIG"), 1u);
    // The rx path injected the virtio vector into L2.
    EXPECT_GE(rig.sys.machine().counter("irq.delivered.l2"), 1u);
}

TEST(VirtioNet, BatchedSegmentsShareKicks)
{
    NetRig rig(VirtMode::Nested);
    rig.pingPong(1); // warm up
    rig.sys.api().compute(usec(200)); // let the vhost worker idle
    auto before = rig.sys.machine().counter("l2.exit.EPT_MISCONFIG");
    // A burst of segments: the first send kicks; the vhost worker
    // then busy-polls the ring, so the rest ride without doorbell
    // exits (virtio EVENT_IDX + vhost busyloop).
    int got = 0;
    rig.net.setRxHandler([&](NetPacket) { ++got; });
    for (int i = 0; i < 8; ++i)
        rig.net.send(16384, 100 + i);
    while (got < 8)
        rig.sys.api().halt();
    auto kicks = rig.sys.machine().counter("l2.exit.EPT_MISCONFIG") -
                 before;
    EXPECT_GE(kicks, 1u);
    EXPECT_LE(kicks, 3u);
}

// --------------------------------------------------- end-to-end disk

struct BlkRig
{
    explicit BlkRig(VirtMode mode)
        : sys(mode), disk(sys.machine(), "ramdisk"),
          blk(sys.stack(), disk)
    {
    }

    Ticks
    oneRequest(std::uint32_t bytes, bool write)
    {
        bool done = false;
        blk.setCompletionHandler([&](std::uint64_t) { done = true; });
        Ticks t0 = sys.machine().now();
        blk.submit(next_id++, 128, bytes, write);
        while (!done)
            sys.api().halt();
        return sys.machine().now() - t0;
    }

    /** Mean latency over several spaced requests (poll jitter). */
    Ticks
    meanLatency(std::uint32_t bytes, bool write, int rounds)
    {
        oneRequest(bytes, write); // warm up
        Ticks total = 0;
        for (int i = 0; i < rounds; ++i) {
            sys.api().compute(usec(100));
            total += oneRequest(bytes, write);
        }
        return total / rounds;
    }

    NestedSystem sys;
    RamDisk disk;
    VirtioBlkStack blk;
    std::uint64_t next_id = 1;
};

TEST(VirtioBlk, EndToEndCompletionInAllModes)
{
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt}) {
        BlkRig rig(mode);
        Ticks t = rig.oneRequest(512, false);
        EXPECT_GT(t, rig.disk.serviceTime(512, false))
            << virtModeName(mode);
        EXPECT_EQ(rig.blk.completedCount(), 1u);
    }
}

TEST(VirtioBlk, LatencyImprovesWithSvt)
{
    BlkRig base(VirtMode::Nested);
    BlkRig sw(VirtMode::SwSvt);
    BlkRig hw(VirtMode::HwSvt);
    Ticks t_base = base.meanLatency(512, false, 5);
    Ticks t_sw = sw.meanLatency(512, false, 5);
    Ticks t_hw = hw.meanLatency(512, false, 5);
    EXPECT_LT(t_sw, t_base);
    EXPECT_LT(t_hw, t_sw);
}

TEST(VirtioBlk, WritesSlowerThanReads)
{
    BlkRig rig(VirtMode::Nested);
    rig.oneRequest(512, false);
    Ticks rd = rig.oneRequest(512, false);
    Ticks wr = rig.oneRequest(512, true);
    EXPECT_GT(wr, rd);
}

TEST(VirtioBlk, ConcurrentRequestsComplete)
{
    BlkRig rig(VirtMode::Nested);
    int done = 0;
    rig.blk.setCompletionHandler([&](std::uint64_t) { ++done; });
    for (int i = 0; i < 4; ++i)
        rig.blk.submit(100 + i, i * 8, 4096, false);
    while (done < 4)
        rig.sys.api().halt();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(rig.blk.completedCount(), 4u);
}

TEST(VirtioBlk, EoiTrapsAreChargedPerInterruptBatchNotPerBuffer)
{
    // Regression: l1BlkIrq used to issue the L1 EOI/housekeeping
    // wrmsr traps inside the completion loop, so a batch of N
    // completions was billed N EOIs. The blk rig has no other L1
    // wrmsr source, so the trap count must match the batch count
    // exactly.
    BlkRig rig(VirtMode::Nested);
    int done = 0;
    rig.blk.setCompletionHandler([&](std::uint64_t) { ++done; });
    for (int i = 0; i < 8; ++i)
        rig.blk.submit(100 + i, i * 8, 4096, false);
    while (done < 8)
        rig.sys.api().halt();
    const auto traps = static_cast<std::uint64_t>(
        rig.sys.machine().costs().l1IoBackendTraps);
    EXPECT_GT(rig.blk.l1IrqBatches(), 0u);
    EXPECT_EQ(rig.sys.machine().counter("l0.exit.MSR_WRITE"),
              rig.blk.l1IrqBatches() * traps);
    // With 8 requests in flight the serialized disk completes them
    // faster than L1 takes interrupts, so batching actually happens:
    // strictly fewer interrupt batches than completions.
    EXPECT_LT(rig.blk.l1IrqBatches(), rig.blk.completedCount());
}

TEST(VirtioBlk, PostAtTheExactIdleTickIsNotStranded)
{
    // Regression sweep for the kick-suppression race: a request
    // posted exactly when the vhost worker concludes it is idle
    // (linger window boundary, poll-cadence ticks) had its doorbell
    // suppressed and could strand until the next unrelated kick. The
    // idle-tick guard re-arms one poll instead; every gap must
    // complete without a stall.
    const Ticks linger = paperCosts().vhostLingerPoll;
    for (Ticks gap :
         {linger - usec(1), linger - 1, linger, linger + 1,
          linger + usec(1), linger + usec(10), 2 * linger}) {
        BlkRig rig(VirtMode::Nested);
        rig.oneRequest(4096, false); // prime the worker
        rig.sys.api().compute(gap);  // land on the boundary
        Ticks t = rig.oneRequest(4096, false);
        EXPECT_GT(t, 0) << "gap " << toUsec(gap) << "us";
        EXPECT_EQ(rig.blk.completedCount(), 2u)
            << "gap " << toUsec(gap) << "us";
    }
}

} // namespace
} // namespace svtsim
