#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "gpu/device.h"
#include "gpu/schedule.h"
#include "gpu/stream.h"
#include "gpu/time_model.h"

namespace gts {
namespace gpu {
namespace {

// ---------------------------------------------------------------- Device

TEST(DeviceTest, TracksUsageAndCapacity) {
  Device device(0, 1000);
  EXPECT_EQ(device.available(), 1000u);
  auto a = device.Allocate(600, "a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(device.used(), 600u);
  auto b = device.Allocate(500, "b");
  EXPECT_TRUE(b.status().IsOutOfDeviceMemory());
  auto c = device.Allocate(400, "c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(device.available(), 0u);
}

TEST(DeviceTest, BufferReleaseReturnsMemory) {
  Device device(0, 100);
  {
    auto buf = device.Allocate(80, "tmp");
    ASSERT_TRUE(buf.ok());
    EXPECT_EQ(device.used(), 80u);
  }
  EXPECT_EQ(device.used(), 0u);
}

TEST(DeviceTest, MoveTransfersOwnership) {
  Device device(0, 100);
  DeviceBuffer a = std::move(device.Allocate(40, "a")).ValueOrDie();
  DeviceBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(device.used(), 40u);
  b.Reset();
  EXPECT_EQ(device.used(), 0u);
}

TEST(DeviceTest, ErrorMessageNamesTagAndDevice) {
  Device device(3, 10);
  auto r = device.Allocate(100, "WABuf");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("GPU3"), std::string::npos);
  EXPECT_NE(r.status().message().find("WABuf"), std::string::npos);
}

// ---------------------------------------------------------------- Stream

TEST(StreamTest, OpsRunInFifoOrder) {
  Stream stream;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    stream.Enqueue([&order, i] { order.push_back(i); });
  }
  stream.Synchronize();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(StreamTest, SynchronizeWaitsForCompletion) {
  Stream stream;
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    stream.Enqueue([&done] { done.fetch_add(1); });
  }
  stream.Synchronize();
  EXPECT_EQ(done.load(), 10);
  EXPECT_EQ(stream.ops_issued(), 10u);
}

TEST(StreamTest, TwoStreamsRunIndependently) {
  Stream a;
  Stream b;
  std::atomic<int> count{0};
  a.Enqueue([&count] { count.fetch_add(1); });
  b.Enqueue([&count] { count.fetch_add(1); });
  a.Synchronize();
  b.Synchronize();
  EXPECT_EQ(count.load(), 2);
}

TEST(StreamTest, ReserveHandsOutRingSlotsInOrder) {
  Stream stream(3);
  std::atomic<bool> release{false};
  std::vector<size_t> slots;
  for (int i = 0; i < 3; ++i) {
    slots.push_back(stream.Reserve());
    stream.Enqueue([&release] {
      while (!release.load()) std::this_thread::yield();
    });
  }
  EXPECT_EQ(slots, (std::vector<size_t>{0, 1, 2}));
  release.store(true);
  // The fourth slot is the first one again, free once its op finished.
  EXPECT_EQ(stream.Reserve(), 0u);
  stream.Synchronize();
  EXPECT_EQ(stream.ops_issued(), 3u);
}

// A lost wake-up in the handoff hangs this test instead of passing it:
// every cycle waits for ops it enqueued. Random pauses on both sides make
// each side outlast the other's spin, so both sleep and wake thousands of
// times, on a full ring as well as an empty one.
TEST(StreamTest, HandoffSurvivesSleepAndWakeStress) {
  constexpr int kCycles = 100000;
  Stream stream(4);
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<int> burst(1, 8);
  uint64_t ran = 0;  // only the worker writes it; read after a drain
  uint64_t enqueued = 0;
  auto pause_us = [](int us) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  };
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const int ops = burst(rng);
    for (int i = 0; i < ops; ++i) {
      // About one op in 400 outlasts the producer's spin: the producer
      // finds the ring full and sleeps.
      const bool slow = percent(rng) == 0 && percent(rng) < 25;
      stream.Enqueue([&ran, slow, &pause_us] {
        if (slow) pause_us(300);
        ++ran;
      });
      ++enqueued;
    }
    const int action = percent(rng);
    if (action < 2) {
      pause_us(300);  // the worker outlasts its spin and sleeps
    } else if (action < 4) {
      stream.Park();
      ASSERT_TRUE(stream.blocked());
    } else if (action < 30) {
      stream.Synchronize();
      ASSERT_EQ(ran, enqueued);
    }
  }
  stream.Synchronize();
  EXPECT_EQ(ran, enqueued);
  EXPECT_EQ(stream.ops_issued(), enqueued);
}

// ------------------------------------------------------------- Scheduler

TimeModel ZeroLatencyModel() {
  TimeModel m;
  m.issue_latency = 0;
  m.kernel_launch_overhead = 0;
  m.sync_overhead = 0;
  m.host_merge_overhead = 0;
  return m;
}

TimelineOp MakeOp(OpKind kind, int stream, ResourceId res, SimTime dur) {
  TimelineOp op;
  op.kind = kind;
  op.stream_key = stream;
  op.resource = res;
  op.duration = dur;
  return op;
}

TEST(ScheduleTest, SerialResourceSerializes) {
  ScheduleSimulator sim(ZeroLatencyModel());
  const ResourceId copy{ResourceId::Type::kCopyEngine, 0};
  std::vector<TimelineOp> ops;
  // Two transfers on different streams share one copy engine.
  ops.push_back(MakeOp(OpKind::kH2DStream, 0, copy, 1.0));
  ops.push_back(MakeOp(OpKind::kH2DStream, 1, copy, 1.0));
  auto result = sim.Run(ops);
  EXPECT_DOUBLE_EQ(result.ops[0].start, 0.0);
  EXPECT_DOUBLE_EQ(result.ops[1].start, 1.0);
  EXPECT_DOUBLE_EQ(result.makespan, 2.0);
}

TEST(ScheduleTest, KernelsOverlapAcrossStreams) {
  ScheduleSimulator sim(ZeroLatencyModel());
  const ResourceId pool{ResourceId::Type::kKernelPool, 0};
  std::vector<TimelineOp> ops;
  for (int s = 0; s < 8; ++s) {
    ops.push_back(MakeOp(OpKind::kKernel, s, pool, 1.0));
  }
  auto result = sim.Run(ops);
  // All eight run concurrently (cap is 32).
  EXPECT_DOUBLE_EQ(result.makespan, 1.0);
}

TEST(ScheduleTest, KernelPoolCapsConcurrency) {
  TimeModel model = ZeroLatencyModel();
  model.max_concurrent_kernels = 2;
  ScheduleSimulator sim(model);
  const ResourceId pool{ResourceId::Type::kKernelPool, 0};
  std::vector<TimelineOp> ops;
  for (int s = 0; s < 4; ++s) {
    ops.push_back(MakeOp(OpKind::kKernel, s, pool, 1.0));
  }
  auto result = sim.Run(ops);
  // 4 kernels, 2 at a time -> 2 waves.
  EXPECT_DOUBLE_EQ(result.makespan, 2.0);
}

TEST(ScheduleTest, TransfersOverlapKernels) {
  ScheduleSimulator sim(ZeroLatencyModel());
  const ResourceId copy{ResourceId::Type::kCopyEngine, 0};
  const ResourceId pool{ResourceId::Type::kKernelPool, 0};
  std::vector<TimelineOp> ops;
  // Stream 0: copy then long kernel. Stream 1: copy then kernel.
  ops.push_back(MakeOp(OpKind::kH2DStream, 0, copy, 1.0));
  ops.push_back(MakeOp(OpKind::kKernel, 0, pool, 10.0));
  ops.push_back(MakeOp(OpKind::kH2DStream, 1, copy, 1.0));
  ops.push_back(MakeOp(OpKind::kKernel, 1, pool, 10.0));
  auto result = sim.Run(ops);
  // Stream 1's copy waits for the copy engine (t=1..2) but its kernel then
  // overlaps stream 0's kernel: makespan 12, not 22.
  EXPECT_DOUBLE_EQ(result.makespan, 12.0);
}

TEST(ScheduleTest, ProgramOrderWithinStream) {
  ScheduleSimulator sim(ZeroLatencyModel());
  const ResourceId copy{ResourceId::Type::kCopyEngine, 0};
  const ResourceId pool{ResourceId::Type::kKernelPool, 0};
  std::vector<TimelineOp> ops;
  ops.push_back(MakeOp(OpKind::kH2DStream, 0, copy, 2.0));
  ops.push_back(MakeOp(OpKind::kKernel, 0, pool, 1.0));
  auto result = sim.Run(ops);
  EXPECT_DOUBLE_EQ(result.ops[1].start, 2.0);  // waits for its own copy
}

TEST(ScheduleTest, ExplicitDependencyRespected) {
  ScheduleSimulator sim(ZeroLatencyModel());
  const ResourceId disk{ResourceId::Type::kStorageDevice, 0};
  const ResourceId copy{ResourceId::Type::kCopyEngine, 0};
  std::vector<TimelineOp> ops;
  ops.push_back(MakeOp(OpKind::kStorageFetch, -1, disk, 5.0));
  TimelineOp h2d = MakeOp(OpKind::kH2DStream, 0, copy, 1.0);
  h2d.dep0 = 0;
  ops.push_back(h2d);
  auto result = sim.Run(ops);
  EXPECT_DOUBLE_EQ(result.ops[1].start, 5.0);
  EXPECT_DOUBLE_EQ(result.makespan, 6.0);
}

TEST(ScheduleTest, BarrierGatesEverything) {
  ScheduleSimulator sim(ZeroLatencyModel());
  const ResourceId pool{ResourceId::Type::kKernelPool, 0};
  std::vector<TimelineOp> ops;
  ops.push_back(MakeOp(OpKind::kKernel, 0, pool, 3.0));
  TimelineOp barrier;
  barrier.kind = OpKind::kBarrier;
  barrier.duration = 1.0;
  ops.push_back(barrier);
  ops.push_back(MakeOp(OpKind::kKernel, 1, pool, 1.0));
  auto result = sim.Run(ops);
  EXPECT_DOUBLE_EQ(result.ops[1].start, 3.0);  // barrier after kernel
  EXPECT_DOUBLE_EQ(result.ops[2].start, 4.0);  // post-barrier op gated
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
}

TEST(ScheduleTest, IssueLatencySeparatesStreamOps) {
  TimeModel model = ZeroLatencyModel();
  model.issue_latency = 0.5;
  ScheduleSimulator sim(model);
  const ResourceId copy{ResourceId::Type::kCopyEngine, 0};
  std::vector<TimelineOp> ops;
  ops.push_back(MakeOp(OpKind::kH2DStream, 0, copy, 1.0));
  ops.push_back(MakeOp(OpKind::kH2DStream, 0, copy, 1.0));
  auto result = sim.Run(ops);
  EXPECT_DOUBLE_EQ(result.ops[0].start, 0.5);
  EXPECT_DOUBLE_EQ(result.ops[1].start, 2.0);  // 1.5 end + 0.5 gap
}

TEST(ScheduleTest, MoreStreamsHideIssueLatency) {
  // The Figure 10 mechanism in miniature: fixed per-page work, sweep k.
  TimeModel model = ZeroLatencyModel();
  model.issue_latency = 1.0;
  ScheduleSimulator sim(model);
  const ResourceId copy{ResourceId::Type::kCopyEngine, 0};
  const ResourceId pool{ResourceId::Type::kKernelPool, 0};
  auto run_with_streams = [&](int k) {
    std::vector<TimelineOp> ops;
    for (int page = 0; page < 64; ++page) {
      const int s = page % k;
      ops.push_back(MakeOp(OpKind::kH2DStream, s, copy, 0.2));
      ops.push_back(MakeOp(OpKind::kKernel, s, pool, 1.0));
    }
    return sim.Run(ops).makespan;
  };
  const double t1 = run_with_streams(1);
  const double t4 = run_with_streams(4);
  const double t16 = run_with_streams(16);
  EXPECT_GT(t1, t4);
  EXPECT_GT(t4, t16);
}

TEST(ScheduleTest, UsageAccounting) {
  ScheduleSimulator sim(ZeroLatencyModel());
  const ResourceId copy{ResourceId::Type::kCopyEngine, 0};
  const ResourceId pool{ResourceId::Type::kKernelPool, 0};
  std::vector<TimelineOp> ops;
  ops.push_back(MakeOp(OpKind::kH2DStream, 0, copy, 2.0));
  ops.push_back(MakeOp(OpKind::kKernel, 0, pool, 3.0));
  auto result = sim.Run(ops);
  EXPECT_DOUBLE_EQ(result.BusySeconds(ResourceId::Type::kCopyEngine), 2.0);
  EXPECT_DOUBLE_EQ(result.BusySeconds(ResourceId::Type::kKernelPool), 3.0);
}

TEST(ScheduleTest, AsciiTimelineRenders) {
  ScheduleSimulator sim(ZeroLatencyModel());
  const ResourceId copy{ResourceId::Type::kCopyEngine, 0};
  const ResourceId pool{ResourceId::Type::kKernelPool, 0};
  std::vector<TimelineOp> ops;
  ops.push_back(MakeOp(OpKind::kH2DStream, 0, copy, 1.0));
  ops.push_back(MakeOp(OpKind::kKernel, 0, pool, 1.0));
  auto result = sim.Run(ops);
  const std::string art = RenderTimelineAscii(result, 20);
  EXPECT_NE(art.find("stream0"), std::string::npos);
  EXPECT_NE(art.find('='), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(TimeModelTest, ScaledDividesLatenciesOnly) {
  TimeModel m;
  TimeModel s = m.Scaled(1024.0);
  EXPECT_DOUBLE_EQ(s.c1, m.c1);
  EXPECT_DOUBLE_EQ(s.c2, m.c2);
  EXPECT_DOUBLE_EQ(s.warp_cycle_seconds, m.warp_cycle_seconds);
  EXPECT_DOUBLE_EQ(s.issue_latency, m.issue_latency / 1024.0);
  EXPECT_DOUBLE_EQ(s.sync_overhead, m.sync_overhead / 1024.0);
}

}  // namespace
}  // namespace gpu
}  // namespace gts
