// gts::analysis contracts.
//
// Three layers:
//   1. RaceDetector units (knob-independent -- the class always
//      compiles): the conflict matrix, every schedule-edge kind, and the
//      MMBuf staging events, including the two canonical seeded races
//      the tentpole exists to catch (a non-atomic store racing a peer
//      CAS; a kernel reading WA during an in-flight copy).
//   2. ScheduleValidator units over synthesized impossible timelines and
//      corrupt pin / io event logs (R1-R8).
//   3. End-to-end: every shipped algorithm (BFS / SSSP / BC / PageRank)
//      must report zero races and zero schedule violations across the
//      full dispatch-policy matrix of tests/dispatch_test.cc, while a
//      deliberately racy kernel MUST be flagged with lane / page /
//      simulated-timestamp diagnostics. Engine-level race expectations
//      are gated on analysis::kRaceCheckCompiled (the -DGTS_RACE_CHECK
//      build knob); the validator is always on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "analysis/analysis_options.h"
#include "analysis/race_detector.h"
#include "analysis/race_report.h"
#include "analysis/schedule_validator.h"
#include "core/engine.h"
#include "core/job/job_scheduler.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "storage/page_builder.h"

namespace gts {
namespace {

using analysis::AccessClass;
using analysis::RaceDetector;
using analysis::RaceReport;
using analysis::ScheduleValidator;

// ----------------------------------------------- RaceDetector units

TEST(RaceDetectorTest, UnorderedPlainWritesOnTwoStreamsRace) {
  RaceDetector det;
  det.BeginRun();
  const int s0 = det.StreamLane(0, 0, 0);
  const int s1 = det.StreamLane(0, 1, 1);
  det.BeginOp(s0);
  det.BeginOp(s1);
  det.OnWaAccess(s0, RaceDetector::WaDomain(0), 0, 4,
                 AccessClass::kPlainWrite, /*op=*/7, /*page=*/3);
  det.OnWaAccess(s1, RaceDetector::WaDomain(0), 0, 4,
                 AccessClass::kPlainWrite, /*op=*/9, /*page=*/4);
  EXPECT_EQ(det.races_detected(), 1u);

  // Timestamps resolve from the simulated schedule.
  gpu::ScheduleResult schedule;
  schedule.ops.resize(10);
  schedule.ops[7].start = 1.5;
  schedule.ops[9].start = 2.25;
  det.ResolveTimestamps(schedule);

  RaceReport report = det.TakeReport();
  EXPECT_TRUE(report.race_check_ran);
  ASSERT_EQ(report.races.size(), 1u);
  const analysis::Race& race = report.races[0];
  EXPECT_EQ(race.domain, "gpu0.wa");
  EXPECT_EQ(race.offset, 0u);
  EXPECT_EQ(race.first.lane, "gpu0.stream0");
  EXPECT_EQ(race.second.lane, "gpu0.stream1");
  EXPECT_EQ(race.first.stream_key, 0);
  EXPECT_EQ(race.second.stream_key, 1);
  EXPECT_EQ(race.first.op, 7u);
  EXPECT_EQ(race.second.op, 9u);
  EXPECT_EQ(race.first.page, 3u);
  EXPECT_EQ(race.second.page, 4u);
  EXPECT_DOUBLE_EQ(race.first.sim_time, 1.5);
  EXPECT_DOUBLE_EQ(race.second.sim_time, 2.25);
  EXPECT_NE(race.ToString().find("gpu0.stream1"), std::string::npos);
}

/// Jobs of a multi-job batch epoch own separate WA replicas: the same
/// offset in two jobs' domains is two cells, and findings name the job.
TEST(RaceDetectorTest, JobWaDomainsAreSeparateAndNamed) {
  RaceDetector det;
  det.BeginRun();
  const int s0 = det.StreamLane(0, 0, 0);
  const int s1 = det.StreamLane(0, 1, 1);
  det.BeginOp(s0);
  det.BeginOp(s1);
  det.OnWaAccess(s0, RaceDetector::WaDomain(0, 0), 0, 4,
                 AccessClass::kPlainWrite, 1, 0);
  det.OnWaAccess(s1, RaceDetector::WaDomain(0, 1), 0, 4,
                 AccessClass::kPlainWrite, 2, 1);
  EXPECT_EQ(det.races_detected(), 0u);
  det.OnWaAccess(s1, RaceDetector::WaDomain(0, 0), 0, 4,
                 AccessClass::kPlainWrite, 3, 1);
  EXPECT_EQ(det.races_detected(), 1u);
  RaceReport report = det.TakeReport();
  ASSERT_EQ(report.races.size(), 1u);
  EXPECT_EQ(report.races[0].domain, "job0.gpu0.wa");
  EXPECT_EQ(RaceDetector::DomainName(RaceDetector::WaDomain(2, 3)),
            "job3.gpu2.wa");
  EXPECT_EQ(RaceDetector::WaDomain(1), RaceDetector::WaDomain(1, -1));
}

TEST(RaceDetectorTest, AtomicAtomicPairsNeverRace) {
  RaceDetector det;
  det.BeginRun();
  const int s0 = det.StreamLane(0, 0, 0);
  const int s1 = det.StreamLane(0, 1, 1);
  det.BeginOp(s0);
  det.BeginOp(s1);
  // Concurrent CAS vs CAS (and load vs CAS) is the kernels' sync idiom.
  det.OnWaAccess(s0, RaceDetector::WaDomain(0), 8, 4,
                 AccessClass::kAtomicWrite, 1, 0);
  det.OnWaAccess(s1, RaceDetector::WaDomain(0), 8, 4,
                 AccessClass::kAtomicWrite, 2, 1);
  det.OnWaAccess(s1, RaceDetector::WaDomain(0), 8, 4,
                 AccessClass::kAtomicRead, 2, 1);
  EXPECT_EQ(det.races_detected(), 0u);
}

/// Seeded negative #1: a non-atomic WaStore racing a peer CAS on the
/// same granule MUST be flagged (plain/atomic pairs are not exempt).
TEST(RaceDetectorTest, PlainStoreRacingPeerCasIsFlagged) {
  RaceDetector det;
  det.BeginRun();
  const int s0 = det.StreamLane(0, 0, 0);
  const int s1 = det.StreamLane(0, 1, 1);
  det.BeginOp(s0);
  det.BeginOp(s1);
  det.OnWaAccess(s0, RaceDetector::WaDomain(0), 16, 4,
                 AccessClass::kAtomicWrite, 4, 0);
  det.OnWaAccess(s1, RaceDetector::WaDomain(0), 16, 4,
                 AccessClass::kPlainWrite, 5, 1);
  EXPECT_EQ(det.races_detected(), 1u);
  RaceReport report = det.TakeReport();
  ASSERT_EQ(report.races.size(), 1u);
  EXPECT_EQ(report.races[0].first.cls, AccessClass::kAtomicWrite);
  EXPECT_EQ(report.races[0].second.cls, AccessClass::kPlainWrite);
}

/// Seeded negative #2: a kernel reading WA while a copy engine's upload
/// of the same region is still logically in flight (no fuse edge) MUST
/// be flagged. Wide accesses are checked per covered granule.
TEST(RaceDetectorTest, KernelReadDuringInFlightCopyIsFlagged) {
  RaceDetector det;
  det.BeginRun();
  const int copy = det.CopyLane(0);
  const int s0 = det.StreamLane(0, 0, 0);
  det.BeginOp(copy);
  det.OnWaAccess(copy, RaceDetector::WaDomain(0), 0, 64,
                 AccessClass::kPlainWrite, 2, kInvalidPageId);
  det.BeginOp(s0);
  det.OnWaAccess(s0, RaceDetector::WaDomain(0), 16, 4,
                 AccessClass::kPlainRead, 5, 7);
  EXPECT_EQ(det.races_detected(), 1u);
  RaceReport report = det.TakeReport();
  ASSERT_EQ(report.races.size(), 1u);
  EXPECT_EQ(report.races[0].first.lane, "gpu0.copy");
  EXPECT_EQ(report.races[0].offset, 16u);
}

TEST(RaceDetectorTest, FuseOrdersCopyBeforeStream) {
  RaceDetector det;
  det.BeginRun();
  const int copy = det.CopyLane(0);
  const int s0 = det.StreamLane(0, 0, 0);
  det.BeginOp(copy);
  det.OnWaAccess(copy, RaceDetector::WaDomain(0), 0, 64,
                 AccessClass::kPlainWrite, 2, kInvalidPageId);
  det.Fuse(copy, s0);  // the H2D belongs to both stream and copy engine
  det.BeginOp(s0);
  det.OnWaAccess(s0, RaceDetector::WaDomain(0), 16, 4,
                 AccessClass::kPlainRead, 5, 7);
  EXPECT_EQ(det.races_detected(), 0u);
}

TEST(RaceDetectorTest, JoinHasReleaseSemantics) {
  RaceDetector det;
  det.BeginRun();
  const int s0 = det.StreamLane(0, 0, 0);
  const int s1 = det.StreamLane(0, 1, 1);
  det.BeginOp(s0);
  det.OnWaAccess(s0, RaceDetector::WaDomain(0), 0, 4,
                 AccessClass::kPlainWrite, 1, 0);
  det.Join(s1, s0);  // s0's past happens-before s1...
  det.BeginOp(s1);
  det.OnWaAccess(s1, RaceDetector::WaDomain(0), 0, 4,
                 AccessClass::kPlainRead, 2, 1);
  EXPECT_EQ(det.races_detected(), 0u);
  // ...but s0's *later* writes are not ordered against s1 by that edge:
  // the new write races with s1's earlier read (the edge was one-way),
  // and s1's next read races with the new write. Two unordered pairs.
  det.BeginOp(s0);
  det.OnWaAccess(s0, RaceDetector::WaDomain(0), 0, 4,
                 AccessClass::kPlainWrite, 3, 0);
  det.BeginOp(s1);
  det.OnWaAccess(s1, RaceDetector::WaDomain(0), 0, 4,
                 AccessClass::kPlainRead, 4, 1);
  EXPECT_EQ(det.races_detected(), 2u);
}

TEST(RaceDetectorTest, BarrierOrdersAllLanes) {
  RaceDetector det;
  det.BeginRun();
  const int s0 = det.StreamLane(0, 0, 0);
  const int s1 = det.StreamLane(0, 1, 1);
  det.BeginOp(s0);
  det.OnWaAccess(s0, RaceDetector::WaDomain(0), 0, 4,
                 AccessClass::kPlainWrite, 1, 0);
  det.BarrierAcquire();
  det.BarrierRelease();
  det.BeginOp(s1);
  det.OnWaAccess(s1, RaceDetector::WaDomain(0), 0, 4,
                 AccessClass::kPlainWrite, 2, 1);
  EXPECT_EQ(det.races_detected(), 0u);
}

TEST(RaceDetectorTest, PageStagedThenDeliveredOrdersMmbufReads) {
  RaceDetector det;
  det.BeginRun();
  det.OnPageStaged(/*device=*/0, /*pid=*/5, /*op=*/3);
  det.OnPageDelivered(5);
  det.OnPageAccess(det.HostLane(), RaceDetector::kMmbufDomain, 5,
                   /*write=*/false, 4);
  EXPECT_EQ(det.races_detected(), 0u);

  // A second staged page consumed *without* the delivery edge races with
  // the storage device's MMBuf write.
  det.OnPageStaged(/*device=*/0, /*pid=*/6, /*op=*/7);
  det.OnPageAccess(det.HostLane(), RaceDetector::kMmbufDomain, 6,
                   /*write=*/false, 8);
  EXPECT_EQ(det.races_detected(), 1u);
}

TEST(RaceDetectorTest, BeginRunResetsState) {
  RaceDetector det;
  det.BeginRun();
  const int s0 = det.StreamLane(0, 0, 0);
  const int s1 = det.StreamLane(0, 1, 1);
  det.BeginOp(s0);
  det.BeginOp(s1);
  det.OnWaAccess(s0, 0, 0, 4, AccessClass::kPlainWrite, 1, 0);
  det.OnWaAccess(s1, 0, 0, 4, AccessClass::kPlainWrite, 2, 1);
  EXPECT_EQ(det.races_detected(), 1u);
  det.BeginRun();
  EXPECT_EQ(det.races_detected(), 0u);
  EXPECT_EQ(det.wa_accesses(), 0u);
}

// ------------------------------------------- ScheduleValidator units

gpu::TimelineOp MakeOp(gpu::OpKind kind, gpu::ResourceId::Type type,
                       int index, double start, double end,
                       int stream_key = -1) {
  gpu::TimelineOp op;
  op.kind = kind;
  op.resource = {type, index};
  op.stream_key = stream_key;
  op.duration = end - start;
  op.start = start;
  op.end = end;
  return op;
}

bool HasRule(const RaceReport& report, const std::string& rule) {
  for (const analysis::ScheduleViolation& v : report.violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

TEST(ScheduleValidatorTest, CleanTimelinePasses) {
  gpu::ScheduleResult schedule;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kH2DStream,
                                gpu::ResourceId::Type::kCopyEngine, 0, 0.0,
                                1.0, /*stream_key=*/0));
  schedule.ops.back().page = 3;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kKernel,
                                gpu::ResourceId::Type::kKernelPool, 0, 1.0,
                                2.0, /*stream_key=*/0));
  schedule.ops.back().page = 3;
  RaceReport report;
  ScheduleValidator().Check(schedule, &report);
  EXPECT_TRUE(report.validator_ran);
  EXPECT_GT(report.schedule_checks, 0u);
  EXPECT_EQ(report.violations_detected, 0u);
}

TEST(ScheduleValidatorTest, OverlapOnOneCopyEngineIsRejected) {
  gpu::ScheduleResult schedule;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kH2DStream,
                                gpu::ResourceId::Type::kCopyEngine, 0, 0.0,
                                2.0));
  schedule.ops.push_back(MakeOp(gpu::OpKind::kD2H,
                                gpu::ResourceId::Type::kCopyEngine, 0, 1.0,
                                3.0));
  RaceReport report;
  ScheduleValidator().Check(schedule, &report);
  EXPECT_GT(report.violations_detected, 0u);
  EXPECT_TRUE(HasRule(report, "serial-overlap"));
}

/// A zero-length op (an empty WA delta exchange) placed at the instant
/// the next op on its engine starts occupies nothing, whatever order the
/// two are recorded in; a real overlap on the same instant still fails.
TEST(ScheduleValidatorTest, ZeroLengthOpAtAnotherOpsStartIsFine) {
  gpu::ScheduleResult schedule;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kD2H,
                                gpu::ResourceId::Type::kCopyEngine, 0, 1.0,
                                2.0));
  schedule.ops.push_back(MakeOp(gpu::OpKind::kH2DChunk,
                                gpu::ResourceId::Type::kCopyEngine, 0, 1.0,
                                1.0));
  schedule.ops.push_back(MakeOp(gpu::OpKind::kD2H,
                                gpu::ResourceId::Type::kCopyEngine, 0, 2.0,
                                2.0));
  RaceReport report;
  ScheduleValidator().Check(schedule, &report);
  EXPECT_EQ(report.violations_detected, 0u) << report.ToString();

  schedule.ops.push_back(MakeOp(gpu::OpKind::kD2H,
                                gpu::ResourceId::Type::kCopyEngine, 0, 1.0,
                                1.5));
  RaceReport overlapping;
  ScheduleValidator().Check(schedule, &overlapping);
  EXPECT_TRUE(HasRule(overlapping, "serial-overlap"));
}

TEST(ScheduleValidatorTest, OverlapOnDistinctEnginesIsFine) {
  gpu::ScheduleResult schedule;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kH2DStream,
                                gpu::ResourceId::Type::kCopyEngine, 0, 0.0,
                                2.0));
  schedule.ops.push_back(MakeOp(gpu::OpKind::kH2DStream,
                                gpu::ResourceId::Type::kCopyEngine, 1, 1.0,
                                3.0));
  RaceReport report;
  ScheduleValidator().Check(schedule, &report);
  EXPECT_EQ(report.violations_detected, 0u);
}

TEST(ScheduleValidatorTest, WaitBeforeRecordIsRejected) {
  // An op depending on a *later* index is an event wait preceding its
  // record; an op starting before its dependency ends is also R1.
  gpu::ScheduleResult schedule;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kKernel,
                                gpu::ResourceId::Type::kKernelPool, 0, 0.0,
                                1.0));
  schedule.ops[0].dep0 = 1;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kStorageFetch,
                                gpu::ResourceId::Type::kStorageDevice, 0, 2.0,
                                3.0));
  RaceReport report;
  ScheduleValidator().Check(schedule, &report);
  EXPECT_TRUE(HasRule(report, "dep-order"));

  gpu::ScheduleResult early;
  early.ops.push_back(MakeOp(gpu::OpKind::kStorageFetch,
                             gpu::ResourceId::Type::kStorageDevice, 0, 0.0,
                             2.0));
  early.ops.push_back(MakeOp(gpu::OpKind::kKernel,
                             gpu::ResourceId::Type::kKernelPool, 0, 1.0,
                             3.0));
  early.ops[1].dep0 = 0;
  RaceReport report2;
  ScheduleValidator().Check(early, &report2);
  EXPECT_TRUE(HasRule(report2, "dep-order"));
}

TEST(ScheduleValidatorTest, KernelBeforeItsTransferEndsIsRejected) {
  gpu::ScheduleResult schedule;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kH2DStream,
                                gpu::ResourceId::Type::kCopyEngine, 0, 0.0,
                                2.0, /*stream_key=*/4));
  schedule.ops.back().page = 9;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kKernel,
                                gpu::ResourceId::Type::kKernelPool, 0, 1.0,
                                3.0, /*stream_key=*/4));
  schedule.ops.back().page = 9;
  RaceReport report;
  ScheduleValidator().Check(schedule, &report);
  EXPECT_TRUE(HasRule(report, "kernel-after-h2d"));
}

TEST(ScheduleValidatorTest, BarrierDominanceIsEnforced) {
  gpu::ScheduleResult schedule;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kKernel,
                                gpu::ResourceId::Type::kKernelPool, 0, 0.0,
                                5.0));
  schedule.ops.push_back(MakeOp(gpu::OpKind::kBarrier,
                                gpu::ResourceId::Type::kNone, 0, 3.0, 3.5));
  RaceReport report;
  ScheduleValidator().Check(schedule, &report);
  EXPECT_TRUE(HasRule(report, "barrier"));
}

TEST(ScheduleValidatorTest, MalformedOpIsRejected) {
  gpu::ScheduleResult schedule;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kKernel,
                                gpu::ResourceId::Type::kKernelPool, 0, 2.0,
                                1.0));  // end < start
  RaceReport report;
  ScheduleValidator().Check(schedule, &report);
  EXPECT_TRUE(HasRule(report, "malformed-op"));
}

TEST(ScheduleValidatorTest, PinLifetimeViolationsAreRejected) {
  using analysis::PinEvent;
  ScheduleValidator validator;

  std::vector<PinEvent> release_without_pin = {
      {PinEvent::Kind::kReleased, /*pid=*/3, /*seq=*/0}};
  RaceReport r1;
  validator.CheckPinEvents(release_without_pin, &r1);
  EXPECT_TRUE(HasRule(r1, "pin-lifetime"));

  std::vector<PinEvent> evicted_while_pinned = {
      {PinEvent::Kind::kPinned, 3, 0},
      {PinEvent::Kind::kEvicted, 3, 1}};
  RaceReport r2;
  validator.CheckPinEvents(evicted_while_pinned, &r2);
  EXPECT_TRUE(HasRule(r2, "pin-lifetime"));

  std::vector<PinEvent> clean = {{PinEvent::Kind::kInserted, 3, 0},
                                 {PinEvent::Kind::kPinned, 3, 1},
                                 {PinEvent::Kind::kReleased, 3, 2},
                                 {PinEvent::Kind::kEvicted, 3, 3}};
  RaceReport r3;
  validator.CheckPinEvents(clean, &r3);
  EXPECT_EQ(r3.violations_detected, 0u);
}

/// I1: once a publish invalidates a cached page, a pin without a fresh
/// insert reads the superseded image. The seeded negative is exactly the
/// torn-page bug the ingest epoch protocol exists to prevent.
TEST(ScheduleValidatorTest, PinAfterInvalidateIsRejected) {
  using analysis::PinEvent;
  ScheduleValidator validator;

  std::vector<PinEvent> pin_after_invalidate = {
      {PinEvent::Kind::kInserted, /*pid=*/7, /*seq=*/0},
      {PinEvent::Kind::kPinned, 7, 1},
      {PinEvent::Kind::kReleased, 7, 2},
      {PinEvent::Kind::kInvalidated, 7, 3},
      {PinEvent::Kind::kPinned, 7, 4}};
  RaceReport r1;
  validator.CheckPinEvents(pin_after_invalidate, &r1);
  EXPECT_TRUE(HasRule(r1, "pin-after-invalidate"));

  // Reinsert after the invalidation: pins are legal again.
  std::vector<PinEvent> reinserted = {
      {PinEvent::Kind::kInserted, 7, 0},
      {PinEvent::Kind::kInvalidated, 7, 1},
      {PinEvent::Kind::kInserted, 7, 2},
      {PinEvent::Kind::kPinned, 7, 3},
      {PinEvent::Kind::kReleased, 7, 4}};
  RaceReport r2;
  validator.CheckPinEvents(reinserted, &r2);
  EXPECT_EQ(r2.violations_detected, 0u);

  // Invalidation of one pid never poisons another.
  std::vector<PinEvent> other_pid = {
      {PinEvent::Kind::kInvalidated, 7, 0},
      {PinEvent::Kind::kInserted, 8, 1},
      {PinEvent::Kind::kPinned, 8, 2},
      {PinEvent::Kind::kReleased, 8, 3}};
  RaceReport r3;
  validator.CheckPinEvents(other_pid, &r3);
  EXPECT_EQ(r3.violations_detected, 0u);
}

TEST(ScheduleValidatorTest, IoCompletionBeforeIssueIsRejected) {
  using analysis::IoEvent;
  ScheduleValidator validator;

  std::vector<IoEvent> deliver_before_issue = {
      {IoEvent::Kind::kSubmit, /*pid=*/1, /*seq=*/0},
      {IoEvent::Kind::kDeliver, 1, 1}};
  RaceReport r1;
  validator.CheckIoEvents(deliver_before_issue, &r1);
  EXPECT_TRUE(HasRule(r1, "io-order"));

  std::vector<IoEvent> issue_without_submit = {
      {IoEvent::Kind::kIssue, 2, 0}};
  RaceReport r2;
  validator.CheckIoEvents(issue_without_submit, &r2);
  EXPECT_TRUE(HasRule(r2, "io-order"));

  std::vector<IoEvent> clean = {{IoEvent::Kind::kSubmit, 1, 0},
                                {IoEvent::Kind::kIssue, 1, 1},
                                {IoEvent::Kind::kDeliver, 1, 2}};
  RaceReport r3;
  validator.CheckIoEvents(clean, &r3);
  EXPECT_EQ(r3.violations_detected, 0u);
}

/// R9: a ready-queue work item is enqueued exactly once and claimed at
/// most once. A double claim is exactly the bug work stealing can
/// introduce (two workers winning one item), so the seeded negative must
/// flag even though no shipped code path produces it.
TEST(ScheduleValidatorTest, DispatchClaimViolationsAreRejected) {
  using analysis::DispatchEvent;
  ScheduleValidator validator;
  // Fields: {kind, pid, seq, item, claimer, stolen}.
  std::vector<DispatchEvent> double_claim = {
      {DispatchEvent::Kind::kEnqueued, /*pid=*/3, /*seq=*/0, /*item=*/7},
      {DispatchEvent::Kind::kClaimed, 3, 1, 7, /*claimer=*/0},
      {DispatchEvent::Kind::kClaimed, 3, 2, 7, /*claimer=*/1,
       /*stolen=*/true}};
  RaceReport r1;
  validator.CheckDispatchEvents(double_claim, &r1);
  EXPECT_TRUE(HasRule(r1, "claim-unique"));

  std::vector<DispatchEvent> claim_without_enqueue = {
      {DispatchEvent::Kind::kClaimed, 4, 0, 8, 0}};
  RaceReport r2;
  validator.CheckDispatchEvents(claim_without_enqueue, &r2);
  EXPECT_TRUE(HasRule(r2, "claim-unique"));

  std::vector<DispatchEvent> double_enqueue = {
      {DispatchEvent::Kind::kEnqueued, 5, 0, 9},
      {DispatchEvent::Kind::kEnqueued, 5, 1, 9}};
  RaceReport r3;
  validator.CheckDispatchEvents(double_enqueue, &r3);
  EXPECT_TRUE(HasRule(r3, "claim-unique"));

  // Enqueued-then-claimed is clean, and so is an enqueued item nobody
  // claimed (a CPU-assist page withheld from the queue, or a pass whose
  // items drain on another GPU's workers).
  std::vector<DispatchEvent> clean = {
      {DispatchEvent::Kind::kEnqueued, 6, 0, 10},
      {DispatchEvent::Kind::kClaimed, 6, 1, 10, 2, true},
      {DispatchEvent::Kind::kEnqueued, 7, 2, 11}};
  RaceReport r4;
  validator.CheckDispatchEvents(clean, &r4);
  EXPECT_EQ(r4.violations_detected, 0u) << r4.ToString();
}

// J1 (job isolation) over a JobScheduler batch epoch: a job-tagged op may
// depend only on same-job or untagged ops. A kernel wired to another
// job's kernel is exactly the cross-contamination the rule exists for.
TEST(ScheduleValidatorTest, CrossJobDependencyIsRejected) {
  gpu::ScheduleResult schedule;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kKernel,
                                gpu::ResourceId::Type::kKernelPool, 0, 0.0,
                                1.0, /*stream_key=*/0));
  schedule.ops.back().job = 0;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kKernel,
                                gpu::ResourceId::Type::kKernelPool, 0, 1.0,
                                2.0, /*stream_key=*/0));
  schedule.ops.back().job = 1;
  schedule.ops.back().dep0 = 0;  // job 1 depending on job 0's kernel
  RaceReport report;
  ScheduleValidator().CheckJobIsolation(schedule, &report);
  EXPECT_TRUE(report.validator_ran);
  EXPECT_GT(report.violations_detected, 0u);
  EXPECT_TRUE(HasRule(report, "job-isolation")) << report.ToString();
}

// The legal sharing shape: both jobs hang off one untagged infrastructure
// op (a shared H2D page transfer), never off each other.
TEST(ScheduleValidatorTest, CrossJobSharingViaUntaggedOpIsClean) {
  gpu::ScheduleResult schedule;
  schedule.ops.push_back(MakeOp(gpu::OpKind::kH2DStream,
                                gpu::ResourceId::Type::kCopyEngine, 0, 0.0,
                                1.0, /*stream_key=*/0));
  schedule.ops.back().page = 5;  // untagged: job stays -1
  for (int job = 0; job < 2; ++job) {
    schedule.ops.push_back(MakeOp(gpu::OpKind::kKernel,
                                  gpu::ResourceId::Type::kKernelPool, 0,
                                  1.0 + job, 2.0 + job, /*stream_key=*/0));
    schedule.ops.back().page = 5;
    schedule.ops.back().job = job;
    schedule.ops.back().dep0 = 0;
  }
  RaceReport report;
  ScheduleValidator().CheckJobIsolation(schedule, &report);
  EXPECT_TRUE(report.validator_ran);
  EXPECT_GT(report.schedule_checks, 0u);
  EXPECT_EQ(report.violations_detected, 0u) << report.ToString();
}

// --------------------------------------------------- end-to-end sweep

struct Fixture {
  EdgeList edges;
  CsrGraph csr;
  PagedGraph paged;
  std::unique_ptr<PageStore> store;

  explicit Fixture(int scale = 9, double ef = 8, uint64_t seed = 5) {
    RmatParams p;
    p.scale = scale;
    p.edge_factor = ef;
    p.seed = seed;
    edges = std::move(GenerateRmat(p)).ValueOrDie();
    csr = CsrGraph::FromEdgeList(edges);
    paged = std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
    store = MakeInMemoryStore(&paged);
  }

  MachineConfig Machine(int gpus = 1) const {
    MachineConfig m = MachineConfig::PaperScaled(gpus);
    m.device_memory = 32 * kMiB;
    return m;
  }

  VertexId Source() const {
    VertexId best = 0;
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      if (csr.out_degree(v) > csr.out_degree(best)) best = v;
    }
    return best;
  }
};

/// Asserts one pass's analysis block is clean: the validator ran and
/// found nothing, and -- when the build carries the detector -- the race
/// check ran, observed traffic, and found nothing.
void ExpectClean(const RunReport& report, const std::string& what) {
  const RaceReport& analysis = report.metrics.analysis;
  EXPECT_TRUE(analysis.validator_ran) << what;
  EXPECT_GT(analysis.schedule_checks, 0u) << what;
  EXPECT_EQ(analysis.violations_detected, 0u)
      << what << ":\n" << analysis.ToString();
  if (analysis::kRaceCheckCompiled) {
    EXPECT_TRUE(analysis.race_check_ran) << what;
    EXPECT_GT(analysis.wa_accesses, 0u) << what;
    EXPECT_EQ(analysis.races_detected, 0u)
        << what << ":\n" << analysis.ToString();
  }
  EXPECT_TRUE(analysis.clean()) << what;
}

void RunAllAlgorithms(const Fixture& f, GtsOptions opts,
                      const std::string& what, int gpus = 1) {
  const VertexId source = f.Source();
  // BC is single-GPU only (it merges sigma across replicas).
  const bool include_bc = gpus == 1;
  {
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(gpus), opts);
    auto bfs = RunBfsGts(engine, source);
    ASSERT_TRUE(bfs.ok()) << what << ": " << bfs.status().ToString();
    ExpectClean(bfs->report, what + "/bfs");
  }
  {
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(gpus), opts);
    auto sssp = RunSsspGts(engine, source);
    ASSERT_TRUE(sssp.ok()) << what << ": " << sssp.status().ToString();
    ExpectClean(sssp->report, what + "/sssp");
  }
  if (include_bc) {
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(gpus), opts);
    auto bc = RunBcGts(engine, source);
    ASSERT_TRUE(bc.ok()) << what << ": " << bc.status().ToString();
    ExpectClean(bc->report, what + "/bc");
  }
  {
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(gpus), opts);
    auto pr = RunPageRankGts(engine, {.iterations = 2});
    ASSERT_TRUE(pr.ok()) << what << ": " << pr.status().ToString();
    ExpectClean(pr->report, what + "/pagerank");
  }
}

/// The positive sweep: all four shipped kernels, every page-order x
/// stream-assign combination from tests/dispatch_test.cc. Any logical
/// race or impossible timeline here is an engine or kernel bug.
TEST(RaceSweepTest, ShippedKernelsCleanAcrossDispatchPolicies) {
  Fixture f;
  const PageOrderKind orders[] = {
      PageOrderKind::kSpThenLp, PageOrderKind::kInterleaved,
      PageOrderKind::kCacheAffinity, PageOrderKind::kFrontierDensity};
  const StreamAssignKind assigns[] = {StreamAssignKind::kRoundRobin,
                                      StreamAssignKind::kSticky};
  for (PageOrderKind order : orders) {
    for (StreamAssignKind assign : assigns) {
      GtsOptions opts;
      opts.num_streams = 4;
      opts.dispatch.order = order;
      opts.dispatch.stream_assign = assign;
      const std::string what =
          std::string(PageOrderKindName(order)) + "+" +
          std::string(StreamAssignKindName(assign));
      RunAllAlgorithms(f, opts, what);
    }
  }
}

TEST(RaceSweepTest, MultiGpuPartitionsClean) {
  Fixture f;
  const GpuPartitionKind partitions[] = {GpuPartitionKind::kStrategyDefault,
                                         GpuPartitionKind::kRoundRobin,
                                         GpuPartitionKind::kDegreeBalanced};
  for (GpuPartitionKind partition : partitions) {
    GtsOptions opts;
    opts.num_streams = 4;
    opts.dispatch.partition = partition;
    RunAllAlgorithms(f, opts,
                     "strategy-p/" +
                         std::string(GpuPartitionKindName(partition)),
                     /*gpus=*/2);
  }
  GtsOptions s_opts;
  s_opts.strategy = Strategy::kScalability;
  s_opts.num_streams = 4;
  RunAllAlgorithms(f, s_opts, "strategy-s", /*gpus=*/2);
}

TEST(RaceSweepTest, StreamThreadsAndHybridClean) {
  Fixture f;
  {
    GtsOptions opts;
    opts.num_streams = 4;
    opts.use_stream_threads = true;
    RunAllAlgorithms(f, opts, "stream-threads");
  }
  {
    GtsOptions opts;
    opts.num_streams = 4;
    opts.cpu_assist_fraction = 0.25;
    RunAllAlgorithms(f, opts, "hybrid");
  }
}

/// Work-stealing pull dispatch under real stream threads: single GPU
/// (same-GPU stream steals), two GPUs under Strategy-P (cross-GPU steals
/// are legal -- WA is replicated), and two GPUs under Strategy-S (items
/// are gpu_bound, so steals stay inside each GPU). Every run's R9 claim
/// audit and -- when compiled in -- the WA race detector must be clean.
TEST(RaceSweepTest, WorkStealingDispatchClean) {
  Fixture f;
  GtsOptions opts;
  opts.num_streams = 4;
  opts.use_stream_threads = true;
  opts.dispatch.work_stealing = true;
  RunAllAlgorithms(f, opts, "work-stealing");
  RunAllAlgorithms(f, opts, "work-stealing-2gpu", /*gpus=*/2);

  GtsOptions s_opts = opts;
  s_opts.strategy = Strategy::kScalability;
  RunAllAlgorithms(f, s_opts, "work-stealing-strategy-s", /*gpus=*/2);

  // Stealing combined with CPU co-processing: assist pages are carved
  // off before the queue is published, so the claim audit still covers
  // exactly the GPU-bound remainder.
  GtsOptions h_opts = opts;
  h_opts.cpu_assist_fraction = 0.25;
  RunAllAlgorithms(f, h_opts, "work-stealing-hybrid");
}

/// Multi-job batch epochs: mixes of BFS, SSSP and PageRank submitted
/// together as 2- and 4-job batches on 1 and 2 GPUs, through the inline
/// push loop and (4 jobs, 2 GPUs) the pull loop. Jobs share page
/// transfers, the cache and the stream lanes but own their WA replicas,
/// which the detector shadows per job and GPU. Every job's analysis
/// block -- the validator with the J1 job-isolation rule and, when
/// compiled in, the race detector -- must be clean.
TEST(RaceSweepTest, MultiJobBatchesClean) {
  Fixture f;
  const VertexId n = f.paged.num_vertices();
  const VertexId source = f.Source();
  enum class Kind { kBfs, kSssp, kPageRank };
  struct Mix {
    int gpus;
    bool pull;
    std::vector<Kind> kinds;
  };
  const std::vector<Mix> mixes = {
      {1, false, {Kind::kBfs, Kind::kPageRank}},
      {2, false, {Kind::kSssp, Kind::kPageRank}},
      {1, false, {Kind::kBfs, Kind::kSssp, Kind::kPageRank, Kind::kBfs}},
      {2, false, {Kind::kBfs, Kind::kSssp, Kind::kPageRank, Kind::kSssp}},
      {2, true, {Kind::kBfs, Kind::kSssp, Kind::kPageRank, Kind::kBfs}},
  };
  for (const Mix& mix : mixes) {
    const int jobs = static_cast<int>(mix.kinds.size());
    GtsOptions opts;
    opts.num_streams = 4;
    opts.max_concurrent_jobs = jobs;
    opts.dispatch.work_stealing = true;
    opts.use_stream_threads = mix.pull;
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(mix.gpus), opts);
    std::vector<std::unique_ptr<GtsKernel>> kernels;
    std::vector<JobHandle> handles;
    for (int j = 0; j < jobs; ++j) {
      JobOptions job;
      job.source = (source + static_cast<VertexId>(j)) % n;
      switch (mix.kinds[static_cast<size_t>(j)]) {
        case Kind::kBfs:
          kernels.push_back(std::make_unique<BfsKernel>(n, job.source));
          break;
        case Kind::kSssp:
          kernels.push_back(std::make_unique<SsspKernel>(n, job.source));
          break;
        case Kind::kPageRank: {
          auto pr = std::make_unique<PageRankKernel>(n);
          pr->BeginIteration();
          kernels.push_back(std::move(pr));
          break;
        }
      }
      handles.push_back(engine.scheduler().Submit(kernels.back().get(), job));
    }
    const std::string what = std::to_string(jobs) + " jobs/" +
                             std::to_string(mix.gpus) + " gpu" +
                             (mix.pull ? "/pull" : "/push");
    double makespan = -1.0;
    for (int j = 0; j < jobs; ++j) {
      Result<RunReport> report = handles[static_cast<size_t>(j)].Wait();
      ASSERT_TRUE(report.ok()) << what << ": " << report.status().ToString();
      ExpectClean(*report, what + "/job" + std::to_string(j));
      // One epoch served them all (no deferral on this machine).
      if (makespan < 0) makespan = report->metrics.sim_seconds;
      EXPECT_EQ(report->metrics.sim_seconds, makespan) << what;
    }
  }
}

TEST(RaceSweepTest, AnalysisCountersPublish) {
  Fixture f;
  GtsOptions opts;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  auto bfs = RunBfsGts(engine, f.Source());
  ASSERT_TRUE(bfs.ok());
  const auto snapshot = engine.metrics_registry()->Snapshot();
  ASSERT_TRUE(snapshot.count("analysis.schedule_checks"));
  EXPECT_GT(snapshot.at("analysis.schedule_checks").count, 0u);
  ASSERT_TRUE(snapshot.count("analysis.schedule_violations"));
  EXPECT_EQ(snapshot.at("analysis.schedule_violations").count, 0u);
  if (analysis::kRaceCheckCompiled) {
    ASSERT_TRUE(snapshot.count("analysis.wa_accesses"));
    EXPECT_GT(snapshot.at("analysis.wa_accesses").count, 0u);
    ASSERT_TRUE(snapshot.count("analysis.races"));
    EXPECT_EQ(snapshot.at("analysis.races").count, 0u);
  }
}

// ------------------------------------------ seeded end-to-end negative

/// A deliberately racy scan kernel: every invocation hammers the first
/// WA word of the replica -- even invocations with a CAS, odd ones with a
/// plain store (and a plain read) -- so any opposite-parity pair landing
/// on different streams is an unordered plain/atomic conflict on one
/// granule. With >= 2 streams the round-robin assignment guarantees
/// adjacent invocations run on different stream lanes.
class SeededRaceKernel final : public GtsKernel {
 public:
  explicit SeededRaceKernel(VertexId num_vertices) : sum_(num_vertices, 0) {}

  std::string name() const override { return "SeededRace"; }
  AccessPattern access_pattern() const override {
    return AccessPattern::kFullScan;
  }
  uint32_t wa_bytes_per_vertex() const override { return sizeof(uint32_t); }
  uint32_t ra_bytes_per_vertex() const override { return 0; }
  double seconds_per_mem_transaction(const TimeModel& model) const override {
    return model.mem_transaction_seconds_traversal;
  }

  void InitDeviceWa(uint8_t* device_wa, VertexId begin,
                    VertexId end) const override {
    std::memset(device_wa, 0, (end - begin) * sizeof(uint32_t));
  }
  void AbsorbDeviceWa(const uint8_t* device_wa, VertexId begin,
                      VertexId end) override {
    const auto* dev = reinterpret_cast<const uint32_t*>(device_wa);
    for (VertexId v = begin; v < end; ++v) sum_[v] += dev[v - begin];
  }

  WorkStats RunSp(const PageView& page, KernelContext& ctx) override {
    return Hammer(page, ctx);
  }
  WorkStats RunLp(const PageView& page, KernelContext& ctx) override {
    return Hammer(page, ctx);
  }

 private:
  WorkStats Hammer(const PageView& page, KernelContext& ctx) {
    (void)page;
    WorkStats stats;
    auto* wa = ctx.WaAs<uint32_t>();
    uint32_t& word = wa[0];
    if (calls_.fetch_add(1, std::memory_order_relaxed) % 2 == 0) {
      uint32_t expected = ctx.WaLoad(word);
      ctx.WaCas(word, expected, expected + 1);
    } else {
      ctx.WaStore(word, ctx.WaRead(word) + 1);  // the seeded bug
    }
    ++stats.wa_updates;
    stats.scanned_slots = 1;
    stats.active_vertices = 1;
    stats.warp_cycles = 1;
    stats.mem_transactions = 1;
    return stats;
  }

  std::atomic<uint64_t> calls_{0};
  std::vector<uint32_t> sum_;
};

TEST(SeededRaceTest, PlainStoreRacingPeerCasIsFlaggedEndToEnd) {
  if (!analysis::kRaceCheckCompiled) {
    GTEST_SKIP() << "build carries -DGTS_RACE_CHECK=OFF";
  }
  Fixture f;
  GtsOptions opts;
  opts.num_streams = 4;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  SeededRaceKernel kernel(f.paged.num_vertices());
  auto run = engine.Run(&kernel);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const RaceReport& report = run->analysis;
  EXPECT_TRUE(report.race_check_ran);
  EXPECT_GT(report.races_detected, 0u);
  ASSERT_FALSE(report.races.empty());
  // Diagnostics carry the two conflicting accesses' stream, page, and
  // simulated timestamp.
  const analysis::Race& race = report.races.front();
  EXPECT_EQ(race.domain, "gpu0.wa");
  EXPECT_NE(race.first.lane, race.second.lane);
  EXPECT_GE(race.first.stream_key, 0);
  EXPECT_GE(race.second.stream_key, 0);
  EXPECT_NE(race.first.page, kInvalidPageId);
  EXPECT_NE(race.second.page, kInvalidPageId);
  EXPECT_GE(race.first.sim_time, 0.0);
  EXPECT_GE(race.second.sim_time, 0.0);
}

TEST(SeededRaceTest, FailOnRaceEscalatesToRunError) {
  if (!analysis::kRaceCheckCompiled) {
    GTEST_SKIP() << "build carries -DGTS_RACE_CHECK=OFF";
  }
  Fixture f;
  GtsOptions opts;
  opts.num_streams = 4;
  opts.analysis.fail_on_race = true;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  SeededRaceKernel kernel(f.paged.num_vertices());
  auto run = engine.Run(&kernel);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().ToString().find("race"), std::string::npos);
}

TEST(SeededRaceTest, DisablingTheDetectorSilencesIt) {
  if (!analysis::kRaceCheckCompiled) {
    GTEST_SKIP() << "build carries -DGTS_RACE_CHECK=OFF";
  }
  Fixture f;
  GtsOptions opts;
  opts.num_streams = 4;
  opts.analysis.race_check = false;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  SeededRaceKernel kernel(f.paged.num_vertices());
  auto run = engine.Run(&kernel);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->analysis.race_check_ran);
  EXPECT_EQ(run->analysis.races_detected, 0u);
}

}  // namespace
}  // namespace gts
