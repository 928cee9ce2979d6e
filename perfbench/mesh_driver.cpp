#include "mesh_driver.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/graph_builder.hpp"
#include "core/report.hpp"
#include "core/segment_stream.hpp"
#include "core/streaming.hpp"
#include "runtime/task.hpp"

namespace perfbench {

using tg::core::SegId;
using tg::core::kNoId;
namespace core = tg::core;
namespace rt = tg::rt;
namespace vex = tg::vex;

namespace {

// The address plan and source lines of core/dense_mesh.cpp. Any change
// there changes the identity or retire digest, which the harness checks.
constexpr uint64_t kLaneStride = 0x1000;
constexpr uint64_t kLaneBase = 0x10000;
constexpr uint64_t kChanBase = 0x40000;
constexpr uint64_t kLagChan = 0x60000;
constexpr uint64_t kRaceWord = 0x70000;

uint64_t cell(uint32_t k) { return kLaneBase + k * kLaneStride; }
uint64_t bnd_right(uint32_t k) { return kLaneBase + k * kLaneStride + 0x40; }
uint64_t bnd_left(uint32_t k) { return kLaneBase + k * kLaneStride + 0x48; }
uint64_t chan_right(uint32_t k) { return kChanBase + k * 0x10; }
uint64_t chan_left(uint32_t k) { return kChanBase + k * 0x10 + 0x8; }

vex::SrcLoc lane_loc(uint32_t k) { return {0, 10 + k}; }
vex::SrcLoc race_loc(uint32_t k) { return {0, 200 + k}; }

std::string hex16(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

const vex::Program& mesh_program() {
  // Reports resolve file names through this program, so it outlives them.
  static const vex::Program program = [] {
    vex::Program p;
    p.files = {"dense-mesh.c"};
    return p;
  }();
  return program;
}

MeshEngine make_mesh_engine(std::vector<SegId>& retired_ids) {
  MeshEngine engine;
  engine.builder = std::make_unique<core::SegmentGraphBuilder>();
  engine.builder->graph().enable_predecessor_index(true);
  engine.streamer = std::make_unique<core::StreamingAnalyzer>(
      engine.builder->graph(), mesh_program(), /*allocs=*/nullptr,
      core::AnalysisOptions{});
  engine.streamer->set_open_fp_provider(
      [b = engine.builder.get()](uint64_t* words) {
        b->accumulate_open_fingerprints(words);
      });
  engine.streamer->set_retire_probe(
      [&retired_ids](SegId id, size_t) { retired_ids.push_back(id); });
  engine.builder->set_sink(engine.streamer.get());
  return engine;
}

std::string keys_identity(const std::vector<std::string>& keys) {
  std::string joined;
  for (const std::string& key : keys) {
    joined += key;
    joined += '\n';
  }
  return hex16(core::segment_stream_fnv1a(
      {reinterpret_cast<const uint8_t*>(joined.data()), joined.size()}));
}

std::string findings_identity(const std::vector<core::RaceReport>& reports) {
  std::vector<std::string> keys;
  keys.reserve(reports.size());
  for (const core::RaceReport& report : reports) {
    keys.push_back(core::report_dedup_key(report));
  }
  return keys_identity(keys);
}

std::string retire_digest(std::vector<SegId>& ids) {
  std::sort(ids.begin(), ids.end());
  return hex16(core::segment_stream_fnv1a(
      {reinterpret_cast<const uint8_t*>(ids.data()),
       ids.size() * sizeof(SegId)}));
}

MeshTrace trace_dense_mesh(const core::DenseMeshSpec& spec, SpanLog& log) {
  const uint32_t W = spec.lanes;
  const uint32_t M = spec.steps;
  const uint32_t K = spec.period();
  const uint64_t lag_task = W;
  uint64_t next_ticker = W + 1;

  MeshTrace out;
  std::vector<SegId> retired_ids;
  out.session_span = log.begin(SpanName::kSession);
  out.setup_span = log.begin(SpanName::kSetup);
  MeshEngine engine = make_mesh_engine(retired_ids);
  TimedSink sink(*engine.streamer, log);
  engine.builder->set_sink(&sink);
  log.end(out.setup_span);

  core::SegmentGraphBuilder& b = *engine.builder;
  auto event = [&](auto&& call) {
    Scope scope(log, SpanName::kEvent);
    call();
  };
  auto access = [&](uint32_t k, uint64_t addr, bool is_write,
                    vex::SrcLoc loc) {
    Scope scope(log, SpanName::kAccess);
    b.record_access(static_cast<int>(k), addr, 8, is_write, loc);
  };

  const uint32_t exec = log.begin(SpanName::kExec);
  event([&] { b.task_create(0, kNoId, rt::TaskFlags::kImplicit, kNoId,
                            {0, 1}); });
  event([&] { b.schedule_begin(0, 0); });
  for (uint32_t k = 1; k < W; ++k) {
    event([&] { b.task_create(k, 0, 0, kNoId, {0, 2}); });
    event([&] { b.schedule_begin(k, static_cast<int>(k)); });
  }
  event([&] { b.task_create(lag_task, 0, 0, kNoId, {0, 3}); });
  event([&] { b.schedule_begin(lag_task, static_cast<int>(W)); });

  for (uint32_t j = 0; j < M; ++j) {
    const bool lag_sync = (j % K) == K - 1;
    if (j > 0) {
      for (uint32_t k = 0; k < W; ++k) {
        if (k + 1 < W) event([&] { b.feb_acquire(k, chan_right(k), false); });
        if (k > 0) event([&] { b.feb_acquire(k, chan_left(k), false); });
      }
    }
    for (uint32_t k = 0; k < W; ++k) {
      access(k, cell(k), true, lane_loc(k));
      if (k + 1 < W) access(k, bnd_right(k), true, lane_loc(k));
      if (k > 0) access(k, bnd_left(k), true, lane_loc(k));
    }
    for (uint32_t k = 0; k < W; ++k) {
      if (k + 1 < W) event([&] { b.feb_release(k, chan_right(k), true); });
      if (k > 0) event([&] { b.feb_release(k, chan_left(k), true); });
    }
    if (lag_sync) event([&] { b.feb_release(0, kLagChan, true); });
    for (uint32_t k = 0; k < W; ++k) {
      if (k > 0) event([&] { b.feb_acquire(k, chan_right(k - 1), true); });
      if (k + 1 < W) event([&] { b.feb_acquire(k, chan_left(k + 1), true); });
      if (k > 0) access(k, bnd_right(k - 1), false, lane_loc(k));
      if (k + 1 < W) access(k, bnd_left(k + 1), false, lane_loc(k));
      if (k > 0) event([&] { b.feb_release(k, chan_right(k - 1), false); });
      if (k + 1 < W) {
        event([&] { b.feb_release(k, chan_left(k + 1), false); });
      }
    }
    if (lag_sync) event([&] { b.feb_acquire(lag_task, kLagChan, true); });
    event([&] { b.task_create(next_ticker, 0, 0, kNoId, {0, 4}); });
    event([&] { b.task_complete(next_ticker); });
    ++next_ticker;
  }

  if (spec.racy) {
    for (uint32_t k = 0; k < W; ++k) {
      access(k, kRaceWord, true, race_loc(k));
    }
  }

  for (uint32_t k = 1; k < W; ++k) event([&] { b.task_complete(k); });
  event([&] { b.task_complete(lag_task); });
  event([&] { b.sync_begin(rt::SyncKind::kTaskwait, 0, 0); });
  event([&] { b.sync_end(rt::SyncKind::kTaskwait, 0, 0); });
  event([&] { b.task_complete(0); });
  log.end(exec);

  const uint32_t finish = log.begin(SpanName::kFinish);
  b.finalize();
  out.result = engine.streamer->finish();
  log.end(finish);

  out.identity = findings_identity(out.result.reports);
  out.retire_digest = retire_digest(retired_ids);
  // run_dense_mesh's callers pay the engine teardown (scan worker join,
  // tree release) inside the call, so the traced session does too.
  engine.streamer.reset();
  engine.builder.reset();
  log.end(out.session_span);
  return out;
}

}  // namespace perfbench
