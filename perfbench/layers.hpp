// Outside-in layer timing for the traced benchmark runs.
//
// Every class here wraps one public boundary of the engine and records a
// span per call into a SpanLog; none of them changes what the wrapped
// layer does. The engine is single-host-threaded on its builder side (the
// VM, minomp and the segment builder are cooperative), so every span
// lands on one thread and nesting is a plain stack. Scan workers are not
// traced; their cost is the process CPU the harness thread did not spend.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/graph_builder.hpp"
#include "core/taskgrind.hpp"
#include "runtime/events.hpp"
#include "runtime/runtime.hpp"
#include "runtime/schedule.hpp"
#include "vex/tool.hpp"
#include "vex/vm.hpp"

namespace perfbench {

/// Span names. Each layer boundary the harness wraps has one.
enum class SpanName : uint8_t {
  kSession,    // guest build to canonical findings (one per traced leg)
  kSetup,      // guest build + engine construction
  kExec,       // Execution::run
  kFinish,     // run_analysis / finalize + StreamingAnalyzer::finish
  kIntrinsic,  // Runtime::on_intrinsic
  kEvent,      // one OMPT event / one SegmentGraphBuilder event call
  kAccess,     // one SegmentGraphBuilder::record_access (mesh driver only)
  kClose,      // SegmentSink::segment_closed
  kFrontier,   // SegmentSink::frontier_advanced (retirement sweep)
  kFutureEdge, // SegmentSink::future_edge
  kCount,
};

const char* span_name(SpanName name);

/// In-memory span store: name, start, end and the enclosing span. Spans
/// are appended in start order, so a span's children follow it.
class SpanLog {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    SpanName name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Per-name totals: calls, inclusive time and self time (inclusive
  /// minus the time covered by direct children).
  struct Totals {
    uint64_t count = 0;
    int64_t inclusive_ns = 0;
    int64_t self_ns = 0;
  };

  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  uint32_t begin(SpanName name) {
    const uint32_t parent = open_.empty() ? kNoParent : open_.back();
    const auto index = static_cast<uint32_t>(spans_.size());
    spans_.push_back({name, parent, now_ns(), 0});
    open_.push_back(index);
    return index;
  }

  void end(uint32_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Totals> totals() const;
  /// Seconds of one closed span.
  double seconds(uint32_t index) const {
    return static_cast<double>(spans_[index].end_ns -
                               spans_[index].start_ns) * 1e-9;
  }
  /// Writes one tab-separated line per span (index, name, parent, start
  /// and end in ns relative to the first span). Returns false on IO error.
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// Scoped span.
class Scope {
 public:
  Scope(SpanLog& log, SpanName name) : log_(log), index_(log.begin(name)) {}
  ~Scope() { log_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  uint32_t index_;
};

/// rt::RtEvents decorator in front of the tool's OMPT adapter: one kEvent
/// span per runtime event, forwarded unchanged.
class TimedEvents final : public tg::rt::RtEvents {
 public:
  TimedEvents(tg::rt::RtEvents& inner, SpanLog& log)
      : inner_(inner), log_(log) {}
  TimedEvents(const TimedEvents&) = delete;
  TimedEvents& operator=(const TimedEvents&) = delete;

  void on_thread_begin(int tid) override;
  void on_parallel_begin(tg::rt::Region& region,
                         tg::rt::Task& encountering) override;
  void on_parallel_end(tg::rt::Region& region,
                       tg::rt::Task& encountering) override;
  void on_task_create(tg::rt::Task& task, tg::rt::Task* parent) override;
  void on_dependence(tg::rt::Task& pred, tg::rt::Task& succ,
                     tg::vex::GuestAddr addr) override;
  void on_task_schedule_begin(tg::rt::Task& task,
                              tg::rt::Worker& worker) override;
  void on_task_schedule_end(tg::rt::Task& task,
                            tg::rt::Worker& worker) override;
  void on_task_complete(tg::rt::Task& task) override;
  void on_sync_begin(tg::rt::SyncKind kind, tg::rt::Task& task,
                     tg::rt::Worker& worker) override;
  void on_sync_end(tg::rt::SyncKind kind, tg::rt::Task& task,
                   tg::rt::Worker& worker) override;
  void on_taskgroup_begin(tg::rt::Task& task) override;
  void on_barrier_arrive(tg::rt::Region& region, tg::rt::Worker& worker,
                         uint64_t epoch) override;
  void on_barrier_release(tg::rt::Region& region, uint64_t epoch) override;
  void on_mutex_acquired(tg::rt::Task& task, uint64_t mutex_id,
                         bool task_level) override;
  void on_mutex_released(tg::rt::Task& task, uint64_t mutex_id,
                         bool task_level) override;
  void on_threadprivate(tg::rt::Task& task, uint32_t var,
                        tg::vex::GuestAddr addr) override;
  void on_feb_release(tg::rt::Task& task, tg::vex::GuestAddr addr,
                      bool full_channel) override;
  void on_feb_acquire(tg::rt::Task& task, tg::vex::GuestAddr addr,
                      bool full_channel) override;
  void on_task_detach(tg::rt::Task& task) override;
  void on_task_fulfill(tg::rt::Task& task, tg::rt::Worker& fulfiller) override;
  void on_future_create(tg::rt::Task& task, uint64_t future_id) override;
  void on_future_get(tg::rt::Task& getter, tg::rt::Task& future_task,
                     uint64_t future_id, tg::rt::Worker& worker) override;

 private:
  tg::rt::RtEvents& inner_;
  SpanLog& log_;
};

/// core::SegmentSink decorator in front of the streaming engine.
class TimedSink final : public tg::core::SegmentSink {
 public:
  TimedSink(tg::core::SegmentSink& inner, SpanLog& log)
      : inner_(inner), log_(log) {}
  TimedSink(const TimedSink&) = delete;
  TimedSink& operator=(const TimedSink&) = delete;

  void segment_closed(tg::core::SegId id) override;
  void frontier_advanced(
      const std::vector<tg::core::SegId>& frontier) override;
  void future_edge(tg::core::SegId from, tg::core::SegId to) override;

 private:
  tg::core::SegmentSink& inner_;
  SpanLog& log_;
};

/// Decorator on Runtime::on_intrinsic, installed with
/// Vm::set_intrinsic_handler after the runtime registered itself.
class TimedIntrinsics final : public tg::vex::IntrinsicHandler {
 public:
  TimedIntrinsics(tg::rt::Runtime& runtime, SpanLog& log)
      : runtime_(runtime), log_(log) {}
  TimedIntrinsics(const TimedIntrinsics&) = delete;
  TimedIntrinsics& operator=(const TimedIntrinsics&) = delete;

  Result on_intrinsic(tg::vex::HostCtx& ctx, tg::vex::IntrinsicId id,
                      std::span<const tg::vex::Value> args,
                      std::span<const int64_t> iargs) override;

 private:
  tg::rt::Runtime& runtime_;
  SpanLog& log_;
};

/// Observe-only schedule port: counts the live scheduler's decisions and
/// never drives it.
class CountingPort final : public tg::rt::SchedulePort {
 public:
  bool driving() const override { return false; }
  void observe_decision(int worker,
                        const tg::rt::SchedDecision& decision) override;
  tg::rt::SchedDecision next_decision(int worker) override;
  void replay_mismatch(int worker, const tg::rt::SchedDecision& decision,
                       const char* why) override;

  uint64_t decisions() const { return decisions_; }
  uint64_t steals() const { return steals_; }

 private:
  uint64_t decisions_ = 0;  // decisions that picked a task
  uint64_t steals_ = 0;
};

/// The pass-through leg's tool: the same instrumentation sets and function
/// replacements as `decisions`, but every access callback is the empty
/// vex::Tool default. Running it costs the VM's callback dispatch and
/// nothing of the recording path.
class PassThroughTool final : public tg::vex::Tool {
 public:
  explicit PassThroughTool(tg::core::TaskgrindTool& decisions)
      : decisions_(decisions) {}

  std::string_view name() const override { return "passthrough"; }
  tg::vex::InstrumentationSet instrumentation_for(
      const tg::vex::Function& fn) override {
    return decisions_.instrumentation_for(fn);
  }
  std::optional<tg::vex::HostFn> replace_function(
      std::string_view symbol) override {
    return decisions_.replace_function(symbol);
  }

 private:
  tg::core::TaskgrindTool& decisions_;
};

}  // namespace perfbench
