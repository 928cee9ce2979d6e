#include "layers.hpp"

#include <cstdio>

namespace perfbench {

using tg::core::SegId;
namespace rt = tg::rt;
namespace vex = tg::vex;

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kSession: return "session";
    case SpanName::kSetup: return "setup";
    case SpanName::kExec: return "exec";
    case SpanName::kFinish: return "finish";
    case SpanName::kIntrinsic: return "runtime.intrinsic";
    case SpanName::kEvent: return "graph_builder.event";
    case SpanName::kAccess: return "instrument.access";
    case SpanName::kClose: return "streaming.close";
    case SpanName::kFrontier: return "streaming.frontier";
    case SpanName::kFutureEdge: return "streaming.future_edge";
    case SpanName::kCount: break;
  }
  return "?";
}

std::vector<SpanLog::Totals> SpanLog::totals() const {
  std::vector<Totals> out(static_cast<size_t>(SpanName::kCount));
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Totals& totals = out[static_cast<size_t>(span.name)];
    const int64_t inclusive = span.end_ns - span.start_ns;
    ++totals.count;
    totals.inclusive_ns += inclusive;
    totals.self_ns += inclusive - child_ns[i];
  }
  return out;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "index\tname\tparent\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const long long parent =
        span.parent == kNoParent ? -1 : static_cast<long long>(span.parent);
    std::fprintf(file, "%zu\t%s\t%lld\t%lld\t%lld\n", i,
                 span_name(span.name), parent,
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin));
  }
  return std::fclose(file) == 0;
}

// --- TimedEvents ------------------------------------------------------------

void TimedEvents::on_thread_begin(int tid) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_thread_begin(tid);
}

void TimedEvents::on_parallel_begin(rt::Region& region,
                                    rt::Task& encountering) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_parallel_begin(region, encountering);
}

void TimedEvents::on_parallel_end(rt::Region& region, rt::Task& encountering) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_parallel_end(region, encountering);
}

void TimedEvents::on_task_create(rt::Task& task, rt::Task* parent) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_task_create(task, parent);
}

void TimedEvents::on_dependence(rt::Task& pred, rt::Task& succ,
                                vex::GuestAddr addr) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_dependence(pred, succ, addr);
}

void TimedEvents::on_task_schedule_begin(rt::Task& task, rt::Worker& worker) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_task_schedule_begin(task, worker);
}

void TimedEvents::on_task_schedule_end(rt::Task& task, rt::Worker& worker) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_task_schedule_end(task, worker);
}

void TimedEvents::on_task_complete(rt::Task& task) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_task_complete(task);
}

void TimedEvents::on_sync_begin(rt::SyncKind kind, rt::Task& task,
                                rt::Worker& worker) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_sync_begin(kind, task, worker);
}

void TimedEvents::on_sync_end(rt::SyncKind kind, rt::Task& task,
                              rt::Worker& worker) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_sync_end(kind, task, worker);
}

void TimedEvents::on_taskgroup_begin(rt::Task& task) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_taskgroup_begin(task);
}

void TimedEvents::on_barrier_arrive(rt::Region& region, rt::Worker& worker,
                                    uint64_t epoch) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_barrier_arrive(region, worker, epoch);
}

void TimedEvents::on_barrier_release(rt::Region& region, uint64_t epoch) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_barrier_release(region, epoch);
}

void TimedEvents::on_mutex_acquired(rt::Task& task, uint64_t mutex_id,
                                    bool task_level) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_mutex_acquired(task, mutex_id, task_level);
}

void TimedEvents::on_mutex_released(rt::Task& task, uint64_t mutex_id,
                                    bool task_level) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_mutex_released(task, mutex_id, task_level);
}

void TimedEvents::on_threadprivate(rt::Task& task, uint32_t var,
                                   vex::GuestAddr addr) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_threadprivate(task, var, addr);
}

void TimedEvents::on_feb_release(rt::Task& task, vex::GuestAddr addr,
                                 bool full_channel) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_feb_release(task, addr, full_channel);
}

void TimedEvents::on_feb_acquire(rt::Task& task, vex::GuestAddr addr,
                                 bool full_channel) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_feb_acquire(task, addr, full_channel);
}

void TimedEvents::on_task_detach(rt::Task& task) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_task_detach(task);
}

void TimedEvents::on_task_fulfill(rt::Task& task, rt::Worker& fulfiller) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_task_fulfill(task, fulfiller);
}

void TimedEvents::on_future_create(rt::Task& task, uint64_t future_id) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_future_create(task, future_id);
}

void TimedEvents::on_future_get(rt::Task& getter, rt::Task& future_task,
                                uint64_t future_id, rt::Worker& worker) {
  Scope scope(log_, SpanName::kEvent);
  inner_.on_future_get(getter, future_task, future_id, worker);
}

// --- TimedSink --------------------------------------------------------------

void TimedSink::segment_closed(SegId id) {
  Scope scope(log_, SpanName::kClose);
  inner_.segment_closed(id);
}

void TimedSink::frontier_advanced(const std::vector<SegId>& frontier) {
  Scope scope(log_, SpanName::kFrontier);
  inner_.frontier_advanced(frontier);
}

void TimedSink::future_edge(SegId from, SegId to) {
  Scope scope(log_, SpanName::kFutureEdge);
  inner_.future_edge(from, to);
}

// --- TimedIntrinsics --------------------------------------------------------

vex::IntrinsicHandler::Result TimedIntrinsics::on_intrinsic(
    vex::HostCtx& ctx, vex::IntrinsicId id, std::span<const vex::Value> args,
    std::span<const int64_t> iargs) {
  Scope scope(log_, SpanName::kIntrinsic);
  return runtime_.on_intrinsic(ctx, id, args, iargs);
}

// --- CountingPort -----------------------------------------------------------

void CountingPort::observe_decision(int, const rt::SchedDecision& decision) {
  if (decision.source == rt::SchedDecision::Source::kNone) return;
  ++decisions_;
  if (decision.source == rt::SchedDecision::Source::kSteal) ++steals_;
}

rt::SchedDecision CountingPort::next_decision(int) { return {}; }

void CountingPort::replay_mismatch(int, const rt::SchedDecision&,
                                   const char*) {}

}  // namespace perfbench
