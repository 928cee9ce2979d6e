// perfbench_harness: one benchmark child process.
//
//   perfbench_harness info
//   perfbench_harness sample <workload> <seed>
//   perfbench_harness trace  <workload> <seed> <spans.tsv>
//
// `sample` runs the workload once, untraced, on the path the CLI and the
// tests take (tools::run_session / core::run_dense_mesh), then times the
// set-up calls kSetupReps times. `trace` runs the workload with the layer
// decorators of layers.hpp in place, plus (LULESH) the kNone and
// pass-through substitution legs. Both print one JSON object on stdout and
// exit 0 only when the findings gate passed; run.py aggregates children.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/dense_mesh.hpp"
#include "core/streaming.hpp"
#include "core/taskgrind.hpp"
#include "layers.hpp"
#include "lulesh/lulesh.hpp"
#include "mesh_driver.hpp"
#include "runtime/execution.hpp"
#include "support/accounting.hpp"
#include "support/json.hpp"
#include "tools/session.hpp"

namespace perfbench {
namespace {

namespace core = tg::core;
namespace rt = tg::rt;
namespace tools = tg::tools;
namespace vex = tg::vex;

// --- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  bool mesh;
  tg::lulesh::LuleshParams lulesh;  // LULESH workloads
  int threads;
  uint64_t mesh_segments;           // dense-mesh
  // Findings gate. LULESH: deduplicated findings and raw conflicts after
  // suppression (what the CLI prints). Mesh: identity and retire digest.
  size_t findings;
  uint64_t raw_conflicts;
  const char* identity;
  const char* retire_digest;
};

tg::lulesh::LuleshParams racy_lulesh(int s, int tel, int tnl) {
  tg::lulesh::LuleshParams params;
  params.s = s;
  params.tel = tel;
  params.tnl = tnl;
  params.racy = true;
  return params;
}

const Workload kWorkloads[] = {
    // The paper's Table II / Fig. 4 program at its default decomposition:
    // VM dispatch and the access path dominate, streaming is < 2%.
    {"lulesh-coarse", false, racy_lulesh(24, 4, 4), 1, 0, 1, 28, "", ""},
    // Same guest, 128 tasks per loop on two workers: thousands of short
    // segments, work stealing, and the pair screen/scan side of streaming.
    {"lulesh-fine", false, racy_lulesh(16, 128, 128), 2, 0, 1, 876, "", ""},
    // No guest VM: a wide live window and a long history, so segment close,
    // retirement and memory that grows with history dominate.
    {"dense-mesh", true, {}, 0, 50'000, 0, 0, "ad6ca6306ef2e507",
     "3c2259c72d50686d"},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

// --- measurement helpers ----------------------------------------------------

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_now() { return clock_seconds(CLOCK_MONOTONIC); }
// User plus system CPU of every thread of the process, exited ones too.
double process_cpu() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

// The high-water mark of this process image's resident set (VmHWM).
// getrusage's ru_maxrss is not used: it also counts the pre-exec image,
// i.e. the launching process's footprint when it vforks.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;  // KiB -> MiB
}

double accounted_peak_mb() {
  return static_cast<double>(tg::MemAccountant::instance().peak()) /
         (1024.0 * 1024.0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

bool timeable_build() {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  return kOptimized && !kSanitized &&
         flags.find("-fsanitize") == std::string::npos &&
         flags.find("-O0") == std::string::npos;
}

tools::SessionOptions session_options(const Workload& w, uint64_t seed,
                                      tools::ToolKind tool) {
  tools::SessionOptions options;
  options.tool = tool;
  options.num_threads = w.threads;
  options.seed = seed;
  return options;
}

// The runtime configuration run_session derives from `options`.
rt::RtOptions runtime_options(const tools::SessionOptions& options) {
  rt::RtOptions rt_options;
  rt_options.num_threads = options.num_threads;
  rt_options.seed = options.seed;
  rt_options.quantum = options.quantum;
  rt_options.max_retired = options.max_retired;
  return rt_options;
}

/// One child's result: a flat JSON object, plus the first gate failure.
class Output {
 public:
  Output(const Workload& w, uint64_t seed) {
    json_.begin_object();
    json_.field("workload", w.name);
    json_.field("seed", seed);
  }
  template <typename T>
  void put(const char* key, T value) {
    json_.field(key, value);
  }
  tg::JsonWriter& json() { return json_; }
  void fail(const std::string& why) {
    if (error_.empty()) error_ = why;
  }
  int emit() {
    json_.field("ok", error_.empty());
    json_.field("error", error_);
    json_.end_object();
    std::printf("%s\n", json_.str().c_str());
    return error_.empty() ? 0 : 2;
  }

 private:
  tg::JsonWriter json_;
  std::string error_;
};

std::string mismatch(const char* what, const std::string& got,
                     const std::string& want) {
  return std::string(what) + " " + got + " != expected " + want;
}

/// The LULESH findings gate.
void check_lulesh(const Workload& w, size_t findings, uint64_t raw,
                  Output& out) {
  if (findings != w.findings) {
    out.fail(mismatch("findings", std::to_string(findings),
                      std::to_string(w.findings)));
  }
  if (raw != w.raw_conflicts) {
    out.fail(mismatch("raw conflicts", std::to_string(raw),
                      std::to_string(w.raw_conflicts)));
  }
}

/// The dense-mesh findings gate.
void check_mesh(const Workload& w, const std::string& identity,
                const std::string& digest, Output& out) {
  if (identity != w.identity) {
    out.fail(mismatch("identity", identity, w.identity));
  }
  if (digest != w.retire_digest) {
    out.fail(mismatch("retire digest", digest, w.retire_digest));
  }
}

// --- set-up, timed as its own calls -----------------------------------------

/// The engine tools::run_taskgrind_engine assembles, from the same public
/// calls: the built guest, the tool, and the execution with the tool
/// attached. With a SpanLog, the layer decorators go in place: TimedEvents
/// in front of the tool, CountingPort in RtOptions::sched, TimedSink in
/// front of the streamer and TimedIntrinsics on the VM.
struct LuleshEngine {
  LuleshEngine(const rt::GuestProgram& program,
               const tools::SessionOptions& options, SpanLog* log)
      : guest(std::make_unique<vex::Program>(program.build())),
        tool(std::make_unique<core::TaskgrindTool>(options.taskgrind)) {
    rt::RtOptions rt_options = runtime_options(options);
    rt::RtEvents* listener = tool.get();
    if (log != nullptr) {
      events = std::make_unique<TimedEvents>(*tool, *log);
      listener = events.get();
      rt_options.sched = &port;
    }
    exec = std::make_unique<rt::Execution>(
        *guest, rt_options, tool.get(), std::vector<rt::RtEvents*>{listener});
    tool->attach(exec->vm());
    if (log != nullptr) {
      sink = std::make_unique<TimedSink>(*tool->streamer(), *log);
      tool->builder().set_sink(sink.get());
      intrinsics = std::make_unique<TimedIntrinsics>(exec->runtime(), *log);
      exec->vm().set_intrinsic_handler(intrinsics.get());
    }
  }
  // The execution holds the address of `port`.
  LuleshEngine(const LuleshEngine&) = delete;
  LuleshEngine& operator=(const LuleshEngine&) = delete;

  std::unique_ptr<vex::Program> guest;
  std::unique_ptr<core::TaskgrindTool> tool;
  CountingPort port;
  std::unique_ptr<TimedEvents> events;
  std::unique_ptr<rt::Execution> exec;
  std::unique_ptr<TimedSink> sink;
  std::unique_ptr<TimedIntrinsics> intrinsics;
};

double lulesh_setup_seconds(const Workload& w, uint64_t seed) {
  const tools::SessionOptions options =
      session_options(w, seed, tools::ToolKind::kTaskgrind);
  const double start = wall_now();
  const rt::GuestProgram program = tg::lulesh::make_lulesh(w.lulesh);
  const LuleshEngine engine(program, options, nullptr);
  return wall_now() - start;  // the teardown that follows is not set-up
}

double mesh_setup_seconds() {
  const double start = wall_now();
  std::vector<core::SegId> retired_ids;
  const MeshEngine engine = make_mesh_engine(retired_ids);
  return wall_now() - start;
}

// --- sample: one untraced run -----------------------------------------------

// Set-up is a fixed amount of work, so each child reports the fastest of
// kSetupReps timings: the one least disturbed by other load.
constexpr int kSetupReps = 25;

int run_sample(const Workload& w, uint64_t seed) {
  Output out(w, seed);
  tg::MemAccountant::instance().reset();

  const double cpu0 = process_cpu();
  const double t0 = wall_now();
  uint64_t segments = 0;
  if (w.mesh) {
    const core::DenseMeshRun run = core::run_dense_mesh(
        core::DenseMeshSpec::for_segments(w.mesh_segments),
        core::AnalysisOptions{}, /*streaming=*/true);
    out.put("wall_s", wall_now() - t0);
    out.put("cpu_s", process_cpu() - cpu0);
    segments = run.result.stats.segments_active;
    out.put("findings", static_cast<uint64_t>(run.result.reports.size()));
    out.put("identity", run.identity);
    out.put("retire_digest", run.retire_digest);
    check_mesh(w, run.identity, run.retire_digest, out);
  } else {
    const rt::GuestProgram program = tg::lulesh::make_lulesh(w.lulesh);
    const tools::SessionResult result = tools::run_session(
        program, session_options(w, seed, tools::ToolKind::kTaskgrind));
    out.put("wall_s", wall_now() - t0);
    out.put("cpu_s", process_cpu() - cpu0);
    segments = result.analysis_stats.segments_active;
    out.put("findings", static_cast<uint64_t>(result.report_count));
    out.put("raw_conflicts", static_cast<uint64_t>(result.raw_report_count));
    out.put("identity", keys_identity(result.report_keys));
    out.put("guest_instrs", result.retired);
    if (result.status != tools::SessionResult::Status::kOk) {
      out.fail("session status is not ok: " + result.error);
    }
    check_lulesh(w, result.report_count, result.raw_report_count, out);
  }
  out.put("segments", segments);
  out.put("accounted_peak_mb", accounted_peak_mb());
  out.put("peak_rss_mb", peak_rss_mb());

  double setup_s = INFINITY;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_s = std::min(setup_s, w.mesh ? mesh_setup_seconds()
                                       : lulesh_setup_seconds(w, seed));
  }
  out.put("setup_s", setup_s);
  return out.emit();
}

// --- trace: one run with every layer decorator in place ---------------------

double self_s(const std::vector<SpanLog::Totals>& totals, SpanName name) {
  return static_cast<double>(totals[static_cast<size_t>(name)].self_ns) *
         1e-9;
}

double inclusive_s(const std::vector<SpanLog::Totals>& totals,
                   SpanName name) {
  return static_cast<double>(totals[static_cast<size_t>(name)].inclusive_ns) *
         1e-9;
}

uint64_t calls(const std::vector<SpanLog::Totals>& totals, SpanName name) {
  return totals[static_cast<size_t>(name)].count;
}

/// The guest's "final origin energy=" line; NaN when it is missing.
double guest_energy(const std::string& output) {
  const std::string tag = "final origin energy=";
  const size_t pos = output.rfind(tag);
  if (pos == std::string::npos) return NAN;
  return std::strtod(output.c_str() + pos + tag.size(), nullptr);
}

/// Emits the counts every traced workload shares: the streaming funnel and
/// memory counters from AnalysisStats, and the sink decorator's calls.
void put_streaming(const core::AnalysisStats& stats,
                   const std::vector<SpanLog::Totals>& totals, Output& out) {
  tg::JsonWriter& json = out.json();
  json.field("interval_set.peak_tree_bytes", stats.peak_tree_bytes);
  json.field("fingerprint.bytes", stats.fingerprint_bytes);
  json.field("streaming.closes", calls(totals, SpanName::kClose));
  json.field("streaming.sweeps", stats.retire_sweeps);
  json.field("streaming.sweep_visits", stats.retire_sweep_visits);
  json.field("streaming.pairs_generated", stats.pairs_total);
  json.field("streaming.pairs_never_generated", stats.pairs_never_generated);
  json.field("streaming.pairs_ordered", stats.pairs_ordered);
  json.field("pair_batch.skipped_fingerprint",
             stats.pairs_skipped_fingerprint);
  json.field("streaming.pairs_scanned", stats.pairs_scanned);
  json.field("streaming.pairs_deferred", stats.pairs_deferred);
  json.field("streaming.raw_conflicts", stats.raw_conflicts);
  json.field("streaming.scan_share",
             stats.pairs_total == 0
                 ? 0.0
                 : static_cast<double>(stats.pairs_scanned) /
                       static_cast<double>(stats.pairs_total));
  json.field("streaming.enqueue_stalls", stats.enqueue_stalls);
  json.field("streaming.segments_retired", stats.segments_retired);
  json.field("streaming.peak_live_segments", stats.peak_live_segments);
  json.field("graph_builder.segments", stats.segments_active);
}

/// One traced taskgrind leg, guest build to canonical findings, with every
/// decorator of LuleshEngine in place.
struct TracedLeg {
  rt::ExecResult run;
  core::AnalysisStats stats;
  std::string identity;
  size_t findings = 0;
  uint64_t accesses = 0;
  uint64_t decisions = 0;
  uint64_t steals = 0;
  std::vector<SpanLog::Totals> totals;
  double session_s = 0;
  double setup_s = 0;
  double exec_s = 0;
  double worker_cpu_s = 0;

  uint64_t raw_conflicts() const {
    return stats.raw_conflicts - stats.suppressed_stack -
           stats.suppressed_tls - stats.suppressed_user;
  }
};

TracedLeg run_traced_leg(const rt::GuestProgram& program,
                         const tools::SessionOptions& options, SpanLog& log) {
  TracedLeg leg;
  const double cpu0 = process_cpu();
  const double thread0 = thread_cpu();
  const uint32_t session = log.begin(SpanName::kSession);
  const uint32_t setup = log.begin(SpanName::kSetup);
  auto engine = std::make_unique<LuleshEngine>(program, options, &log);
  log.end(setup);

  const uint32_t exec = log.begin(SpanName::kExec);
  leg.run = engine->exec->run();
  log.end(exec);
  const uint32_t finish = log.begin(SpanName::kFinish);
  const core::AnalysisResult analysis = engine->tool->run_analysis();
  log.end(finish);
  // Reports point into the tool's allocation registry: key them first.
  leg.identity = findings_identity(analysis.reports);
  leg.findings = analysis.reports.size();
  leg.stats = analysis.stats;
  leg.accesses = engine->tool->access_events();
  leg.decisions = engine->port.decisions();
  leg.steals = engine->port.steals();
  engine.reset();  // joins the scan workers: their CPU is now counted
  log.end(session);
  const double thread1 = thread_cpu();  // read before the process clock
  leg.worker_cpu_s = (process_cpu() - cpu0) - (thread1 - thread0);
  leg.totals = log.totals();
  leg.session_s = log.seconds(session);
  leg.setup_s = log.seconds(setup);
  leg.exec_s = log.seconds(exec);
  return leg;
}

/// The LULESH traced run: kLegReps reps, each running four legs back to
/// back in one process:
///  1. taskgrind with every decorator in place (run_traced_leg);
///  2. taskgrind untraced through run_session, the path `sample` times,
///     which must give leg 1's canonical findings;
///  3. the pass-through tool (VM plus callback dispatch), which must retire
///     exactly leg 1's guest instructions;
///  4. ToolKind::kNone through run_session (VM plus minomp), which must
///     compute leg 1's final energy.
/// Tracing overhead is leg 1's session minus leg 2, callback dispatch is
/// leg 3 minus leg 4, and the access path is leg 1's exec minus its graph
/// events minus leg 3. Each difference is taken within one rep, so its legs
/// see the same host load; the metrics are the medians over reps. The
/// spans file holds the first rep.
constexpr int kLegReps = 5;

void run_trace_lulesh(const Workload& w, uint64_t seed, SpanLog& log,
                      Output& out) {
  const tools::SessionOptions options =
      session_options(w, seed, tools::ToolKind::kTaskgrind);
  const rt::GuestProgram program = tg::lulesh::make_lulesh(w.lulesh);
  const double reference = tg::lulesh::reference_origin_energy(w.lulesh);

  std::vector<TracedLeg> legs;
  std::vector<double> untraced_s;
  std::vector<double> none_s;
  std::vector<double> pass_s;
  for (int rep = 0; rep < kLegReps; ++rep) {
    SpanLog rep_log;
    legs.push_back(run_traced_leg(program, options, rep == 0 ? log : rep_log));
    const TracedLeg& leg = legs.back();
    if (leg.run.outcome.status != rt::RunOutcome::Status::kOk) {
      out.fail("traced execution did not complete");
    }
    check_lulesh(w, leg.findings, leg.raw_conflicts(), out);
    if (leg.identity != legs.front().identity) {
      out.fail(mismatch("traced identity", leg.identity,
                        legs.front().identity));
    }
    // On one thread every task is serialized, so the racy guest also
    // reproduces the host reference; on two, the dropped dependence shows
    // in the energy.
    const double energy = guest_energy(leg.run.output);
    if (w.threads == 1 &&
        !(std::fabs(energy - reference) <= std::fabs(reference) * 1e-4)) {
      out.fail("guest energy " + std::to_string(energy) + " != reference " +
               std::to_string(reference));
    }

    const double untraced0 = wall_now();
    const tools::SessionResult untraced = tools::run_session(program, options);
    untraced_s.push_back(wall_now() - untraced0);
    check_lulesh(w, untraced.report_count, untraced.raw_report_count, out);
    if (keys_identity(untraced.report_keys) != leg.identity) {
      out.fail(mismatch("untraced identity",
                        keys_identity(untraced.report_keys), leg.identity));
    }

    core::TaskgrindTool decisions(options.taskgrind);
    PassThroughTool pass(decisions);
    const vex::Program pass_guest = program.build();
    rt::Execution pass_exec(pass_guest, runtime_options(options), &pass, {});
    const rt::ExecResult pass_run = pass_exec.run();
    pass_s.push_back(pass_run.wall_seconds);
    if (pass_run.retired != leg.run.retired) {
      out.fail(mismatch("pass-through guest instructions",
                        std::to_string(pass_run.retired),
                        std::to_string(leg.run.retired)));
    }

    const tools::SessionResult none = tools::run_session(
        program, session_options(w, seed, tools::ToolKind::kNone));
    none_s.push_back(none.exec_seconds);
    if (!(guest_energy(none.output) == energy)) {
      out.fail("kNone guest energy " +
               std::to_string(guest_energy(none.output)) +
               " != traced leg's " + std::to_string(energy));
    }
  }

  std::vector<double> overhead_s;
  std::vector<double> callback_s;
  std::vector<double> access_s;
  for (int rep = 0; rep < kLegReps; ++rep) {
    overhead_s.push_back(legs[rep].session_s - untraced_s[rep]);
    callback_s.push_back(pass_s[rep] - none_s[rep]);
    // A clock read per access would double the access path's cost, so it
    // is the residue: taskgrind exec minus graph events (which include the
    // streaming work they trigger) minus pass-through exec.
    access_s.push_back(legs[rep].exec_s -
                       inclusive_s(legs[rep].totals, SpanName::kEvent) -
                       pass_s[rep]);
  }
  auto over_legs = [&legs](auto value) {
    std::vector<double> values;
    for (const TracedLeg& leg : legs) values.push_back(value(leg));
    return median(values);
  };
  auto self_over_legs = [&over_legs](SpanName name) {
    return over_legs(
        [name](const TracedLeg& leg) { return self_s(leg.totals, name); });
  };

  const TracedLeg& first = legs.front();
  out.put("identity", first.identity);
  out.put("findings", static_cast<uint64_t>(first.findings));
  out.put("raw_conflicts", first.raw_conflicts());
  out.put("guest_energy", guest_energy(first.run.output));
  out.json().key("exec_reps_s").begin_array();
  for (const TracedLeg& leg : legs) out.json().value(leg.exec_s);
  out.json().end_array();
  out.json().key("untraced_reps_s").begin_array();
  for (const double seconds : untraced_s) out.json().value(seconds);
  out.json().end_array();
  out.json().key("pass_reps_s").begin_array();
  for (const double seconds : pass_s) out.json().value(seconds);
  out.json().end_array();
  out.json().key("none_reps_s").begin_array();
  for (const double seconds : none_s) out.json().value(seconds);
  out.json().end_array();

  // Every part of one rep's partition comes from that rep, so its parts
  // sum to no more than its traced session: the rep whose session is the
  // median.
  std::vector<size_t> order(kLegReps);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&legs](size_t a, size_t b) {
    return legs[a].session_s < legs[b].session_s;
  });
  const size_t mid = order[kLegReps / 2];
  const TracedLeg& middle = legs[mid];
  out.put("session_s", middle.session_s);
  out.put("setup_s", middle.setup_s);

  out.json().key("metrics").begin_object();
  tg::JsonWriter& json = out.json();
  const std::vector<SpanLog::Totals>& totals = first.totals;
  json.field("vex.guest_instrs", first.run.retired);
  json.field("vex.exec_none_s", median(none_s));
  json.field("vex.callback_s", median(callback_s));
  json.field("runtime.tasks", first.run.tasks_created);
  json.field("runtime.sched_decisions", first.decisions);
  json.field("runtime.steals", first.steals);
  json.field("runtime.intrinsic_s", self_over_legs(SpanName::kIntrinsic));
  json.field("runtime.intrinsics", calls(totals, SpanName::kIntrinsic));
  json.field("graph_builder.events", calls(totals, SpanName::kEvent));
  json.field("graph_builder.event_self_s", self_over_legs(SpanName::kEvent));
  json.field("instrument.accesses", first.accesses);
  json.field("instrument.access_s", median(access_s));
  json.field("streaming.worker_cpu_s",
             over_legs([](const TracedLeg& leg) { return leg.worker_cpu_s; }));
  put_streaming(first.stats, totals, out);
  json.field("streaming.close_s", self_over_legs(SpanName::kClose));
  json.field("streaming.retire_s", self_over_legs(SpanName::kFrontier));
  json.field("streaming.finish_s", self_over_legs(SpanName::kFinish));
  json.field("trace.overhead_s", median(overhead_s));
  json.end_object();
  // The intrinsics' self time is inside the kNone leg's share.
  json.key("partition").begin_object();
  json.field("setup", middle.setup_s);
  json.field("vm_runtime", none_s[mid]);
  json.field("callbacks", callback_s[mid]);
  json.field("access_path", access_s[mid]);
  json.field("graph_events", self_s(middle.totals, SpanName::kEvent));
  json.field("close", self_s(middle.totals, SpanName::kClose));
  json.field("retire", self_s(middle.totals, SpanName::kFrontier));
  json.field("finish", self_s(middle.totals, SpanName::kFinish));
  json.end_object();
}

/// The dense-mesh traced run: mesh_driver.cpp's replay of the generator,
/// then the untraced run_dense_mesh that `sample` times, whose difference
/// is the tracing overhead.
void run_trace_mesh(const Workload& w, SpanLog& log, Output& out) {
  const core::DenseMeshSpec spec =
      core::DenseMeshSpec::for_segments(w.mesh_segments);
  const double cpu0 = process_cpu();
  const double thread0 = thread_cpu();
  const MeshTrace trace = trace_dense_mesh(spec, log);
  const double thread1 = thread_cpu();  // read before the process clock
  const double worker_cpu = (process_cpu() - cpu0) - (thread1 - thread0);
  check_mesh(w, trace.identity, trace.retire_digest, out);

  const double untraced0 = wall_now();
  const core::DenseMeshRun untraced =
      core::run_dense_mesh(spec, core::AnalysisOptions{}, /*streaming=*/true);
  const double untraced_s = wall_now() - untraced0;
  check_mesh(w, untraced.identity, untraced.retire_digest, out);

  const std::vector<SpanLog::Totals> totals = log.totals();
  out.put("identity", trace.identity);
  out.put("retire_digest", trace.retire_digest);
  out.put("findings", static_cast<uint64_t>(trace.result.reports.size()));
  out.put("session_s", log.seconds(trace.session_span));
  out.put("setup_s", log.seconds(trace.setup_span));
  out.json().key("metrics").begin_object();
  tg::JsonWriter& json = out.json();
  // No guest: the VM and minomp layers do not run on this workload.
  json.field("vex.guest_instrs", uint64_t{0});
  json.field("vex.exec_none_s", 0.0);
  json.field("vex.callback_s", 0.0);
  json.field("runtime.tasks", uint64_t{0});
  json.field("runtime.sched_decisions", uint64_t{0});
  json.field("runtime.steals", uint64_t{0});
  json.field("runtime.intrinsic_s", 0.0);
  json.field("runtime.intrinsics", uint64_t{0});
  json.field("graph_builder.events", calls(totals, SpanName::kEvent));
  json.field("graph_builder.event_self_s", self_s(totals, SpanName::kEvent));
  json.field("instrument.accesses", calls(totals, SpanName::kAccess));
  json.field("instrument.access_s", self_s(totals, SpanName::kAccess));
  json.field("streaming.worker_cpu_s", worker_cpu);
  put_streaming(trace.result.stats, totals, out);
  json.field("streaming.close_s", self_s(totals, SpanName::kClose));
  json.field("streaming.retire_s", self_s(totals, SpanName::kFrontier));
  json.field("streaming.finish_s", self_s(totals, SpanName::kFinish));
  json.field("trace.overhead_s", log.seconds(trace.session_span) - untraced_s);
  json.end_object();
  json.key("partition").begin_object();
  json.field("setup", log.seconds(trace.setup_span));
  json.field("generator", self_s(totals, SpanName::kExec));
  json.field("access_path", self_s(totals, SpanName::kAccess));
  json.field("graph_events", self_s(totals, SpanName::kEvent));
  json.field("close", self_s(totals, SpanName::kClose));
  json.field("retire", self_s(totals, SpanName::kFrontier));
  json.field("finish", self_s(totals, SpanName::kFinish));
  json.end_object();
}

int run_trace(const Workload& w, uint64_t seed,
              const std::string& spans_path) {
  Output out(w, seed);
  SpanLog log;
  if (w.mesh) {
    run_trace_mesh(w, log, out);
  } else {
    run_trace_lulesh(w, seed, log, out);
  }
  out.put("spans", static_cast<uint64_t>(log.spans().size()));
  if (!log.write_tsv(spans_path)) out.fail("cannot write " + spans_path);
  return out.emit();
}

int run_info() {
  tg::JsonWriter json;
  json.begin_object();
  json.field("build_type", PERFBENCH_BUILD_TYPE);
  json.field("cxx_flags", PERFBENCH_CXX_FLAGS);
  json.field("optimized", kOptimized);
  json.field("sanitized", kSanitized);
  json.field("timeable", timeable_build());
  json.field("host_cores",
             static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: perfbench_harness info\n"
      "       perfbench_harness sample <workload> <seed>\n"
      "       perfbench_harness trace <workload> <seed> <spans.tsv>\n");
  return 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "info") return run_info();
  if (argc != 4 && argc != 5) return usage();
  const std::string mode = argv[1];
  const Workload* workload = find_workload(argv[2]);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", argv[2]);
    return 1;
  }
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  if (!timeable_build()) {
    std::fprintf(stderr,
                 "refusing to time a build without optimization or with a "
                 "sanitizer (flags: %s)\n",
                 PERFBENCH_CXX_FLAGS);
    return 3;
  }
  if (mode == "sample" && argc == 4) return run_sample(*workload, seed);
  if (mode == "trace" && argc == 5) return run_trace(*workload, seed, argv[4]);
  return usage();
}
