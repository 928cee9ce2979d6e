// The traced dense-mesh leg: core::run_dense_mesh's generator replayed
// through SegmentGraphBuilder's public event API, with a span around every
// builder call and a TimedSink in front of the StreamingAnalyzer. It must
// reproduce run_dense_mesh's identity and retire digest exactly; the
// harness checks both on every traced run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/dense_mesh.hpp"
#include "core/graph_builder.hpp"
#include "core/segment_graph.hpp"
#include "core/streaming.hpp"
#include "vex/ir.hpp"
#include "layers.hpp"

namespace perfbench {

struct MeshTrace {
  tg::core::AnalysisResult result;
  std::string identity;
  std::string retire_digest;
  uint32_t session_span = 0;
  uint32_t setup_span = 0;
};

/// The program run_dense_mesh's reports name ("dense-mesh.c").
const tg::vex::Program& mesh_program();

/// The streaming engine run_dense_mesh builds: the builder with its
/// predecessor index and the StreamingAnalyzer it feeds, whose retire
/// probe appends to `retired_ids`. The set-up timer and the traced leg
/// both build it here.
struct MeshEngine {
  std::unique_ptr<tg::core::SegmentGraphBuilder> builder;
  std::unique_ptr<tg::core::StreamingAnalyzer> streamer;
};
MeshEngine make_mesh_engine(std::vector<tg::core::SegId>& retired_ids);

/// FNV-1a over newline-joined report dedup keys, as 16 hex digits:
/// run_dense_mesh's identity formula, used for every workload.
std::string keys_identity(const std::vector<std::string>& keys);
std::string findings_identity(
    const std::vector<tg::core::RaceReport>& reports);

/// FNV-1a over the sorted retired ids, as 16 hex digits: run_dense_mesh's
/// retire digest. Sorts `ids` in place.
std::string retire_digest(std::vector<tg::core::SegId>& ids);

/// Streaming run of `spec` with default AnalysisOptions, spans into `log`:
/// session { setup, exec (the generator), finish (finalize + finish) }.
MeshTrace trace_dense_mesh(const tg::core::DenseMeshSpec& spec, SpanLog& log);

}  // namespace perfbench
