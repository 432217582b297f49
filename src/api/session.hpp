// SynthesisSession: the streaming synthesis API (paper §V, Fig. 2).
//
// Traces arrive as many segments across runs and modes; a session accepts
// them incrementally and serves models at any point:
//
//   api::SynthesisSession session(
//       api::SynthesisConfig().merge_strategy(api::MergeStrategy::MergeDags)
//                             .threads(4));
//   session.ingest(run1_events, {.trace_id = "run-1"});
//   session.ingest_file("run2.jsonl", {.trace_id = "run-2"});
//   auto model = session.model();            // synthesizes run-1 + run-2
//   session.ingest(more_events, {.trace_id = "run-1"});
//   model = session.model();                 // re-synthesizes ONLY run-1
//
// Each trace id is stored as one appendable columnar core::TraceIndex.
// Ingest only queues a segment: a .ttb file stays memory-mapped, rows are
// sorted once. Synthesis — on a small worker pool when config.threads(N)
// > 1 — appends the trace's queued segments to its index in ingestion
// order (writing each event into the columns exactly once) and drops
// them, then extracts. Distinct trace ids are synthesized independently
// and combined per the configured merge strategy. Results carry typed
// api::Error diagnostics instead of bare exceptions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "api/config.hpp"
#include "api/result.hpp"
#include "core/incremental.hpp"
#include "core/model_synthesis.hpp"
#include "predict/model_simulator.hpp"
#include "trace/database.hpp"
#include "trace/event.hpp"
#include "trace/event_columns.hpp"
#include "trace/ttb.hpp"

namespace tetra::api {

/// Per-ingest options. An empty trace_id opens a fresh auto-named trace
/// ("trace-<n>"): the right default under MergeDags, where each ingest is
/// typically one run. Segments of the same run/mode should share an id.
struct IngestOptions {
  std::string trace_id;
  std::string mode;  ///< operating-mode tag; "" = config.default_mode()
};

class SynthesisSession {
 public:
  SynthesisSession() = default;
  explicit SynthesisSession(SynthesisConfig config)
      : config_(std::move(config)) {}

  // -- ingestion ----------------------------------------------------------

  /// Adds one event segment. Unsorted segments are sorted on ingest (and
  /// flagged in the returned SegmentInfo); synthesis, including the copy
  /// into the trace's index, is deferred until a model query.
  Result<SegmentInfo> ingest(trace::EventVector events,
                             const IngestOptions& options = {});

  /// Adds one columnar segment; synthesis appends its columns to the
  /// trace's index as they are. A segment whose rows are not time-sorted
  /// is decoded and sorted on ingest, like an unsorted .ttb file.
  Result<SegmentInfo> ingest(trace::EventColumns events,
                             const IngestOptions& options = {});

  /// Reads a trace file and ingests it — .ttb traces are detected by magic,
  /// opened and validated, and kept mapped until synthesis copies their
  /// columns into the trace's index (a .ttb whose rows are not time-sorted
  /// is decoded and sorted instead); everything else parses as JSONL.
  /// The default trace id is the path itself.
  Result<SegmentInfo> ingest_file(const std::string& path,
                                  const IngestOptions& options = {});

  /// Ingests one stored segment of a TraceDatabase; the trace id defaults
  /// to the key's run (so all segments of a run merge) and the mode to the
  /// segment's stored tag.
  Result<SegmentInfo> ingest_database_segment(
      const trace::TraceDatabase& db, const trace::TraceKey& key,
      const IngestOptions& options = {});

  /// Ingests every segment of the database (runs become trace ids, stored
  /// mode tags are kept). Returns per-segment infos in storage order.
  Result<std::vector<SegmentInfo>> ingest_database(
      const trace::TraceDatabase& db);

  // -- queries ------------------------------------------------------------

  /// The combined model over everything ingested so far, per the merge
  /// strategy. Under MergeDags only traces dirtied since the last query
  /// are re-synthesized; node_callbacks concatenates the per-trace lists.
  Result<core::TimingModel> model();

  /// Per-mode models (§V option iv): per-trace DAGs merged into the mode
  /// each trace was tagged with.
  Result<core::MultiModeDag> multi_mode_model();

  /// The model of one logical trace (its segments k-way merged).
  Result<core::TimingModel> trace_model(const std::string& trace_id) &;
  /// Same from an expiring session: the cached model is moved out
  /// instead of copied.
  Result<core::TimingModel> trace_model(const std::string& trace_id) &&;

  /// The chronologically merged event stream of one trace: decoded from
  /// the trace's columns (and any still-queued segments), stably sorted
  /// by time, so ties keep ingestion order.
  Result<trace::EventVector> merged_events(const std::string& trace_id) const;

  /// Replays the session's combined model (predict::ModelSimulator) and
  /// returns predicted per-chain latency distributions — what-if queries
  /// answered from cached models, with no substrate re-run. Seed, horizon
  /// and the what-if knobs come from `config`; synthesis errors pass
  /// through unchanged.
  Result<predict::PredictionResult> predict(
      const predict::PredictionConfig& config = {});

  /// Frees the stored events (index) of one trace while keeping its cached
  /// model, so long-lived sessions over heavy trace volume stay bounded in
  /// memory (MergeDags only — MergeTraces needs every event for the global
  /// merge). Synthesizes the trace first if it is still dirty. The trace
  /// is sealed afterwards: further ingests into it are rejected. Returns
  /// the number of events freed.
  Result<std::size_t> release_events(const std::string& trace_id);

  // -- introspection ------------------------------------------------------

  const SynthesisConfig& config() const { return config_; }
  std::size_t segment_count() const { return segments_.size(); }
  std::size_t trace_count() const { return traces_.size(); }
  std::size_t event_count() const { return event_count_; }
  std::vector<std::string> trace_ids() const;
  /// Ingestion diagnostics for every segment, in ingestion order.
  const std::vector<SegmentInfo>& segments() const { return segments_; }

  /// Drops all ingested data and cached models; the config is kept.
  void clear();

 private:
  /// One ingested segment not yet copied into an index: time-sorted rows,
  /// a mapped .ttb file or a columnar store, whose rows are time-sorted.
  using Segment =
      std::variant<trace::EventVector, trace::TtbReader, trace::EventColumns>;

  struct TraceState {
    std::string id;
    std::string mode;
    /// Segments awaiting synthesis, in ingestion order (under MergeTraces
    /// they wait in merged_pending_ instead).
    std::vector<Segment> pending;
    /// Every synthesized segment, appended in ingestion order (MergeDags).
    /// Its lookups are released between queries; the columns stay.
    core::TraceIndex index;
    /// Set under config.incremental(): owns the appendable index and the
    /// per-node dependency cache; `index` stays empty then.
    std::unique_ptr<core::IncrementalSynthesizer> inc;
    /// MergeTraces: (first row, row count) of each of this trace's
    /// segments in merged_index_.
    std::vector<std::pair<std::size_t, std::size_t>> merged_rows;
    core::TimingModel model;                   ///< cache, valid when !dirty
    bool dirty = true;
    bool sealed = false;  ///< events released; model cached, no re-ingest
  };

  TraceState& trace_for(const IngestOptions& options);
  bool use_incremental() const {
    // Overhead compensation estimates the probe cost from the whole trace,
    // so appends invalidate every node — incremental caching cannot help.
    return config_.incremental() &&
           config_.merge_strategy() == MergeStrategy::MergeDags &&
           !config_.compensate_overhead();
  }
  /// Validates the target trace, fills in the diagnostics and queues the
  /// segment; `segment` may still be unsorted.
  Result<SegmentInfo> add_segment(Segment segment,
                                  const IngestOptions& options,
                                  std::string source);
  /// MergeTraces: appends merged_pending_ to merged_index_.
  void flush_merged();
  /// The trace's state with its model synthesized (UnknownTrace or
  /// SynthesisFailed otherwise).
  Result<TraceState*> synthesized_trace(const std::string& trace_id);
  /// Synthesizes every dirty trace (worker pool when threads > 1).
  /// Returns an error naming the first failing trace, if any.
  Error synthesize_dirty();
  /// Appends the trace's pending segments to its index and re-synthesizes
  /// its model. Touches only `trace` (and reads merged_index_, flushed
  /// beforehand), so pool threads may run it on distinct traces at once.
  /// `span_parent` anchors the "synth.trace" telemetry span under the
  /// caller's open span even on pool threads (whose RAII span stacks
  /// start empty).
  void synthesize_trace(TraceState& trace, std::uint64_t span_parent) const;

  SynthesisConfig config_;
  std::vector<TraceState> traces_;                ///< ingestion order
  std::map<std::string, std::size_t> trace_index_;
  std::vector<SegmentInfo> segments_;
  std::size_t event_count_ = 0;
  std::size_t auto_trace_counter_ = 0;

  /// MergeTraces keeps one global index, appended in ingestion order (the
  /// index's (time, arrival) order is then the global k-way merge; its
  /// lookups are released between queries), and caches one global model
  /// instead of per-trace models. Segments wait in merged_pending_ as
  /// (position in traces_, segment) until a query.
  std::vector<std::pair<std::size_t, Segment>> merged_pending_;
  core::TraceIndex merged_index_;
  core::TimingModel merged_model_;
  bool merged_dirty_ = true;
};

}  // namespace tetra::api
