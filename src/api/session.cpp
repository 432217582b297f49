#include "api/session.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "core/dag_builder.hpp"
#include "core/extract.hpp"
#include "overhead/estimator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "trace/event_view.hpp"
#include "trace/serialize.hpp"

namespace tetra::api {

namespace {

Error make_error(ErrorCode code, std::string message, std::string context) {
  return Error{code, std::move(message), std::move(context)};
}

struct SessionMetrics {
  telemetry::Counter& segments = telemetry::MetricsRegistry::global().counter(
      "session.segments_ingested");
  telemetry::Counter& events = telemetry::MetricsRegistry::global().counter(
      "session.events_ingested");
  telemetry::Counter& cache_hits =
      telemetry::MetricsRegistry::global().counter("session.cache_hits");
  telemetry::Counter& dirty_rebuilds =
      telemetry::MetricsRegistry::global().counter("session.dirty_rebuilds");
  telemetry::Counter& incremental =
      telemetry::MetricsRegistry::global().counter(
          "session.incremental_synthesis");
  telemetry::Counter& full = telemetry::MetricsRegistry::global().counter(
      "session.full_synthesis");

  static SessionMetrics& get() {
    static SessionMetrics metrics;
    return metrics;
  }
};

/// Extraction options with overhead compensation resolved against one
/// trace: an explicit probe-cost hint wins, otherwise the per-hit cost is
/// estimated from the trace itself (zero for probe-free traces, which
/// makes compensation a no-op).
core::ExtractOptions compensated_extract(const SynthesisConfig& config,
                                         const core::TraceIndex& index) {
  core::ExtractOptions extract = config.core_options().extract;
  if (config.compensate_overhead() &&
      extract.compensate_per_hit == Duration::zero()) {
    extract.compensate_per_hit =
        config.probe_cost_hint() > Duration::zero()
            ? config.probe_cost_hint()
            : overhead::estimate_probe_cost(index).per_hit;
  }
  return extract;
}

/// Extraction and DAG building over one fully appended index.
core::TimingModel synthesize_index(const core::TraceIndex& index,
                                   const SynthesisConfig& config) {
  core::TimingModel model;
  {
    telemetry::ScopedSpan extract_span("synth.extract", index.size());
    model.node_callbacks =
        core::extract_all_nodes(index, compensated_extract(config, index));
    // Multi-threaded executors yield one per-worker list each; unify them
    // per node before labels are assigned.
    core::merge_worker_lists(model.node_callbacks);
    core::normalize_labels(model.node_callbacks);
  }
  {
    telemetry::ScopedSpan build_span("synth.build",
                                     model.node_callbacks.size());
    model.dag =
        core::build_dag(model.node_callbacks, config.core_options().dag);
  }
  return model;
}

/// The columns of a queued segment; nullopt for a rows segment.
template <typename Segment>
std::optional<trace::ColumnsView> segment_columns(const Segment& segment) {
  if (const auto* file = std::get_if<trace::TtbReader>(&segment)) {
    return file->view();
  }
  if (const auto* columns = std::get_if<trace::EventColumns>(&segment)) {
    return columns->view();
  }
  return std::nullopt;
}

/// Appends one queued segment (rows or columns) to `sink`, a TraceIndex
/// or an IncrementalSynthesizer.
template <typename Sink, typename Segment>
void append_segment(Sink& sink, const Segment& segment) {
  if (const auto columns = segment_columns(segment)) {
    sink.append(*columns);
  } else {
    sink.append(std::get<trace::EventVector>(segment));
  }
}

template <typename Segment>
std::size_t segment_size(const Segment& segment) {
  if (const auto columns = segment_columns(segment)) return columns->count;
  return std::get<trace::EventVector>(segment).size();
}

/// Decodes the rows of `view` onto the end of `out`.
void append_decoded(trace::EventVector& out, const trace::ColumnsView& view) {
  for (std::size_t i = 0; i < view.count; ++i) {
    out.push_back(trace::materialize_event(view, i));
  }
}

/// Appends the rows of one queued segment to `out`.
template <typename Segment>
void append_rows(trace::EventVector& out, const Segment& segment) {
  if (const auto columns = segment_columns(segment)) {
    append_decoded(out, *columns);
  } else {
    const auto& rows = std::get<trace::EventVector>(segment);
    out.insert(out.end(), rows.begin(), rows.end());
  }
}

}  // namespace

SynthesisSession::TraceState& SynthesisSession::trace_for(
    const IngestOptions& options) {
  std::string id = options.trace_id;
  if (id.empty()) {
    // Auto-named traces must always be fresh — skip over any explicit
    // user id that happens to look like "trace-<n>".
    do {
      id = "trace-" + std::to_string(auto_trace_counter_++);
    } while (trace_index_.count(id) > 0);
  }
  auto it = trace_index_.find(id);
  if (it == trace_index_.end()) {
    it = trace_index_.emplace(id, traces_.size()).first;
    TraceState state;
    state.id = id;
    state.mode = options.mode;
    traces_.push_back(std::move(state));
  }
  return traces_[it->second];
}

Result<SegmentInfo> SynthesisSession::ingest(trace::EventVector events,
                                             const IngestOptions& options) {
  return add_segment(std::move(events), options, "events");
}

Result<SegmentInfo> SynthesisSession::ingest(trace::EventColumns events,
                                             const IngestOptions& options) {
  return add_segment(std::move(events), options, "events");
}

Result<SegmentInfo> SynthesisSession::ingest_file(const std::string& path,
                                                  const IngestOptions& options) {
  Segment segment;
  try {
    if (trace::is_ttb_file(path)) {
      segment.emplace<trace::TtbReader>(path);
    } else {
      segment = trace::read_jsonl_file(path);
    }
  } catch (const std::exception& e) {
    return make_error(ErrorCode::Io, e.what(), path);
  }
  IngestOptions resolved = options;
  if (resolved.trace_id.empty()) resolved.trace_id = path;
  return add_segment(std::move(segment), resolved, path);
}

Result<SegmentInfo> SynthesisSession::add_segment(Segment segment,
                                                  const IngestOptions& options,
                                                  std::string source) {
  TraceState& trace = trace_for(options);
  if (trace.sealed) {
    return make_error(ErrorCode::InvalidArgument,
                      "trace events were released; ingest under a new trace id",
                      trace.id);
  }
  if (!options.mode.empty()) {
    if (!trace.mode.empty() && trace.mode != options.mode) {
      return make_error(ErrorCode::InvalidArgument,
                        "segment mode '" + options.mode +
                            "' conflicts with the trace's mode '" +
                            trace.mode + "'",
                        trace.id);
    }
    trace.mode = options.mode;
  }

  SegmentInfo info;
  info.id = segments_.size();
  info.trace_id = trace.id;
  info.mode = trace.mode;
  info.source = std::move(source);
  if (auto* rows = std::get_if<trace::EventVector>(&segment)) {
    info.event_count = rows->size();
    info.arrived_sorted = trace::is_time_sorted(*rows);
    if (!info.arrived_sorted) trace::sort_by_time(*rows);
  } else {
    const trace::ColumnsView view = *segment_columns(segment);
    info.event_count = view.count;
    info.arrived_sorted = trace::is_time_sorted(view);
    if (!info.arrived_sorted) {
      // Indexes append time-sorted segments only: decode and sort.
      trace::EventVector rows = trace::materialize(view);
      trace::sort_by_time(rows);
      segment = std::move(rows);
    }
  }

  event_count_ += info.event_count;
  SessionMetrics::get().segments.inc();
  SessionMetrics::get().events.add(info.event_count);
  if (config_.merge_strategy() == MergeStrategy::MergeTraces) {
    merged_pending_.emplace_back(trace_index_.at(trace.id), std::move(segment));
  } else {
    if (use_incremental() && !trace.inc) {
      trace.inc = std::make_unique<core::IncrementalSynthesizer>(
          config_.core_options());
    }
    trace.pending.push_back(std::move(segment));
  }
  trace.dirty = true;
  merged_dirty_ = true;
  segments_.push_back(info);
  return info;
}

Result<SegmentInfo> SynthesisSession::ingest_database_segment(
    const trace::TraceDatabase& db, const trace::TraceKey& key,
    const IngestOptions& options) {
  if (!db.contains(key)) {
    return make_error(ErrorCode::InvalidArgument,
                      "database has no segment " + std::to_string(key.segment),
                      key.run);
  }
  IngestOptions resolved = options;
  if (resolved.trace_id.empty()) resolved.trace_id = key.run;
  if (resolved.mode.empty()) resolved.mode = db.mode_of(key);
  Result<SegmentInfo> result = ingest(db.get(key), resolved);
  if (result.ok()) {
    segments_.back().source =
        "db:" + key.run + "/" + std::to_string(key.segment);
    return segments_.back();
  }
  return result;
}

Result<std::vector<SegmentInfo>> SynthesisSession::ingest_database(
    const trace::TraceDatabase& db) {
  std::vector<SegmentInfo> infos;
  for (const trace::TraceKey& key : db.keys()) {
    Result<SegmentInfo> result = ingest_database_segment(db, key);
    if (!result.ok()) return result.error();
    infos.push_back(*result);
  }
  return infos;
}

void SynthesisSession::flush_merged() {
  for (auto& [trace_pos, segment] : merged_pending_) {
    const std::size_t first = merged_index_.size();
    append_segment(merged_index_, segment);
    traces_[trace_pos].merged_rows.emplace_back(first,
                                                merged_index_.size() - first);
  }
  merged_pending_.clear();
}

void SynthesisSession::synthesize_trace(TraceState& trace,
                                        std::uint64_t span_parent) const {
  telemetry::ScopedSpan span("synth.trace", span_parent, 0);
  if (trace.inc) {
    SessionMetrics::get().incremental.inc();
    {
      telemetry::ScopedSpan merge_span("synth.merge");
      for (const Segment& segment : trace.pending) {
        append_segment(*trace.inc, segment);
      }
      trace.pending.clear();
      merge_span.set_items(trace.inc->event_count());
    }
    span.set_items(trace.inc->event_count());
    trace.model = trace.inc->model();
    trace.dirty = false;
    return;
  }
  SessionMetrics::get().full.inc();
  // Appending in ingestion order reproduces the k-way merged chronological
  // stream (the index keeps (time, arrival) order). Mapped files are
  // unmapped as the pending list is cleared.
  core::TraceIndex sliced;  // MergeTraces: this trace's rows, re-appended
  const core::TraceIndex* index = &trace.index;
  {
    telemetry::ScopedSpan merge_span("synth.merge");
    if (config_.merge_strategy() == MergeStrategy::MergeTraces) {
      const trace::ColumnsView all = merged_index_.view();
      for (const auto& [first, count] : trace.merged_rows) {
        sliced.append(all.slice(first, count));
      }
      index = &sliced;
    } else {
      std::size_t rows = 0;
      for (const Segment& segment : trace.pending) {
        rows += segment_size(segment);
      }
      trace.index.reserve(rows);
      for (const Segment& segment : trace.pending) {
        append_segment(trace.index, segment);
      }
      trace.pending.clear();
      trace.index.restore_lookups();
    }
    merge_span.set_items(index->size());
  }
  span.set_items(index->size());
  trace.model = synthesize_index(*index, config_);
  if (index == &trace.index) {
    // Every query re-extracts the whole trace, so between queries only
    // the columns are kept.
    trace.index.release_lookups();
  }
  trace.dirty = false;
}

Error SynthesisSession::synthesize_dirty() {
  std::vector<TraceState*> dirty;
  for (auto& trace : traces_) {
    if (trace.dirty) dirty.push_back(&trace);
  }
  SessionMetrics::get().cache_hits.add(traces_.size() - dirty.size());
  if (dirty.empty()) return {};
  SessionMetrics::get().dirty_rebuilds.add(dirty.size());
  // Pool workers only read the global index.
  flush_merged();

  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(config_.threads()),
                            dirty.size());
  std::vector<std::string> failures(dirty.size());
  const std::uint64_t span_parent = telemetry::ScopedSpan::current_id();

  if (workers <= 1) {
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      try {
        synthesize_trace(*dirty[i], span_parent);
      } catch (const std::exception& e) {
        failures[i] = e.what();
      }
    }
  } else {
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t i = next.fetch_add(1); i < dirty.size();
           i = next.fetch_add(1)) {
        try {
          synthesize_trace(*dirty[i], span_parent);
        } catch (const std::exception& e) {
          failures[i] = e.what();
        } catch (...) {
          failures[i] = "unknown synthesis failure";
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }

  for (std::size_t i = 0; i < dirty.size(); ++i) {
    if (!failures[i].empty()) {
      return make_error(ErrorCode::SynthesisFailed, failures[i],
                        dirty[i]->id);
    }
  }
  return {};
}

Result<core::TimingModel> SynthesisSession::model() {
  if (segments_.empty()) {
    return make_error(ErrorCode::EmptySession,
                      "no events ingested before model()", "");
  }
  telemetry::ScopedSpan model_span("session.model", event_count_);

  if (config_.merge_strategy() == MergeStrategy::MergeTraces) {
    if (merged_dirty_) {
      SessionMetrics::get().dirty_rebuilds.inc();
      SessionMetrics::get().full.inc();
      // Global merge: pending segments join the global index in ingestion
      // order (ties keep earlier-ingested segments first — the index's
      // (time, arrival) invariant).
      try {
        telemetry::ScopedSpan trace_span("synth.trace", event_count_);
        {
          telemetry::ScopedSpan merge_span("synth.merge");
          flush_merged();
          merged_index_.restore_lookups();
          merge_span.set_items(merged_index_.size());
        }
        merged_model_ = synthesize_index(merged_index_, config_);
        merged_index_.release_lookups();
      } catch (const std::exception& e) {
        return make_error(ErrorCode::SynthesisFailed, e.what(),
                          "merged stream");
      }
      merged_dirty_ = false;
    } else {
      SessionMetrics::get().cache_hits.inc();
    }
    return merged_model_;
  }

  if (Error error = synthesize_dirty(); error.code != ErrorCode::None) {
    return error;
  }
  if (traces_.size() == 1) return traces_[0].model;

  core::TimingModel combined;
  for (const TraceState& trace : traces_) {
    combined.dag.merge(trace.model.dag);
    combined.node_callbacks.insert(combined.node_callbacks.end(),
                                   trace.model.node_callbacks.begin(),
                                   trace.model.node_callbacks.end());
  }
  return combined;
}

Result<predict::PredictionResult> SynthesisSession::predict(
    const predict::PredictionConfig& config) {
  Result<core::TimingModel> model_result = model();
  if (!model_result.ok()) return model_result.error();
  // The replay only reads the DAG; the model (incl. its cache) stays put.
  return predict::ModelSimulator(model_result.value().dag, config).predict();
}

Result<core::MultiModeDag> SynthesisSession::multi_mode_model() {
  if (segments_.empty()) {
    return make_error(ErrorCode::EmptySession,
                      "no events ingested before multi_mode_model()", "");
  }
  if (Error error = synthesize_dirty(); error.code != ErrorCode::None) {
    return error;
  }
  core::MultiModeDag multi;
  for (const TraceState& trace : traces_) {
    const std::string& mode =
        trace.mode.empty() ? config_.default_mode() : trace.mode;
    multi.merge_into_mode(mode, trace.model.dag);
  }
  return multi;
}

Result<SynthesisSession::TraceState*> SynthesisSession::synthesized_trace(
    const std::string& trace_id) {
  auto it = trace_index_.find(trace_id);
  if (it == trace_index_.end()) {
    return make_error(ErrorCode::UnknownTrace, "no such trace in session",
                      trace_id);
  }
  TraceState& trace = traces_[it->second];
  if (trace.dirty) {
    try {
      flush_merged();
      synthesize_trace(trace, telemetry::ScopedSpan::current_id());
    } catch (const std::exception& e) {
      return make_error(ErrorCode::SynthesisFailed, e.what(), trace_id);
    }
  }
  return &trace;
}

Result<core::TimingModel> SynthesisSession::trace_model(
    const std::string& trace_id) & {
  Result<TraceState*> trace = synthesized_trace(trace_id);
  if (!trace.ok()) return trace.error();
  return trace.value()->model;
}

Result<core::TimingModel> SynthesisSession::trace_model(
    const std::string& trace_id) && {
  Result<TraceState*> trace = synthesized_trace(trace_id);
  if (!trace.ok()) return trace.error();
  // The cached model is handed over, so the trace is dirty again.
  trace.value()->dirty = true;
  return std::move(trace.value()->model);
}

Result<trace::EventVector> SynthesisSession::merged_events(
    const std::string& trace_id) const {
  auto it = trace_index_.find(trace_id);
  if (it == trace_index_.end()) {
    return make_error(ErrorCode::UnknownTrace, "no such trace in session",
                      trace_id);
  }
  const TraceState& trace = traces_[it->second];
  if (trace.sealed) {
    return make_error(ErrorCode::InvalidArgument,
                      "trace events were released", trace_id);
  }
  trace::EventVector events;
  if (config_.merge_strategy() == MergeStrategy::MergeTraces) {
    const trace::ColumnsView all = merged_index_.view();
    for (const auto& [first, count] : trace.merged_rows) {
      append_decoded(events, all.slice(first, count));
    }
    const std::size_t pos = it->second;
    for (const auto& [trace_pos, segment] : merged_pending_) {
      if (trace_pos == pos) append_rows(events, segment);
    }
  } else {
    append_decoded(events, trace.inc ? trace.inc->index().view()
                                     : trace.index.view());
    for (const Segment& segment : trace.pending) append_rows(events, segment);
  }
  // Rows are in ingestion order; the stable sort restores the (time,
  // ingestion order) merged order.
  if (!trace::is_time_sorted(events)) trace::sort_by_time(events);
  return events;
}

Result<std::size_t> SynthesisSession::release_events(
    const std::string& trace_id) {
  if (config_.merge_strategy() == MergeStrategy::MergeTraces) {
    return make_error(ErrorCode::InvalidArgument,
                      "release_events requires the MergeDags strategy",
                      trace_id);
  }
  auto it = trace_index_.find(trace_id);
  if (it == trace_index_.end()) {
    return make_error(ErrorCode::UnknownTrace, "no such trace in session",
                      trace_id);
  }
  TraceState& trace = traces_[it->second];
  if (trace.dirty) {
    try {
      synthesize_trace(trace, telemetry::ScopedSpan::current_id());
    } catch (const std::exception& e) {
      return make_error(ErrorCode::SynthesisFailed, e.what(), trace_id);
    }
  }
  // Synthesis drained `pending`; the index holds every event.
  const std::size_t freed =
      trace.inc ? trace.inc->event_count() : trace.index.size();
  trace.inc.reset();
  trace.index = core::TraceIndex();
  trace.sealed = true;
  return freed;
}

std::vector<std::string> SynthesisSession::trace_ids() const {
  std::vector<std::string> ids;
  ids.reserve(traces_.size());
  for (const auto& trace : traces_) ids.push_back(trace.id);
  return ids;
}

void SynthesisSession::clear() {
  traces_.clear();
  trace_index_.clear();
  segments_.clear();
  event_count_ = 0;
  auto_trace_counter_ = 0;
  merged_pending_.clear();
  merged_index_ = core::TraceIndex();
  merged_model_ = {};
  merged_dirty_ = true;
}

}  // namespace tetra::api
