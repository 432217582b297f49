// StreamSentinel: drift detection against a baseline synthesized model,
// one-shot and over a continuous event stream.
//
// The paper synthesizes a timing model once from a recorded trace; a
// fleet operator re-synthesizes continuously and needs to know when the
// model stopped matching reality. The sentinel holds a baseline (one or
// more trace segments ingested through api::SynthesisSession) and
// compares fresh windows against it through its DriftEngine.
//
// One-shot checks (check / check_file) evaluate one independent window
// with per-window thresholds:
//
//   sentinel::StreamSentinel sentinel;
//   sentinel.ingest_baseline_file("baseline.jsonl");
//   auto verdict = sentinel.check_file("window.jsonl");
//   if (verdict.ok() && verdict->drifted) alert(verdict_to_json(*verdict));
//
// Streaming (feed / feed_file) maintains a sliding window of
// configurable span and advance over incrementally arriving events, and
// every window advance re-runs the drift axes against the baseline. There
// per-axis evidence accumulates *sequentially* across windows — a
// one-sided CUSUM over period/latency deltas and structural presence, and
// a restarted e-process over the per-window KS p-values — so an alarm
// fires when the accumulated evidence crosses a budgeted level (Ville's
// inequality), not when one window happens to look odd.
//
//   sentinel::StreamSentinel stream(config);
//   stream.ingest_baseline_file("baseline.jsonl");
//   auto verdicts = stream.feed_file("segment-000.jsonl");
//   for (const auto& w : verdicts.value())
//     if (w.alarmed) page(window_verdict_to_json(w));
//
// Drift localization ranks which ScenarioGenerator::mutate axis best
// explains the accumulated findings, and baseline auto-refresh (with
// hysteresis, config.refresh_after) folds a persistently clean-but-
// shifted stream into a new baseline — emitting an operator-visible
// BaselineRefreshed window flag, never silently.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/result.hpp"
#include "sentinel/engine.hpp"
#include "support/statistics.hpp"
#include "support/time.hpp"
#include "trace/event.hpp"
#include "trace/event_columns.hpp"

namespace tetra::sentinel {

class StreamSentinel {
 public:
  StreamSentinel() : StreamSentinel(SentinelConfig{}) {}
  explicit StreamSentinel(SentinelConfig config);

  // -- baseline -----------------------------------------------------------

  /// Adds one event segment to the baseline trace. May be called several
  /// times (segments k-way merge); the baseline model is re-synthesized
  /// lazily on the next check or feed.
  api::Result<api::SegmentInfo> ingest_baseline(trace::EventVector events);
  /// Reads a JSONL or .ttb trace file into the baseline.
  api::Result<api::SegmentInfo> ingest_baseline_file(const std::string& path);
  /// The baseline model (synthesizing it first if dirty).
  api::Result<core::TimingModel> baseline_model();

  // -- one-shot windows ---------------------------------------------------

  /// Synthesizes `events` as one independent window and compares it
  /// against the baseline; no streaming state is touched.
  /// InvalidArgument before any baseline was ingested.
  api::Result<DriftVerdict> check(trace::EventVector events);
  /// Reads a JSONL or .ttb trace file and checks it as one window. A
  /// time-sorted .ttb file is copied from its mapped columns without
  /// decoding rows.
  api::Result<DriftVerdict> check_file(const std::string& path);

  // -- streaming ----------------------------------------------------------

  /// Feeds one batch of events into the stream and returns the verdicts
  /// of every window that closed. InvalidArgument when the window
  /// geometry is invalid (advance > span, non-positive span/advance) or
  /// no baseline was ingested. With config.rebase_segments each batch
  /// after the first is shifted to start rebase_gap after the previous
  /// batch's last event (InvalidArgument, and the batch is not fed, when
  /// that would move a timestamp out of trace::kTimestampLimitNs);
  /// without it, events older than the current window start are dropped
  /// (and counted in late_events()).
  api::Result<std::vector<WindowVerdict>> feed(trace::EventVector events);
  /// Reads a JSONL or .ttb trace file and feeds it as one batch. A
  /// time-sorted .ttb file is appended from its mapped columns without
  /// decoding rows.
  api::Result<std::vector<WindowVerdict>> feed_file(const std::string& path);

  // -- introspection ------------------------------------------------------

  const SentinelConfig& config() const { return config_; }
  /// Windows evaluated in total (streaming advances + one-shot checks).
  std::size_t windows_checked() const { return engine_.windows_analyzed(); }
  /// Streaming windows closed so far.
  std::size_t windows_advanced() const { return windows_advanced_; }
  /// Baseline auto-refreshes fired so far.
  std::size_t refreshes() const { return refreshes_; }
  /// Events dropped because they arrived before the current window start
  /// (only possible with config.rebase_segments off).
  std::size_t late_events() const { return late_events_; }
  /// Empty windows skipped over stream gaps (no events in span).
  std::size_t windows_skipped_empty() const { return windows_skipped_empty_; }

 private:
  /// One sequential accumulator per (axis, subject).
  using AccumulatorKey = std::pair<DriftKind, std::string>;

  /// Geometry and baseline checks every feed starts with.
  api::Error check_ready();
  /// Feeds one time-sorted batch: drops its late rows, appends the rest
  /// to the buffer, rebases them, updates the node table, merges them
  /// into the buffer's time order and closes every window they complete.
  api::Result<std::vector<WindowVerdict>> feed_sorted(
      const trace::ColumnsView& batch);
  /// Replaces node-table rows by the batch's RmwCreateNode rows
  /// (buffer rows [from, size()), still in batch order).
  void update_node_table(std::size_t from);
  /// First buffered row at or after `t`.
  std::size_t first_row_at(TimePoint t) const;
  api::Result<std::vector<WindowVerdict>> advance_windows();
  WindowVerdict evaluate_window(TimePoint begin, TimePoint end,
                                WindowAnalysis analysis);
  /// Folds the last refresh_after windows into a new baseline.
  api::Error refresh_baseline_from_stream(TimePoint window_begin,
                                          TimePoint window_end);
  CusumAccumulator make_accumulator(DriftKind kind) const;
  std::vector<AxisScore> localize() const;
  /// The window [begin, end) as columns: the node table plus the buffered
  /// rows in range except their RmwCreateNode rows, in time order with
  /// node-table rows first among equal times.
  trace::EventColumns window_columns(TimePoint begin, TimePoint end) const;

  SentinelConfig config_;
  DriftEngine engine_;

  /// Buffered stream events, time-sorted; evicted behind the window (plus
  /// the refresh horizon when auto-refresh is enabled).
  trace::EventColumns buffer_;
  /// Sticky node table: the latest RmwCreateNode row per pid, in pid
  /// order. Node creation happens once at process start, so mid-stream
  /// windows would otherwise synthesize nameless callbacks whose vertex
  /// keys all differ from the baseline — every clean window would look
  /// like total structural drift. Every window carries the table.
  trace::EventColumns node_rows_;

  bool have_origin_ = false;
  TimePoint window_start_;
  TimePoint stream_end_;
  std::size_t window_index_ = 0;

  /// The sequential accumulator of one (axis, subject).
  struct Evidence {
    explicit Evidence(CusumAccumulator accumulator) : acc(accumulator) {}
    CusumAccumulator acc;
    /// Detail/value of the last observation, for alarm rendering.
    std::string last_detail;
    /// Index of the last window that observed it.
    std::size_t observed_in = static_cast<std::size_t>(-1);
  };
  std::map<AccumulatorKey, Evidence> evidence_;

  std::size_t consecutive_shifted_ = 0;
  std::size_t windows_advanced_ = 0;
  std::size_t refreshes_ = 0;
  std::size_t late_events_ = 0;
  std::size_t windows_skipped_empty_ = 0;
};

}  // namespace tetra::sentinel
