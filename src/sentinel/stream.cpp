#include "sentinel/stream.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <tuple>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "trace/event_view.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"

namespace tetra::sentinel {

namespace {

/// Rows as one time-sorted columns batch, sorted only when unsorted.
trace::EventColumns sorted_columns(trace::EventVector events) {
  if (!trace::is_time_sorted(events)) trace::sort_by_time(events);
  trace::EventColumns columns;
  columns.append(events);
  return columns;
}

/// A trace file as the sentinel reads it, for one-shot checks and feeds
/// alike: a time-sorted .ttb file stays mapped and is used in place;
/// anything else (JSONL, an unsorted .ttb) is decoded and time-sorted.
struct TraceFile {
  std::optional<trace::TtbReader> mapped;
  trace::EventColumns decoded;

  trace::ColumnsView view() const {
    return mapped.has_value() ? mapped->view() : decoded.view();
  }
};

api::Error load_trace_file(const std::string& path, TraceFile& file) {
  try {
    if (!trace::is_ttb_file(path)) {
      file.decoded = sorted_columns(trace::read_jsonl_file(path));
      return {};
    }
    trace::TtbReader reader(path);
    if (trace::is_time_sorted(reader.view())) {
      file.mapped.emplace(std::move(reader));
    } else {
      file.decoded = sorted_columns(reader.materialize());
    }
  } catch (const std::exception& e) {
    return api::Error{api::ErrorCode::Io, e.what(), path};
  }
  return {};
}

struct StreamMetrics {
  telemetry::Counter& advanced = telemetry::MetricsRegistry::global().counter(
      "sentinel.windows_advanced");
  telemetry::Counter& refreshes = telemetry::MetricsRegistry::global().counter(
      "sentinel.refreshes");

  static StreamMetrics& get() {
    static StreamMetrics metrics;
    return metrics;
  }
};

/// The mutation axes drift localization ranks, in rank-tie order.
constexpr const char* kAxisDropEdge = "drop-edge";
constexpr const char* kAxisAddEdge = "add-edge";
constexpr const char* kAxisRetimeTimer = "retime-timer";
constexpr const char* kAxisScaleExecTime = "scale-exec-time";
constexpr const char* kAxisReprioritize = "reprioritize";

/// How strongly evidence on one drift axis implicates each mutation
/// axis. Structural evidence is near-diagnostic; latency evidence is
/// shared — a retimed timer, a scaled callback and a reprioritized
/// executor all move chain latency, but only the last moves *nothing
/// else*, so reprioritize leans on it hardest.
std::vector<std::pair<const char*, double>> axis_weights(DriftKind kind) {
  switch (kind) {
    case DriftKind::VertexRemoved: return {{kAxisDropEdge, 0.9}};
    case DriftKind::EdgeRemoved: return {{kAxisDropEdge, 1.0}};
    case DriftKind::VertexAdded: return {{kAxisAddEdge, 0.9}};
    case DriftKind::EdgeAdded: return {{kAxisAddEdge, 1.0}};
    case DriftKind::PeriodShift: return {{kAxisRetimeTimer, 1.0}};
    case DriftKind::ExecTimeShift: return {{kAxisScaleExecTime, 1.0}};
    case DriftKind::LatencyEnvelope:
      return {{kAxisReprioritize, 0.5},
              {kAxisRetimeTimer, 0.2},
              {kAxisScaleExecTime, 0.2}};
    case DriftKind::DeadlineViolation:
      return {{kAxisReprioritize, 0.3}, {kAxisScaleExecTime, 0.2}};
  }
  return {};
}

}  // namespace

StreamSentinel::StreamSentinel(SentinelConfig config)
    : config_(std::move(config)), engine_(config_) {}

api::Result<api::SegmentInfo> StreamSentinel::ingest_baseline(
    trace::EventVector events) {
  return engine_.ingest_baseline(std::move(events));
}

api::Result<api::SegmentInfo> StreamSentinel::ingest_baseline_file(
    const std::string& path) {
  return engine_.ingest_baseline_file(path);
}

api::Result<core::TimingModel> StreamSentinel::baseline_model() {
  return engine_.baseline_model();
}

api::Result<DriftVerdict> StreamSentinel::check(trace::EventVector events) {
  auto analysis = engine_.analyze(sorted_columns(std::move(events)));
  if (!analysis.ok()) return analysis.error();
  return std::move(analysis).take().verdict;
}

api::Result<DriftVerdict> StreamSentinel::check_file(const std::string& path) {
  api::Error error = engine_.ensure_baseline();
  if (error.code != api::ErrorCode::None) return error;
  TraceFile file;
  error = load_trace_file(path, file);
  if (error.code != api::ErrorCode::None) return error;
  // The window session takes its columns over, so a mapped file is
  // copied once; decoded columns move in.
  trace::EventColumns window = std::move(file.decoded);
  if (file.mapped.has_value()) window.append(file.mapped->view());
  auto analysis = engine_.analyze(std::move(window));
  if (!analysis.ok()) return analysis.error();
  return std::move(analysis).take().verdict;
}

api::Error StreamSentinel::check_ready() {
  const Duration span = config_.window_span;
  const Duration advance = config_.window_advance;
  if (span.count_ns() <= 0 || advance.count_ns() <= 0) {
    return api::Error{api::ErrorCode::InvalidArgument,
                      "window span and advance must be positive", "stream"};
  }
  if (advance > span) {
    return api::Error{
        api::ErrorCode::InvalidArgument,
        "window advance exceeds the span: events between windows would "
        "never be checked",
        "stream"};
  }
  return engine_.ensure_baseline();
}

api::Result<std::vector<WindowVerdict>> StreamSentinel::feed(
    trace::EventVector events) {
  const trace::EventColumns batch = sorted_columns(std::move(events));
  return feed_sorted(batch.view());
}

api::Result<std::vector<WindowVerdict>> StreamSentinel::feed_file(
    const std::string& path) {
  TraceFile file;
  const api::Error error = load_trace_file(path, file);
  if (error.code != api::ErrorCode::None) return error;
  return feed_sorted(file.view());
}

api::Result<std::vector<WindowVerdict>> StreamSentinel::feed_sorted(
    const trace::ColumnsView& batch) {
  const api::Error error = check_ready();
  if (error.code != api::ErrorCode::None) return error;
  telemetry::ScopedSpan stream_span("sentinel.stream");
  std::size_t late = 0;
  if (!config_.rebase_segments && have_origin_) {
    // Late events precede the window the stream already committed to;
    // dropping them keeps verdicts append-only and deterministic.
    const std::int64_t start = window_start_.count_ns();
    late = static_cast<std::size_t>(
        std::partition_point(batch.time, batch.time + batch.count,
                             [&](std::int64_t t) { return t < start; }) -
        batch.time);
    late_events_ += late;
  }
  const std::size_t base = buffer_.size();
  buffer_.append(batch.slice(late, batch.count - late));
  const std::size_t end = buffer_.size();
  if (end > base) {
    if (config_.rebase_segments && have_origin_) {
      std::int64_t offset = 0;
      if (__builtin_sub_overflow(
              (stream_end_ + config_.rebase_gap).count_ns(),
              buffer_.view().time[base], &offset) ||
          !buffer_.shift_time(base, offset)) {
        buffer_.truncate(base);
        return api::Error{api::ErrorCode::InvalidArgument,
                          "rebased segment leaves the timestamp range",
                          "stream"};
      }
    }
    const trace::ColumnsView rows = buffer_.view();
    if (!have_origin_) {
      have_origin_ = true;
      window_start_ = TimePoint{rows.time[base]};
      stream_end_ = window_start_;
    }
    stream_end_ = std::max(stream_end_, TimePoint{rows.time[end - 1]});
    update_node_table(base);
    buffer_.merge_tail(base);
  }
  auto verdicts = advance_windows();
  if (verdicts.ok()) stream_span.set_items(verdicts.value().size());
  return verdicts;
}

void StreamSentinel::update_node_table(std::size_t from) {
  const trace::ColumnsView batch = buffer_.view();
  const trace::ColumnsView table = node_rows_.view();
  // pid -> (source, row) of the row naming it: the table's rows, replaced
  // by the batch's in batch order, so the latest one fed wins.
  std::map<Pid, std::pair<const trace::ColumnsView*, std::size_t>> latest;
  for (std::size_t i = from; i < batch.count; ++i) {
    if (static_cast<trace::EventType>(batch.type[i]) ==
        trace::EventType::RmwCreateNode) {
      latest[static_cast<Pid>(batch.pid[i])] = {&batch, i};
    }
  }
  if (latest.empty()) return;
  for (std::size_t i = 0; i < table.count; ++i) {
    latest.try_emplace(static_cast<Pid>(table.pid[i]), &table, i);
  }
  trace::EventColumns rebuilt;
  std::vector<std::uint32_t> batch_remap(batch.string_count,
                                         trace::EventColumns::npos);
  std::vector<std::uint32_t> table_remap(table.string_count,
                                         trace::EventColumns::npos);
  for (const auto& [pid, source] : latest) {
    rebuilt.append(source.first->slice(source.second, 1),
                   source.first == &batch ? batch_remap : table_remap);
  }
  node_rows_ = std::move(rebuilt);
}

std::size_t StreamSentinel::first_row_at(TimePoint t) const {
  const trace::ColumnsView rows = buffer_.view();
  const std::int64_t ns = t.count_ns();
  return static_cast<std::size_t>(
      std::partition_point(rows.time, rows.time + rows.count,
                           [&](std::int64_t time) { return time < ns; }) -
      rows.time);
}

trace::EventColumns StreamSentinel::window_columns(TimePoint begin,
                                                   TimePoint end) const {
  const trace::ColumnsView rows = buffer_.view();
  const trace::ColumnsView nodes = node_rows_.view();
  const std::size_t lo = first_row_at(begin);
  const std::size_t hi = first_row_at(end);
  trace::EventColumns window;
  window.reserve(nodes.count + (hi - lo));
  std::vector<std::uint32_t> row_remap(rows.string_count,
                                       trace::EventColumns::npos);
  std::vector<std::uint32_t> node_remap(nodes.string_count,
                                        trace::EventColumns::npos);
  // Buffered rows [from, to) minus their RmwCreateNode rows, which the
  // node table already carries.
  const auto copy_rows = [&](std::size_t from, std::size_t to) {
    std::size_t run = from;
    for (std::size_t i = from; i < to; ++i) {
      if (static_cast<trace::EventType>(rows.type[i]) ==
          trace::EventType::RmwCreateNode) {
        if (i > run) window.append(rows.slice(run, i - run), row_remap);
        run = i + 1;
      }
    }
    if (to > run) window.append(rows.slice(run, to - run), row_remap);
  };
  // The sticky node table rides along even when the creation events fall
  // outside the window: extraction resolves node names by pid, not time.
  // Each node row goes before the buffered rows of its own time.
  std::vector<std::size_t> node_order(nodes.count);
  std::iota(node_order.begin(), node_order.end(), std::size_t{0});
  std::stable_sort(node_order.begin(), node_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return nodes.time[a] < nodes.time[b];
                   });
  std::size_t next = lo;
  for (const std::size_t node : node_order) {
    const std::int64_t t = nodes.time[node];
    const std::size_t until = static_cast<std::size_t>(
        std::partition_point(rows.time + next, rows.time + hi,
                             [&](std::int64_t time) { return time < t; }) -
        rows.time);
    copy_rows(next, until);
    next = until;
    window.append(nodes.slice(node, 1), node_remap);
  }
  copy_rows(next, hi);
  return window;
}

api::Result<std::vector<WindowVerdict>> StreamSentinel::advance_windows() {
  std::vector<WindowVerdict> verdicts;
  if (!have_origin_) return verdicts;
  const Duration span = config_.window_span;
  const Duration advance = config_.window_advance;

  while (stream_end_ - window_start_ >= span) {
    const TimePoint begin = window_start_;
    const TimePoint end = begin + span;
    trace::EventColumns window = window_columns(begin, end);
    const bool empty = window.size() <= node_rows_.size();
    if (empty) {
      // A gap in the stream (e.g. a large rebase jump): skip empty
      // windows in one step instead of evaluating vacuous total drift
      // once per advance.
      const std::size_t next = first_row_at(begin);
      if (next == buffer_.size()) {
        // Nothing buffered ahead either; wait for more data.
        break;
      }
      const std::int64_t gap_ns =
          buffer_.view().time[next] - begin.count_ns();
      const std::int64_t steps =
          std::max<std::int64_t>(1, gap_ns / advance.count_ns());
      windows_skipped_empty_ += static_cast<std::size_t>(steps);
      window_index_ += static_cast<std::size_t>(steps);
      window_start_ += advance * steps;
      continue;
    }

    auto analysis = engine_.analyze(std::move(window));
    if (!analysis.ok()) return analysis.error();
    WindowVerdict verdict =
        evaluate_window(begin, end, std::move(analysis).take());

    if (config_.refresh_after > 0 && !verdict.alarmed &&
        verdict.window_drifted &&
        consecutive_shifted_ >= config_.refresh_after) {
      const api::Error error = refresh_baseline_from_stream(begin, end);
      if (error.code != api::ErrorCode::None) return error;
      verdict.refreshed = true;
    }

    verdicts.push_back(std::move(verdict));
    ++windows_advanced_;
    ++window_index_;
    StreamMetrics::get().advanced.inc();
    window_start_ += advance;

    // Evict behind the window, keeping the refresh horizon when
    // auto-refresh needs to fold recent windows into a new baseline.
    Duration retain = Duration::zero();
    if (config_.refresh_after > 0) {
      retain = advance * static_cast<std::int64_t>(config_.refresh_after);
    }
    buffer_.erase_front(first_row_at(window_start_ - retain));
  }
  return verdicts;
}
CusumAccumulator StreamSentinel::make_accumulator(DriftKind kind) const {
  switch (kind) {
    case DriftKind::VertexAdded:
    case DriftKind::VertexRemoved:
    case DriftKind::EdgeAdded:
    case DriftKind::EdgeRemoved:
      // Presence indicator (0/1) with allowance 0.5: crosses after
      // structural_hits consecutive present windows, decays at the same
      // rate over absent ones.
      return CusumAccumulator(
          0.5, 0.5 * static_cast<double>(config_.structural_hits));
    case DriftKind::PeriodShift:
      return CusumAccumulator(
          config_.cusum_reference_fraction * config_.period_tolerance,
          config_.cusum_threshold_fraction * config_.period_tolerance);
    case DriftKind::LatencyEnvelope:
      return CusumAccumulator(
          config_.cusum_reference_fraction * config_.latency_tolerance,
          config_.cusum_threshold_fraction * config_.latency_tolerance);
    case DriftKind::ExecTimeShift:
      // Restarted e-process: log e-values accumulate with no allowance;
      // Ville's inequality puts the crossing budget at ln(1/alpha).
      return CusumAccumulator(0.0,
                              e_value_log_threshold(config_.evidence_alpha));
    case DriftKind::DeadlineViolation:
      break;  // alarms immediately, never accumulated
  }
  return CusumAccumulator(0.0, 1.0);
}

WindowVerdict StreamSentinel::evaluate_window(TimePoint begin, TimePoint end,
                                              WindowAnalysis analysis) {
  WindowVerdict verdict;
  verdict.index = window_index_;
  verdict.begin = begin;
  verdict.end = end;
  verdict.events = analysis.verdict.window_events;
  verdict.checks = analysis.verdict.checks;
  verdict.transient = std::move(analysis.verdict.findings);
  verdict.window_drifted = analysis.verdict.drifted;

  // Feed this window's observations into the sequential accumulators.
  for (const AxisObservation& obs : analysis.observations) {
    if (obs.kind == DriftKind::DeadlineViolation) {
      // Hard violations alarm immediately; there is nothing to
      // accumulate about an SLO breach.
      DriftFinding finding;
      finding.kind = obs.kind;
      finding.subject = obs.subject;
      finding.detail = obs.detail;
      finding.statistic = obs.value;
      finding.p_value = 0.0;
      finding.evidence = obs.value;
      finding.windows = 1;
      verdict.alarms.push_back(std::move(finding));
      continue;
    }
    Evidence& evidence =
        evidence_
            .try_emplace(AccumulatorKey{obs.kind, obs.subject},
                         make_accumulator(obs.kind))
            .first->second;
    CusumAccumulator& acc = evidence.acc;
    if (obs.kind == DriftKind::ExecTimeShift) {
      if (obs.n_baseline < config_.sequential_min_samples ||
          obs.n_window < config_.sequential_min_samples) {
        continue;  // starved window: no evidence either way
      }
      acc.observe(std::log(
          p_to_e_value(obs.p_value, config_.max_window_e_value)));
    } else {
      acc.observe(obs.value);
    }
    evidence.observed_in = window_index_;
    if (!obs.detail.empty()) {
      evidence.last_detail = obs.detail;
    } else if (obs.kind == DriftKind::ExecTimeShift) {
      evidence.last_detail = "KS D = " + format_double(obs.value);
    }
  }
  // Structural accumulators decay over windows where the difference is
  // gone (the debounce half of the hysteresis); the delta axes re-observe
  // every window by construction, so only structural keys need this.
  for (auto& [key, evidence] : evidence_) {
    const bool structural = key.first == DriftKind::VertexAdded ||
                            key.first == DriftKind::VertexRemoved ||
                            key.first == DriftKind::EdgeAdded ||
                            key.first == DriftKind::EdgeRemoved;
    if (structural && evidence.observed_in != window_index_) {
      evidence.acc.observe(0.0);
    }
  }

  // Emit an alarm for every accumulator over its budgeted level.
  for (const auto& [key, evidence] : evidence_) {
    const CusumAccumulator& acc = evidence.acc;
    if (!acc.crossed()) continue;
    DriftFinding finding;
    finding.kind = key.first;
    finding.subject = key.second;
    finding.statistic = acc.value();
    finding.evidence = acc.value();
    finding.windows = acc.observations();
    if (key.first == DriftKind::ExecTimeShift) {
      // Anytime-valid bound on the accumulated e-process (satellite 3:
      // NOT a per-window KS p-value).
      finding.p_value = std::min(1.0, std::exp(-acc.value()));
    } else {
      finding.p_value = config_.evidence_alpha;
    }
    std::string detail = "sequential evidence crossed after " +
                         std::to_string(acc.observations()) +
                         " windows (S = " + format_double(acc.value()) +
                         ", threshold = " + format_double(acc.threshold()) +
                         ")";
    if (!evidence.last_detail.empty()) {
      detail += "; last window: " + evidence.last_detail;
    }
    finding.detail = std::move(detail);
    verdict.alarms.push_back(std::move(finding));
  }
  std::sort(verdict.alarms.begin(), verdict.alarms.end(),
            [](const DriftFinding& a, const DriftFinding& b) {
              return std::tie(a.kind, a.subject) < std::tie(b.kind, b.subject);
            });
  verdict.alarmed = !verdict.alarms.empty();
  // Localization explains findings; a clean window has nothing to
  // localize and must not render its residual evidence as a ranking.
  if (verdict.alarmed || verdict.window_drifted) {
    verdict.localization = localize();
  }

  // Refresh hysteresis: count consecutive clean-but-shifted windows. A
  // window under an active alarm never counts (the operator is already
  // paged; auto-refresh must not absorb alarmed drift), and a clean
  // window breaks the streak.
  if (verdict.alarmed || !verdict.window_drifted) {
    consecutive_shifted_ = 0;
  } else {
    ++consecutive_shifted_;
  }
  return verdict;
}

std::vector<AxisScore> StreamSentinel::localize() const {
  // Accumulators far from their threshold are noise (a clean stream's
  // e-process wobbles a little above zero); ranking them would render a
  // confident-looking localization out of nothing.
  constexpr double kMinFraction = 0.1;
  std::map<std::string, double> scores;
  for (const auto& [key, evidence] : evidence_) {
    const CusumAccumulator& acc = evidence.acc;
    if (acc.value() <= 0.0) continue;
    const double fraction =
        acc.threshold() > 0.0 ? std::min(1.0, acc.value() / acc.threshold())
                              : 1.0;
    if (fraction < kMinFraction) continue;
    for (const auto& [axis, weight] : axis_weights(key.first)) {
      scores[axis] += weight * fraction;
    }
  }
  double total = 0.0;
  for (const auto& [axis, score] : scores) total += score;
  std::vector<AxisScore> ranked;
  if (total <= 0.0) return ranked;
  for (const auto& [axis, score] : scores) {
    ranked.push_back(AxisScore{axis, score / total});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const AxisScore& a, const AxisScore& b) {
              return std::tie(b.score, a.axis) < std::tie(a.score, b.axis);
            });
  return ranked;
}

api::Error StreamSentinel::refresh_baseline_from_stream(TimePoint window_begin,
                                                        TimePoint window_end) {
  // Fold the union of the last refresh_after windows into the new
  // baseline: [begin - (K-1) * advance, end) is still buffered because
  // eviction retains the refresh horizon.
  const TimePoint fold_begin =
      window_begin -
      config_.window_advance *
          static_cast<std::int64_t>(config_.refresh_after - 1);
  trace::EventColumns fold = window_columns(fold_begin, window_end);
  engine_.reset_baseline();
  auto ingested = engine_.ingest_baseline(std::move(fold));
  if (!ingested.ok()) return ingested.error();
  const api::Error error = engine_.ensure_baseline();
  if (error.code != api::ErrorCode::None) return error;
  // The old evidence measured distance to the retired baseline.
  evidence_.clear();
  consecutive_shifted_ = 0;
  ++refreshes_;
  StreamMetrics::get().refreshes.inc();
  return {};
}

}  // namespace tetra::sentinel
