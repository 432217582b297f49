#include "sentinel/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

#include "analysis/chains.hpp"
#include "support/statistics.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace tetra::sentinel {

namespace {

constexpr const char* kBaselineTraceId = "baseline";

struct SentinelMetrics {
  telemetry::Counter& windows = telemetry::MetricsRegistry::global().counter(
      "sentinel.windows_checked");
  telemetry::Histogram& ks_ns = telemetry::MetricsRegistry::global().histogram(
      "sentinel.ks_test_ns",
      {1'000, 10'000, 100'000, 1'000'000, 10'000'000, 100'000'000});

  static SentinelMetrics& get() {
    static SentinelMetrics metrics;
    return metrics;
  }

  telemetry::Counter& findings(DriftKind kind) {
    return telemetry::MetricsRegistry::global().counter(
        "sentinel.findings", {{"kind", std::string(to_string(kind))}});
  }
};

/// Raw per-label execution-time samples (ns) of a synthesized model. A
/// label maps to exactly one record per node list; records from several
/// lists (one per node) never share labels.
std::map<std::string, std::vector<double>> collect_exec_samples(
    const core::TimingModel& model) {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& list : model.node_callbacks) {
    for (const auto& record : list.records) {
      if (record.label.empty()) continue;
      auto& out = samples[record.label];
      out.reserve(out.size() + record.exec_times.size());
      for (const auto exec : record.exec_times) {
        out.push_back(static_cast<double>(exec.count_ns()));
      }
    }
  }
  return samples;
}

/// The vertex keys of a DAG, as views into it.
std::set<std::string_view> vertex_keys(const core::Dag& dag) {
  std::set<std::string_view> keys;
  for (const auto& vertex : dag.vertices()) keys.insert(vertex.key);
  return keys;
}

/// (from, to, topic) of an edge: owned (baseline side), or viewing the
/// DAG's strings.
using EdgeKey = std::tuple<std::string, std::string, std::string>;
using EdgeView =
    std::tuple<std::string_view, std::string_view, std::string_view>;

std::set<EdgeView> edge_keys(const core::Dag& dag) {
  std::set<EdgeView> keys;
  for (const auto& edge : dag.edges()) {
    keys.insert(EdgeView{edge.from, edge.to, edge.topic});
  }
  return keys;
}

std::string chain_key(const std::vector<std::string>& topics) {
  std::string key;
  for (const auto& topic : topics) {
    if (!key.empty()) key += " -> ";
    key += topic;
  }
  return key;
}

AxisObservation structural_observation(DriftKind kind, std::string subject,
                                       std::string detail) {
  AxisObservation obs;
  obs.kind = kind;
  obs.subject = std::move(subject);
  obs.value = 1.0;
  obs.p_value = 0.0;
  obs.finding = true;
  obs.detail = std::move(detail);
  return obs;
}

void add_structural_observations(
    const std::set<std::string, std::less<>>& base_vertices,
    const std::set<EdgeKey, std::less<>>& base_edges, const core::Dag& window,
    std::vector<AxisObservation>& observations) {
  const auto window_vertices = vertex_keys(window);
  for (const auto& key : base_vertices) {
    if (window_vertices.count(key) == 0) {
      observations.push_back(structural_observation(
          DriftKind::VertexRemoved, key,
          "callback present in the baseline model never executed in the "
          "window"));
    }
  }
  for (const auto& key : window_vertices) {
    if (base_vertices.count(key) == 0) {
      observations.push_back(structural_observation(
          DriftKind::VertexAdded, std::string(key),
          "window executed a callback the baseline model does not contain"));
    }
  }

  const auto win_edges = edge_keys(window);
  for (const auto& [from, to, topic] : base_edges) {
    if (win_edges.count(EdgeView{from, to, topic}) == 0) {
      observations.push_back(structural_observation(
          DriftKind::EdgeRemoved, from + " -> " + to,
          "baseline precedence relation on " + topic +
              " absent from the window"));
    }
  }
  for (const auto& edge : win_edges) {
    if (base_edges.count(edge) == 0) {
      const auto& [from, to, topic] = edge;
      observations.push_back(structural_observation(
          DriftKind::EdgeAdded, std::string(from).append(" -> ").append(to),
          "window shows a precedence relation on " + std::string(topic) +
              " the baseline lacks"));
    }
  }
}

}  // namespace

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", v);
  return buffer;
}

DriftEngine::DriftEngine(SentinelConfig config)
    : config_(std::move(config)), session_(config_.synthesis) {}

api::Result<api::SegmentInfo> DriftEngine::ingest_baseline(
    trace::EventVector events) {
  baseline_.valid = false;
  api::IngestOptions ingest;
  ingest.trace_id = kBaselineTraceId;
  return session_.ingest(std::move(events), ingest);
}

api::Result<api::SegmentInfo> DriftEngine::ingest_baseline(
    trace::EventColumns events) {
  baseline_.valid = false;
  api::IngestOptions ingest;
  ingest.trace_id = kBaselineTraceId;
  return session_.ingest(std::move(events), ingest);
}

api::Result<api::SegmentInfo> DriftEngine::ingest_baseline_file(
    const std::string& path) {
  baseline_.valid = false;
  api::IngestOptions ingest;
  ingest.trace_id = kBaselineTraceId;
  return session_.ingest_file(path, ingest);
}

api::Result<core::TimingModel> DriftEngine::baseline_model() {
  const api::Error error = ensure_baseline();
  if (error.code != api::ErrorCode::None) return error;
  return baseline_.model;
}

void DriftEngine::reset_baseline() {
  session_.clear();
  baseline_ = BaselineCache{};
}

api::Error DriftEngine::ensure_baseline() {
  if (baseline_.valid) return {};
  auto model = session_.trace_model(kBaselineTraceId);
  if (!model.ok()) {
    if (model.error().code == api::ErrorCode::UnknownTrace) {
      return api::Error{api::ErrorCode::InvalidArgument,
                        "no baseline ingested before the first check",
                        kBaselineTraceId};
    }
    return model.error();
  }
  auto events = session_.merged_events(kBaselineTraceId);
  if (!events.ok()) return events.error();

  baseline_.model = std::move(model).take();
  baseline_.events = events.value().size();
  baseline_.exec_samples = collect_exec_samples(baseline_.model);
  for (auto& [label, samples] : baseline_.exec_samples) {
    // Sorted once, so every window's KS test re-sorts a sorted copy.
    std::sort(samples.begin(), samples.end());
  }
  baseline_.vertex_keys.clear();
  for (const auto& vertex : baseline_.model.dag.vertices()) {
    baseline_.vertex_keys.insert(vertex.key);
  }
  baseline_.edge_keys.clear();
  for (const auto& edge : baseline_.model.dag.edges()) {
    baseline_.edge_keys.insert(EdgeKey{edge.from, edge.to, edge.topic});
  }
  baseline_.chains.clear();

  const analysis::InstanceTimeline timeline(events.value());
  const auto enumeration =
      analysis::enumerate_chains(baseline_.model.dag, config_.max_chains);
  for (const auto& chain : enumeration.chains) {
    BaselineChain entry;
    entry.topics = analysis::chain_topics(baseline_.model.dag, chain);
    if (entry.topics.empty()) continue;
    entry.key = chain_key(entry.topics);
    entry.latency = analysis::measure_chain_latency(timeline, entry.topics);
    // A chain the baseline itself never completed carries no envelope.
    if (entry.latency.complete == 0) continue;
    // Chains can repeat a topic path (per-caller service splits); keep the
    // first — same topics means the same measured samples.
    const bool duplicate =
        std::any_of(baseline_.chains.begin(), baseline_.chains.end(),
                    [&](const BaselineChain& c) { return c.key == entry.key; });
    if (!duplicate) baseline_.chains.push_back(std::move(entry));
  }
  baseline_.valid = true;
  return {};
}

api::Result<WindowAnalysis> DriftEngine::analyze(trace::EventColumns events) {
  const api::Error error = ensure_baseline();
  if (error.code != api::ErrorCode::None) return error;
  ++window_counter_;
  SentinelMetrics::get().windows.inc();
  telemetry::ScopedSpan check_span("sentinel.check");
  // The chain-latency axis reads the window's columns here, before the
  // window session takes them over.
  const analysis::InstanceTimeline timeline(events.view());
  const std::size_t window_events = events.size();
  api::SynthesisSession window_session(config_.synthesis);
  api::IngestOptions ingest;
  ingest.trace_id = "window";
  auto segment = window_session.ingest(std::move(events), ingest);
  if (!segment.ok()) return segment.error();
  auto model = std::move(window_session).trace_model(ingest.trace_id);
  if (!model.ok()) return model.error();
  const core::TimingModel& window = model.value();

  WindowAnalysis analysis;
  DriftVerdict& verdict = analysis.verdict;
  verdict.baseline_events = baseline_.events;
  verdict.baseline_vertices = baseline_.model.dag.vertex_count();
  verdict.baseline_edges = baseline_.model.dag.edge_count();
  verdict.window_events = window_events;
  verdict.window_vertices = window.dag.vertex_count();
  verdict.window_edges = window.dag.edge_count();

  // Axis 1: structure (vertex and edge sets).
  add_structural_observations(baseline_.vertex_keys, baseline_.edge_keys,
                              window.dag, analysis.observations);

  // Axis 2: per-callback execution-time distributions (two-sample KS on
  // the raw samples). The test runs from sequential_min_samples per side
  // so streaming evidence can accumulate early, but a per-window finding
  // still requires min_samples (the asymptotic p-value is unreliable
  // below that, in both directions).
  const std::size_t ks_gate =
      std::min(config_.min_samples, config_.sequential_min_samples);
  const auto window_samples = collect_exec_samples(window);
  for (const auto& [label, base] : baseline_.exec_samples) {
    const auto it = window_samples.find(label);
    if (it == window_samples.end()) continue;  // structural finding already
    if (base.size() < ks_gate || it->second.size() < ks_gate) continue;
    const std::int64_t ks_started = telemetry::clock_now();
    const KsTestResult ks = two_sample_ks_test(base, it->second);
    SentinelMetrics::get().ks_ns.observe(telemetry::clock_now() - ks_started);

    AxisObservation obs;
    obs.kind = DriftKind::ExecTimeShift;
    obs.subject = label;
    obs.value = ks.statistic;
    obs.p_value = ks.p_value;
    obs.n_baseline = ks.n1;
    obs.n_window = ks.n2;
    const bool gated =
        base.size() >= config_.min_samples &&
        it->second.size() >= config_.min_samples;
    if (gated) ++verdict.checks;
    if (gated && ks.significant(config_.alpha)) {
      obs.finding = true;
      obs.detail = "execution-time distribution shifted (D = " +
                   format_double(ks.statistic) + " over " +
                   std::to_string(ks.n1) + " baseline / " +
                   std::to_string(ks.n2) + " window samples)";
    }
    analysis.observations.push_back(std::move(obs));
  }

  // Axis 3: timer periods (estimated from start times by the synthesis).
  for (const auto& base_vertex : baseline_.model.dag.vertices()) {
    if (!base_vertex.period.has_value()) continue;
    const auto* win_vertex = window.dag.find_vertex(base_vertex.key);
    if (win_vertex == nullptr || !win_vertex->period.has_value()) continue;
    const double base_ms = base_vertex.period->to_ms();
    const double win_ms = win_vertex->period->to_ms();
    if (base_ms <= 0.0) continue;
    ++verdict.checks;
    const double rel = std::abs(win_ms - base_ms) / base_ms;
    AxisObservation obs;
    obs.kind = DriftKind::PeriodShift;
    obs.subject = base_vertex.key;
    obs.value = rel;
    if (rel > config_.period_tolerance) {
      obs.finding = true;
      obs.detail = "timer period moved from " + format_double(base_ms) +
                   "ms to " + format_double(win_ms) + "ms";
    }
    analysis.observations.push_back(std::move(obs));
  }

  // Axis 4: chain-latency envelopes (and configured deadlines).
  for (const auto& chain : baseline_.chains) {
    const auto latency =
        analysis::measure_chain_latency(timeline, chain.topics);
    ++verdict.checks;
    AxisObservation obs;
    obs.kind = DriftKind::LatencyEnvelope;
    obs.subject = chain.key;
    if (latency.complete == 0) {
      // Never completing is the strongest latency signal a window can
      // give; the magnitude saturates well past the per-window tolerance
      // so the sequential accumulator crosses within a couple windows.
      obs.value = config_.latency_tolerance * 2.0 + 1.0;
      obs.finding = true;
      obs.detail = "chain completed " +
                   std::to_string(chain.latency.complete) +
                   " times in the baseline but never in the window";
      analysis.observations.push_back(std::move(obs));
      continue;
    }
    const double base_mean = chain.latency.latencies.mean();
    const double win_mean = latency.latencies.mean();
    if (base_mean > 0.0) {
      const double rel = std::abs(win_mean - base_mean) / base_mean;
      obs.value = rel;
      if (rel > config_.latency_tolerance) {
        obs.finding = true;
        obs.detail = "mean end-to-end latency moved from " +
                     format_double(base_mean / 1e6) + "ms to " +
                     format_double(win_mean / 1e6) + "ms";
      }
      analysis.observations.push_back(std::move(obs));
    }
    const auto deadline = config_.chain_deadlines.find(chain.key);
    if (deadline != config_.chain_deadlines.end()) {
      ++verdict.checks;
      const auto limit = static_cast<double>(deadline->second.count_ns());
      std::size_t misses = 0;
      for (const double sample : latency.latencies.samples()) {
        if (sample > limit) ++misses;
      }
      if (misses > 0) {
        const double fraction =
            static_cast<double>(misses) /
            static_cast<double>(latency.latencies.count());
        AxisObservation miss;
        miss.kind = DriftKind::DeadlineViolation;
        miss.subject = chain.key;
        miss.value = fraction;
        miss.p_value = 0.0;
        miss.finding = true;
        miss.detail = std::to_string(misses) + " of " +
                      std::to_string(latency.latencies.count()) +
                      " window instances exceeded the " +
                      format_double(deadline->second.to_ms()) + "ms deadline";
        analysis.observations.push_back(std::move(miss));
      }
    }
  }

  // The per-window verdict keeps the original one-shot semantics: every
  // observation that crossed its threshold becomes a finding.
  for (const AxisObservation& obs : analysis.observations) {
    if (!obs.finding) continue;
    DriftFinding finding;
    finding.kind = obs.kind;
    finding.subject = obs.subject;
    finding.detail = obs.detail;
    finding.statistic = obs.value;
    finding.p_value = obs.kind == DriftKind::ExecTimeShift ? obs.p_value : 0.0;
    verdict.findings.push_back(std::move(finding));
  }
  std::sort(verdict.findings.begin(), verdict.findings.end(),
            [](const DriftFinding& a, const DriftFinding& b) {
              return std::tie(a.kind, a.subject) < std::tie(b.kind, b.subject);
            });
  verdict.drifted = !verdict.findings.empty();
  for (const DriftFinding& finding : verdict.findings) {
    // Registered on the kind's first finding, so kinds never found stay
    // out of the snapshot.
    telemetry::Counter*& counter =
        finding_counters_[static_cast<std::size_t>(finding.kind)];
    if (counter == nullptr) {
      counter = &SentinelMetrics::get().findings(finding.kind);
    }
    counter->inc();
  }
  check_span.set_items(verdict.checks);
  return analysis;
}

}  // namespace tetra::sentinel
