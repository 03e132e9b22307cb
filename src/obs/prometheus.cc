#include "obs/prometheus.h"

#include <cmath>
#include <cstdio>

namespace supa::obs {
namespace {

/// Shortest round-trippable-enough representation; Prometheus accepts any
/// Go-parsable float. %.17g would round-trip exactly but is noisy; %.12g
/// keeps scrape output readable while far exceeding scrape precision
/// needs.
std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string FormatCount(uint64_t v) {
  return std::to_string(v);
}

bool IsLegalNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

void AppendLine(std::string_view name, const std::string& labels,
                const std::string& value, std::string* out) {
  out->append(name);
  out->append(labels);
  out->push_back(' ');
  out->append(value);
  out->push_back('\n');
}

void AppendHeader(std::string_view name, std::string_view type,
                  std::string_view help, std::string* out) {
  out->append("# HELP ").append(name).push_back(' ');
  out->append(help);
  out->push_back('\n');
  out->append("# TYPE ").append(name).push_back(' ');
  out->append(type);
  out->push_back('\n');
}

}  // namespace

std::string SanitizePrometheusName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (IsLegalNameChar(c, /*first=*/out.empty())) {
      out.push_back(c);
    } else if (out.empty() && c >= '0' && c <= '9') {
      out.push_back('_');
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string EscapePrometheusLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string RenderPrometheusLabels(
    const std::vector<PrometheusLabel>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(SanitizePrometheusName(labels[i].name));
    out.append("=\"");
    out.append(EscapePrometheusLabelValue(labels[i].value));
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

void AppendPrometheusSeries(std::string_view name, std::string_view type,
                            std::string_view help,
                            const std::vector<PrometheusLabel>& labels,
                            double value, std::string* out) {
  const std::string sanitized = SanitizePrometheusName(name);
  AppendHeader(sanitized, type, help, out);
  AppendLine(sanitized, RenderPrometheusLabels(labels), FormatValue(value),
             out);
}

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  for (const MetricsSnapshot::Entry& e : snapshot.entries) {
    std::string name = SanitizePrometheusName(e.name);
    switch (e.kind) {
      case MetricKind::kCounter: {
        // The registry accumulates durations as integer nanoseconds in
        // `*_ns` counters; export the base unit Prometheus expects.
        double value = static_cast<double>(e.counter);
        if (EndsWith(name, "_ns")) {
          name = name.substr(0, name.size() - 3) + "_seconds";
          value /= 1e9;
        }
        if (!EndsWith(name, "_total")) name += "_total";
        AppendHeader(name, "counter", "registry counter", &out);
        AppendLine(name, "", FormatValue(value), &out);
        break;
      }
      case MetricKind::kGauge: {
        AppendHeader(name, "gauge", "registry gauge", &out);
        AppendLine(name, "", FormatValue(e.gauge), &out);
        break;
      }
      case MetricKind::kHistogram: {
        AppendHeader(name, "histogram", "registry histogram", &out);
        uint64_t cumulative = 0;
        for (size_t i = 0; i < e.buckets.size(); ++i) {
          cumulative += e.buckets[i];
          const std::string le =
              i < e.bounds.size() ? FormatValue(e.bounds[i]) : "+Inf";
          AppendLine(name + "_bucket", "{le=\"" + le + "\"}",
                     FormatCount(cumulative), &out);
        }
        AppendLine(name + "_sum", "", FormatValue(e.sum), &out);
        AppendLine(name + "_count", "", FormatCount(e.count), &out);
        break;
      }
    }
  }
  return out;
}

}  // namespace supa::obs
