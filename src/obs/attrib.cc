#include "src/obs/attrib.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace msprint {
namespace obs {

namespace {

// Index of the query's dominant (largest) component; ties break toward the
// lower index so each query is attributed to exactly one critical
// component.
size_t CriticalComponent(const QuerySpan& span) {
  size_t best = 0;
  for (size_t i = 1; i < kNumSpanComponents; ++i) {
    if (span.components[i] > span.components[best]) {
      best = i;
    }
  }
  return best;
}

std::string ComponentName(size_t index) {
  return ToString(static_cast<SpanComponent>(index));
}

void AppendCounterLine(std::string& out, const std::string& name,
                       uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", value);
  out += "counter " + name + buf;
}

void AppendGaugeLine(std::string& out, const std::string& name, double value) {
  out += "gauge " + name + " " + StableDouble(value) + "\n";
}

// Left-pads a component label so the signed values line up in span trees.
std::string PaddedLabel(const std::string& label, size_t width) {
  std::string padded = label;
  if (padded.size() < width) {
    padded.append(width - padded.size(), ' ');
  }
  return padded;
}

std::string SignedTicks(int64_t ticks) {
  std::string out = FormatTicksSeconds(ticks);
  if (ticks >= 0) {
    out.insert(out.begin(), '+');
  }
  return out;
}

}  // namespace

AttributionReport Attribute(const std::vector<QuerySpan>& spans,
                            const AttributionOptions& options) {
  AttributionReport report;
  report.num_queries = spans.size();
  bool first = true;
  for (const QuerySpan& span : spans) {
    if (span.sprinted) ++report.sprinted;
    if (span.timed_out) ++report.timed_out;
    if (span.sprint_aborted) ++report.sprint_aborted;
    if (!span.IdentityHolds()) ++report.identity_violations;
    report.total_response_ticks += span.ResponseTicks();
    report.max_response_ticks =
        std::max(report.max_response_ticks, span.ResponseTicks());
    ++report.components[CriticalComponent(span)].critical;
    for (size_t i = 0; i < kNumSpanComponents; ++i) {
      ComponentAggregate& agg = report.components[i];
      const int64_t ticks = span.components[i];
      agg.total_ticks += ticks;
      if (first) {
        agg.min_ticks = ticks;
        agg.max_ticks = ticks;
      } else {
        agg.min_ticks = std::min(agg.min_ticks, ticks);
        agg.max_ticks = std::max(agg.max_ticks, ticks);
      }
      if (ticks >= 0) {
        agg.added_seconds.Record(SecondsFromTicks(ticks));
      } else {
        agg.saved_seconds.Record(SecondsFromTicks(-ticks));
      }
    }
    first = false;
  }

  // Top-K slowest, ties toward the lower query id. Partial sort of
  // pointers, so only the K winners are copied; the comparisons, and so
  // the order of equal keys, are those of sorting the spans themselves.
  std::vector<const QuerySpan*> sorted(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    sorted[i] = &spans[i];
  }
  const size_t k = std::min(options.top_k, sorted.size());
  std::partial_sort(sorted.begin(), sorted.begin() + k, sorted.end(),
                    [](const QuerySpan* a, const QuerySpan* b) {
                      if (a->ResponseTicks() != b->ResponseTicks()) {
                        return a->ResponseTicks() > b->ResponseTicks();
                      }
                      return a->id < b->id;
                    });
  report.slowest.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    report.slowest.push_back(*sorted[i]);
  }
  return report;
}

std::string FormatSpanTree(const QuerySpan& span) {
  constexpr size_t kLabelWidth = 16;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "# query %" PRIu64 " class=%" PRIu32 " response=%s%s%s%s\n",
                span.id, span.klass,
                FormatTicksSeconds(span.ResponseTicks()).c_str(),
                span.sprinted ? " sprinted" : "",
                span.timed_out ? " timed-out" : "",
                span.sprint_aborted ? " aborted" : "");
  std::string out = buf;
  for (size_t i = 0; i < kNumSpanComponents; ++i) {
    out += "#   " + PaddedLabel(ComponentName(i), kLabelWidth) +
           SignedTicks(span.components[i]) + "\n";
    if (static_cast<SpanComponent>(i) == SpanComponent::kService) {
      for (uint32_t p = 0; p < span.num_phases; ++p) {
        std::snprintf(buf, sizeof(buf), "phase %" PRIu32, p);
        out += "#     " + PaddedLabel(buf, kLabelWidth - 2) +
               SignedTicks(span.phases[p].ticks) + "\n";
      }
    }
  }
  out += "#   " + PaddedLabel("= response", kLabelWidth) +
         SignedTicks(span.ComponentSum()) +
         (span.IdentityHolds() ? " identity=exact" : " identity=VIOLATED") +
         "\n";
  return out;
}

std::string FormatAttribution(const AttributionReport& report,
                              const std::string& prefix) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "# msprint span attribution: %" PRIu64
                " queries, identity exact for %" PRIu64 "/%" PRIu64 "\n",
                report.num_queries,
                report.num_queries - report.identity_violations,
                report.num_queries);
  std::string out = buf;

  AppendCounterLine(out, prefix + "/queries", report.num_queries);
  AppendCounterLine(out, prefix + "/sprinted", report.sprinted);
  AppendCounterLine(out, prefix + "/timed-out", report.timed_out);
  AppendCounterLine(out, prefix + "/sprint-aborted", report.sprint_aborted);
  AppendCounterLine(out, prefix + "/identity-violations",
                    report.identity_violations);
  for (size_t i = 0; i < kNumSpanComponents; ++i) {
    AppendCounterLine(out, prefix + "/critical/" + ComponentName(i),
                      report.components[i].critical);
  }
  AppendGaugeLine(out, prefix + "/response/total_seconds",
                  SecondsFromTicks(report.total_response_ticks));
  AppendGaugeLine(out, prefix + "/response/max_seconds",
                  SecondsFromTicks(report.max_response_ticks));
  for (size_t i = 0; i < kNumSpanComponents; ++i) {
    const ComponentAggregate& agg = report.components[i];
    AppendGaugeLine(out, prefix + "/total/" + ComponentName(i) + "_seconds",
                    SecondsFromTicks(agg.total_ticks));
    const double frac =
        report.total_response_ticks == 0
            ? 0.0
            : static_cast<double>(agg.total_ticks) /
                  static_cast<double>(report.total_response_ticks);
    AppendGaugeLine(out, prefix + "/frac/" + ComponentName(i), frac);
  }
  // Histogram lines reuse the metrics ToText renderer so the grammar (and
  // obs-diff's approx-field classification) matches stats exports exactly.
  MetricsSnapshot hists;
  for (size_t i = 0; i < kNumSpanComponents; ++i) {
    hists.histograms.push_back(SummarizeLogHistogram(
        prefix + "/added/" + ComponentName(i) + "_seconds",
        report.components[i].added_seconds));
    hists.histograms.push_back(SummarizeLogHistogram(
        prefix + "/saved/" + ComponentName(i) + "_seconds",
        report.components[i].saved_seconds));
  }
  out += hists.ToText();

  // Critical-path summary: components in descending dominance.
  std::vector<size_t> order(kNumSpanComponents);
  for (size_t i = 0; i < kNumSpanComponents; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&report](size_t a, size_t b) {
    if (report.components[a].critical != report.components[b].critical) {
      return report.components[a].critical > report.components[b].critical;
    }
    return a < b;
  });
  out += "# critical path:";
  for (size_t i : order) {
    if (report.components[i].critical == 0) continue;
    std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, ComponentName(i).c_str(),
                  report.components[i].critical);
    out += buf;
  }
  out += "\n";

  if (!report.slowest.empty()) {
    std::snprintf(buf, sizeof(buf), "# top %zu slowest queries\n",
                  report.slowest.size());
    out += buf;
    for (const QuerySpan& span : report.slowest) {
      out += FormatSpanTree(span);
    }
  }
  return out;
}

std::string FormatAttributionJson(const AttributionReport& report) {
  char buf[256];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"queries\":%" PRIu64 ",\"sprinted\":%" PRIu64
                ",\"timed_out\":%" PRIu64 ",\"sprint_aborted\":%" PRIu64
                ",\"identity_violations\":%" PRIu64,
                report.num_queries, report.sprinted, report.timed_out,
                report.sprint_aborted, report.identity_violations);
  out += buf;
  out += ",\"total_response_s\":" +
         StableDouble(SecondsFromTicks(report.total_response_ticks));
  out += ",\"max_response_s\":" +
         StableDouble(SecondsFromTicks(report.max_response_ticks));
  out += ",\"components\":[";
  for (size_t i = 0; i < kNumSpanComponents; ++i) {
    const ComponentAggregate& agg = report.components[i];
    const double frac =
        report.total_response_ticks == 0
            ? 0.0
            : static_cast<double>(agg.total_ticks) /
                  static_cast<double>(report.total_response_ticks);
    if (i > 0) out += ",";
    out += "{\"name\":\"" + ComponentName(i) + "\"";
    out += ",\"total_s\":" + StableDouble(SecondsFromTicks(agg.total_ticks));
    out += ",\"min_s\":" + StableDouble(SecondsFromTicks(agg.min_ticks));
    out += ",\"max_s\":" + StableDouble(SecondsFromTicks(agg.max_ticks));
    std::snprintf(buf, sizeof(buf), ",\"critical\":%" PRIu64, agg.critical);
    out += buf;
    out += ",\"frac\":" + StableDouble(frac) + "}";
  }
  out += "],\"slowest\":[";
  for (size_t s = 0; s < report.slowest.size(); ++s) {
    const QuerySpan& span = report.slowest[s];
    if (s > 0) out += ",";
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%" PRIu64 ",\"class\":%" PRIu32
                  ",\"response_s\":%s,\"sprinted\":%s,\"timed_out\":%s"
                  ",\"sprint_aborted\":%s,\"identity_exact\":%s",
                  span.id, span.klass,
                  FormatTicksSeconds(span.ResponseTicks()).c_str(),
                  span.sprinted ? "true" : "false",
                  span.timed_out ? "true" : "false",
                  span.sprint_aborted ? "true" : "false",
                  span.IdentityHolds() ? "true" : "false");
    out += buf;
    out += ",\"components\":{";
    for (size_t i = 0; i < kNumSpanComponents; ++i) {
      if (i > 0) out += ",";
      // Appended piece by piece: GCC 12 flags the concatenated form with a
      // -Wrestrict false positive.
      out += '"';
      out += ComponentName(i);
      out += "\":";
      out += FormatTicksSeconds(span.components[i]);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace msprint
