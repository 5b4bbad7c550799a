#include "obs/span.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace nashlb::obs {

std::vector<std::string> span_trace_fields() {
  return {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"};
}

namespace {

/// Writes one trace event as `{"field": value, ...}`, zipping the
/// declared field names with the pre-rendered JSON values. The arity
/// guard backs the analyzer's `trace-arity` check with a runtime one.
void emit_event(std::ofstream& out, const std::vector<std::string>& fields,
                const std::vector<std::string>& values) {
  if (fields.size() != values.size()) {
    throw std::logic_error("SpanTracer: event arity != span_trace_fields()");
  }
  out << '{';
  for (std::size_t f = 0; f < fields.size(); ++f) {
    if (f != 0) out << ',';
    out << json_quote(fields[f]) << ':' << values[f];
  }
  out << '}';
}

}  // namespace

namespace detail {

SpanId EnabledSpanTracer::begin(std::string name, std::string category,
                                std::uint32_t track, std::int64_t id) {
  OpenSpan open;
  open.id_value = next_id_++;
  open.event.name = std::move(name);
  open.event.category = std::move(category);
  open.event.start_us = now_us();
  open.event.track = track;
  open.event.id = id;
  open_.push_back(std::move(open));
  return {open_.back().id_value};
}

void EnabledSpanTracer::end(SpanId span) {
  if (span.value == 0) return;
  // Scan back-to-front: RAII nesting closes the most recent span first.
  for (std::size_t k = open_.size(); k > 0; --k) {
    OpenSpan& open = open_[k - 1];
    if (open.id_value != span.value) continue;
    open.event.duration_us = now_us() - open.event.start_us;
    events_.push_back(std::move(open.event));
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(k - 1));
    return;
  }
}

void EnabledSpanTracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("SpanTracer: cannot open '" + path + "'");
  }
  const std::vector<std::string> fields = span_trace_fields();
  out << "{\"traceEvents\":[\n";
  for (std::size_t e = 0; e < events_.size(); ++e) {
    const SpanEvent& event = events_[e];
    emit_event(out, fields,
               {json_quote(event.name), json_quote(event.category), "\"X\"",
                json_number(event.start_us), json_number(event.duration_us),
                "0", json_number(static_cast<std::int64_t>(event.track)),
                "{\"id\":" + json_number(event.id) + "}"});
    out << (e + 1 < events_.size() ? ",\n" : "\n");
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace detail
}  // namespace nashlb::obs
