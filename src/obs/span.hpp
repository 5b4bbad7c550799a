// Span tracing: nestable named intervals serialized as Chrome
// trace-event JSON (loadable in chrome://tracing and Perfetto).
//
// Where the convergence probe answers "what were the per-round numbers",
// a span trace answers "where did the time go": a dynamics round is a
// span that *encloses* one best-reply span per user. Spans are recorded
// against the tracer's own wall clock (`begin`/`end`, `ScopedSpan`) and
// exported in microseconds (the trace-event format's unit).
//
// The serialized schema is declared programmatically by
// `span_trace_fields()`; the arity of every emitted event is checked
// against it by tools/nashlb_analyzer.py (`trace-arity` rule) and at
// runtime by the writer. Like every obs type, a -DNASHLB_OBS=OFF build
// swaps in an empty no-op twin. See docs/OBSERVABILITY.md
// ("Span tracing").
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/config.hpp"  // NASHLB_OBS_ENABLED default + kEnabled

namespace nashlb::obs {

/// Opaque handle returned by begin(); pass it to end().
struct SpanId {
  std::uint64_t value = 0;
};

/// One completed span. `track` maps to the trace-event `tid` (one
/// horizontal lane per track in Perfetto); `id` is a free-form integer
/// tag (round index, user index, ...) exported under `args`.
struct SpanEvent {
  std::string name;
  std::string category;
  double start_us = 0.0;     ///< microseconds since the tracer's epoch
  double duration_us = 0.0;  ///< microseconds
  std::uint32_t track = 0;
  std::int64_t id = 0;
};

/// Field names of one serialized trace event, in emission order. The
/// Chrome trace-event format requires name/cat/ph/ts/dur/pid/tid for a
/// complete ("X") event; `args` carries the span's integer tag.
[[nodiscard]] std::vector<std::string> span_trace_fields();

namespace detail {

class EnabledSpanTracer {
 public:
  /// The epoch (t = 0 of the exported timeline) is construction time.
  EnabledSpanTracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a wall-clock span; close it with end(). Spans may nest and
  /// interleave freely (ends may arrive in any order).
  [[nodiscard]] SpanId begin(std::string name, std::string category,
                             std::uint32_t track = 0, std::int64_t id = 0);
  /// Closes an open span; unknown/already-closed ids are ignored.
  void end(SpanId span);

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  /// Completed spans, in completion order.
  [[nodiscard]] const std::vector<SpanEvent>& events() const noexcept {
    return events_;
  }
  /// Spans begun but not yet ended.
  [[nodiscard]] std::size_t open_spans() const noexcept {
    return open_.size();
  }

  /// Writes the Chrome trace-event JSON ({"traceEvents": [...]}). Open
  /// spans are not exported. Throws std::runtime_error if the file
  /// cannot be opened.
  void write_chrome_trace(const std::string& path) const;

  void clear() noexcept {
    events_.clear();
    open_.clear();
  }

 private:
  struct OpenSpan {
    std::uint64_t id_value = 0;
    SpanEvent event;
  };

  [[nodiscard]] double now_us() const noexcept {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanEvent> events_;
  std::vector<OpenSpan> open_;
  std::uint64_t next_id_ = 1;
};

/// No-op twin: identical interface, empty layout, writes no files.
class NullSpanTracer {
 public:
  [[nodiscard]] SpanId begin(const std::string&, const std::string&,
                             std::uint32_t = 0, std::int64_t = 0) noexcept {
    return {};
  }
  void end(SpanId) noexcept {}
  [[nodiscard]] constexpr std::size_t size() const noexcept { return 0; }
  [[nodiscard]] constexpr bool empty() const noexcept { return true; }
  [[nodiscard]] const std::vector<SpanEvent>& events() const noexcept {
    static const std::vector<SpanEvent> kEmpty;
    return kEmpty;
  }
  [[nodiscard]] constexpr std::size_t open_spans() const noexcept {
    return 0;
  }
  void write_chrome_trace(const std::string&) const noexcept {}
  void clear() noexcept {}
};

/// RAII span against a tracer's wall clock: begins at construction,
/// ends at scope exit.
class EnabledScopedSpan {
 public:
  EnabledScopedSpan(EnabledSpanTracer& tracer, std::string name,
                    std::string category, std::uint32_t track = 0,
                    std::int64_t id = 0)
      : tracer_(&tracer),
        span_(tracer.begin(std::move(name), std::move(category), track, id)) {
  }
  EnabledScopedSpan(const EnabledScopedSpan&) = delete;
  EnabledScopedSpan& operator=(const EnabledScopedSpan&) = delete;
  ~EnabledScopedSpan() { tracer_->end(span_); }

 private:
  EnabledSpanTracer* tracer_;
  SpanId span_;
};

class NullScopedSpan {
 public:
  NullScopedSpan(NullSpanTracer&, const std::string&, const std::string&,
                 std::uint32_t = 0, std::int64_t = 0) noexcept {}
  NullScopedSpan(const NullScopedSpan&) = delete;
  NullScopedSpan& operator=(const NullScopedSpan&) = delete;
};

}  // namespace detail

#if NASHLB_OBS_ENABLED
using SpanTracer = detail::EnabledSpanTracer;
using ScopedSpan = detail::EnabledScopedSpan;
#else
using SpanTracer = detail::NullSpanTracer;
using ScopedSpan = detail::NullScopedSpan;
#endif

}  // namespace nashlb::obs
