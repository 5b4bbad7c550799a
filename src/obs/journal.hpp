// Flight-recorder event journal: the obs layer next to the
// counters/histograms of metrics.hpp and the per-round series of
// convergence.hpp.
//
// A Journal is a fixed-capacity ring of numeric events. Schemas are
// registered up front (register_event gives each named event a field
// list, arity-checked at emit time), and
// emitting is allocation-free after construction: one slot assignment of
// PODs, wrapping over the oldest entry when the ring is full. Overflow
// is not silent — emitted/dropped counts are kept and can be surfaced as
// Registry counters via publish_metrics().
//
// Two consumers:
//   * post-mortem forensics — install_crash_handler() wires the journal
//     into util::contract_failure_hook(), so a NASHLB_EXPECT/ENSURE/
//     INVARIANT violation dumps the last events to stderr (fprintf from
//     fixed slots, no allocation) before abort();
//   * offline analysis — write_jsonl() dumps the retained window as one
//     JSON object per line for tools/nashlb_report.py.
//
// Threading follows the sharded-registry pattern: a Journal is NOT
// thread-safe; each worker records into its own shard and the owner
// folds shards with merge(), which is noexcept and allocation-free so it
// can run inside util::ThreadPool workers without risking terminate.
// Merge order is caller-controlled (shard index order), so merged
// contents are deterministic.
//
// Build-time switch: `using Journal` aliases the enabled implementation
// or an empty no-op twin under -DNASHLB_OBS=OFF; both twins always
// compile (see config.hpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "obs/config.hpp"
#include "obs/metrics.hpp"

namespace nashlb::obs {

/// Handle for a registered event schema: an index into the journal's
/// schema table, returned by register_event and required by emit.
struct EventId {
  std::uint32_t index = 0;
};

/// Hard cap on fields per event. Slots store a fixed `double[ ]` payload
/// so emit() never allocates.
inline constexpr std::size_t kJournalMaxFields = 8;

/// How many trailing events the contract-failure crash dump prints.
inline constexpr std::size_t kJournalCrashTail = 32;

namespace detail {

class EnabledJournal {
 public:
  /// One retained event: schema index, sequence number (0-based, global
  /// over the journal's lifetime), and the fixed numeric payload.
  struct Slot {
    std::uint64_t seq = 0;
    std::uint32_t event = 0;
    std::uint32_t arity = 0;
    double values[kJournalMaxFields] = {};
  };

  /// Ring capacity is fixed at construction; all slot storage is
  /// allocated here, never on the emit path.
  explicit EnabledJournal(std::size_t capacity = 1024);

  ~EnabledJournal();
  EnabledJournal(const EnabledJournal&) = default;
  EnabledJournal& operator=(const EnabledJournal&) = default;

  /// Registers (or looks up) the schema for `name`. Re-registering the
  /// same name with the same field list returns the original id —
  /// solvers register per run() call without bookkeeping. Throws
  /// std::invalid_argument on an empty name, more than kJournalMaxFields
  /// fields, or a field list that conflicts with an earlier
  /// registration of the same name.
  EventId register_event(const std::string& name,
                         const std::vector<std::string>& fields);

  /// Records one event. The value count must equal the registered field
  /// count (throws std::invalid_argument otherwise). No allocation;
  /// overwrites the oldest retained slot when full and counts the
  /// casualty in dropped().
  void emit(EventId id, std::initializer_list<double> values);

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Total events ever emitted into (or merged into) this journal.
  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }
  /// Events lost to ring overflow or discarded by merge().
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Registered schema count.
  [[nodiscard]] std::size_t num_events() const noexcept {
    return schemas_.size();
  }
  /// Name of a registered event (empty if out of range).
  [[nodiscard]] const std::string& event_name(EventId id) const noexcept;

  /// The retained window, oldest first. Index 0 is the oldest retained
  /// event; copies slots into `out` (resized to size()).
  void snapshot(std::vector<Slot>& out) const;

  /// Folds a shard into this journal: appends the shard's retained
  /// events oldest-first (so a fixed shard visit order gives a
  /// deterministic merged window), and accumulates its emitted/dropped
  /// totals. Events whose schema index is not registered here, or whose
  /// arity disagrees, are discarded and counted as dropped — merge must
  /// not throw (it runs inside pool workers; see parallel.hpp).
  void merge(const EnabledJournal& other) noexcept;

  /// Surfaces the drop accounting as Registry counters:
  /// `<prefix>.emitted`, `<prefix>.dropped`, `<prefix>.retained`.
  void publish_metrics(EnabledRegistry& registry,
                       const std::string& prefix = "journal") const;

  /// Writes the retained window as JSON lines, oldest first:
  /// {"seq":12,"event":"dynamics.round","round":3,"norm":0.5}.
  /// Throws std::runtime_error if the file cannot be opened.
  void write_jsonl(const std::string& path) const;

  /// Prints the last min(n, size()) events to `out`, oldest first, one
  /// per line. fprintf from fixed slots — noexcept, no allocation — so
  /// it is safe on the contract-failure path.
  void dump_tail(std::FILE* out, std::size_t n) const noexcept;

  /// Makes this journal the process-wide crash-dump target: installs a
  /// util::contract_failure_hook() that dump_tail()s the last
  /// kJournalCrashTail events to stderr before abort(). The journal
  /// must outlive the installation (the destructor uninstalls itself).
  void install_crash_handler() noexcept;

  /// Clears the hook if any journal is installed.
  static void uninstall_crash_handler() noexcept;

  /// Drops all retained events and resets the counters; registered
  /// schemas survive.
  void clear() noexcept;

 private:
  struct Schema {
    std::string name;
    std::vector<std::string> fields;
  };

  std::vector<Schema> schemas_;
  std::vector<Slot> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;  // retained count
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;

  void append(const Slot& slot) noexcept;
};

/// No-op twin for -DNASHLB_OBS=OFF: stateless, and write_jsonl creates
/// no file. Kept source-compatible with EnabledJournal so call sites
/// compile unchanged.
class NullJournal {
 public:
  explicit NullJournal(std::size_t = 0) noexcept {}
  EventId register_event(const std::string&,
                         const std::vector<std::string>&) noexcept {
    return {};
  }
  void emit(EventId, std::initializer_list<double>) noexcept {}
  [[nodiscard]] std::size_t capacity() const noexcept { return 0; }
  [[nodiscard]] std::size_t size() const noexcept { return 0; }
  [[nodiscard]] bool empty() const noexcept { return true; }
  [[nodiscard]] std::uint64_t emitted() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return 0; }
  [[nodiscard]] std::size_t num_events() const noexcept { return 0; }
  [[nodiscard]] const std::string& event_name(EventId) const noexcept {
    static const std::string kEmpty;
    return kEmpty;
  }
  /// Snapshot of nothing: empties the caller's buffer, mirroring the
  /// enabled twin's API so kEnabled-guarded blocks type-check.
  void snapshot(std::vector<EnabledJournal::Slot>& out) const noexcept {
    out.clear();
  }
  void merge(const NullJournal&) noexcept {}
  void publish_metrics(NullRegistry&, const std::string& = {}) const noexcept {
  }
  void write_jsonl(const std::string&) const noexcept {}
  void dump_tail(std::FILE*, std::size_t) const noexcept {}
  void install_crash_handler() noexcept {}
  static void uninstall_crash_handler() noexcept {}
  void clear() noexcept {}
};

}  // namespace detail

#if NASHLB_OBS_ENABLED
using Journal = detail::EnabledJournal;
#else
using Journal = detail::NullJournal;
#endif

}  // namespace nashlb::obs
