#include "obs/journal.hpp"

#include <algorithm>
#include <cinttypes>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/contracts.hpp"

namespace nashlb::obs::detail {

namespace {

/// The journal the contract-failure hook dumps, if any. Plain pointer,
/// no ownership: install_crash_handler() sets it, the journal's
/// destructor clears it, and the hook itself is allocation-free.
EnabledJournal* g_crash_journal = nullptr;

void crash_dump_hook() noexcept {
  if (g_crash_journal == nullptr) return;
  std::fprintf(stderr,
               "nashlb journal: flight recorder tail (last %zu of %" PRIu64
               " events, %" PRIu64 " dropped):\n",
               std::min(g_crash_journal->size(), kJournalCrashTail),
               g_crash_journal->emitted(), g_crash_journal->dropped());
  g_crash_journal->dump_tail(stderr, kJournalCrashTail);
}

}  // namespace

EnabledJournal::EnabledJournal(std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("Journal: capacity must be positive");
  }
  ring_.resize(capacity);
}

EnabledJournal::~EnabledJournal() {
  if (g_crash_journal == this) uninstall_crash_handler();
}

EventId EnabledJournal::register_event(const std::string& name,
                                       const std::vector<std::string>& fields) {
  if (name.empty()) {
    throw std::invalid_argument("Journal: event name must be non-empty");
  }
  if (fields.size() > kJournalMaxFields) {
    throw std::invalid_argument("Journal: event \"" + name + "\" declares " +
                                std::to_string(fields.size()) +
                                " fields; the slot payload holds at most " +
                                std::to_string(kJournalMaxFields));
  }
  for (std::size_t e = 0; e < schemas_.size(); ++e) {
    if (schemas_[e].name != name) continue;
    if (schemas_[e].fields != fields) {
      throw std::invalid_argument(
          "Journal: event \"" + name +
          "\" re-registered with a different field list");
    }
    return EventId{static_cast<std::uint32_t>(e)};
  }
  schemas_.push_back(Schema{name, fields});
  return EventId{static_cast<std::uint32_t>(schemas_.size() - 1)};
}

void EnabledJournal::emit(EventId id, std::initializer_list<double> values) {
  if (id.index >= schemas_.size()) {
    throw std::invalid_argument("Journal: emit() with unregistered event id " +
                                std::to_string(id.index));
  }
  const Schema& schema = schemas_[id.index];
  if (values.size() != schema.fields.size()) {
    throw std::invalid_argument(
        "Journal: event \"" + schema.name + "\" expects " +
        std::to_string(schema.fields.size()) + " values, emit() passed " +
        std::to_string(values.size()));
  }
  Slot slot;
  slot.seq = emitted_;
  slot.event = id.index;
  slot.arity = static_cast<std::uint32_t>(values.size());
  std::size_t v = 0;
  for (double value : values) slot.values[v++] = value;
  if (size_ == ring_.size()) ++dropped_;  // overwriting the oldest entry
  ring_[head_] = slot;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++emitted_;
}

const std::string& EnabledJournal::event_name(EventId id) const noexcept {
  static const std::string kEmpty;
  if (id.index >= schemas_.size()) return kEmpty;
  return schemas_[id.index].name;
}

void EnabledJournal::snapshot(std::vector<Slot>& out) const {
  out.resize(size_);
  const std::size_t oldest = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t k = 0; k < size_; ++k) {
    out[k] = ring_[(oldest + k) % ring_.size()];
  }
}

void EnabledJournal::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("Journal: cannot open " + path);
  }
  std::vector<Slot> window;
  snapshot(window);
  for (const Slot& slot : window) {
    const Schema& schema = schemas_[slot.event];
    std::string line = "{\"seq\":" + std::to_string(slot.seq) +
                       ",\"event\":" + json_quote(schema.name);
    for (std::size_t f = 0; f < schema.fields.size(); ++f) {
      line += ',';
      line += json_quote(schema.fields[f]);
      line += ':';
      line += json_number(slot.values[f]);
    }
    line += "}\n";
    std::fputs(line.c_str(), out);
  }
  std::fclose(out);
}

void EnabledJournal::dump_tail(std::FILE* out, std::size_t n) const noexcept {
  const std::size_t count = std::min(n, size_);
  const std::size_t oldest =
      (head_ + ring_.size() - count) % ring_.size();
  for (std::size_t k = 0; k < count; ++k) {
    const Slot& slot = ring_[(oldest + k) % ring_.size()];
    const Schema& schema = schemas_[slot.event];
    std::fprintf(out, "  [%" PRIu64 "] %s:", slot.seq, schema.name.c_str());
    for (std::size_t f = 0; f < slot.arity && f < schema.fields.size(); ++f) {
      std::fprintf(out, " %s=%.17g", schema.fields[f].c_str(),
                   slot.values[f]);
    }
    std::fputc('\n', out);
  }
}

void EnabledJournal::install_crash_handler() noexcept {
  g_crash_journal = this;
  util::contract_failure_hook() = &crash_dump_hook;
}

void EnabledJournal::uninstall_crash_handler() noexcept {
  g_crash_journal = nullptr;
  if (util::contract_failure_hook() == &crash_dump_hook) {
    util::contract_failure_hook() = nullptr;
  }
}

}  // namespace nashlb::obs::detail
