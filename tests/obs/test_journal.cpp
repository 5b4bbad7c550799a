// Tests of the flight-recorder event journal (obs/journal.hpp): schema
// registration and arity checks, ring overflow + drop accounting,
// deterministic shard merges, the JSON-lines and crash-dump exports, the
// Registry surfacing, the no-op/no-allocation contract of the disabled
// twin, and the contract-failure crash hook (death-tested under
// -DNASHLB_CHECK=ON).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace {

using namespace nashlb;

// Counting global operator new/delete: malloc passthrough plus a bump of
// g_alloc_count, so tests can assert a code region allocates nothing.
// Link-wide for this binary; the counter is only read around the regions
// under test, so the rest of the suite is unaffected.
std::size_t g_alloc_count = 0;

void* count_alloc(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return count_alloc(n); }
void* operator new[](std::size_t n) { return count_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("nashlb_journal_test_" + name))
                  .string()) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string contents() const {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

 private:
  std::string path_;
};

// --- schema registration ------------------------------------------------

TEST(Journal, RegisterIsIdempotentOnIdenticalSchema) {
  obs::detail::EnabledJournal j(8);
  const obs::EventId a = j.register_event("round", {"r", "norm"});
  const obs::EventId b = j.register_event("round", {"r", "norm"});
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(j.num_events(), 1u);
  EXPECT_EQ(j.event_name(a), "round");
}

TEST(Journal, RegisterRejectsConflictsAndOversizedSchemas) {
  obs::detail::EnabledJournal j(8);
  (void)j.register_event("round", {"r", "norm"});
  EXPECT_THROW((void)j.register_event("round", {"r"}), std::invalid_argument);
  EXPECT_THROW((void)j.register_event("", {"r"}), std::invalid_argument);
  std::vector<std::string> too_many(obs::kJournalMaxFields + 1, "f");
  for (std::size_t i = 0; i < too_many.size(); ++i) {
    too_many[i] += std::to_string(i);
  }
  EXPECT_THROW((void)j.register_event("big", too_many),
               std::invalid_argument);
}

// The name dates from when TraceSink::add_row made the same check; it is
// kept so the test id stays stable.
TEST(Journal, EmitChecksArityLikeTraceSink) {
  obs::detail::EnabledJournal j(8);
  const obs::EventId ev = j.register_event("round", {"r", "norm"});
  j.emit(ev, {1.0, 0.5});
  EXPECT_THROW(j.emit(ev, {1.0}), std::invalid_argument);
  EXPECT_THROW(j.emit(obs::EventId{7}, {1.0}), std::invalid_argument);
  EXPECT_EQ(j.emitted(), 1u);
}

// --- ring semantics -----------------------------------------------------

TEST(Journal, RingOverflowKeepsNewestAndCountsDrops) {
  obs::detail::EnabledJournal j(4);
  const obs::EventId ev = j.register_event("tick", {"k"});
  for (int k = 0; k < 10; ++k) j.emit(ev, {static_cast<double>(k)});
  EXPECT_EQ(j.emitted(), 10u);
  EXPECT_EQ(j.dropped(), 6u);
  EXPECT_EQ(j.size(), 4u);
  std::vector<obs::detail::EnabledJournal::Slot> window;
  j.snapshot(window);
  ASSERT_EQ(window.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(window[i].seq, 6u + i);                 // oldest first
    EXPECT_EQ(window[i].values[0], 6.0 + static_cast<double>(i));
  }
}

TEST(Journal, EmitIsAllocationFreeAfterInit) {
  obs::detail::EnabledJournal j(64);
  const obs::EventId ev =
      j.register_event("tick", {"a", "b", "c", "d", "e", "f", "g", "h"});
  j.emit(ev, {1, 2, 3, 4, 5, 6, 7, 8});  // warm-up before the snapshot
  const std::size_t before = g_alloc_count;
  for (int k = 0; k < 1000; ++k) {
    j.emit(ev, {1.0 * k, 2, 3, 4, 5, 6, 7, 8});  // wraps the ring too
  }
  EXPECT_EQ(g_alloc_count, before);
}

TEST(Journal, ClearDropsEventsButKeepsSchemas) {
  obs::detail::EnabledJournal j(4);
  const obs::EventId ev = j.register_event("tick", {"k"});
  j.emit(ev, {1.0});
  j.clear();
  EXPECT_EQ(j.size(), 0u);
  EXPECT_EQ(j.emitted(), 0u);
  EXPECT_EQ(j.num_events(), 1u);
  j.emit(ev, {2.0});
  EXPECT_EQ(j.size(), 1u);
}

// --- shard merge --------------------------------------------------------

TEST(Journal, MergeAppendsShardsInCallOrder) {
  obs::detail::EnabledJournal owner(16);
  const obs::EventId ev = owner.register_event("tick", {"k"});
  obs::detail::EnabledJournal shard_a = owner;  // clones registrations
  obs::detail::EnabledJournal shard_b = owner;
  shard_a.emit(ev, {1.0});
  shard_a.emit(ev, {2.0});
  shard_b.emit(ev, {3.0});
  owner.merge(shard_a);
  owner.merge(shard_b);
  EXPECT_EQ(owner.emitted(), 3u);
  EXPECT_EQ(owner.dropped(), 0u);
  std::vector<obs::detail::EnabledJournal::Slot> window;
  owner.snapshot(window);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0].values[0], 1.0);
  EXPECT_EQ(window[1].values[0], 2.0);
  EXPECT_EQ(window[2].values[0], 3.0);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].seq, i);  // renumbered into the owner's sequence
  }
  static_assert(noexcept(owner.merge(shard_a)),
                "shard merges run inside pool workers");
}

TEST(Journal, MergeDiscardsForeignEventsAndKeepsAccounting) {
  obs::detail::EnabledJournal owner(16);
  (void)owner.register_event("tick", {"k"});
  obs::detail::EnabledJournal foreign(16);
  (void)foreign.register_event("tick", {"k"});
  const obs::EventId other = foreign.register_event("other", {"x", "y"});
  foreign.emit(other, {1.0, 2.0});  // schema unknown to `owner`
  owner.merge(foreign);
  EXPECT_EQ(owner.size(), 0u);
  EXPECT_EQ(owner.dropped(), 1u);
  EXPECT_EQ(owner.emitted(), owner.dropped() + owner.size());
}

// --- exports ------------------------------------------------------------

TEST(Journal, WriteJsonlDumpsRetainedWindow) {
  obs::detail::EnabledJournal j(8);
  const obs::EventId ev = j.register_event("dynamics.round", {"round", "norm"});
  j.emit(ev, {1.0, 0.25});
  j.emit(ev, {2.0, 0.125});
  TempFile file("journal.jsonl");
  j.write_jsonl(file.path());
  const std::string text = file.contents();
  EXPECT_NE(text.find("{\"seq\":0,\"event\":\"dynamics.round\","
                      "\"round\":1,\"norm\":0.25}"),
            std::string::npos);
  EXPECT_NE(text.find("\"round\":2,\"norm\":0.125"), std::string::npos);
}

TEST(Journal, DumpTailPrintsLastEventsOldestFirst) {
  obs::detail::EnabledJournal j(8);
  const obs::EventId ev = j.register_event("tick", {"k"});
  for (int k = 0; k < 5; ++k) j.emit(ev, {static_cast<double>(k)});
  TempFile file("journal_tail.txt");
  std::FILE* out = std::fopen(file.path().c_str(), "w");
  ASSERT_NE(out, nullptr);
  j.dump_tail(out, 2);
  std::fclose(out);
  const std::string text = file.contents();
  EXPECT_EQ(text.find("k=2"), std::string::npos);  // only the last two
  EXPECT_LT(text.find("[3] tick: k=3"), text.find("[4] tick: k=4"));
}

TEST(Journal, PublishMetricsSurfacesDropAccounting) {
  obs::detail::EnabledJournal j(2);
  const obs::EventId ev = j.register_event("tick", {"k"});
  for (int k = 0; k < 5; ++k) j.emit(ev, {static_cast<double>(k)});
  obs::detail::EnabledRegistry registry;
  j.publish_metrics(registry);
  EXPECT_EQ(registry.counter("journal.emitted").value(), 5u);
  EXPECT_EQ(registry.counter("journal.dropped").value(), 3u);
  EXPECT_EQ(registry.counter("journal.retained").value(), 2u);
}

// --- the no-op twin -----------------------------------------------------

TEST(JournalNull, TwinIsEmptyAndStateless) {
  static_assert(std::is_empty_v<obs::detail::NullJournal>,
                "the disabled journal must carry no state");
  obs::detail::NullJournal j(128);
  const obs::EventId ev = j.register_event("tick", {"k"});
  j.emit(ev, {1.0});
  EXPECT_EQ(j.size(), 0u);
  EXPECT_EQ(j.emitted(), 0u);
  EXPECT_EQ(j.num_events(), 0u);
  EXPECT_TRUE(j.event_name(ev).empty());
  j.merge(obs::detail::NullJournal{});
  obs::detail::NullRegistry registry;
  j.publish_metrics(registry);
}

TEST(JournalNull, TwinHasZeroSideEffectsAndZeroAllocations) {
  TempFile file("null_journal.jsonl");
  obs::detail::NullJournal j(128);
  // Registration happens outside the measured window: building the
  // schema argument ({"k"} -> vector<string>) allocates at the call
  // site no matter which twin receives it.
  const obs::EventId ev = j.register_event("tick", {"k"});
  const std::size_t before = g_alloc_count;
  for (int k = 0; k < 100; ++k) j.emit(ev, {static_cast<double>(k)});
  j.write_jsonl(file.path());
  j.dump_tail(stderr, 10);
  j.install_crash_handler();
  obs::detail::NullJournal::uninstall_crash_handler();
  EXPECT_EQ(g_alloc_count, before);
  EXPECT_FALSE(std::filesystem::exists(file.path()));  // no file created
}

// --- the crash hook -----------------------------------------------------

TEST(Journal, InstallAndUninstallManageTheContractHook) {
  ASSERT_EQ(util::contract_failure_hook(), nullptr);
  {
    obs::detail::EnabledJournal j(8);
    j.install_crash_handler();
    EXPECT_NE(util::contract_failure_hook(), nullptr);
  }
  // The destructor uninstalls the journal it pointed at.
  EXPECT_EQ(util::contract_failure_hook(), nullptr);
}

#if NASHLB_CHECK_ENABLED
#if defined(GTEST_HAS_DEATH_TEST)
TEST(JournalDeathTest, ContractFailureDumpsTheFlightRecorder) {
  // A contract violation with an installed journal must print the
  // violation *and* the journal tail before aborting.
  EXPECT_DEATH(
      {
        obs::detail::EnabledJournal j(8);
        const obs::EventId ev =
            j.register_event("dynamics.round", {"round", "norm"});
        j.emit(ev, {1.0, 0.5});
        j.emit(ev, {2.0, 0.25});
        j.install_crash_handler();
        NASHLB_EXPECT(false, "deliberate breach with %d events",
                      static_cast<int>(j.size()));
      },
      "NASHLB_EXPECT violated.*deliberate breach"
      "(.|\n)*flight recorder tail"
      "(.|\n)*dynamics\\.round: round=2 norm=0\\.25");
}
#endif  // GTEST_HAS_DEATH_TEST
#endif  // NASHLB_CHECK_ENABLED

}  // namespace
