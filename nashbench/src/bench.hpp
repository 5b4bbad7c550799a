// Shared pieces of the nashbench program: seeded input generation, answer
// digests, the span recorder of the traced run, and the interface every
// workload implements.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nashlb::nashbench {

// ---- seeded inputs --------------------------------------------------------

/// SplitMix64. The benchmark draws its inputs from its own generator so
/// that a change to the library's RNG cannot change what is measured.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Independent sub-seed for entry `index` of stream `tag`.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag,
                       std::uint64_t index);

/// `count` values stratified over [lo, hi): value k lies in its own
/// stratum of width (hi-lo)/count, the strata in a seeded random order.
/// Keeps a pool uniform over the range with far less spread in its
/// median and tail than independent draws would have.
std::vector<double> stratified(SplitMix& rng, std::size_t count, double lo,
                               double hi);

/// Order-sensitive hash of raw bits: two answers with equal digests are
/// (up to a 2^-64 collision) bitwise identical.
class Digest {
 public:
  void add(std::uint64_t word);
  void add(double x);
  void add(std::span<const double> xs);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc909ULL;
};

/// Bitwise equality of two double sequences (NaN == NaN, -0 != +0).
bool same_bits(std::span<const double> a, std::span<const double> b);
bool same_bits(double a, double b);

// ---- spans ----------------------------------------------------------------

/// A layer boundary the traced replay wraps in a span. `Op` is the root
/// span of one op; its self time is the replay's own glue plus anything
/// no layer span covers (trace.residual_s).
enum class Layer : std::uint8_t {
  Op,
  CoreWaterfill,
  CoreAvailableRates,
  CoreCommitRow,
  CoreResponseTime,
  CoreRebuild,
  CoreInit,
  ClassesPartition,
  ClassesAggregate,
  ClassesReply,
  ClassesCertify,
  DesSchedule,
  DesStep,
  DesFacility,
  StatsSample,
  StatsStreams,
  SimmodelCallback,
  DistributedProtocol,
};
inline constexpr std::size_t kLayers = 18;
inline constexpr std::array<const char*, kLayers> kLayerNames = {
    "op",
    "core.waterfill",
    "core.available_rates",
    "core.commit_row",
    "core.response_time",
    "core.rebuild",
    "core.init",
    "classes.partition",
    "classes.aggregate",
    "classes.reply",
    "classes.certify",
    "des.schedule",
    "des.step",
    "des.facility",
    "stats.sample",
    "stats.streams",
    "simmodel.callback",
    "distributed.protocol",
};

inline constexpr std::uint32_t kNoParent = 0xffffffffU;

/// One span of the current op; `parent` indexes the op's span buffer.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  Layer layer = Layer::Op;
};

/// A span kept for the trace file, with the op it belongs to.
struct KeptSpan {
  std::uint32_t op = 0;
  Span span;
};

/// Per-layer span counts and corrected self seconds, summed over ops.
struct LayerTotals {
  std::array<double, kLayers> calls{};
  std::array<double, kLayers> self_s{};
};

/// Adds each span's self time — its duration minus its children's — to
/// `out`, corrected for the recorder's own cost: `inside_s` is the part
/// of an empty span's cost that falls between its two clock reads, and
/// `per_span_s` the whole cost of one span as its parent sees it. A
/// parent with c children is charged c·(per_span_s − inside_s) for the
/// bookkeeping outside them, and every span inside_s for its own.
void fold_spans(std::span<const Span> spans, double inside_s,
                double per_span_s, LayerTotals& out);

/// In-memory span recorder for the traced run. Spans of the current op
/// accumulate in a buffer that `finish_op` folds into per-layer totals;
/// the first ops' spans (up to a cap) are kept and written out at the end.
class Recorder {
 public:
  Recorder();

  std::uint32_t begin(Layer layer) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({0, 0, current_, layer});
    current_ = id;
    spans_.back().start_ns = now_ns();
    return id;
  }
  void end(std::uint32_t id) {
    const std::int64_t t = now_ns();
    spans_[id].end_ns = t;
    current_ = spans_[id].parent;
  }

  /// Measures the cost of an empty span; call once before recording.
  void calibrate();
  [[nodiscard]] double inside_s() const { return inside_s_; }
  [[nodiscard]] double per_span_s() const { return per_span_s_; }

  void start_op(std::uint32_t op) { op_ = op; }
  /// Folds the current op's spans into `totals` and clears the buffer.
  void finish_op(LayerTotals& totals);
  /// Writes the kept spans as CSV (op,span,parent,layer,start_ns,end_ns).
  bool write_csv(const std::string& path) const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<Span> spans_;
  std::vector<KeptSpan> kept_;
  std::uint32_t current_ = kNoParent;
  std::uint32_t op_ = 0;
  double inside_s_ = 0.0;
  double per_span_s_ = 0.0;
};

/// RAII span: begins on construction, ends on scope exit (also when the
/// wrapped call throws).
class Scoped {
 public:
  Scoped(Recorder& rec, Layer layer) : rec_(rec), id_(rec.begin(layer)) {}
  ~Scoped() { rec_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Recorder& rec_;
  std::uint32_t id_;
};

/// Counts the replays gather besides span times, summed over ops.
struct ReplayCounts {
  double waterfill_support = 0.0;  // sum over waterfill calls of |support|/n
  double moves = 0.0;              // best-reply moves (per-user path)
  double idle_moves = 0.0;         // moves with |dD_j| < tolerance/m
  double classes = 0.0;            // classes per class solve
  double pending_max = 0.0;        // max pending DES events seen
  double jobs = 0.0;               // simulated jobs
  double samples_used = 0.0;       // sampler draws the model consumed
  double samples_drawn = 0.0;      // draws made by the batched samplers
  double messages = 0.0;           // ring messages
};

// ---- workloads ------------------------------------------------------------

/// What a check of one answer found. `rounds` and `eps` are NaN where a
/// workload's answer carries no best-reply solve.
struct Verdict {
  bool ok = false;
  double rounds = 0.0;
  double eps = 0.0;
};

/// One benchmark workload: a pool of seeded inputs and one op per input.
/// The loop times `run` only; everything else happens outside the timed
/// region.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Unit of the value `run` returns (work_per_s = sum / op seconds).
  [[nodiscard]] virtual const char* work_unit() const = 0;
  /// Builds the pool of inputs for `seed` (timed as setup_s).
  virtual void setup(std::uint64_t seed) = 0;
  [[nodiscard]] virtual std::size_t pool_size() const = 0;
  /// Generates per-op inputs too large to hold for the whole pool.
  virtual void prepare(std::size_t k) { static_cast<void>(k); }
  /// The op: one call of the public entry point on input k. Returns the
  /// work done, in work_unit().
  virtual double run(std::size_t k) = 0;
  /// Full check of the last answer of input k.
  [[nodiscard]] virtual Verdict check(std::size_t k) const = 0;
  /// Digest of the last answer (later passes must reproduce the first).
  [[nodiscard]] virtual std::uint64_t answer_digest() const = 0;
  /// Digest that stands for the pool's inputs (the seed self-test).
  [[nodiscard]] virtual std::uint64_t input_digest() = 0;
  /// Replays input k through the layers' public calls under `rec`;
  /// returns whether the replay reproduced the last answer bitwise.
  virtual bool replay(std::size_t k, Recorder& rec, ReplayCounts& counts) = 0;
  /// Damages the last answer so that `check` must reject it.
  virtual void corrupt() = 0;
};

std::unique_ptr<Workload> make_solve_peruser();
std::unique_ptr<Workload> make_solve_classes();
std::unique_ptr<Workload> make_des_replicate();
std::unique_ptr<Workload> make_ring_protocol();

inline constexpr std::array<std::string_view, 4> kWorkloads = {
    "solve-peruser", "solve-classes", "des-replicate", "ring-protocol"};
std::unique_ptr<Workload> make_workload(std::string_view name);

// ---- the benchmark's own arithmetic ----------------------------------------

double median(std::vector<double> xs);

/// The highest integer percentile q that leaves at least 10 samples
/// beyond it (nearest-rank), with its value. Needs more than 10 samples.
struct Tail {
  int percentile = 0;
  double value = 0.0;
};
Tail tail_percentile(std::vector<double> xs);

/// Self-tests of tail selection and span folding; returns the number of
/// failed assertions (printed to stderr).
int selftest_arithmetic();

}  // namespace nashlb::nashbench
