#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"

namespace nashlb::nashbench {

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag,
                       std::uint64_t index) {
  SplitMix a(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  SplitMix b(a.next() ^ (index * 0x9e3779b97f4a7c15ULL));
  return b.next();
}

std::vector<double> stratified(SplitMix& rng, std::size_t count, double lo,
                               double hi) {
  std::vector<std::size_t> order(count);
  for (std::size_t k = 0; k < count; ++k) order[k] = k;
  for (std::size_t k = count; k > 1; --k) {
    std::swap(order[k - 1], order[rng.next() % k]);
  }
  std::vector<double> out(count);
  const double width = (hi - lo) / static_cast<double>(count);
  for (std::size_t k = 0; k < count; ++k) {
    out[k] = lo + width * (static_cast<double>(order[k]) + rng.uniform());
  }
  return out;
}

void Digest::add(std::uint64_t word) {
  h_ ^= word + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
  h_ *= 0xff51afd7ed558ccdULL;
  h_ ^= h_ >> 33;
}

void Digest::add(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  add(bits);
}

void Digest::add(std::span<const double> xs) {
  add(static_cast<std::uint64_t>(xs.size()));
  for (double x : xs) add(x);
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void fold_spans(std::span<const Span> spans, double inside_s,
                double per_span_s, LayerTotals& out) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = 1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
              inside_s;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint32_t p = spans[i].parent;
    if (p == kNoParent) continue;
    self[p] -= 1e-9 * static_cast<double>(spans[i].end_ns -
                                          spans[i].start_ns) +
               (per_span_s - inside_s);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto l = static_cast<std::size_t>(spans[i].layer);
    out.calls[l] += 1.0;
    out.self_s[l] += self[i];
  }
}

namespace {
// Enough for the largest op (a des-replicate op at 90% load records
// ~2.8M spans), so the buffer never reallocates inside a traced op.
constexpr std::size_t kReserveSpans = std::size_t{1} << 22;
constexpr std::size_t kKeepSpans = std::size_t{1} << 18;
}  // namespace

Recorder::Recorder() { spans_.reserve(kReserveSpans); }

void Recorder::calibrate() {
  // Batches of empty spans inside a parent: the parent's duration per
  // child is the whole per-span cost, the children's own durations the
  // part inside the clock reads. A batch streams through as much of the
  // buffer as a large op does, so the cost includes the cache misses of
  // writing spans; medians over batches shed interrupts.
  constexpr int kBatches = 5;
  constexpr int kPerBatch = 1 << 20;
  std::vector<double> inside;
  std::vector<double> whole;
  for (int b = 0; b < kBatches; ++b) {
    spans_.clear();
    current_ = kNoParent;
    const std::uint32_t parent = begin(Layer::Op);
    for (int i = 0; i < kPerBatch; ++i) end(begin(Layer::Op));
    end(parent);
    std::vector<double> durations;
    durations.reserve(kPerBatch);
    for (std::size_t i = 1; i < spans_.size(); ++i) {
      durations.push_back(
          1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns));
    }
    inside.push_back(median(durations));
    whole.push_back(
        1e-9 * static_cast<double>(spans_[0].end_ns - spans_[0].start_ns) /
        kPerBatch);
  }
  spans_.clear();
  current_ = kNoParent;
  inside_s_ = median(inside);
  per_span_s_ = median(whole);
}

void Recorder::finish_op(LayerTotals& totals) {
  fold_spans(spans_, inside_s_, per_span_s_, totals);
  if (kept_.size() + spans_.size() <= kKeepSpans) {
    const auto base = static_cast<std::uint32_t>(kept_.size());
    for (Span s : spans_) {
      if (s.parent != kNoParent) s.parent += base;
      kept_.push_back({op_, s});
    }
  }
  spans_.clear();
  current_ = kNoParent;
}

bool Recorder::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op,span,parent,layer,start_ns,end_ns\n");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i].span;
    std::fprintf(f, "%u,%zu,%lld,%s,%lld,%lld\n", kept_[i].op, i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 kLayerNames[static_cast<std::size_t>(s.layer)],
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail tail_percentile(std::vector<double> xs) {
  const std::size_t n = xs.size();
  if (n <= 10) {
    throw std::invalid_argument("tail_percentile: need more than 10 samples");
  }
  std::sort(xs.begin(), xs.end());
  // Nearest rank: percentile q is xs[ceil(q·n/100) − 1], which leaves
  // n − ceil(q·n/100) samples beyond it. The largest q with at least ten
  // beyond is floor(100·(n − 10)/n).
  const std::size_t q = 100 * (n - 10) / n;
  const std::size_t rank = (q * n + 99) / 100;
  return {static_cast<int>(q), xs[rank == 0 ? 0 : rank - 1]};
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "solve-peruser") return make_solve_peruser();
  if (name == "solve-classes") return make_solve_classes();
  if (name == "des-replicate") return make_des_replicate();
  if (name == "ring-protocol") return make_ring_protocol();
  return nullptr;
}

}  // namespace nashlb::nashbench
