#include "layers.h"

#include <algorithm>
#include <cmath>
#include <thread>

namespace servebench {

namespace core = metaprobe::core;
using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t NanosSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t FnvWord(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffU;
    hash *= kFnvPrime;
  }
  return hash;
}

void Count(LayerCounters* counters, std::uint64_t nanos, bool ok) {
  if (counters == nullptr) return;
  counters->calls.fetch_add(1, std::memory_order_relaxed);
  counters->nanos.fetch_add(nanos, std::memory_order_relaxed);
  if (!ok) counters->failed.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void ProbeShim::Delay() const {
  if (delay_.count() == 0) return;
  sleeps_.fetch_add(1, std::memory_order_relaxed);
  std::this_thread::sleep_for(delay_);
}

metaprobe::Result<std::uint64_t> ProbeShim::CountMatches(
    const core::Query& query) const {
  if (!timing_) {
    Delay();
    return inner_->CountMatches(query);
  }
  const Clock::time_point call_start = Clock::now();
  Delay();
  const Clock::time_point inner_start = Clock::now();
  metaprobe::Result<std::uint64_t> result = inner_->CountMatches(query);
  Count(index_counters_, NanosSince(inner_start), result.ok());
  Count(probe_counters_, NanosSince(call_start), result.ok());
  return result;
}

metaprobe::Result<std::vector<core::SearchHit>> ProbeShim::Search(
    const core::Query& query, std::size_t k) const {
  Delay();
  return inner_->Search(query, k);
}

std::size_t TimedPolicy::SelectDb(core::TopKModel* model,
                                  const std::vector<bool>& probed,
                                  const core::ProbingContext& context) {
  const Clock::time_point start = Clock::now();
  const std::size_t pick = inner_->SelectDb(model, probed, context);
  Count(counters_, NanosSince(start), /*ok=*/true);
  return pick;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  // Rank ceil(q * n), 1-based; the epsilon keeps q * n = 99.0000000001
  // from rounding a whole rank up.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) -
                                                 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::uint64_t AnswerDigest(const core::SelectionReport& report) {
  std::uint64_t hash = kFnvOffset;
  hash = FnvWord(hash, report.databases.size());
  for (std::size_t id : report.databases) hash = FnvWord(hash, id);
  hash = FnvWord(hash, report.probe_order.size());
  for (std::size_t id : report.probe_order) hash = FnvWord(hash, id);
  return hash;
}

std::uint64_t CombineDigest(std::uint64_t acc, std::uint64_t digest) {
  return FnvWord(acc == 0 ? kFnvOffset : acc, digest);
}

}  // namespace servebench
