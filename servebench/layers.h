// Measurement pieces of the serving benchmark that sit *outside* the
// library: a probe shim in front of every database, a timing decorator
// over the probing policy, an exact percentile and an answer digest. Each
// times a public call from the outside, so the benchmark attributes
// Select time to layers without any span inside the library.

#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/hidden_web_database.h"
#include "core/metasearcher.h"
#include "core/probing.h"

namespace servebench {

/// \brief Call count and busy time of one layer. Shared by every thread
/// that calls into the layer, so the fields are atomics.
struct LayerCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> nanos{0};
  std::atomic<std::uint64_t> failed{0};
};

/// \brief The shim in each database's probe path. It models the network
/// round trip of a remote hidden-web database by sleeping `delay` before
/// every single-query probe. A delay of 0 makes no sleep call at all: a
/// 1 us `sleep_for` costs tens of microseconds, which would turn the
/// CPU-bound regime into a latency-bound one.
///
/// With timing on, the shim counts probes, times the inner CountMatches
/// alone (the index layer) and the whole call including the sleep (the
/// probe layer as Select sees it). Batch probes, used only by offline
/// training and the golden standard, are local: they are forwarded with
/// no delay and are not counted.
class ProbeShim : public metaprobe::core::HiddenWebDatabase {
 public:
  explicit ProbeShim(std::shared_ptr<metaprobe::core::HiddenWebDatabase> inner)
      : inner_(std::move(inner)) {}

  /// Setup phase only: not synchronized against probes in flight.
  void set_delay(std::chrono::microseconds delay) { delay_ = delay; }
  void set_timing(bool on) { timing_ = on; }

  /// Counters may be shared across shims; null detaches.
  void set_counters(LayerCounters* index, LayerCounters* probe) {
    index_counters_ = index;
    probe_counters_ = probe;
  }

  /// Number of sleep calls made so far.
  std::uint64_t sleeps() const { return sleeps_.load(); }

  const std::string& name() const override { return inner_->name(); }
  std::uint32_t size() const override { return inner_->size(); }
  std::uint64_t queries_served() const override {
    return inner_->queries_served();
  }

  metaprobe::Result<std::uint64_t> CountMatches(
      const metaprobe::core::Query& query) const override;
  metaprobe::Result<std::vector<metaprobe::core::SearchHit>> Search(
      const metaprobe::core::Query& query, std::size_t k) const override;

  using HiddenWebDatabase::ProbeBatch;
  metaprobe::Result<std::vector<double>> ProbeBatch(
      const std::vector<const metaprobe::core::Query*>& queries,
      metaprobe::core::RelevancyDefinition definition,
      const metaprobe::core::Deadline& deadline) const override {
    return inner_->ProbeBatch(queries, definition, deadline);
  }

 private:
  void Delay() const;

  std::shared_ptr<metaprobe::core::HiddenWebDatabase> inner_;
  std::chrono::microseconds delay_{0};
  bool timing_ = false;
  LayerCounters* index_counters_ = nullptr;
  LayerCounters* probe_counters_ = nullptr;
  mutable std::atomic<std::uint64_t> sleeps_{0};
};

/// \brief Times every SelectDb call of the wrapped policy into `counters`
/// (borrowed; shared with clones). The decision itself is forwarded
/// unchanged.
class TimedPolicy : public metaprobe::core::ProbingPolicy {
 public:
  TimedPolicy(std::unique_ptr<metaprobe::core::ProbingPolicy> inner,
              LayerCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  std::string name() const override { return inner_->name(); }
  std::size_t SelectDb(metaprobe::core::TopKModel* model,
                       const std::vector<bool>& probed,
                       const metaprobe::core::ProbingContext& context) override;
  std::unique_ptr<metaprobe::core::ProbingPolicy> Clone() const override {
    return std::make_unique<TimedPolicy>(inner_->Clone(), counters_);
  }

 private:
  std::unique_ptr<metaprobe::core::ProbingPolicy> inner_;
  LayerCounters* counters_;
};

/// \brief Exact nearest-rank percentile: the smallest sample such that at
/// least `q` of all samples are <= it. `q` in (0, 1]; 0 for no samples.
double Percentile(std::vector<double> samples, double q);

/// \brief FNV-1a digest of one answer: its selected set and its probe
/// order, in that order.
std::uint64_t AnswerDigest(const metaprobe::core::SelectionReport& report);

/// \brief Folds `digest` into `acc` (order-sensitive).
std::uint64_t CombineDigest(std::uint64_t acc, std::uint64_t digest);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
