// Tests of the benchmark's own measurement pieces: the exact percentile,
// the probe shim and the policy decorator.

#include "layers.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "core/metasearcher.h"
#include "eval/testbed.h"

namespace servebench {
namespace {

namespace core = metaprobe::core;

TEST(PercentileTest, NearestRankOnKnownSamples) {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(hundred, 0.50), 50.0);
  EXPECT_EQ(Percentile(hundred, 0.99), 99.0);
  EXPECT_EQ(Percentile(hundred, 1.00), 100.0);
  EXPECT_EQ(Percentile(hundred, 0.001), 1.0);

  // Ten samples: p99 is the largest, the median the fifth.
  const std::vector<double> ten = {7, 3, 9, 1, 10, 2, 8, 4, 6, 5};
  EXPECT_EQ(Percentile(ten, 0.99), 10.0);
  EXPECT_EQ(Percentile(ten, 0.50), 5.0);
  EXPECT_EQ(Percentile(ten, 0.51), 6.0);

  // No interpolation between samples.
  EXPECT_EQ(Percentile({1.0, 1000.0}, 0.5), 1.0);
  EXPECT_EQ(Percentile({42.0}, 0.99), 42.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

/// Backend that answers every probe with the query's term count.
class CountingDatabase : public core::HiddenWebDatabase {
 public:
  const std::string& name() const override { return name_; }
  std::uint32_t size() const override { return 100; }
  metaprobe::Result<std::uint64_t> CountMatches(
      const core::Query& query) const override {
    return query.num_terms();
  }
  metaprobe::Result<std::vector<core::SearchHit>> Search(
      const core::Query&, std::size_t) const override {
    return std::vector<core::SearchHit>{};
  }
  std::uint64_t queries_served() const override { return 0; }

 private:
  std::string name_ = "counting";
};

TEST(ProbeShimTest, ZeroDelayNeverSleeps) {
  ProbeShim shim(std::make_shared<CountingDatabase>());
  core::Query query;
  query.terms = {"heart", "attack"};
  for (int i = 0; i < 50; ++i) {
    auto count = shim.CountMatches(query);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.ValueOrDie(), 2u);
  }
  ASSERT_TRUE(shim.Search(query, 1).ok());
  EXPECT_EQ(shim.sleeps(), 0u);

  shim.set_delay(std::chrono::microseconds(1));
  ASSERT_TRUE(shim.CountMatches(query).ok());
  ASSERT_TRUE(shim.Search(query, 1).ok());
  EXPECT_EQ(shim.sleeps(), 2u);
}

TEST(ProbeShimTest, TimingCountsOnlyWhenOn) {
  ProbeShim shim(std::make_shared<CountingDatabase>());
  LayerCounters index, probe;
  shim.set_counters(&index, &probe);
  core::Query query;
  query.terms = {"flu"};
  ASSERT_TRUE(shim.CountMatches(query).ok());
  EXPECT_EQ(probe.calls.load(), 0u);

  shim.set_timing(true);
  shim.set_delay(std::chrono::microseconds(200));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(shim.CountMatches(query).ok());
  EXPECT_EQ(index.calls.load(), 3u);
  EXPECT_EQ(probe.calls.load(), 3u);
  EXPECT_EQ(probe.failed.load(), 0u);
  // The probe layer includes the sleep; the index layer does not.
  EXPECT_GE(probe.nanos.load(), 3u * 200'000u);
  EXPECT_LT(index.nanos.load(), probe.nanos.load());
}

/// Answers of a searcher over `testbed`, optionally with both decorators
/// timing every call.
std::vector<std::uint64_t> Digests(const metaprobe::eval::Testbed& testbed,
                                   bool timed, LayerCounters* policy,
                                   LayerCounters* probe) {
  core::Metasearcher searcher;
  for (std::size_t i = 0; i < testbed.databases.size(); ++i) {
    auto shim = std::make_shared<ProbeShim>(testbed.databases[i]);
    if (timed) {
      shim->set_counters(nullptr, probe);
      shim->set_timing(true);
    }
    EXPECT_TRUE(searcher.AddDatabase(shim, testbed.summaries[i]).ok());
  }
  EXPECT_TRUE(searcher.Train(testbed.train_queries).ok());
  if (timed) {
    searcher.SetProbingPolicy(std::make_unique<TimedPolicy>(
        std::make_unique<core::StoppingProbabilityPolicy>(), policy));
  }
  std::vector<std::uint64_t> digests;
  for (const core::Query& query : testbed.test_queries) {
    auto report = searcher.Select(query, 3, 0.99);
    EXPECT_TRUE(report.ok());
    digests.push_back(AnswerDigest(report.ValueOrDie()));
  }
  return digests;
}

TEST(DecoratorTest, TimingChangesNoAnswer) {
  metaprobe::eval::TestbedOptions options;
  options.train_queries_per_term_count = 40;
  options.test_queries_per_term_count = 15;
  auto testbed = metaprobe::eval::BuildHealthTestbed(options);
  ASSERT_TRUE(testbed.ok());
  LayerCounters policy, probe;
  const auto plain = Digests(testbed.ValueOrDie(), false, nullptr, nullptr);
  const auto timed = Digests(testbed.ValueOrDie(), true, &policy, &probe);
  EXPECT_EQ(plain, timed);
  // The decorators were on the path: every probe follows a policy call.
  EXPECT_GT(policy.calls.load(), 0u);
  EXPECT_EQ(policy.calls.load(), probe.calls.load());
}

TEST(DigestTest, CoversSelectionAndProbeOrder) {
  core::SelectionReport a;
  a.databases = {1, 4, 7};
  a.probe_order = {4, 2};
  core::SelectionReport b = a;
  EXPECT_EQ(AnswerDigest(a), AnswerDigest(b));
  b.probe_order = {2, 4};
  EXPECT_NE(AnswerDigest(a), AnswerDigest(b));
  b = a;
  b.databases = {1, 4, 8};
  EXPECT_NE(AnswerDigest(a), AnswerDigest(b));
  EXPECT_NE(CombineDigest(CombineDigest(0, 1), 2),
            CombineDigest(CombineDigest(0, 2), 1));
}

}  // namespace
}  // namespace servebench
