// servebench: the repository's serving benchmark.
//
// Builds the health testbed, trains a Metasearcher over it (every
// database behind a ProbeShim), and serves the test trace, replayed in an
// order drawn from --seed, through
// serving::MetasearchServer with k = 3, t = 0.99, the default
// StoppingProbabilityPolicy and speculative_batch = 1 for --seconds
// seconds. Every answer is checked against eval::GoldenStandard and
// against a reference answer computed by a direct, sequential Select of
// the same query before serving starts.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--digest-file PATH]
//
// --trace 0 measures the end-to-end metrics. --trace 1 serves half the
// time untraced and half with the timing decorators installed, in four
// interleaved slices, then times estimate, model build and the best-set
// kernel per trace query, and reports the per-layer metrics. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is 1 when any answer check fails, 2 on bad arguments.
//
// --digest-file keeps the digest of the reference answers (selected set
// and probe order of every trace query, in trace order) across runs: the
// first run writes it, every later run must reproduce it exactly. The
// reference does not depend on the seed, workload or --trace.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/metasearcher.h"
#include "core/probing.h"
#include "eval/golden.h"
#include "eval/testbed.h"
#include "layers.h"
#include "serving/metasearch_server.h"
#include "stats/random.h"

namespace servebench {
namespace {

namespace core = metaprobe::core;
namespace eval = metaprobe::eval;
namespace serving = metaprobe::serving;
using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;

constexpr int kTopK = 3;
constexpr double kThreshold = 0.99;
// The testbed is the repository's standard one (seed 42). Its corpus and
// advertised sizes decide how hard selection is: across testbed seeds
// golden correctness ranged 57-92% and cpu_bound qps 101-161, far more
// than any regression bound. So the testbed is fixed and --seed only
// draws the order in which its test trace is replayed.
constexpr std::uint64_t kTestbedSeed = 42;
// 150 training and 250 test queries per keyword count (2 and 3 terms).
// The training size is the one BENCH_serving.json was measured at; the
// 500-query trace puts a handful of distinct queries, not one or two,
// beyond the p99.
constexpr std::size_t kTrainPerTermCount = 150;
constexpr std::size_t kTestPerTermCount = 250;
// setup_s is the median of this many full set-ups (testbed + Train).
constexpr int kSetupRepeats = 3;
// Golden check: at t = 0.99 the answers that were not cut by a deadline
// must match the golden top-3 at least this often. A broken selection
// path lands far below; a healthy one sits near 93% on this testbed.
constexpr double kCorrectFloorPct = 70.0;

/// One traffic mix. Load, budget and latency limit are constants of the
/// workload, never derived from a measurement, so a parent commit and a
/// change face the same offered load.
struct Workload {
  const char* name;
  bool open_loop;
  int workers;
  int clients;             // closed loop only
  double rate_qps;         // open loop only
  microseconds probe_delay;
  std::uint64_t budget_ns;  // per-request deadline; 0 = none
  bool admission;
  bool probe_pool;          // install a 2-thread pool with SetProbePool
  double slo_ms;            // latency limit for slo_pct
};

// cpu_bound: selection math is the whole cost (no probe delay, one
//   worker, one client, no queue by construction).
// remote_probe: 10 ms probe round trips under an open loop at 50 qps,
//   about 2/3 of the 4-worker saturation (~4.4 probes, ~54 ms of service
//   per query); queueing and probe count dominate, a CPU win barely moves
//   it and spending more probes shows as a loss.
// deadline: 10 ms probes and a 30 ms budget below the median service
//   time, so the degraded path runs and uninterruptible scoring shows in
//   the tail. A probe round is ~11.6 ms, so 30 ms sits mid-way between
//   the start of the third and the fourth round instead of on an edge
//   where CPU speed alone decides which answers are cut.
constexpr Workload kWorkloads[] = {
    {"cpu_bound", false, 1, 1, 0.0, microseconds(0), 0, false, true, 100.0},
    {"remote_probe", true, 4, 0, 50.0, microseconds(10000), 0, true, false,
     250.0},
    {"deadline", false, 4, 4, 0.0, microseconds(10000), 30'000'000, false,
     false, 60.0},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string digest_file;
};

bool ParseUnsigned(const char* text, std::uint64_t max, std::uint64_t* out) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || text == end || value > max) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) args->workload = &w;
      }
      if (args->workload == nullptr) {
        std::cerr << "unknown workload: " << value << "\n";
        return false;
      }
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, UINT64_MAX, &args->seed)) {
        std::cerr << "--seed must be a non-negative integer\n";
        return false;
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, 3600, &number) || number == 0) {
        std::cerr << "--seconds must be an integer in [1, 3600]\n";
        return false;
      }
      args->seconds = static_cast<int>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, 1, &number)) {
        std::cerr << "--trace must be 0 or 1\n";
        return false;
      }
      args->trace = number == 1;
      have_trace = true;
    } else if (flag == "--digest-file") {
      args->digest_file = value;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  if (args->workload == nullptr || !have_seed || !have_seconds ||
      !have_trace) {
    std::cerr << "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--digest-file PATH]\n";
    return false;
  }
  return true;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

/// The testbed and the searcher trained over it.
struct Stack {
  eval::Testbed testbed;
  std::vector<std::shared_ptr<ProbeShim>> shims;
  std::unique_ptr<core::Metasearcher> searcher;
};

/// Builds the testbed and trains a searcher over shimmed databases,
/// timing the two steps separately.
Stack BuildStack(double* testbed_s, double* train_s) {
  eval::TestbedOptions options;
  options.seed = kTestbedSeed;
  options.train_queries_per_term_count = kTrainPerTermCount;
  options.test_queries_per_term_count = kTestPerTermCount;
  Stack stack;
  Clock::time_point start = Clock::now();
  auto testbed = eval::BuildHealthTestbed(options);
  testbed.status().CheckOK();
  stack.testbed = std::move(testbed).ValueOrDie();
  *testbed_s = SecondsSince(start);

  start = Clock::now();
  core::MetasearcherOptions searcher_options;
  searcher_options.speculative_batch = 1;
  stack.searcher = std::make_unique<core::Metasearcher>(searcher_options);
  for (std::size_t i = 0; i < stack.testbed.databases.size(); ++i) {
    stack.shims.push_back(
        std::make_shared<ProbeShim>(stack.testbed.databases[i]));
    stack.searcher->AddDatabase(stack.shims[i], stack.testbed.summaries[i])
        .CheckOK();
  }
  stack.searcher->Train(stack.testbed.train_queries).CheckOK();
  *train_s = SecondsSince(start);
  return stack;
}

struct Answer {
  std::vector<std::size_t> selected;
  std::vector<std::size_t> probe_order;
};

/// One request as the client saw it.
struct Record {
  std::size_t query = 0;  // index into the trace
  bool admitted = false;
  bool ok = false;
  bool degraded = false;
  double latency_s = 0.0;  // from due time (open loop) or submit (closed)
  double lag_s = 0.0;      // open loop: submit time minus due time
  double queue_s = 0.0;
  double service_s = 0.0;
  Answer answer;
};

struct Phase {
  std::vector<Record> records;
  double wall_s = 0.0;
  std::size_t completed() const {
    return static_cast<std::size_t>(
        std::count_if(records.begin(), records.end(),
                      [](const Record& r) { return r.admitted; }));
  }
  double qps() const {
    return wall_s > 0.0 ? static_cast<double>(completed()) / wall_s : 0.0;
  }
};

serving::ServeRequest MakeRequest(const Workload& workload,
                                  const core::Query& query) {
  serving::ServeRequest request;
  request.query = query;
  request.deadline_ns = workload.budget_ns;
  return request;
}

void Complete(serving::ServeResponse response, Record* record) {
  record->ok = response.status.ok();
  record->degraded = response.degraded;
  record->queue_s = response.queue_seconds;
  record->service_s = response.total_seconds - response.queue_seconds;
  record->answer.selected = std::move(response.report.databases);
  record->answer.probe_order = std::move(response.report.probe_order);
}

/// Closed loop: each client sends the next trace query and waits for its
/// answer before sending another, until `seconds` have passed. Replay
/// starts at position `first` of `order`.
Phase RunClosedLoop(serving::MetasearchServer* server,
                    const Workload& workload,
                    const std::vector<core::Query>& trace,
                    const std::vector<std::size_t>& order, std::size_t first,
                    double seconds) {
  std::atomic<std::size_t> next{first};
  std::vector<std::vector<Record>> per_client(workload.clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < workload.clients; ++c) {
    clients.emplace_back([&, c] {
      while (Clock::now() < stop) {
        Record record;
        record.query = order[next.fetch_add(1) % order.size()];
        const Clock::time_point sent = Clock::now();
        serving::Ticket ticket =
            server->Submit(MakeRequest(workload, trace[record.query]));
        record.admitted = ticket.accepted();
        if (record.admitted) Complete(ticket.response.get(), &record);
        record.latency_s = SecondsSince(sent);
        per_client[c].push_back(std::move(record));
        // A refused request is a miss; back off instead of spinning.
        if (!per_client[c].back().admitted) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  Phase phase;
  phase.wall_s = SecondsSince(start);
  for (auto& records : per_client) {
    for (Record& record : records) phase.records.push_back(std::move(record));
  }
  return phase;
}

/// Open loop: one generator sends at the workload's fixed rate for
/// `seconds`, whether or not earlier requests have completed. Latency
/// runs from when a request was due, so generator stalls count.
Phase RunOpenLoop(serving::MetasearchServer* server, const Workload& workload,
                  const std::vector<core::Query>& trace,
                  const std::vector<std::size_t>& order, std::size_t first,
                  double seconds) {
  struct Pending {
    std::size_t record;
    std::future<serving::ServeResponse> response;
  };
  Phase phase;
  std::vector<Pending> pending;
  const auto total = static_cast<std::size_t>(seconds * workload.rate_qps);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < total; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i / workload.rate_qps));
    std::this_thread::sleep_until(due);
    Record record;
    record.query = order[(first + i) % order.size()];
    record.lag_s = std::chrono::duration<double>(Clock::now() - due).count();
    serving::Ticket ticket =
        server->Submit(MakeRequest(workload, trace[record.query]));
    record.admitted = ticket.accepted();
    if (record.admitted) {
      pending.push_back({phase.records.size(), std::move(ticket.response)});
    }
    phase.records.push_back(std::move(record));
  }
  double last_done_s = 0.0;
  for (Pending& p : pending) {
    Record& record = phase.records[p.record];
    Complete(p.response.get(), &record);
    record.latency_s = record.lag_s + record.queue_s + record.service_s;
    const double due_s = static_cast<double>(p.record) / workload.rate_qps;
    last_done_s = std::max(last_done_s, due_s + record.latency_s);
  }
  phase.wall_s = last_done_s > 0.0 ? last_done_s : SecondsSince(start);
  return phase;
}

Phase Serve(const core::Metasearcher& searcher, const Workload& workload,
            const std::vector<core::Query>& trace,
            const std::vector<std::size_t>& order, std::size_t first,
            double seconds) {
  serving::MetasearchServerOptions options;
  options.num_workers = workload.workers;
  options.admission_enabled = workload.admission;
  // Tenant budget well above the offered rate: admission is on the path
  // but sheds nothing while the server keeps up.
  options.tenant_rate.refill_per_second = 2.0 * workload.rate_qps;
  options.tenant_rate.burst = 32.0;
  options.max_queue_depth = 64;
  options.default_k = kTopK;
  options.default_threshold = kThreshold;
  serving::MetasearchServer server(&searcher, options);
  Phase phase =
      workload.open_loop
          ? RunOpenLoop(&server, workload, trace, order, first, seconds)
          : RunClosedLoop(&server, workload, trace, order, first, seconds);
  server.Shutdown();
  return phase;
}

/// Outcome of checking every record of a run.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t refused = 0;
  std::size_t errors = 0;
  std::size_t degraded = 0;
  std::size_t correct = 0;
  std::size_t full_correct = 0;  // correct among full-certainty answers
  std::size_t full = 0;
  std::size_t slo_hits = 0;
  std::size_t probes = 0;
  std::size_t answered = 0;
  std::size_t mismatches = 0;
  std::vector<std::string> problems;

  std::size_t failed() const { return refused + errors; }
  void Problem(const std::string& text) {
    if (problems.size() < 5) problems.push_back(text);
  }
};

bool IsPrefix(const std::vector<std::size_t>& prefix,
              const std::vector<std::size_t>& full) {
  return prefix.size() <= full.size() &&
         std::equal(prefix.begin(), prefix.end(), full.begin());
}

void Check(const Phase& phase, const Workload& workload,
           const std::vector<Answer>& reference,
           const eval::GoldenStandard& golden, std::size_t num_databases,
           Verdict* verdict) {
  for (const Record& record : phase.records) {
    ++verdict->attempted;
    if (!record.admitted) {
      ++verdict->refused;
      continue;
    }
    if (!record.ok) {
      ++verdict->errors;
      continue;
    }
    ++verdict->answered;
    if (record.latency_s * 1e3 <= workload.slo_ms) ++verdict->slo_hits;
    const Answer& answer = record.answer;
    const Answer& expected = reference[record.query];
    verdict->probes += answer.probe_order.size();
    const bool valid =
        answer.selected.size() == static_cast<std::size_t>(kTopK) &&
        std::is_sorted(answer.selected.begin(), answer.selected.end()) &&
        std::adjacent_find(answer.selected.begin(), answer.selected.end()) ==
            answer.selected.end() &&
        answer.selected.back() < num_databases;
    bool matches = valid && IsPrefix(answer.probe_order, expected.probe_order);
    if (record.degraded) {
      ++verdict->degraded;
      // Only a deadline may cut probing.
      if (workload.budget_ns == 0) matches = false;
    } else {
      matches = matches && answer.selected == expected.selected &&
                answer.probe_order == expected.probe_order;
    }
    if (!matches) {
      ++verdict->mismatches;
      verdict->Problem("query " + std::to_string(record.query) +
                       " answered differently from its reference");
    }
    const bool correct = answer.selected == golden.TopK(record.query, kTopK);
    if (correct) ++verdict->correct;
    if (!record.degraded) {
      ++verdict->full;
      if (correct) ++verdict->full_correct;
    }
  }
}

/// Per-query stage costs timed from outside through public calls.
struct StageCosts {
  std::vector<double> estimate_us, build_us, kernel_us;
};

StageCosts MeasureStages(const core::Metasearcher& searcher,
                         const std::vector<core::Query>& trace) {
  StageCosts costs;
  for (const core::Query& query : trace) {
    Clock::time_point start = Clock::now();
    searcher.EstimateAll(query);
    costs.estimate_us.push_back(SecondsSince(start) * 1e6);
    start = Clock::now();
    auto model = searcher.BuildModel(query);
    costs.build_us.push_back(SecondsSince(start) * 1e6);
    model.status().CheckOK();
    start = Clock::now();
    model.ValueOrDie().FindBestSet(kTopK, searcher.options().metric,
                                   searcher.options().search_width);
    costs.kernel_us.push_back(SecondsSince(start) * 1e6);
  }
  return costs;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

std::string Hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Compares `digest` with the one stored at `path`, storing it there
/// first if the file does not exist yet. Returns false on a mismatch.
bool CheckDigestFile(const std::string& path, const std::string& digest) {
  std::ifstream in(path);
  if (in) {
    std::string stored;
    in >> stored;
    if (stored != digest) {
      std::cout << "digest mismatch: " << digest << " vs stored " << stored
                << " in " << path << "\n";
      return false;
    }
    return true;
  }
  const std::string tmp = path + ".tmp";
  std::ofstream(tmp) << digest << "\n";
  std::rename(tmp.c_str(), path.c_str());
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name;
    for (std::size_t pad = m.name.size(); pad < 30; ++pad) std::cout << ' ';
    std::cout << m.value << " " << m.unit << "  (n=" << m.samples << ")\n";
  }
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

int Run(const Args& args) {
  const Workload& workload = *args.workload;
  std::cout << "servebench workload=" << workload.name
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << args.trace << std::endl;

  // --- Set-up: testbed + Train, repeated; the last stack serves. --------
  std::vector<double> testbed_s, train_s, setup_s;
  Stack stack;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    stack = Stack();  // free the previous stack before building the next
    double build = 0.0, train = 0.0;
    stack = BuildStack(&build, &train);
    testbed_s.push_back(build);
    train_s.push_back(train);
    setup_s.push_back(build + train);
  }
  core::Metasearcher& searcher = *stack.searcher;
  const std::vector<core::Query>& trace = stack.testbed.test_queries;

  Clock::time_point start = Clock::now();
  auto golden_result = eval::GoldenStandard::Build(
      stack.testbed.database_ptrs(), trace);
  golden_result.status().CheckOK();
  const eval::GoldenStandard golden = std::move(golden_result).ValueOrDie();
  const double golden_s = SecondsSince(start);

  metaprobe::ThreadPool probe_pool(workload.probe_pool ? 2 : 0);
  if (workload.probe_pool) searcher.SetProbePool(&probe_pool);

  // --- Reference answers: direct sequential Select, zero probe delay. ---
  std::vector<Answer> reference;
  std::uint64_t digest = 0;
  for (const core::Query& query : trace) {
    auto report = searcher.Select(query, kTopK, kThreshold);
    report.status().CheckOK();
    digest = CombineDigest(digest, AnswerDigest(report.ValueOrDie()));
    reference.push_back({report.ValueOrDie().databases,
                         report.ValueOrDie().probe_order});
  }
  bool correct = args.digest_file.empty() ||
                 CheckDigestFile(args.digest_file, Hex(digest));

  for (auto& shim : stack.shims) shim->set_delay(workload.probe_delay);

  // Replay order of the trace: a Fisher-Yates shuffle drawn from --seed.
  std::vector<std::size_t> order(trace.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  metaprobe::stats::Rng rng(args.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(std::uint64_t{i})]);
  }

  // --- Serve. -----------------------------------------------------------
  const double seconds = args.seconds;
  Phase plain, traced;
  LayerCounters policy_layer, index_layer, probe_layer;
  StageCosts stages;
  if (!args.trace) {
    plain = Serve(searcher, workload, trace, order, 0, seconds);
  } else {
    // Slices run untraced, traced, traced, untraced: both halves have the
    // same mean time, so a linear drift in machine speed cancels out of
    // bench.trace_overhead_pct. Few slices, because the first request of
    // each new server waits for its worker to start.
    constexpr int kSlices = 4;
    for (auto& shim : stack.shims) {
      shim->set_counters(&index_layer, &probe_layer);
    }
    std::size_t first = 0;
    for (int slice = 0; slice < kSlices; ++slice) {
      const bool timed = slice == 1 || slice == 2;
      std::unique_ptr<core::ProbingPolicy> policy =
          std::make_unique<core::StoppingProbabilityPolicy>();
      if (timed) {
        policy = std::make_unique<TimedPolicy>(std::move(policy),
                                               &policy_layer);
      }
      searcher.SetProbingPolicy(std::move(policy));
      for (auto& shim : stack.shims) shim->set_timing(timed);
      Phase part =
          Serve(searcher, workload, trace, order, first, seconds / kSlices);
      first += part.records.size();
      Phase& into = timed ? traced : plain;
      into.wall_s += part.wall_s;
      for (Record& r : part.records) into.records.push_back(std::move(r));
    }
    stages = MeasureStages(searcher, trace);
  }

  // --- Check every answer. ----------------------------------------------
  Verdict verdict;
  const std::size_t n = stack.testbed.num_databases();
  Check(plain, workload, reference, golden, n, &verdict);
  Verdict traced_verdict;
  Check(traced, workload, reference, golden, n, &traced_verdict);
  const double full_correct_pct =
      Pct(verdict.full_correct + traced_verdict.full_correct,
          verdict.full + traced_verdict.full);
  if (verdict.mismatches + traced_verdict.mismatches > 0) correct = false;
  if (full_correct_pct < kCorrectFloorPct) {
    std::cout << "golden check failed: " << full_correct_pct
              << "% of full-certainty answers match the golden top-" << kTopK
              << " (floor " << kCorrectFloorPct << "%)\n";
    correct = false;
  }
  for (const auto& problem : verdict.problems) std::cout << problem << "\n";
  for (const auto& problem : traced_verdict.problems) {
    std::cout << "traced: " << problem << "\n";
  }

  // --- End-to-end metrics of the untraced phase. ------------------------
  std::vector<double> latencies_ms, lags_ms;
  for (const Record& r : plain.records) {
    if (r.admitted && r.ok) latencies_ms.push_back(r.latency_s * 1e3);
  }
  const double attempted = static_cast<double>(verdict.attempted);
  const std::size_t answered = verdict.answered;
  std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"qps", plain.qps(), "1/s", plain.completed()},
      {"p50_ms", Percentile(latencies_ms, 0.50), "ms", latencies_ms.size()},
      {"p99_ms", Percentile(latencies_ms, 0.99), "ms", latencies_ms.size()},
      {"correct_pct", Pct(verdict.correct, attempted), "%", verdict.attempted},
      {"probes_per_query",
       answered ? static_cast<double>(verdict.probes) / answered : 0.0,
       "count", answered},
      {"slo_pct", Pct(verdict.slo_hits, attempted), "%", verdict.attempted},
      {"full_pct", Pct(verdict.answered - verdict.degraded, attempted), "%",
       verdict.attempted},
      {"success_pct", Pct(verdict.answered, attempted), "%",
       verdict.attempted},
  };
  std::cout << "requests: sent " << verdict.attempted << ", succeeded "
            << verdict.answered << ", failed " << verdict.failed()
            << " (refused " << verdict.refused << ", errors " << verdict.errors
            << ")\n";
  PrintMetrics("end-to-end:", end_to_end);
  // The complements of full_pct and success_pct; not in the JSON because
  // they are 0 on healthy runs, and a bound relative to 0 means nothing.
  PrintMetrics("complements:",
               {{"degraded_pct", Pct(verdict.degraded, attempted), "%",
                 verdict.attempted},
                {"error_pct", Pct(verdict.failed(), attempted), "%",
                 verdict.attempted}});
  std::cout << "slo limit " << workload.slo_ms << " ms\n";
  std::cout << "answer digest " << Hex(digest) << " over " << trace.size()
            << " reference queries; " << verdict.mismatches
            << " served answers differ from their reference\n";

  std::vector<Metric> layers;
  if (args.trace) {
    std::vector<double> queue_ms, service_ms;
    double service_ns = 0.0, stage_ns = 0.0;
    for (const Record& r : traced.records) {
      if (!r.admitted || !r.ok) continue;
      queue_ms.push_back(r.queue_s * 1e3);
      service_ms.push_back(r.service_s * 1e3);
      service_ns += r.service_s * 1e9;
      // Estimate and model build run once per Select; the APro loop runs
      // the best-set kernel once up front and once after every probe. The
      // kernel share is estimated from its cost on the fresh model.
      stage_ns += 1e3 * (stages.estimate_us[r.query] + stages.build_us[r.query] +
                         static_cast<double>(r.answer.probe_order.size() + 1) *
                             stages.kernel_us[r.query]);
    }
    for (const Phase* phase : {&plain, &traced}) {
      for (const Record& r : phase->records) lags_ms.push_back(r.lag_s * 1e3);
    }
    const double done = static_cast<double>(traced.completed());
    const double policy_ns = policy_layer.nanos.load();
    const double probe_ns = probe_layer.nanos.load();
    const double policy_calls = policy_layer.calls.load();
    const double probe_calls = probe_layer.calls.load();
    layers = {
        {"serving.queue_wait_p50_ms", Percentile(queue_ms, 0.50), "ms",
         queue_ms.size()},
        {"serving.queue_wait_p99_ms", Percentile(queue_ms, 0.99), "ms",
         queue_ms.size()},
        {"serving.service_p50_ms", Percentile(service_ms, 0.50), "ms",
         service_ms.size()},
        {"serving.refused", static_cast<double>(traced_verdict.refused),
         "count", traced_verdict.attempted},
        {"core.policy.calls_per_query", done ? policy_calls / done : 0.0,
         "count", traced.completed()},
        {"core.policy.us_per_call",
         policy_calls ? policy_ns / policy_calls / 1e3 : 0.0, "us",
         policy_layer.calls.load()},
        {"core.policy.share_pct", Pct(policy_ns, service_ns), "%",
         traced.completed()},
        {"core.kernel.find_best_set_us", Mean(stages.kernel_us), "us",
         stages.kernel_us.size()},
        {"core.estimator.us_per_query", Mean(stages.estimate_us), "us",
         stages.estimate_us.size()},
        {"core.model.build_us_per_query", Mean(stages.build_us), "us",
         stages.build_us.size()},
        {"core.probe.calls_per_query", done ? probe_calls / done : 0.0,
         "count", traced.completed()},
        {"index.probe_us_per_call",
         probe_calls ? index_layer.nanos.load() / probe_calls / 1e3 : 0.0,
         "us", index_layer.calls.load()},
        {"core.probe.failed", static_cast<double>(probe_layer.failed.load()),
         "count", probe_layer.calls.load()},
        {"eval.testbed_build_s", Median(testbed_s), "s", testbed_s.size()},
        {"core.train_s", Median(train_s), "s", train_s.size()},
        {"eval.golden_s", golden_s, "s", 1},
        {"core.unattributed_pct",
         Pct(service_ns - policy_ns - probe_ns - stage_ns, service_ns), "%",
         traced.completed()},
        {"bench.gen_lag_p99_ms", Percentile(lags_ms, 0.99), "ms",
         lags_ms.size()},
        {"bench.trace_overhead_pct",
         Pct(plain.qps() - traced.qps(), plain.qps()), "%",
         plain.completed() + traced.completed()},
    };
    std::cout << "traced phase: sent " << traced_verdict.attempted
              << ", succeeded " << traced_verdict.answered << ", failed "
              << traced_verdict.failed() << "\n";
    PrintMetrics("per-layer:", layers);
  }

  std::cout << (correct ? "checks passed" : "CHECKS FAILED") << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": "
            << verdict.attempted + traced_verdict.attempted
            << ", \"failed\": " << verdict.failed() + traced_verdict.failed()
            << ", \"metrics\": "
            << JsonMetrics(args.trace ? layers : end_to_end) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) return 2;
  return servebench::Run(args);
}
