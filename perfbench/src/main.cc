// perfbench: end-to-end and per-layer benchmark of TSJ joins.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workers W] [--spill-dir DIR] [--smoke]
//
// Generates the workload's text lines from the seed, builds the corpus
// through ReadCorpus, times TokenizedStringJoiner::SelfJoin / Join, checks
// every output against the oracle, and prints one JSON result as the last
// line of standard output. With --trace 0 the result holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics: the counters the
// join reports and a traced replay of the workload one layer at a time.
// See README.md for the workloads and the metrics.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "distance/myers_batch.h"
#include "generator.h"
#include "metrics.h"
#include "oracle.h"
#include "replay.h"
#include "tokenized/corpus_io.h"
#include "tsj/tsj.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kDefaultWorkers = 4;
constexpr size_t kWarmupJoins = 1;
constexpr size_t kMinTimedJoins = 3;
// Set-up repeats until both limits are reached; its median is setup_s.
constexpr size_t kMinSetupRepetitions = 5;
constexpr double kMinSetupSeconds = 1.0;

struct WorkloadSpec {
  std::string name;
  GeneratorOptions generator;
  size_t strings = 0;       // the self-join corpus, or R of an R-S join
  size_t base_strings = 0;  // S of an R-S join (account generator); 0 = self
  double threshold = 0.1;
  uint32_t max_token_frequency = 1000;
  size_t spill_budget_records = 0;  // 0 = in-memory shuffle
};

GeneratorOptions TitleGenerator() {
  GeneratorOptions options;
  options.min_tokens = 3;
  options.max_tokens = 6;
  options.min_syllables = 2;
  options.max_syllables = 5;
  return options;
}

std::vector<WorkloadSpec> Workloads(bool smoke) {
  std::vector<WorkloadSpec> specs = {
      {"accounts-80k", GeneratorOptions(), 80000, 0, 0.1, 1000, 0},
      {"titles-10k-t0.2", TitleGenerator(), 10000, 0, 0.2, 1000, 0},
      {"accounts-spill-10k", GeneratorOptions(), 10000, 0, 0.1, 1000,
       400000},
      {"signups-rs-join", GeneratorOptions(), 20000, 80000, 0.1, 1000, 0},
  };
  if (smoke) {
    // A few hundred strings each: seconds-long, same code paths.
    for (WorkloadSpec& spec : specs) {
      spec.strings = 300;
      if (spec.base_strings > 0) spec.base_strings = 400;
      if (spec.spill_budget_records > 0) spec.spill_budget_records = 64;
    }
  }
  return specs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  size_t workers = 0;  // 0 = min(kDefaultWorkers, nproc)
  std::string spill_dir;
  bool smoke = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workers W] [--spill-dir DIR] "
               "[--smoke]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--spill-dir") {
      args.spill_dir = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
    } else if (flag == "--workers") {
      args.workers = std::strtoull(value.c_str(), &end, 10);
      if (args.workers == 0) Usage("--workers must be at least 1");
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Usage("bad value for " + flag);
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return 1;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// Counts attempted and failed operations. A join that returns a non-OK
// Status fails; a failed check fails and also makes the run incorrect.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Join(const std::string& error) { Record(error, false); }
  void Check(const std::string& error) { Record(error, true); }

 private:
  void Record(const std::string& error, bool is_check) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (is_check) correct = false;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", error.c_str());
  }
};

// The corpora a join runs on.
struct Corpora {
  tsj::Corpus left;
  tsj::Corpus right;  // empty for a self-join
};

struct JoinOutcome {
  std::string error;  // non-empty when the join returned a non-OK Status
  std::vector<OutPair> pairs;  // sorted by (a, b)
  double wall_s = 0;
  double cpu_s = 0;
  tsj::TsjRunInfo info;
};

JoinOutcome RunJoin(const Corpora& corpora, bool self_join,
                    const tsj::TsjOptions& options, bool collect_info) {
  const tsj::TokenizedStringJoiner joiner(options);
  JoinOutcome outcome;
  tsj::TsjRunInfo* info = collect_info ? &outcome.info : nullptr;
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  tsj::StatusOr<std::vector<tsj::TsjPair>> result =
      self_join ? joiner.SelfJoin(corpora.left, info)
                : joiner.Join(corpora.left, corpora.right, info);
  outcome.wall_s = Seconds(Clock::now() - start);
  outcome.cpu_s = CpuSeconds() - cpu_start;
  if (!result.ok()) {
    outcome.error = "join: " + result.status().ToString();
    return outcome;
  }
  outcome.pairs.reserve(result->size());
  for (const tsj::TsjPair& p : *result) {
    outcome.pairs.push_back({p.a, p.b, p.nsld});
  }
  std::sort(outcome.pairs.begin(), outcome.pairs.end(),
            [](const OutPair& x, const OutPair& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  return outcome;
}

std::string SamePairs(const std::vector<OutPair>& reference,
                      const std::vector<OutPair>& other, const char* what) {
  const bool same = std::equal(
      reference.begin(), reference.end(), other.begin(), other.end(),
      [](const OutPair& x, const OutPair& y) {
        return x.a == y.a && x.b == y.b && x.nsld == y.nsld;
      });
  if (same) return "";
  return std::string(what) + ": pair set differs (" +
         std::to_string(reference.size()) + " vs " +
         std::to_string(other.size()) + " pairs)";
}

std::string CounterMatch(const char* what, uint64_t replay, uint64_t join) {
  if (replay == join) return "";
  return std::string("replay ") + what + " " + std::to_string(replay) +
         " != join " + std::to_string(join);
}

// Sums a per-job figure over the jobs whose name contains `part`.
template <typename Fn>
double SumJobs(const tsj::TsjRunInfo& info, const char* part, Fn&& field) {
  double total = 0;
  for (const tsj::JobStats& job : info.pipeline.jobs) {
    if (job.name.find(part) != std::string::npos) total += field(job);
  }
  return total;
}

// Per-layer metrics read from one join's TsjRunInfo.
Metrics JoinCounters(const tsj::TsjRunInfo& info) {
  auto num = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"mapreduce.dedup_verify.map_s",
       SumJobs(info, "dedup-verify",
               [](const tsj::JobStats& j) { return j.map_wall_seconds; }),
       "s"},
      {"mapreduce.dedup_verify.shuffle_s",
       SumJobs(info, "dedup-verify",
               [](const tsj::JobStats& j) { return j.shuffle_wall_seconds; }),
       "s"},
      {"mapreduce.dedup_verify.reduce_s",
       SumJobs(info, "dedup-verify",
               [](const tsj::JobStats& j) { return j.reduce_wall_seconds; }),
       "s"},
      {"mapreduce.shared_token.reduce_s",
       SumJobs(info, "shared-token",
               [](const tsj::JobStats& j) { return j.reduce_wall_seconds; }),
       "s"},
      {"mapreduce.massjoin_s",
       SumJobs(info, "massjoin",
               [](const tsj::JobStats& j) { return j.total_wall_seconds(); }),
       "s"},
      {"mapreduce.shuffle_records",
       num(info.pipeline.total_shuffle_records()), "count"},
      {"mapreduce.peak_shuffle_records", num(info.peak_shuffle_records),
       "count"},
      {"mapreduce.spill_files", num(info.spill_files), "count"},
      {"mapreduce.spill_bytes", num(info.spill_bytes), "bytes"},
      {"mapreduce.merge_passes", num(info.merge_passes), "count"},
      {"mapreduce.peak_resident_records", num(info.peak_resident_records),
       "count"},
      {"mapreduce.task_retries", num(info.task_retries), "count"},
      {"tsj.distinct_candidates", num(info.distinct_candidates), "count"},
      {"tsj.length_filtered", num(info.length_filtered), "count"},
      {"tsj.histogram_filtered", num(info.histogram_filtered), "count"},
      {"tsj.verified_candidates", num(info.verified_candidates), "count"},
      {"tsj.verify_work_units", num(info.verify_work_units), "count"},
      {"tsj.verify_yield",
       Ratio(num(info.result_pairs), num(info.verified_candidates)), "ratio"},
      {"cache.l1_hit_rate",
       Ratio(num(info.token_pair_cache_l1_hits),
             num(info.token_pair_cache_l1_hits +
                 info.token_pair_cache_l1_misses)),
       "ratio"},
      {"cache.shared_hit_rate",
       Ratio(num(info.token_pair_cache_hits),
             num(info.token_pair_cache_hits + info.token_pair_cache_misses)),
       "ratio"},
      {"kernel.lane_fill",
       Ratio(num(info.batched_verify_lanes_filled),
             num(info.batched_verify_lane_slots)),
       "ratio"},
  };
}

// Element-wise median of metric lists that share names and order.
Metrics MedianMetrics(const std::vector<Metrics>& runs) {
  Metrics out = runs.front();
  for (size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const Metrics& run : runs) values.push_back(run[m].value);
    out[m].value = Median(values);
  }
  return out;
}

void PrintResult(const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Run(const Args& args) {
  std::optional<WorkloadSpec> found;
  for (const WorkloadSpec& spec : Workloads(args.smoke)) {
    if (spec.name == args.workload) found = spec;
  }
  if (!found) Usage("unknown workload " + args.workload);
  const WorkloadSpec& spec = *found;
  const bool self_join = spec.base_strings == 0;

  const size_t nproc = Nproc();
  const size_t workers =
      args.workers > 0 ? args.workers : std::min(kDefaultWorkers, nproc);
  if (workers > nproc) {
    Usage("--workers " + std::to_string(workers) + " exceeds nproc " +
          std::to_string(nproc));
  }
  if (spec.spill_budget_records > 0 && args.spill_dir.empty()) {
    Usage("workload " + spec.name + " spills and needs --spill-dir");
  }

  // ---- Inputs: text lines generated from the seed. ---------------------
  // An R-S join pairs sign-ups (a second seed) with the account base of
  // the same seed, the corpus accounts-80k self-joins.
  std::vector<Tokens> left_strings, right_strings;
  if (self_join) {
    left_strings = GenerateStrings(spec.generator, spec.strings, args.seed);
  } else {
    left_strings = GenerateStrings(spec.generator, spec.strings,
                                   MixSeed(args.seed, 1));
    right_strings =
        GenerateStrings(GeneratorOptions(), spec.base_strings, args.seed);
  }
  const std::string left_text = JoinLines(left_strings);
  const std::string right_text = self_join ? "" : JoinLines(right_strings);

  // ---- Set-up: lines in memory -> built corpora, through ReadCorpus. ---
  Corpora corpora;
  std::vector<double> setup_times;
  const Clock::time_point setup_start = Clock::now();
  while (setup_times.empty() ||
         (args.trace == 0 &&
          (setup_times.size() < kMinSetupRepetitions ||
           Seconds(Clock::now() - setup_start) < kMinSetupSeconds))) {
    const Clock::time_point start = Clock::now();
    std::istringstream left_in(left_text);
    tsj::LoadedCorpus left = tsj::ReadCorpus(left_in);
    tsj::LoadedCorpus right;
    if (!self_join) {
      std::istringstream right_in(right_text);
      right = tsj::ReadCorpus(right_in);
    }
    setup_times.push_back(Seconds(Clock::now() - start));
    corpora.left = std::move(left.corpus);
    corpora.right = std::move(right.corpus);
  }

  tsj::TsjOptions options;
  options.threshold = spec.threshold;
  options.max_token_frequency = spec.max_token_frequency;
  options.mapreduce.num_workers = workers;
  if (spec.spill_budget_records > 0) {
    options.enable_shuffle_spill = true;
    options.mapreduce.memory_budget_records = spec.spill_budget_records;
    options.mapreduce.spill_dir = args.spill_dir;
  }

  // ---- Joins: warm-up, then timed repetitions for --seconds. -----------
  // Every repetition must return the warm-up's pair set. In the traced
  // run, repetitions alternate between reading the join's counters under
  // a span (traced) and not (untraced).
  Tally tally;
  std::vector<OutPair> reference;
  bool have_reference = false;
  auto join = [&](bool collect_info, const tsj::TsjOptions& join_options) {
    JoinOutcome outcome =
        RunJoin(corpora, self_join, join_options, collect_info);
    tally.Join(outcome.error);
    if (outcome.error.empty()) {
      if (!have_reference) {
        reference = outcome.pairs;
        have_reference = true;
      } else {
        tally.Check(SamePairs(reference, outcome.pairs, "repetition"));
      }
    }
    return outcome;
  };
  for (size_t i = 0; i < kWarmupJoins; ++i) join(false, options);

  std::vector<double> wall, cpu, traced_wall;
  std::vector<Metrics> traced_counters;
  const Clock::time_point timed_start = Clock::now();
  for (size_t rep = 0;; ++rep) {
    const bool traced = args.trace == 1 && rep % 2 == 1;
    JoinOutcome outcome = join(traced, options);
    std::fprintf(stderr,
                 "perfbench: %s join %zu: %.4f s wall, %.4f s cpu, "
                 "peak rss %.1f MiB\n",
                 traced ? "traced" : "untraced", rep, outcome.wall_s,
                 outcome.cpu_s, PeakRssMb());
    if (traced) {
      traced_wall.push_back(outcome.wall_s);
      traced_counters.push_back(JoinCounters(outcome.info));
    } else {
      wall.push_back(outcome.wall_s);
      cpu.push_back(outcome.cpu_s);
    }
    const size_t min_reps = args.trace ? 2 * kMinTimedJoins : kMinTimedJoins;
    if (rep + 1 >= min_reps &&
        Seconds(Clock::now() - timed_start) >= args.seconds) {
      break;
    }
  }
  const double peak_rss_mb = PeakRssMb();

  // ---- Correctness: oracle, and spill against the in-memory join. ------
  size_t expected_pairs = 0;
  if (have_reference) {
    const Oracle oracle(left_strings, self_join ? nullptr : &right_strings,
                        spec.threshold, spec.max_token_frequency);
    tally.Check(oracle.CheckPrecision(reference));
    tally.Check(oracle.CheckRecall(reference, &expected_pairs));
  }
  if (spec.spill_budget_records > 0) {
    tsj::TsjOptions in_memory = options;
    in_memory.enable_shuffle_spill = false;
    JoinOutcome outcome = RunJoin(corpora, self_join, in_memory, false);
    tally.Join(outcome.error);
    if (outcome.error.empty()) {
      tally.Check(SamePairs(reference, outcome.pairs, "spill vs in-memory"));
    }
  }

  Metrics metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", Median(setup_times), "s"},
        {"join_s", Median(wall), "s"},
        {"join_cpu_s", Median(cpu), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
  } else {
    metrics = MedianMetrics(traced_counters);
    metrics.push_back({"trace.join_s", Median(traced_wall), "s"});
    metrics.push_back({"trace.untraced_join_s", Median(wall), "s"});

    // A one-worker join: its dedup/verify reduce wall is what the
    // single-threaded replay attributes to filters and verify.
    tsj::TsjOptions one_worker = options;
    one_worker.mapreduce.num_workers = 1;
    JoinOutcome single = join(true, one_worker);

    ReplayInput replay_input;
    replay_input.left_text = &left_text;
    replay_input.right_text = self_join ? nullptr : &right_text;
    replay_input.threshold = spec.threshold;
    replay_input.max_token_frequency = spec.max_token_frequency;
    const ReplayResult replay = RunReplay(replay_input);
    tally.Join(replay.error);
    if (replay.error.empty() && single.error.empty()) {
      const tsj::TsjRunInfo& info = single.info;
      tally.Check(CounterMatch("distinct candidates",
                                replay.distinct_candidates,
                                info.distinct_candidates));
      tally.Check(CounterMatch("filter survivors", replay.filter_survivors,
                                info.verified_candidates));
      tally.Check(CounterMatch("accepted pairs", replay.accepted,
                                info.result_pairs));
    }
    metrics.insert(metrics.end(), replay.metrics.begin(),
                   replay.metrics.end());
    const double reduce_s = SumJobs(single.info, "dedup-verify",
                                    [](const tsj::JobStats& j) {
                                      return j.reduce_wall_seconds;
                                    });
    metrics.push_back({"trace.tsj.reduce_unattributed_s",
                       reduce_s - replay.attributed_reduce_s, "s"});
    metrics.push_back({"trace.one_worker.dedup_verify.reduce_s", reduce_s,
                       "s"});
  }

  // Context, then the result as the last line.
  const tsj::BatchSimdMode simd =
      tsj::ResolveBatchSimdMode(tsj::BatchSimdModeFromEnv());
  std::vector<double> sorted_wall = wall;
  std::sort(sorted_wall.begin(), sorted_wall.end());
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"smoke\": %s, "
      "\"trace\": %d, \"nproc\": %zu, \"workers\": %zu, \"cpu_model\": "
      "\"%s\", \"build_type\": \"%s\", \"simd_backend\": \"%s\", "
      "\"strings\": %zu, \"base_strings\": %zu, \"threshold\": %g, "
      "\"max_token_frequency\": %u, \"spill_budget_records\": %zu, "
      "\"join_repetitions\": %zu, \"join_s_min\": %.6f, \"join_s_max\": "
      "%.6f, \"pairs\": %zu, \"recall_expected_pairs\": %zu}}\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.smoke ? "true" : "false", args.trace, nproc, workers,
      JsonEscape(CpuModel()).c_str(), PERFBENCH_BUILD_TYPE,
      tsj::BatchSimdModeName(simd), spec.strings, spec.base_strings,
      spec.threshold, spec.max_token_frequency, spec.spill_budget_records,
      wall.size(), sorted_wall.empty() ? 0.0 : sorted_wall.front(),
      sorted_wall.empty() ? 0.0 : sorted_wall.back(), reference.size(),
      expected_pairs);
  PrintResult(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
