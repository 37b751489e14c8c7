// continuum_bench: runs one benchmark workload for a fixed host-time budget
// and prints its metrics as one JSON object on the last line of stdout.
//
//   continuum_bench --workload pilot-serving|deploy-churn|kb-replicated
//                   --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// A run repeats identical rounds (fresh world, same inputs) until S host
// seconds have passed, at least three times. With --trace 0 every round is
// untraced and the end-to-end metrics are printed. With --trace 1 untraced
// and traced rounds alternate; the per-layer metrics come from the traced
// ones, and the tracing overhead compares the two. Every round of a run must
// produce the same outcome digest and pass every output check, otherwise the
// run exits 1 without a result line.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using contbench::HostClock;
using contbench::RoundResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args.seconds <= 0) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Speed scale of every tick of a round: the reference probe time (`ref_s`)
/// over the median of the round's probes around the tick. Host time times
/// the scale is the time the tick would have taken at the reference speed.
std::vector<double> TickScale(const RoundResult& r, double ref_s) {
  std::vector<double> scale(r.tick_host_ms.size(), 1.0);
  const std::size_t n = r.probes.size();
  if (n == 0 || ref_s <= 0.0) return scale;
  for (std::size_t t = 0; t < scale.size(); ++t) {
    const std::size_t k = std::min<std::size_t>(t / contbench::kProbeEvery, n - 1);
    std::vector<double> near;
    for (std::size_t j = k < 2 ? 0 : k - 2; j <= std::min(k + 2, n - 1); ++j) {
      near.push_back(r.probes[j].second);
    }
    scale[t] = ref_s / contbench::Median(near);
  }
  return scale;
}

/// Element-wise median over rounds of equally long vectors.
std::vector<double> ElementMedian(const std::vector<std::vector<double>>& rows) {
  std::vector<double> out;
  if (rows.empty()) return out;
  std::size_t n = rows.front().size();
  for (const std::vector<double>& row : rows) n = std::min(n, row.size());
  out.resize(n);
  std::vector<double> column(rows.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < rows.size(); ++r) column[r] = rows[r][i];
    out[i] = contbench::Median(column);
  }
  return out;
}

/// Host-time view of a set of identical rounds: every tick's and every
/// operation's time scaled to the reference speed, then the median
/// repetition over the rounds.
struct HostView {
  std::vector<double> tick_ms;
  std::vector<double> op_ms;
  double ops_per_s = 0.0;  // completed operations per host second of ticks
};

HostView Host(const std::vector<const RoundResult*>& rounds, double ref_s) {
  HostView v;
  std::vector<std::vector<double>> ticks;
  std::vector<std::vector<double>> ops;
  for (const RoundResult* r : rounds) {
    const std::vector<double> scale = TickScale(*r, ref_s);
    ticks.emplace_back(r->tick_host_ms.size());
    for (std::size_t t = 0; t < ticks.back().size(); ++t) {
      ticks.back()[t] = r->tick_host_ms[t] * scale[t];
    }
    ops.emplace_back(r->op_host_ms.size());
    for (std::size_t o = 0; o < ops.back().size(); ++o) {
      const std::size_t t = std::min<std::size_t>(r->op_tick[o], scale.size() - 1);
      ops.back()[o] = r->op_host_ms[o] * scale[t];
    }
  }
  v.tick_ms = ElementMedian(ticks);
  v.op_ms = ElementMedian(ops);
  double window_ms = 0.0;
  for (const double t : v.tick_ms) window_ms += t;
  if (!rounds.empty() && window_ms > 0) {
    v.ops_per_s = static_cast<double>(rounds.front()->completed) / (window_ms * 1e-3);
  }
  return v;
}

void PrintPercentile(const char* name, const std::vector<double>& xs) {
  std::printf("  %-18s p50 %12.6f  p99 %12.6f  (n=%zu, %zu beyond p99)\n", name,
              contbench::Quantile(xs, 0.5), contbench::Quantile(xs, 0.99),
              xs.size(), xs.size() / 100);
}

/// Per-layer metric names and units, in output order.
const std::vector<std::pair<std::string, std::string>>& LayerUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sim.events", "count"},
      {"sim.events_per_op", "count"},
      {"sim.self_s", "s"},
      {"sim.queue_peak", "count"},
      {"net.msgs_per_op", "count"},
      {"net.bytes_per_op", "B"},
      {"net.drop_frac", "fraction"},
      {"net.retries", "count"},
      {"net.call_us", "us"},
      {"kb.commits", "count"},
      {"kb.log_entries", "count"},
      {"kb.elections", "count"},
      {"kb.client_retries", "count"},
      {"kb.commit_lag_max", "count"},
      {"kb.put_us", "us"},
      {"kb.get_us", "us"},
      {"kb.store_writes_per_op", "count"},
      {"kb.store_keys", "count"},
      {"continuum.tasks_per_op", "count"},
      {"continuum.queue_depth_peak", "count"},
      {"continuum.energy_mj_per_op", "mJ"},
      {"sched.running_pods", "count"},
      {"sched.pending_peak", "count"},
      {"sched.evictions", "count"},
      {"sched.reschedules", "count"},
      {"tosca.unpack_us_p50", "us"},
      {"tosca.unpack_us_p99", "us"},
      {"tosca.unpack_share", "fraction"},
      {"tosca.csar_bytes", "B"},
      {"mirto.auth_us", "us"},
      {"mirto.auth_share", "fraction"},
      {"mirto.deploy_us_p50", "us"},
      {"mirto.deploy_us_p99", "us"},
      {"mirto.deploy_share", "fraction"},
      {"mirto.undeploy_us_p50", "us"},
      {"mirto.undeploy_us_p99", "us"},
      {"mirto.undeploy_share", "fraction"},
      {"mirto.accept_frac", "fraction"},
      {"mirto.mape_iterations", "count"},
      {"mirto.nodes_observed_per_iter", "count"},
      {"mirto.reallocations", "count"},
      {"usecases.launch_us", "us"},
      {"usecases.completed", "count"},
      {"usecases.failed", "count"},
      {"usecases.violations", "count"},
      {"usecases.lost", "count"},
      {"bench.admit_covered_frac", "fraction"},
      {"bench.spans", "count"},
      {"bench.op_samples", "count"},
      {"bench.tick_samples", "count"},
      {"bench.latency_samples", "count"},
      {"trace.ops_per_s", "ops/s"},
      {"trace.ops_per_s_ratio", "ratio"},
  };
  return units;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: continuum_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  myrtus::util::SetParallelWorkers(1);  // one thread per workload process

  std::unique_ptr<contbench::Workload> workload;
  if (args.workload == "pilot-serving") {
    workload = contbench::MakePilotServing(args.seed);
  } else if (args.workload == "deploy-churn") {
    workload = contbench::MakeDeployChurn(args.seed);
  } else if (args.workload == "kb-replicated") {
    workload = contbench::MakeKbReplicated(args.seed);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Rounds run until the host-time budget is spent (at least three; with
  // tracing, untraced and traced rounds alternate, at least two of each).
  std::vector<RoundResult> rounds;
  std::vector<bool> traced;
  std::vector<double> setup_probes;  // speed probe taken before each set-up
  contbench::Tracer last_tracer(false);
  // The budget is wall time; measurements inside rounds are CPU time.
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const std::size_t min_rounds = args.trace ? 4 : 3;
  while (rounds.size() < min_rounds ||
         elapsed_s() < args.seconds) {
    const bool trace_this = args.trace && rounds.size() % 2 == 1;
    contbench::Tracer tracer(trace_this);
    setup_probes.push_back(contbench::SpeedProbeSeconds());
    rounds.push_back(workload->Round(tracer));
    traced.push_back(trace_this);
    if (trace_this) last_tracer = std::move(tracer);
    if (!rounds.back().check_failures.empty()) break;
  }

  // --- Output checks --------------------------------------------------------
  bool correct = true;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    for (const std::string& f : rounds[i].check_failures) {
      std::fprintf(stderr, "check failed (round %zu): %s\n", i, f.c_str());
      correct = false;
    }
    if (rounds[i].digest != rounds[0].digest) {
      std::fprintf(stderr,
                   "check failed: round %zu (%s) digest %016llx != round 0 "
                   "digest %016llx\n",
                   i, traced[i] ? "traced" : "untraced",
                   static_cast<unsigned long long>(rounds[i].digest),
                   static_cast<unsigned long long>(rounds[0].digest));
      correct = false;
    }
    const RoundResult& r = rounds[i];
    if (r.completed + r.refused + r.failed != r.attempted) {
      std::fprintf(stderr, "check failed: completed + failed != attempted\n");
      correct = false;
    }
  }
  if (!correct) return 1;

  std::vector<const RoundResult*> plain;
  std::vector<const RoundResult*> with_spans;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    (traced[i] ? with_spans : plain).push_back(&rounds[i]);
  }
  const RoundResult& first = rounds[0];
  // Every round replays the seed's operations with the same outcomes (the
  // digest check above), so the result counts them once: attempted and
  // failed depend on the seed alone, not on how many rounds fit the budget.
  const std::uint64_t attempted = first.attempted;
  const std::uint64_t failed = first.refused + first.failed;
  const double ops = static_cast<double>(first.attempted);
  std::vector<double> all_probes = setup_probes;
  for (const RoundResult& r : rounds) {
    for (const auto& [tick, p] : r.probes) all_probes.push_back(p);
  }
  const double ref_s = contbench::kReferenceProbeS;
  const HostView host = Host(plain, ref_s);
  const std::vector<double>& op_host = host.op_ms;
  const std::vector<double>& tick_host = host.tick_ms;
  const double ops_per_s = host.ops_per_s;

  std::printf("workload %s seed %llu: %zu rounds (%zu traced), digest %016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              rounds.size(), with_spans.size(),
              static_cast<unsigned long long>(first.digest));
  std::printf("  per round: attempted %llu completed %llu refused %llu "
              "failed %llu deadline-missed %llu\n",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.completed),
              static_cast<unsigned long long>(first.refused),
              static_cast<unsigned long long>(first.failed),
              static_cast<unsigned long long>(first.deadline_missed));
  std::printf("  ops_per_s by round, unscaled:");
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    std::printf(" %.0f%s", Host({&rounds[i]}, 0.0).ops_per_s,
                traced[i] ? "(t)" : "");
  }
  std::printf("\n  speed probe: reference %.1f us, this run min %.1f median "
              "%.1f max %.1f us (n=%zu)\n",
              ref_s * 1e6, contbench::Quantile(all_probes, 0.0) * 1e6,
              contbench::Median(all_probes) * 1e6,
              contbench::Quantile(all_probes, 1.0) * 1e6, all_probes.size());
  std::printf("  host times below: per tick/operation, scaled to the reference "
              "speed, median of %zu rounds\n",
              plain.size());
  PrintPercentile("op_host_ms", op_host);
  PrintPercentile("tick_host_ms", tick_host);
  PrintPercentile("sim_latency_ms", first.sim_latency_ms);
  std::printf("  %-18s p50 %12.6f  mean %11.6f  (n=%zu faults)\n",
              "recovery_ms", contbench::Median(first.recovery_ms),
              contbench::Mean(first.recovery_ms), first.recovery_ms.size());

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Set-up is timed once per round; cheap set-ups are repeated until 101
    // samples exist (bounded by a quarter of the run's budget).
    std::vector<double> setups;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      setups.push_back(rounds[i].setup_s * ref_s / setup_probes[i]);
    }
    while (setups.size() < 101 &&
           elapsed_s() < args.seconds * 1.25) {
      const double probe = contbench::SpeedProbeSeconds();
      setups.push_back(workload->SetupOnce() * ref_s / probe);
    }
    std::printf("  setup_s median %.6f over %zu set-ups\n",
                contbench::Median(setups), setups.size());
    metrics = {
        {"setup_s", contbench::Median(setups), "s"},
        {"ops_per_s", ops_per_s, "ops/s"},
        {"op_host_p50_ms", contbench::Quantile(op_host, 0.5), "ms"},
        {"op_host_p99_ms", contbench::Quantile(op_host, 0.99), "ms"},
        {"tick_host_p99_ms", contbench::Quantile(tick_host, 0.99), "ms"},
        {"sim_latency_p50_ms", contbench::Quantile(first.sim_latency_ms, 0.5),
         "ms"},
        {"sim_latency_p99_ms", contbench::Quantile(first.sim_latency_ms, 0.99),
         "ms"},
        {"failed_frac",
         static_cast<double>(first.refused + first.failed) / ops, "fraction"},
        {"deadline_miss_frac", static_cast<double>(first.deadline_missed) / ops,
         "fraction"},
        {"recovery_ms", contbench::Median(first.recovery_ms), "ms"},
        {"peak_rss_mb", contbench::PeakRssMb(), "MB"},
    };
  } else {
    std::map<std::string, std::vector<double>> layer;
    for (const RoundResult* r : with_spans) {
      for (const auto& [name, value] : r->layer) layer[name].push_back(value);
    }
    const double traced_ops = Host(with_spans, ref_s).ops_per_s;
    layer["bench.op_samples"] = {static_cast<double>(op_host.size())};
    layer["bench.tick_samples"] = {static_cast<double>(tick_host.size())};
    layer["bench.latency_samples"] = {
        static_cast<double>(first.sim_latency_ms.size())};
    layer["trace.ops_per_s"] = {traced_ops};
    layer["trace.ops_per_s_ratio"] = {ops_per_s > 0 ? traced_ops / ops_per_s : 0.0};
    for (const auto& [name, unit] : LayerUnits()) {
      const auto it = layer.find(name);
      const double value = it == layer.end() ? 0.0 : contbench::Median(it->second);
      metrics.push_back({name, value, unit});
    }
    std::printf("  tracing: traced %.1f ops/s vs untraced %.1f ops/s\n",
                traced_ops, ops_per_s);
    if (!args.spans_out.empty()) {
      if (!last_tracer.WriteTsv(args.spans_out)) {
        std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
        return 1;
      }
      std::printf("  spans of the last traced round: %s\n", args.spans_out.c_str());
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}
