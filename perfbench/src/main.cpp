// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// Builds the production deployment (ShardedCluster over TCP loopback,
// n = 16 per group, mux topology, batching and shared FLUSH), sets it
// up several times to time set-up, warms it up, then measures. With
// --trace 0 the measured phase runs S seconds and the end-to-end
// metrics are reported. With --trace 1 an untraced and a traced phase
// run S/2 seconds each; the per-layer metrics and span self times come
// from the traced one, and trace.overhead_frac compares their CPU per op.
//
// Every run checks its output: the per-key regularity of the whole
// history, stabilization after every injected corruption, and that the
// op accounting adds up. The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0
// only when the run is correct.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "driver.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "verify.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRounds = 51;
/// The spans file holds the set-up spans and the first ops' spans (about
/// 10 MB); self times are computed over every op of the traced phase.
constexpr std::size_t kMaxSpansWritten = 200'000;
/// Warm-up before any measured phase: connections, buffer pools and
/// register tables reach their steady state.
constexpr std::uint64_t kWarmupUs = 1'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample counts, printed beside the value
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

std::string Provenance(const Args& args) {
  char text[512];
  std::snprintf(
      text, sizeof(text),
      "nproc=%ld build_type=%s ndebug=%d optimized=%d compiler=\"%s %s\" "
      "seed=%llu generator_threads=1",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
      1,
#else
      0,
#endif
#ifdef __OPTIMIZE__
      1,
#else
      0,
#endif
#ifdef __clang__
      "clang",
#else
      "gcc",
#endif
      __VERSION__, static_cast<unsigned long long>(args.seed));
  return text;
}

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string CountNote(const Percentile& p) {
  return "n=" + std::to_string(p.samples) +
         ", beyond=" + std::to_string(p.beyond);
}

/// Ok ops of one window of a phase, bucketed by completion time.
struct Window {
  std::vector<double> write_us;  // intended start to completion
  std::vector<double> read_us;
  double seconds = 0.0;
  double cpu_s = 0.0;
  [[nodiscard]] std::size_t ok() const {
    return write_us.size() + read_us.size();
  }
};

std::vector<Window> WindowsOf(const OpSlot* slots, const PhaseResult& phase) {
  std::vector<Window> windows;
  for (std::size_t k = 0; k + 1 < phase.windows.size(); ++k) {
    Window window;
    window.seconds = static_cast<double>(phase.windows[k + 1].at_ns -
                                         phase.windows[k].at_ns) /
                     1e9;
    window.cpu_s = phase.windows[k + 1].process.cpu_s() -
                   phase.windows[k].process.cpu_s();
    windows.push_back(std::move(window));
  }
  for (std::size_t i = phase.first_slot; i < phase.end_slot; ++i) {
    const OpSlot& slot = slots[i];
    if (!slot.launched || slot.outcome != Outcome::kOk) continue;
    const auto boundary = std::upper_bound(
        phase.windows.begin(), phase.windows.end(), slot.done_ns,
        [](std::int64_t t, const WindowMark& mark) { return t < mark.at_ns; });
    const auto k = boundary - phase.windows.begin() - 1;
    if (k < 0 || static_cast<std::size_t>(k) >= windows.size()) continue;
    const double us = static_cast<double>(slot.done_ns - slot.due_ns) / 1e3;
    Window& window = windows[static_cast<std::size_t>(k)];
    (slot.is_write ? window.write_us : window.read_us).push_back(us);
  }
  return windows;
}

double PerOp(double total, const OpAccounting& accounting) {
  return accounting.ok == 0 ? 0.0
                            : total / static_cast<double>(accounting.ok);
}

double SetupMedianMs(const std::vector<SetupRound>& rounds,
                     std::int64_t SetupRound::*from,
                     std::int64_t SetupRound::*to) {
  std::vector<double> values;
  for (const SetupRound& round : rounds) {
    if (round.*to >= round.*from) values.push_back(Ms(round.*to - round.*from));
  }
  return Median(values);
}

/// The gated end-to-end metrics; `ungated` receives the p99 latencies,
/// printed but not reported: on a shared machine the host takes more
/// than 1 % of the CPU time often enough that it decides them.
std::vector<Metric> EndToEnd(const Driver& driver, const PhaseResult& phase,
                             const OpAccounting& accounting,
                             std::vector<Metric>& ungated) {
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s",
                     SetupMedianMs(driver.setup_rounds(), &SetupRound::begin_ns,
                                   &SetupRound::written_ns) /
                         1e3,
                     "s", "median of " + std::to_string(kSetupRounds)});
  // Every figure below is computed per window, and the median over the
  // phase's windows is reported. Interference from outside the program
  // comes in bursts and only ever slows it down: a burst moves the
  // windows it falls in, not the median of all of them.
  std::vector<Window> windows = WindowsOf(driver.slots(), phase);
  const std::string of_windows =
      "median of " + std::to_string(windows.size()) + " windows";
  std::vector<double> ops_s;
  std::vector<double> cpu_us_per_op;
  for (const Window& window : windows) {
    ops_s.push_back(static_cast<double>(window.ok()) / window.seconds);
    if (window.ok() > 0) {
      cpu_us_per_op.push_back(window.cpu_s * 1e6 /
                              static_cast<double>(window.ok()));
    }
  }
  metrics.push_back({"ops_s", Median(ops_s), "ops/s", of_windows});
  const struct {
    const char* name;
    std::vector<double> Window::*samples;
    double q;
    bool gated;
  } tails[] = {{"write_p50_us", &Window::write_us, 0.50, true},
               {"write_p90_us", &Window::write_us, 0.90, true},
               {"write_p99_us", &Window::write_us, 0.99, false},
               {"read_p50_us", &Window::read_us, 0.50, true},
               {"read_p90_us", &Window::read_us, 0.90, true},
               {"read_p99_us", &Window::read_us, 0.99, false}};
  for (const auto& tail : tails) {
    std::vector<double> values;
    std::size_t min_samples = 0;
    std::size_t min_beyond = 0;
    for (Window& window : windows) {
      std::vector<double>& samples = window.*tail.samples;
      if (samples.empty()) continue;
      const Percentile p = PercentileOf(samples, tail.q);
      min_samples = values.empty() ? p.samples
                                   : std::min(min_samples, p.samples);
      min_beyond = values.empty() ? p.beyond : std::min(min_beyond, p.beyond);
      values.push_back(p.value);
    }
    (tail.gated ? metrics : ungated)
        .push_back({tail.name, Median(values), "us",
                    "median of " + std::to_string(values.size()) +
                        " windows, each n>=" + std::to_string(min_samples) +
                        ", beyond>=" + std::to_string(min_beyond)});
  }
  metrics.push_back({"ok_frac", 1.0 - accounting.ErrorFrac(), "frac",
                     std::to_string(accounting.ok) + " of " +
                         std::to_string(accounting.scheduled)});
  metrics.push_back(
      {"cpu_us_per_op", Median(cpu_us_per_op), "us/op", of_windows});
  metrics.push_back(
      {"rss_mb", phase.rss_mb, "MB", "without the benchmark's op records"});
  return metrics;
}

/// Violation window of every corruption, in milliseconds (the history's
/// clock is nanoseconds).
std::vector<double> ViolationWindowsMs(const Verdict& verdict) {
  std::vector<double> windows_ms;
  for (const load::StabilizationReport& window : verdict.windows) {
    windows_ms.push_back(static_cast<double>(window.violation_window_us) / 1e6);
  }
  return windows_ms;
}

/// Span names: per op, "op" (intended start to callback) with children
/// "gen.wait" (to launch), "router.submit" (the AsyncWrite/AsyncRead
/// call) and "cluster" (call return to callback); per set-up round, four
/// roots.
constexpr const char* kSpanNames[] = {
    "op",          "gen.wait",    "router.submit",     "cluster",
    "setup.build", "setup.start", "setup.first_write", "teardown.stop"};

/// Per-span self times from the traced phase's ops and the set-up
/// rounds, optionally written to `spans_path`.
std::vector<SpanSelfStat> TraceSpans(const Driver& driver,
                                     const PhaseResult& traced,
                                     const std::string& spans_path) {
  SpanLog log;
  log.Reserve((traced.end_slot - traced.first_slot) * 4 +
              driver.setup_rounds().size() * 4);
  std::uint64_t trace_id = 1ull << 48;  // above every op id
  for (const SetupRound& round : driver.setup_rounds()) {
    log.Add(trace_id, -1, "setup.build", round.begin_ns, round.built_ns);
    log.Add(trace_id, -1, "setup.start", round.built_ns, round.started_ns);
    log.Add(trace_id, -1, "setup.first_write", round.started_ns,
            round.written_ns);
    log.Add(trace_id, -1, "teardown.stop", round.stopped_begin_ns,
            round.stopped_end_ns);
    ++trace_id;
  }
  for (std::size_t i = traced.first_slot; i < traced.end_slot; ++i) {
    const OpSlot& slot = driver.slots()[i];
    if (!slot.launched || slot.outcome == Outcome::kPending) continue;
    const std::int64_t op = log.Add(i, -1, "op", slot.due_ns, slot.done_ns);
    log.Add(i, op, "gen.wait", slot.due_ns, slot.launch_ns);
    log.Add(i, op, "router.submit", slot.launch_ns, slot.submitted_ns);
    log.Add(i, op, "cluster", std::min(slot.submitted_ns, slot.done_ns),
            slot.done_ns);
  }
  if (!spans_path.empty() && !log.WriteCsv(spans_path, kMaxSpansWritten)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 spans_path.c_str());
  }
  return SelfTimeStats(log.spans());
}

std::vector<Metric> PerLayer(const Driver& driver, const PhaseResult& untraced,
                             const OpAccounting& untraced_accounting,
                             const PhaseResult& traced,
                             const OpAccounting& accounting,
                             const Verdict& verdict,
                             const std::string& spans_path) {
  std::vector<Metric> metrics;
  const OpSlot* slots = driver.slots();

  std::vector<double> late_us;
  std::vector<double> key_wait_us;
  std::vector<double> submit_ns;
  std::size_t union_graph_reads = 0;
  for (std::size_t i = traced.first_slot; i < traced.end_slot; ++i) {
    const OpSlot& slot = slots[i];
    if (!slot.launched) continue;
    const double wait_us =
        static_cast<double>(slot.launch_ns - slot.due_ns) / 1e3;
    (slot.queued ? key_wait_us : late_us).push_back(wait_us);
    submit_ns.push_back(
        static_cast<double>(slot.submitted_ns - slot.launch_ns));
    if (slot.union_graph) ++union_graph_reads;
  }
  const Percentile late = PercentileOf(late_us, 0.99);
  const Percentile key_wait = PercentileOf(key_wait_us, 0.99);
  const Percentile submit_p50 = PercentileOf(submit_ns, 0.50);
  const Percentile submit_p99 = PercentileOf(submit_ns, 0.99);
  metrics.push_back({"gen.late_p99_us", late.value, "us", CountNote(late)});
  metrics.push_back(
      {"gen.key_wait_p99_us", key_wait.value, "us", CountNote(key_wait)});
  metrics.push_back(
      {"router.submit_p50_ns", submit_p50.value, "ns", CountNote(submit_p50)});
  metrics.push_back(
      {"router.submit_p99_ns", submit_p99.value, "ns", CountNote(submit_p99)});
  metrics.push_back({"router.keys_awaiting_handoff",
                     static_cast<double>(traced.keys_awaiting_handoff),
                     "count", ""});

  const auto delta = [&](auto Counters::*field) {
    return static_cast<double>(traced.after.*field - traced.before.*field);
  };
  const double rounds = delta(&Counters::flush_rounds);
  metrics.push_back(
      {"mux.flush_rounds_per_op", PerOp(rounds, accounting), "count/op", ""});
  metrics.push_back({"mux.window_ops",
                     rounds > 0 ? static_cast<double>(accounting.ok) / rounds
                                : 0.0,
                     "ops", ""});
  const double cpu_us =
      (traced.after.process.cpu_s() - traced.before.process.cpu_s()) * 1e6;
  const double protocol_us = delta(&Counters::protocol_cpu_ns) / 1e3;
  metrics.push_back({"cluster.frames_per_op",
                     PerOp(delta(&Counters::frames), accounting), "count/op",
                     ""});
  metrics.push_back({"cluster.protocol_cpu_us_per_op",
                     PerOp(protocol_us, accounting), "us/op", ""});
  metrics.push_back({"cluster.other_cpu_us_per_op",
                     PerOp(cpu_us - protocol_us, accounting), "us/op", ""});

  const ProcessSample& p0 = traced.before.process;
  const ProcessSample& p1 = traced.after.process;
  metrics.push_back({"os.user_cpu_us_per_op",
                     PerOp((p1.user_s - p0.user_s) * 1e6, accounting), "us/op",
                     ""});
  metrics.push_back({"os.sys_cpu_us_per_op",
                     PerOp((p1.sys_s - p0.sys_s) * 1e6, accounting), "us/op",
                     ""});
  const double switches =
      static_cast<double>(p1.voluntary_switches - p0.voluntary_switches +
                          p1.involuntary_switches - p0.involuntary_switches);
  metrics.push_back(
      {"os.ctx_switches_per_op", PerOp(switches, accounting), "count/op", ""});
  metrics.push_back(
      {"os.threads", static_cast<double>(traced.threads), "count", ""});

  const AllocCount& a0 = traced.before.allocs;
  const AllocCount& a1 = traced.after.allocs;
  const auto alloc_delta = [&](std::uint64_t AllocCount::*field) {
    return static_cast<double>(a1.*field - a0.*field);
  };
  metrics.push_back({"alloc.count_per_op",
                     PerOp(alloc_delta(&AllocCount::calls), accounting),
                     "count/op", ""});
  metrics.push_back({"alloc.bytes_per_op",
                     PerOp(alloc_delta(&AllocCount::bytes), accounting),
                     "bytes/op", ""});

  const std::vector<double> windows_ms = ViolationWindowsMs(verdict);
  std::size_t excused = 0;
  std::size_t after_corruption = 0;
  for (const load::StabilizationReport& window : verdict.windows) {
    excused += window.excused_reads;
    after_corruption += window.reads_after_corruption;
  }
  metrics.push_back({"error_frac", accounting.ErrorFrac(), "frac", ""});
  metrics.push_back({"stab.window_ms", Median(windows_ms), "ms",
                     "median of " + std::to_string(windows_ms.size())});
  metrics.push_back(
      {"stab.excused_reads", static_cast<double>(excused), "count", ""});
  metrics.push_back({"stab.reads_after_corruption",
                     static_cast<double>(after_corruption), "count", ""});
  metrics.push_back({"stab.union_graph_reads",
                     static_cast<double>(union_graph_reads), "count", ""});

  const std::vector<SetupRound>& rounds_log = driver.setup_rounds();
  metrics.push_back({"setup.build_ms",
                     SetupMedianMs(rounds_log, &SetupRound::begin_ns,
                                   &SetupRound::built_ns),
                     "ms", ""});
  metrics.push_back({"setup.start_ms",
                     SetupMedianMs(rounds_log, &SetupRound::built_ns,
                                   &SetupRound::started_ns),
                     "ms", ""});
  metrics.push_back({"setup.first_write_ms",
                     SetupMedianMs(rounds_log, &SetupRound::started_ns,
                                   &SetupRound::written_ns),
                     "ms", ""});
  metrics.push_back({"teardown.stop_ms",
                     SetupMedianMs(rounds_log, &SetupRound::stopped_begin_ns,
                                   &SetupRound::stopped_end_ns),
                     "ms", ""});

  // Every span name is reported, even one no op of this run produced.
  const std::vector<SpanSelfStat> spans =
      TraceSpans(driver, traced, spans_path);
  for (const char* name : kSpanNames) {
    SpanSelfStat stat;
    for (const SpanSelfStat& found : spans) {
      if (found.name == name) stat = found;
    }
    metrics.push_back({std::string("span.") + name + ".self_p50_us",
                       stat.p50.value, "us", CountNote(stat.p50)});
    metrics.push_back({std::string("span.") + name + ".self_p99_us",
                       stat.p99.value, "us", CountNote(stat.p99)});
  }

  // The halves differ only in allocation counting (spans are built
  // afterwards from timestamps both halves take), so this is its cost.
  const double base =
      PerOp(untraced.after.process.cpu_s() - untraced.before.process.cpu_s(),
            untraced_accounting);
  metrics.push_back({"trace.overhead_frac",
                     base > 0 ? PerOp(cpu_us / 1e6, accounting) / base - 1.0
                              : 0.0,
                     "frac", "CPU per op, traced vs untraced half"});
  return metrics;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %16.4f %-9s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
}

void PrintJson(bool correct, const OpAccounting& accounting,
               const std::vector<Metric>& metrics) {
  std::string json = correct ? "{\"correct\": true" : "{\"correct\": false";
  json += ", \"attempted\": " + std::to_string(accounting.scheduled);
  json += ", \"failed\": " + std::to_string(accounting.not_ok());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

OpAccounting Merge(const OpAccounting& a, const OpAccounting& b) {
  OpAccounting sum;
  sum.scheduled = a.scheduled + b.scheduled;
  sum.ok = a.ok + b.ok;
  sum.aborted = a.aborted + b.aborted;
  sum.failed = a.failed + b.failed;
  sum.pending = a.pending + b.pending;
  sum.unlaunched = a.unlaunched + b.unlaunched;
  return sum;
}

int Run(const Args& args, const WorkloadSpec& spec) {
  const auto measure_us = static_cast<std::uint64_t>(args.seconds * 1e6);
  const std::uint64_t phase_us = args.trace ? measure_us / 2 : measure_us;
  Driver driver(spec, args.seed, kWarmupUs + measure_us);
  driver.SetUp(kSetupRounds);

  std::vector<PhaseResult> phases;
  phases.push_back(driver.RunPhase(kWarmupUs, PhaseKind::kWarmup));
  if (phases.back().drained) {
    phases.push_back(driver.RunPhase(phase_us, PhaseKind::kMeasured));
  }
  if (args.trace && phases.back().drained) {
    phases.push_back(driver.RunPhase(phase_us, PhaseKind::kTraced));
  }
  driver.TearDown();

  bool drained = driver.capacity_ok();
  bool accounting_ok = true;
  std::vector<std::int64_t> corruptions;
  std::vector<OpAccounting> accountings;
  for (const PhaseResult& phase : phases) {
    drained = drained && phase.drained;
    corruptions.insert(corruptions.end(), phase.corruption_ns.begin(),
                       phase.corruption_ns.end());
    accountings.push_back(Account(driver.slots(), phase.first_slot,
                                  phase.end_slot, phase.scheduled));
    accounting_ok = accounting_ok &&
                    AccountingConsistent(accountings.back(), phase.launched,
                                         phase.returned);
  }
  const std::size_t expected_phases = args.trace ? 3 : 2;
  if (phases.size() != expected_phases) drained = false;

  const sbft::History history =
      BuildHistory(driver.slots(), phases.back().end_slot);
  const Verdict verdict = Verify(history, corruptions);
  const bool correct = drained && accounting_ok && verdict.ok();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("why: %s\n", spec.why.c_str());
  std::printf("provenance: %s\n", Provenance(args).c_str());
  std::printf("deployment: groups=%zu servers_per_group=%u transport=tcp "
              "topology=mux batch_max_ops=64 batch_max_delay_us=200 "
              "shared_flush=1\n",
              spec.groups, kServersPerGroup);
  static const char* const kPhaseNames[] = {"warmup", "measured", "traced"};
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const OpAccounting& a = accountings[i];
    const std::vector<WindowMark>& marks = phases[i].windows;
    const double steal_s =
        marks.empty() ? 0.0
                      : static_cast<double>(marks.back().steal_ticks -
                                            marks.front().steal_ticks) /
                            TicksPerSecond();
    std::printf("phase %-8s %6.2f s  scheduled=%zu ok=%zu aborted=%zu "
                "failed=%zu pending=%zu unlaunched=%zu corruptions=%zu "
                "host_steal_s=%.2f\n",
                kPhaseNames[static_cast<int>(phases[i].kind)],
                static_cast<double>(phases[i].end_ns - phases[i].start_ns) /
                    1e9,
                a.scheduled, a.ok, a.aborted, a.failed, a.pending,
                a.unlaunched, phases[i].corruption_ns.size(), steal_s);
  }

  OpAccounting reported;
  std::vector<Metric> end_to_end;
  if (phases.size() == expected_phases) {
    std::vector<Metric> ungated;
    end_to_end = EndToEnd(driver, phases[1], accountings[1], ungated);
    PrintTable(args.trace ? "end-to-end (untraced phase):" : "end-to-end:",
               end_to_end);
    PrintTable("not reported (host steal decides them):", ungated);
    if (!verdict.windows.empty()) {
      const std::vector<double> windows_ms = ViolationWindowsMs(verdict);
      std::printf("stabilization: %zu corruptions, violation window median "
                  "%.3f ms, max %.3f ms\n",
                  windows_ms.size(), Median(windows_ms),
                  *std::max_element(windows_ms.begin(), windows_ms.end()));
    }
    reported = accountings[1];
  }
  std::vector<Metric> per_layer;
  if (args.trace && phases.size() == expected_phases) {
    per_layer = PerLayer(driver, phases[1], accountings[1], phases[2],
                         accountings[2], verdict, args.spans_path);
    PrintTable("per-layer (traced phase):", per_layer);
    reported = Merge(accountings[1], accountings[2]);
  }

  std::printf("correctness: regular=%s stabilized=%s accounting=%s "
              "drained=%s\n",
              verdict.regular ? "yes" : "NO",
              verdict.stabilized ? "yes" : "NO",
              accounting_ok ? "balanced" : "MISMATCH", drained ? "yes" : "NO");
  for (const std::string& violation : verdict.violations) {
    std::printf("  violation: %s\n", violation.c_str());
  }
  if (reported.scheduled == 0) reported.scheduled = 1;  // nothing measured
  PrintJson(correct, reported, args.trace ? per_layer : end_to_end);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to report from a build without "
               "optimization (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  const std::optional<WorkloadSpec> spec = FindWorkload(args.workload);
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    return Run(args, *spec);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
