// cobra_perfbench: the repository benchmark.
//
// It links the simulator libraries and wires every simulated run itself
// from their public APIs (the same wiring bench/npb_experiment.cpp uses),
// timing the calls into each layer from outside. Three closed batch
// workloads; a pass runs the workload's fixed list of simulated runs back to
// back, and a benchmark run repeats passes until --seconds have elapsed:
//
//   npb_adaptive  the Fig. 5/6/7 matrix: bt sp lu ft mg cg (class S) on the
//                 4-way SMP and the 8-way cc-NUMA machine, each as the
//                 prefetch baseline, COBRA noprefetch and COBRA .excl.
//   daxpy_stream  the Fig. 3 DAXPY kernel, static prefetch and noprefetch
//                 binaries at 1 and 4 threads on the SMP, with working sets
//                 drawn by the seed from an L2-resident, an L3-resident and a
//                 beyond-aggregate-L3 band. No COBRA runtime is attached.
//   npb_sampled   the --sample pipeline (fast-forward BBV profile, then
//                 checkpoint-warmed detailed representatives) on lu mg (SMP),
//                 lu mg cg (NUMA) and the scaled mg@4 (SMP), prefetch vs
//                 COBRA noprefetch, each checked against a full-detail
//                 reference run with the same COBRA configuration.
//
// The configuration is pinned: serial engine (one host thread), trace JIT
// on, MESI, heuristic planner. Any COBRA_* environment variable would change
// it behind the benchmark's back, so their presence is an error.
//
// With --trace 1, passes alternate untraced and traced. Traced passes record
// spans (name, start, end, parent; the spans of one simulated run share an
// id) and bracket the runtime's and the sampler's round tasks; the report
// carries each layer's self time, the share of run time the spans cover and
// the tracing overhead. End-to-end metrics come from untraced passes only.
//
// Usage: cobra_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                        --report FILE [--spans FILE]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cobra/cobra.h"
#include "kgen/emitters.h"
#include "kgen/program.h"
#include "machine/engine.h"
#include "machine/machine.h"
#include "npb/common.h"
#include "obs/registry.h"
#include "perfmon/sample.h"
#include "rt/team.h"
#include "support/json.h"
#include "support/rng.h"

extern char** environ;

namespace cobra::perfbench {
namespace {

using support::Json;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

// The pinned engine: serial, default quantum, one host thread.
const machine::EngineConfig kEngine{};

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  // FNV-1a over the eight bytes of v.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Spans and per-pass accumulation ----------------------------------------

// One timed interval. Aggregate spans fold many short intervals (engine
// runs, round-task brackets) into one duration that starts at the parent's
// start.
struct Span {
  std::string name;
  int run = -1;     // simulated run id within the pass; -1 for the pass
  int parent = -1;  // index into Pass::spans
  double start = 0.0;
  double end = 0.0;
  bool aggregate = false;
};

struct Row {
  std::string name;  // kernel@machine:mode
  std::uint64_t cycles = 0;  // measured, or projected on sampled rows
  std::uint64_t fingerprint = 0;
  bool verified = false;
  double wall_s = 0.0;   // this run's share of the pass's wall_s
  double setup_s = 0.0;  // and of its setup_s
};

// Span names whose durations make up wall_s and setup_s.
constexpr const char* kTimedSpans[] = {"npb.run", "perfmon.profile",
                                       "perfmon.cluster", "perfmon.project"};
constexpr const char* kSetupSpans[] = {"kgen.build", "machine.construct",
                                       "npb.init", "cobra.attach"};

// A fixed CPU-bound kernel shaped like an interpreter (a switch-dispatched
// random bytecode over registers and a 256 KiB table: indirect jumps,
// data-dependent branches, loads and stores), run in short chunks around
// every simulated run. Interference from other tenants of a shared host
// slows the simulator and this kernel alike, so a run's time divided by the
// chunk time around it is steadier than the run's time alone.
class Calibrator {
 public:
  Calibrator() : code_(kCode), mem_(kMem) {
    support::Rng rng(2);
    for (auto& op : code_) op = static_cast<std::uint16_t>(rng.NextU64());
    for (auto& w : mem_) w = rng.NextU64();
  }
  // Runs one chunk; returns its host seconds.
  double Chunk() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t r[8];
    std::copy(regs_, regs_ + 8, r);
    std::uint32_t pc = pc_;
    for (int k = 0; k < kSteps; ++k) {
      const std::uint16_t op = code_[pc];
      pc = (pc + 1) & (kCode - 1);
      const int a = (op >> 4) & 7;
      const int b = (op >> 7) & 7;
      switch (op & 15) {
        case 0: r[a] += r[b]; break;
        case 1: r[a] ^= r[b] >> 3; break;
        case 2: r[a] = mem_[r[b] & (kMem - 1)]; break;
        case 3: mem_[r[a] & (kMem - 1)] = r[b]; break;
        case 4: if (r[a] & 1) pc = (pc + (op >> 10)) & (kCode - 1); break;
        case 5: r[a] = r[a] * 0x9e3779b97f4a7c15ULL + 1; break;
        case 6: r[a] = (r[a] << 13) | (r[a] >> 51); break;
        case 7: r[a] -= r[b]; break;
        case 8: if (r[a] > r[b]) r[a] >>= 1; break;
        case 9: r[a] = mem_[(r[a] + op) & (kMem - 1)] + r[b]; break;
        case 10: r[a] |= r[b] & 0xff; break;
        case 11: r[a] += op; break;
        case 12: std::swap(r[a], r[b]); break;
        case 13: r[a] = r[b] ^ (r[a] >> 7); break;
        case 14: if ((r[b] & 3) == 0) pc = (pc + 17) & (kCode - 1); break;
        default: r[a] += r[a] >> 11; break;
      }
    }
    std::copy(r, r + 8, regs_);
    pc_ = pc;
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

 private:
  static constexpr std::uint32_t kCode = 4096;
  static constexpr std::uint64_t kMem = 1u << 15;
  static constexpr int kSteps = 300000;
  std::vector<std::uint16_t> code_;
  std::vector<std::uint64_t> mem_;
  std::uint64_t regs_[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint32_t pc_ = 0;
};

Calibrator& GlobalCalibrator() {
  static Calibrator calibrator;
  return calibrator;
}

struct Pass {
  bool traced = false;
  std::map<std::string, double> seconds;  // summed span time per name
  std::map<std::string, double> counts;   // registry deltas and derived sums
  std::vector<Span> spans;                // traced passes only
  std::vector<Row> rows;
  // Calibration chunk seconds: one before every run, one after the last.
  std::vector<double> calib;
  int attempted = 0;
  int failed = 0;
  double cobra_speedup = 1.0;
  double sample_speedup_error = 0.0;
  double peak_rss_mib = 0.0;

  // The pass's wall and setup time when a run started.
  struct Mark {
    double wall = 0.0;
    double setup = 0.0;
  };
  // Runs the calibration chunk that precedes every simulated run.
  Mark StartRun() {
    calib.push_back(GlobalCalibrator().Chunk());
    return {wall(), setup()};
  }
  void EndCalibration() { calib.push_back(GlobalCalibrator().Chunk()); }
  void Since(const Mark& start, Row* row) const {
    row->wall_s = wall() - start.wall;
    row->setup_s = setup() - start.setup;
  }

  double Sum(const char* const* names, std::size_t n) const {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = seconds.find(names[i]);
      if (it != seconds.end()) total += it->second;
    }
    return total;
  }
  double wall() const { return Sum(kTimedSpans, std::size(kTimedSpans)); }
  double setup() const { return Sum(kSetupSpans, std::size(kSetupSpans)); }
  double Count(const std::string& name) const {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  }

  int OpenSpan(std::string name, int run, int parent, double start) {
    if (!traced) return -1;
    spans.push_back({std::move(name), run, parent, start, 0.0, false});
    return static_cast<int>(spans.size()) - 1;
  }
  void AddAggregate(std::string name, int parent, double duration) {
    seconds[name] += duration;
    if (!traced || parent < 0) return;
    const double start = spans[static_cast<std::size_t>(parent)].start;
    spans.push_back({std::move(name), spans[static_cast<std::size_t>(parent)].run,
                     parent, start, start + duration, true});
  }
};

// Times one call into a layer: always adds to Pass::seconds, and records a
// span on traced passes.
class Scope {
 public:
  Scope(Pass& pass, const char* name, int run, int parent)
      : pass_(pass), name_(name), start_(Now()),
        index_(pass.OpenSpan(name, run, parent, start_)) {}
  ~Scope() {
    const double end = Now();
    pass_.seconds[name_] += end - start_;
    if (index_ >= 0) pass_.spans[static_cast<std::size_t>(index_)].end = end;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  Pass& pass_;
  const char* name_;
  double start_;
  int index_;
};

// Round tasks that time the tasks registered between them. Start() goes
// before a subsystem registers its own round task, Mark(name) after it; at
// every engine barrier the time since the previous marker is charged to
// `name`.
class RoundMarks {
 public:
  explicit RoundMarks(machine::Machine* machine) : machine_(machine) {}
  ~RoundMarks() {
    for (const int id : ids_) machine_->RemoveRoundTask(id);
  }
  RoundMarks(const RoundMarks&) = delete;
  RoundMarks& operator=(const RoundMarks&) = delete;

  void Start() {
    ids_.push_back(machine_->AddRoundTask([this] { last_ = Clock::now(); }));
  }
  void Mark(const std::string& name) {
    double* slot = &seconds_[name];
    ids_.push_back(machine_->AddRoundTask([this, slot] {
      const Clock::time_point now = Clock::now();
      *slot += std::chrono::duration<double>(now - last_).count();
      last_ = now;
    }));
  }
  const std::map<std::string, double>& seconds() const { return seconds_; }

 private:
  machine::Machine* machine_;
  std::vector<int> ids_;
  Clock::time_point last_;
  std::map<std::string, double> seconds_;
};

// Registry metrics summed into the benchmark's counts. A metric matches when
// its name is `prefix` + digits + `suffix` (per-CPU families) or, with an
// empty suffix, exactly `prefix`.
struct CountDef {
  const char* name;
  const char* prefix;
  const char* suffix;
};

constexpr CountDef kCounts[] = {
    {"cpu.retired", "cpu", ".retired"},
    {"cpu.sim_cycles", "cpu", ".cycles"},
    {"machine.quanta", "engine.quanta", ""},
    {"machine.commits", "engine.commits", ""},
    {"rt.regions", "host.runs", ""},
    {"tjit.hits", "tjit.hits", ""},
    {"tjit.misses", "tjit.misses", ""},
    {"tjit.compiles", "tjit.compiles", ""},
    {"tjit.flushes", "tjit.flushes", ""},
    {"tjit.side_exits", "tjit.side_exits", ""},
    {"tjit.sb_retired", "tjit.sb_retired", ""},
    {"mem.loads", "mem.cpu", ".loads"},
    {"mem.stores", "mem.cpu", ".stores"},
    {"mem.l2_misses", "mem.l2.miss", ""},
    {"mem.l3_misses", "mem.l3.miss", ""},
    {"mem.fabric_memory", "fabric.mesi.memory", ""},
    {"mem.fabric_coherent", "fabric.mesi.coherent", ""},
    {"mem.fabric_remote", "fabric.mesi.remote", ""},
    {"perfmon.samples", "perfmon.samples", ""},
    {"perfmon.batches", "perfmon.batches", ""},
    {"cobra.evaluations", "cobra.evaluations", ""},
    {"cobra.deployments", "cobra.deployments", ""},
    {"cobra.rollbacks", "cobra.rollbacks", ""},
    {"cobra.epochs_kept", "cobra.epochs_kept", ""},
    {"cobra.epochs_reverted", "cobra.epochs_reverted", ""},
    {"cobra.patch_verifications", "cobra.patch_verifications", ""},
    {"machine.checkpoints", "sample.checkpoints", ""},
    {"machine.checkpoint_bytes", "sample.checkpoint_bytes", ""},
    {"perfmon.intervals", "sample.intervals", ""},
    {"perfmon.phases", "sample.phases", ""},
};

bool Matches(const std::string& metric, const CountDef& def) {
  const std::string_view m(metric);
  const std::string_view prefix(def.prefix);
  const std::string_view suffix(def.suffix);
  if (suffix.empty()) return m == prefix;
  if (m.size() <= prefix.size() + suffix.size() || !m.starts_with(prefix) ||
      !m.ends_with(suffix)) {
    return false;
  }
  const std::string_view mid =
      m.substr(prefix.size(), m.size() - prefix.size() - suffix.size());
  return std::all_of(mid.begin(), mid.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

double SumMatching(const obs::Snapshot& snap, const CountDef& def) {
  double total = 0.0;
  for (const obs::Metric& m : snap.metrics) {
    if (Matches(m.name, def)) total += static_cast<double>(m.value);
  }
  return total;
}

void AddCounts(Pass& pass, const obs::Snapshot& before,
               const obs::Snapshot& after) {
  for (const CountDef& def : kCounts) {
    pass.counts[def.name] += SumMatching(after, def) - SumMatching(before, def);
  }
}

// --- Simulated runs ---------------------------------------------------------

// One wired simulated run. Member order is destruction order in reverse:
// the team and runtime go before the round-task markers, the markers before
// the machine.
struct Instance {
  kgen::Program prog;
  std::unique_ptr<npb::NpbBenchmark> bench;
  std::unique_ptr<machine::Machine> machine;
  std::unique_ptr<RoundMarks> marks;
  std::unique_ptr<core::CobraRuntime> cobra;
  std::unique_ptr<rt::Team> team;
};

enum class Mode { kPrefetch, kCobraNoprefetch, kCobraExcl };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kPrefetch: return "prefetch";
    case Mode::kCobraNoprefetch: return "noprefetch";
    case Mode::kCobraExcl: return "prefetch.excl";
  }
  return "?";
}

struct MachineSpec {
  const char* name;
  machine::MachineConfig config;
  int threads;
};

MachineSpec Smp4() { return {"smp4", machine::SmpServerConfig(4), 4}; }
MachineSpec Numa8() { return {"numa8", machine::AltixConfig(8), 8}; }

// The accelerated epoch cadence of `cobra_bench --sample`, applied to both
// the sampled runs and their full-detail references.
void QuickEpochs(core::CobraConfig& config) {
  config.batches_per_evaluation = 1;
  config.epoch_windows = 2;
  config.max_settle_windows = 3;
}

struct NpbSpec {
  std::string kernel;
  MachineSpec machine;
  Mode mode = Mode::kPrefetch;
  bool quick_epochs = false;
  perfmon::SampleConfig sample;  // enabled on npb_sampled's timed runs

  std::string Name() const {
    return kernel + "@" + machine.name + ":" + ModeName(mode);
  }
};

// Builds program, machine and (in COBRA modes, when `attach_cobra`) the
// runtime, timing each step under `parent`. On traced passes the runtime's
// round task is bracketed as "cobra.round".
std::unique_ptr<Instance> BuildNpb(Pass& pass, int run, int parent,
                                   const NpbSpec& spec, bool attach_cobra) {
  auto inst = std::make_unique<Instance>();
  {
    Scope s(pass, "kgen.build", run, parent);
    inst->bench = npb::MakeBenchmark(spec.kernel);
    inst->bench->Build(inst->prog, kgen::PrefetchPolicy{});
  }
  {
    Scope s(pass, "machine.construct", run, parent);
    machine::MachineConfig cfg = spec.machine.config;
    cfg.mem.memory_bytes = 1 << 25;
    inst->machine = std::make_unique<machine::Machine>(cfg, &inst->prog.image());
  }
  {
    Scope s(pass, "npb.init", run, parent);
    inst->bench->Init(*inst->machine, spec.machine.threads);
  }
  if (pass.traced) {
    inst->marks = std::make_unique<RoundMarks>(inst->machine.get());
    inst->marks->Start();
  }
  if (spec.mode != Mode::kPrefetch && attach_cobra) {
    Scope s(pass, "cobra.attach", run, parent);
    core::CobraConfig config;
    // The finer sampling period of bench/npb_experiment.cpp.
    config.sampling_period_insts = 1000;
    config.strategy = spec.mode == Mode::kCobraNoprefetch
                          ? core::OptKind::kNoprefetch
                          : core::OptKind::kPrefetchExcl;
    if (spec.quick_epochs) QuickEpochs(config);
    inst->cobra =
        std::make_unique<core::CobraRuntime>(inst->machine.get(), config);
    inst->cobra->AttachAll(spec.machine.threads);
  }
  if (inst->marks) inst->marks->Mark("cobra.round");
  {
    Scope s(pass, "machine.construct", run, parent);
    inst->team = std::make_unique<rt::Team>(inst->machine.get(),
                                            spec.machine.threads, kEngine);
  }
  return inst;
}

// Engine time and bracketed round-task time inside one timed span, as
// aggregate child spans: machine.engine under the span, the brackets under
// machine.engine.
void AddEngineSpans(Pass& pass, int span, const obs::Snapshot& before,
                    const obs::Snapshot& after, const RoundMarks* marks) {
  const double engine_s = (static_cast<double>(after.Value("host.wall_ns")) -
                           static_cast<double>(before.Value("host.wall_ns"))) /
                          1e9;
  pass.AddAggregate("machine.engine", span, engine_s);
  if (marks == nullptr) return;
  const int engine = pass.traced ? static_cast<int>(pass.spans.size()) - 1 : -1;
  for (const auto& [name, seconds] : marks->seconds()) {
    if (seconds > 0.0) pass.AddAggregate(name, engine, seconds);
  }
}

// Fingerprints a checked run's machine and records the run in the pass.
Row Record(Pass& pass, Row row, machine::Machine& machine) {
  row.fingerprint = machine.registry().Take().Fingerprint();
  ++pass.attempted;
  if (!row.verified) ++pass.failed;
  pass.rows.push_back(row);
  return row;
}

// Verifies and records one finished NPB run.
Row FinishRun(Pass& pass, int run, int parent, Instance& inst,
              const std::string& name, std::uint64_t cycles,
              const Pass::Mark& start) {
  Row row;
  row.name = name;
  row.cycles = cycles;
  pass.Since(start, &row);
  {
    Scope s(pass, "npb.verify", run, parent);
    row.verified = inst.bench->Verify(*inst.machine);
  }
  return Record(pass, row, *inst.machine);
}

// A full-detail NPB run: the npb_adaptive rows and npb_sampled's references.
Row RunNpbFull(Pass& pass, int run, const NpbSpec& spec) {
  const Pass::Mark start = pass.StartRun();
  Scope run_span(pass, "run", run, 0);
  const int parent = run_span.index();
  auto inst = BuildNpb(pass, run, parent, spec, /*attach_cobra=*/true);
  const obs::Snapshot before = inst->machine->registry().Take();
  Cycle cycles = 0;
  int span = -1;
  {
    Scope s(pass, "npb.run", run, parent);
    span = s.index();
    cycles = inst->bench->Run(*inst->team);
  }
  const obs::Snapshot after = inst->machine->registry().Take();
  AddEngineSpans(pass, span, before, after, inst->marks.get());
  AddCounts(pass, before, after);
  return FinishRun(pass, run, parent, *inst, spec.Name(), cycles, start);
}

// A sampled NPB run, as RunNpbExperiment wires it: pass 1 profiles a
// detached instance in fast-forward, pass 2 runs a fresh instance (runtime
// attached) under the phase schedule. Returns the projected cycles.
Row RunNpbSampled(Pass& pass, int run, const NpbSpec& spec) {
  const Pass::Mark start = pass.StartRun();
  Scope run_span(pass, "run", run, 0);
  const int parent = run_span.index();

  perfmon::PhaseProfile profile;
  {
    auto scout = BuildNpb(pass, run, parent, spec, /*attach_cobra=*/false);
    const obs::Snapshot before = scout->machine->registry().Take();
    std::unique_ptr<perfmon::PhaseProfiler> profiler;
    int span = -1;
    {
      Scope s(pass, "perfmon.profile", run, parent);
      span = s.index();
      profiler = std::make_unique<perfmon::PhaseProfiler>(scout->machine.get(),
                                                          spec.sample);
      if (scout->marks) scout->marks->Mark("perfmon.bbv_round");
      scout->bench->Run(*scout->team);
    }
    const obs::Snapshot after = scout->machine->registry().Take();
    AddEngineSpans(pass, span, before, after, scout->marks.get());
    AddCounts(pass, before, after);
    Scope s(pass, "perfmon.cluster", run, parent);
    profile = profiler->Finish();
  }

  auto inst = BuildNpb(pass, run, parent, spec, /*attach_cobra=*/true);
  const obs::Snapshot before = inst->machine->registry().Take();
  std::unique_ptr<perfmon::SampledRun> sampler;
  int span = -1;
  {
    Scope s(pass, "npb.run", run, parent);
    span = s.index();
    sampler = std::make_unique<perfmon::SampledRun>(inst->machine.get(),
                                                    std::move(profile));
    if (inst->marks) inst->marks->Mark("perfmon.sample_round");
    inst->bench->Run(*inst->team);
  }
  // Taken while the sampler is alive, so the sample.* family is counted.
  const obs::Snapshot after = inst->machine->registry().Take();
  AddEngineSpans(pass, span, before, after, inst->marks.get());
  AddCounts(pass, before, after);
  perfmon::SampleOutcome outcome;
  {
    Scope s(pass, "perfmon.project", run, parent);
    outcome = sampler->Finish();
  }
  pass.counts["sample.detailed_retired"] +=
      static_cast<double>(outcome.detailed_retired);
  pass.counts["sample.total_retired"] +=
      static_cast<double>(outcome.total_retired);
  if (spec.mode != Mode::kPrefetch) {
    pass.counts["perfmon.sample_epochs_kept"] +=
        static_cast<double>(inst->cobra->stats().epochs_kept);
  }
  return FinishRun(pass, run, parent, *inst, spec.Name(),
                   outcome.projected_cycles, start);
}

// --- Workloads --------------------------------------------------------------

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return v.empty() ? 1.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Work done once per benchmark run, outside every pass (npb_sampled's
  // references). Runs recorded into `pass` count as attempted.
  virtual void Prepare(Pass&) {}
  virtual void RunPass(Pass& pass) = 0;
};

// The Fig. 5/6/7 matrix as users run it.
class NpbAdaptive : public Workload {
 public:
  void RunPass(Pass& pass) override {
    std::vector<double> speedups;
    int run = 0;
    for (const MachineSpec& machine : {Smp4(), Numa8()}) {
      for (const std::string& kernel : npb::ResultBenchmarkNames()) {
        std::uint64_t base = 0;
        for (const Mode mode :
             {Mode::kPrefetch, Mode::kCobraNoprefetch, Mode::kCobraExcl}) {
          NpbSpec spec;
          spec.kernel = kernel;
          spec.machine = machine;
          spec.mode = mode;
          const Row row = RunNpbFull(pass, run++, spec);
          if (mode == Mode::kPrefetch) {
            base = row.cycles;
          } else {
            speedups.push_back(static_cast<double>(base) /
                               static_cast<double>(row.cycles));
          }
        }
      }
    }
    pass.cobra_speedup = GeoMean(speedups);
  }
};

// The Fig. 3 DAXPY kernel over seed-drawn working sets.
class DaxpyStream : public Workload {
 public:
  explicit DaxpyStream(std::uint64_t seed) {
    support::Rng rng(seed);
    // Total bytes of x and y together, per band (per-CPU L2 256 KiB, L3
    // 3 MiB, aggregate L3 of the 4-way SMP 12 MiB). The L2 band stops well
    // short of 256 KiB, where the prefetch stream starts to spill, and the
    // largest band is narrow because it sets the process's peak RSS.
    struct Band {
      const char* name;
      std::uint64_t lo, hi;
    };
    const Band bands[] = {{"l2", 96 << 10, 144 << 10},
                          {"l3", 1280 << 10, 2304 << 10},
                          {"mem", 15872 << 10, 16896 << 10}};
    for (const Band& band : bands) {
      Input in;
      in.band = band.name;
      // A multiple of 2 KiB: n stays a multiple of 128 elements.
      const std::uint64_t units = (band.hi - band.lo) / 2048;
      in.n = static_cast<std::int64_t>(
          (band.lo + 2048 * rng.NextBounded(units + 1)) / 16);
      in.a = rng.NextDouble(0.25, 0.75);
      in.data_seed = rng.NextU64();
      inputs_.push_back(in);
    }
  }

  void RunPass(Pass& pass) override {
    int run = 0;
    for (const Input& in : inputs_) {
      for (const bool prefetch : {true, false}) {
        for (const int threads : {1, 4}) {
          RunOne(pass, run++, in, prefetch, threads);
        }
      }
    }
  }

 private:
  // Element updates per timed run, identical for every working set so the
  // seed moves the working set but not the amount of simulated work: full
  // sweeps over the arrays, then a partial sweep over a prefix.
  static constexpr std::int64_t kUpdatesPerRun = 1 << 20;

  // x[i] and y[i] are drawn in turn from Rng(data_seed), both when the
  // arrays are written and when the host replays the updates.
  struct Input {
    const char* band = "";
    std::int64_t n = 0;
    double a = 0.0;
    std::uint64_t data_seed = 0;
  };

  static void RunOne(Pass& pass, int run, const Input& in, bool prefetch,
                     int threads) {
    using mem::Addr;
    const Pass::Mark start = pass.StartRun();
    Scope run_span(pass, "run", run, 0);
    const int parent = run_span.index();
    Instance inst;
    kgen::LoopInfo daxpy;
    Addr x = 0, y = 0;
    {
      Scope s(pass, "kgen.build", run, parent);
      daxpy = kgen::EmitDaxpy(inst.prog, "daxpy",
                              prefetch ? kgen::PrefetchPolicy{}
                                       : kgen::PrefetchPolicy::None());
      x = inst.prog.Alloc(static_cast<std::uint64_t>(in.n) * 8, 128);
      y = inst.prog.Alloc(static_cast<std::uint64_t>(in.n) * 8, 128);
    }
    {
      Scope s(pass, "machine.construct", run, parent);
      machine::MachineConfig cfg = machine::SmpServerConfig(4);
      cfg.mem.memory_bytes = 1 << 26;
      inst.machine = std::make_unique<machine::Machine>(cfg, &inst.prog.image());
      inst.team = std::make_unique<rt::Team>(inst.machine.get(), threads, kEngine);
    }
    machine::Machine& m = *inst.machine;
    {
      Scope s(pass, "npb.init", run, parent);
      support::Rng data(in.data_seed);
      for (std::int64_t i = 0; i < in.n; ++i) {
        const auto off = 8 * static_cast<Addr>(i);
        m.memory().WriteDouble(x + off, data.NextDouble(-1.0, 1.0));
        m.memory().WriteDouble(y + off, data.NextDouble(-1.0, 1.0));
      }
    }
    // One sweep of `count` elements from the start of the arrays, split
    // with the static schedule.
    const auto sweep = [&](std::int64_t count) {
      inst.team->Run(daxpy.entry, [&](int tid, cpu::RegisterFile& regs) {
        const auto chunk = rt::StaticChunk(tid, threads, count);
        regs.WriteGr(14, x + 8 * static_cast<Addr>(chunk.begin));
        regs.WriteGr(15, y + 8 * static_cast<Addr>(chunk.begin));
        regs.WriteGr(16, static_cast<std::uint64_t>(chunk.size()));
        regs.WriteFr(6, in.a);
      });
    };
    {
      // Warm-up sweep, untimed as in RunDaxpyExperiment.
      Scope s(pass, "rt.warmup", run, parent);
      sweep(in.n);
    }
    const std::int64_t full = kUpdatesPerRun / in.n;
    const std::int64_t rest = kUpdatesPerRun % in.n;
    const obs::Snapshot before = m.registry().Take();
    const Cycle cycle0 = m.GlobalTime();
    int span = -1;
    {
      Scope s(pass, "npb.run", run, parent);
      span = s.index();
      for (std::int64_t rep = 0; rep < full; ++rep) sweep(in.n);
      if (rest > 0) sweep(rest);
    }
    const obs::Snapshot after = m.registry().Take();
    AddEngineSpans(pass, span, before, after, nullptr);
    AddCounts(pass, before, after);
    Row row;
    row.name = std::string("daxpy@") + in.band + "-" +
               std::to_string(in.n * 16 / 1024) + "k:" +
               (prefetch ? "prefetch" : "noprefetch") + ":t" +
               std::to_string(threads);
    row.cycles = m.GlobalTime() - cycle0;
    pass.Since(start, &row);
    {
      // Host replay: the same fused multiply-adds in the same order.
      Scope s(pass, "npb.verify", run, parent);
      row.verified = true;
      support::Rng data(in.data_seed);
      for (std::int64_t i = 0; i < in.n && row.verified; ++i) {
        const double xi = data.NextDouble(-1.0, 1.0);
        double expected = data.NextDouble(-1.0, 1.0);
        const std::int64_t updates = 1 + full + (i < rest ? 1 : 0);
        for (std::int64_t u = 0; u < updates; ++u) {
          expected = __builtin_fma(in.a, xi, expected);
        }
        row.verified = m.memory().ReadDouble(y + 8 * static_cast<Addr>(i)) ==
                       expected;
      }
    }
    Record(pass, row, m);
  }

  std::vector<Input> inputs_;
};

// The --sample pipeline against full-detail references.
class NpbSampled : public Workload {
 public:
  NpbSampled() {
    perfmon::SampleConfig matrix;  // cobra_bench --sample's NPB schedule
    matrix.interval_insts = 100000;
    matrix.max_phases = 8;
    perfmon::SampleConfig scaled;  // sampled_accuracy's mg@4 schedule
    scaled.interval_insts = 300000;
    scaled.max_phases = 6;
    // cg on the SMP is left out: its sampled projection falls on the other
    // side of 1.0 from its reference (0.976 against 1.035), a known defect
    // of sampled mode that would fail every run of the workload.
    AddPair("lu", Smp4(), matrix);
    AddPair("mg", Smp4(), matrix);
    for (const char* kernel : {"lu", "mg", "cg"}) {
      AddPair(kernel, Numa8(), matrix);
    }
    AddPair("mg@4", Smp4(), scaled);
  }

  void Prepare(Pass& pass) override {
    int run = 0;
    for (const NpbSpec& spec : specs_) {
      NpbSpec full = spec;
      full.sample = {};
      reference_cycles_.push_back(RunNpbFull(pass, run++, full).cycles);
    }
  }

  void RunPass(Pass& pass) override {
    std::vector<std::uint64_t> projected;
    int run = 0;
    for (const NpbSpec& spec : specs_) {
      projected.push_back(RunNpbSampled(pass, run++, spec).cycles);
    }
    // specs_ alternates prefetch and COBRA rows of one kernel and machine.
    std::vector<double> speedups;
    double error_sum = 0.0;
    for (std::size_t i = 0; i + 1 < specs_.size(); i += 2) {
      const double sampled = static_cast<double>(projected[i]) /
                             static_cast<double>(projected[i + 1]);
      const double reference = static_cast<double>(reference_cycles_[i]) /
                               static_cast<double>(reference_cycles_[i + 1]);
      speedups.push_back(sampled);
      error_sum += std::abs(sampled - reference) / reference;
      // A projection on the wrong side of 1.0 fails the COBRA row.
      if ((sampled >= 1.0) != (reference >= 1.0)) ++pass.failed;
    }
    pass.cobra_speedup = GeoMean(speedups);
    pass.sample_speedup_error =
        error_sum / static_cast<double>(speedups.size());
  }

 private:
  void AddPair(const char* kernel, const MachineSpec& machine,
               const perfmon::SampleConfig& sample) {
    for (const Mode mode : {Mode::kPrefetch, Mode::kCobraNoprefetch}) {
      NpbSpec spec;
      spec.kernel = kernel;
      spec.machine = machine;
      spec.mode = mode;
      spec.quick_epochs = true;
      spec.sample = sample;
      specs_.push_back(spec);
    }
  }

  std::vector<NpbSpec> specs_;
  std::vector<std::uint64_t> reference_cycles_;
};

// --- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Nominal time of one calibration chunk: host times are reported as if every
// run had executed on a host that runs the chunk in this time.
constexpr double kNominalChunkS = 0.004;

// A pass-level host time that stays steady on a shared host whose speed
// drifts by tens of percent over seconds and minutes: each run's time is
// divided by the mean of the calibration chunks run just before and just
// after it, the best (lowest) ratio over the passes is taken per run, and
// those are summed and scaled to the nominal chunk time. Interference only
// ever slows a run, so the best of several calibrated repetitions is the
// steadiest estimate of what the run costs.
double Normalized(const std::vector<const Pass*>& passes, double Row::*time) {
  double total = 0.0;
  for (std::size_t i = 0; i < passes.front()->rows.size(); ++i) {
    double best = HUGE_VAL;
    for (const Pass* p : passes) {
      const double chunk = 0.5 * (p->calib[i] + p->calib[i + 1]);
      best = std::min(best, p->rows[i].*time / chunk);
    }
    total += best;
  }
  return total * kNominalChunkS;
}

std::vector<Metric> EndToEnd(const std::vector<const Pass*>& passes) {
  const Pass& last = *passes.back();
  const double wall = Normalized(passes, &Row::wall_s);
  return {{"wall_s", "s", wall},
          {"sim_mips", "Minst/s", last.Count("cpu.retired") / wall / 1e6},
          {"setup_s", "s", Normalized(passes, &Row::setup_s)},
          {"peak_rss_mb", "MiB", last.peak_rss_mib},
          {"cobra_speedup", "x", last.cobra_speedup}};
}

// Self time per span name, summed over a traced pass: duration minus the
// part its children cover.
std::map<std::string, double> SelfTimes(const Pass& pass) {
  std::vector<double> child(pass.spans.size(), 0.0);
  for (const Span& s : pass.spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < pass.spans.size(); ++i) {
    const Span& s = pass.spans[i];
    self[s.name] += s.end - s.start - child[i];
  }
  return self;
}

// Share of the simulated runs' host time that their layer spans cover (the
// rest is glue between the calls: registry snapshots, teardown).
double Coverage(const Pass& pass) {
  double runs = 0.0, covered = 0.0;
  for (const Span& s : pass.spans) {
    if (s.name == "run") runs += s.end - s.start;
  }
  for (const Span& s : pass.spans) {
    if (s.parent >= 0 &&
        pass.spans[static_cast<std::size_t>(s.parent)].name == "run") {
      covered += s.end - s.start;
    }
  }
  return Ratio(covered, runs);
}

std::vector<Metric> PerLayer(const std::vector<const Pass*>& traced,
                             const std::vector<const Pass*>& untraced,
                             const Pass& prepared) {
  // Times are medians over traced passes; counts repeat exactly, so the
  // first traced pass gives them.
  const auto median_of = [&](const std::function<double(const Pass&)>& f) {
    std::vector<double> v;
    for (const Pass* p : traced) v.push_back(f(*p));
    return Median(v);
  };
  const auto secs = [&](const char* name) {
    return median_of([name](const Pass& p) {
      const auto it = p.seconds.find(name);
      return it == p.seconds.end() ? 0.0 : it->second;
    });
  };
  const auto self = [&](std::vector<const char*> names) {
    return median_of([names](const Pass& p) {
      const auto times = SelfTimes(p);
      double total = 0.0;
      for (const char* n : names) {
        const auto it = times.find(n);
        if (it != times.end()) total += it->second;
      }
      return total;
    });
  };
  const Pass& c = *traced.front();
  const auto n = [&c](const char* name) { return c.Count(name); };

  const double retired = n("cpu.retired");
  const double exec_s = self({"machine.engine"});
  const double cobra_round_s = self({"cobra.round"});
  const double wall_untraced = Normalized(untraced, &Row::wall_s);
  const double wall_traced = Normalized(traced, &Row::wall_s);
  const double reference_s =
      prepared.rows.empty() ? 0.0 : Normalized({&prepared}, &Row::wall_s);

  return {
      {"kgen.build_s", "s", secs("kgen.build")},
      {"machine.construct_s", "s", secs("machine.construct")},
      {"npb.init_s", "s", secs("npb.init")},
      {"cobra.attach_s", "s", secs("cobra.attach")},
      {"rt.region_s", "s", secs("machine.engine")},
      {"rt.regions", "count", n("rt.regions")},
      {"npb.host_gap_s", "s", self({"npb.run", "perfmon.profile"})},
      {"machine.exec_s", "s", exec_s},
      {"machine.exec_ns_per_inst", "ns/inst", Ratio(exec_s * 1e9, retired)},
      {"machine.quanta", "count", n("machine.quanta")},
      {"machine.commits", "count", n("machine.commits")},
      {"machine.commits_per_kinst", "commits/kinst",
       Ratio(n("machine.commits") * 1e3, retired)},
      {"cpu.retired", "count", retired},
      {"cpu.sim_cycles", "count", n("cpu.sim_cycles")},
      {"tjit.sb_share", "fraction", Ratio(n("tjit.sb_retired"), retired)},
      {"tjit.hit_ratio", "fraction",
       Ratio(n("tjit.hits"), n("tjit.hits") + n("tjit.misses"))},
      {"tjit.compiles", "count", n("tjit.compiles")},
      {"tjit.flushes", "count", n("tjit.flushes")},
      {"tjit.side_exits", "count", n("tjit.side_exits")},
      {"mem.loads", "count", n("mem.loads")},
      {"mem.stores", "count", n("mem.stores")},
      {"mem.l2_miss_ratio", "fraction",
       Ratio(n("mem.l2_misses"), n("mem.loads") + n("mem.stores"))},
      {"mem.l3_miss_ratio", "fraction",
       Ratio(n("mem.l3_misses"), n("mem.l2_misses"))},
      {"mem.fabric_memory", "count", n("mem.fabric_memory")},
      {"mem.fabric_coherent", "count", n("mem.fabric_coherent")},
      {"mem.fabric_remote", "count", n("mem.fabric_remote")},
      {"cobra.round_s", "s", cobra_round_s},
      {"cobra.round_us_per_batch", "us/batch",
       Ratio(cobra_round_s * 1e6, n("perfmon.batches"))},
      {"perfmon.samples", "count", n("perfmon.samples")},
      {"perfmon.batches", "count", n("perfmon.batches")},
      {"cobra.evaluations", "count", n("cobra.evaluations")},
      {"cobra.deployments", "count", n("cobra.deployments")},
      {"cobra.rollbacks", "count", n("cobra.rollbacks")},
      {"cobra.epochs_kept", "count", n("cobra.epochs_kept")},
      {"cobra.epochs_reverted", "count", n("cobra.epochs_reverted")},
      {"cobra.kept_ratio", "fraction",
       Ratio(n("cobra.epochs_kept"),
             n("cobra.epochs_kept") + n("cobra.epochs_reverted"))},
      {"cobra.patch_verifications", "count", n("cobra.patch_verifications")},
      {"perfmon.profile_s", "s", secs("perfmon.profile")},
      {"perfmon.cluster_s", "s", secs("perfmon.cluster")},
      {"perfmon.sample_round_s", "s", self({"perfmon.sample_round"})},
      {"perfmon.detailed_fraction", "fraction",
       Ratio(n("sample.detailed_retired"), n("sample.total_retired"))},
      {"perfmon.intervals", "count", n("perfmon.intervals")},
      {"perfmon.phases", "count", n("perfmon.phases")},
      {"machine.checkpoints", "count", n("machine.checkpoints")},
      {"machine.checkpoint_bytes", "bytes", n("machine.checkpoint_bytes")},
      {"perfmon.sample_epochs_kept", "count", n("perfmon.sample_epochs_kept")},
      {"perfmon.sample_speedup_error", "fraction", c.sample_speedup_error},
      {"perfmon.reference_s", "s", reference_s},
      {"perfmon.wall_over_reference", "x", Ratio(wall_untraced, reference_s)},
      {"npb.verify_s", "s", secs("npb.verify")},
      {"trace.coverage", "fraction",
       median_of([](const Pass& p) { return Coverage(p); })},
      {"trace.overhead_s", "s", wall_traced - wall_untraced},
  };
}

// --- Command line -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string report;
  std::string spans;
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "cobra_perfbench: %s\n", message.c_str());
  std::exit(2);
}

bool ParseUnsigned(const char* text, std::uint64_t* out) {
  if (*text == '\0') return false;
  std::uint64_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have[4] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag(argv[i]);
    if (i + 1 >= argc) Fail("missing value for " + std::string(flag));
    const char* value = argv[++i];
    std::uint64_t u = 0;
    if (flag == "--workload") {
      o.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &o.seed)) Fail("bad --seed " + std::string(value));
      have[1] = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &u) || u > 3600) {
        Fail("bad --seconds " + std::string(value));
      }
      o.seconds = static_cast<int>(u);
      have[2] = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Fail("--trace takes 0 or 1, not " + std::string(value));
      }
      o.trace = value[0] == '1';
      have[3] = true;
    } else if (flag == "--report") {
      o.report = value;
    } else if (flag == "--spans") {
      o.spans = value;
    } else {
      Fail("unknown argument " + std::string(flag));
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]) || o.report.empty()) {
    Fail("usage: cobra_perfbench --workload NAME --seed N --seconds S "
         "--trace 0|1 --report FILE [--spans FILE]");
  }
  return o;
}

// The libraries read COBRA_ENGINE, COBRA_TJIT, COBRA_PROTOCOL, COBRA_PLANNER,
// COBRA_VERIFY, COBRA_TRACE, COBRA_SAMPLE and more at construction time, and
// most ignore bad values silently; the benchmark pins all of them.
void RejectCobraEnvironment() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "COBRA_", 6) == 0) {
      const char* eq = std::strchr(*env, '=');
      const std::string name =
          eq ? std::string(*env, static_cast<std::size_t>(eq - *env)) : *env;
      Fail("environment variable " + name +
           " is set; the benchmark pins its configuration, unset it");
    }
  }
}

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "npb_adaptive") return std::make_unique<NpbAdaptive>();
  if (o.workload == "daxpy_stream") return std::make_unique<DaxpyStream>(o.seed);
  if (o.workload == "npb_sampled") return std::make_unique<NpbSampled>();
  Fail("unknown workload '" + o.workload +
       "' (npb_adaptive, daxpy_stream, npb_sampled)");
}

Json MetricsJson(const std::vector<Metric>& metrics) {
  Json out = Json::Object();
  for (const Metric& m : metrics) {
    Json entry = Json::Object();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    out.Set(m.name, std::move(entry));
  }
  return out;
}

Json SpansJson(const std::vector<Pass>& passes) {
  Json out = Json::Array();
  for (std::size_t p = 0; p < passes.size(); ++p) {
    if (!passes[p].traced) continue;
    Json spans = Json::Array();
    for (const Span& s : passes[p].spans) {
      Json span = Json::Object();
      span.Set("name", s.name);
      span.Set("run", s.run);
      span.Set("parent", s.parent);
      span.Set("start_s", s.start);
      span.Set("end_s", s.end);
      span.Set("aggregate", s.aggregate);
      spans.Append(std::move(span));
    }
    Json self = Json::Object();
    for (const auto& [name, seconds] : SelfTimes(passes[p])) {
      self.Set(name, seconds);
    }
    Json entry = Json::Object();
    entry.Set("pass", static_cast<int>(p));
    entry.Set("self_s", std::move(self));
    entry.Set("coverage", Coverage(passes[p]));
    entry.Set("spans", std::move(spans));
    out.Append(std::move(entry));
  }
  return out;
}

void WriteFile(const std::string& path, const Json& doc) {
  std::ofstream f(path);
  f << doc.Dump() << "\n";
  if (!f) Fail("cannot write " + path);
}

int Main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
  RejectCobraEnvironment();
  std::unique_ptr<Workload> workload = MakeWorkload(o);

  // npb_sampled's references: once per benchmark run, outside every pass.
  Pass prepared;
  workload->Prepare(prepared);
  prepared.EndCalibration();

  // With --trace 1 passes alternate untraced/traced, so the tracing
  // overhead is measured within one run; at least one of each.
  std::vector<Pass> passes;
  const double measure_start = Now();
  while (passes.empty() || Now() - measure_start < o.seconds ||
         (o.trace && passes.size() < 2)) {
    Pass pass;
    pass.traced = o.trace && passes.size() % 2 == 1;
    {
      Scope whole(pass, "pass", -1, -1);
      workload->RunPass(pass);
    }
    pass.EndCalibration();
    pass.peak_rss_mib = PeakRssMiB();
    passes.push_back(std::move(pass));
  }

  // Every pass simulates the same runs: their fingerprints must agree.
  bool consistent = true;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const Row& row : prepared.rows) digest = HashCombine(digest, row.fingerprint);
  for (const Row& row : passes.front().rows) {
    digest = HashCombine(digest, row.fingerprint);
  }
  int attempted = prepared.attempted;
  int failed = prepared.failed;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    if (p.rows.size() != passes.front().rows.size()) {
      consistent = false;
      continue;
    }
    for (std::size_t i = 0; i < p.rows.size(); ++i) {
      consistent = consistent &&
                   p.rows[i].fingerprint == passes.front().rows[i].fingerprint;
    }
  }

  std::vector<const Pass*> traced, untraced;
  for (const Pass& p : passes) (p.traced ? traced : untraced).push_back(&p);
  const std::vector<Metric> metrics =
      o.trace ? PerLayer(traced, untraced, prepared) : EndToEnd(untraced);

  Json config = Json::Object();
  config.Set("engine", "serial");
  config.Set("quantum", static_cast<std::uint64_t>(kEngine.quantum));
  config.Set("host_threads", 1);
  config.Set("tjit", "on");
  config.Set("protocol", "mesi");
  config.Set("planner", "heuristic");

  Json rows = Json::Array();
  for (const Pass* p : {&prepared, &passes.front()}) {
    for (const Row& r : p->rows) {
      Json row = Json::Object();
      row.Set("name", r.name);
      row.Set("reference", p == &prepared);
      row.Set("cycles", r.cycles);
      row.Set("fingerprint", Hex(r.fingerprint));
      row.Set("verified", r.verified);
      rows.Append(std::move(row));
    }
  }
  Json pass_list = Json::Array();
  for (const Pass& p : passes) {
    Json entry = Json::Object();
    entry.Set("traced", p.traced);
    entry.Set("wall_s", p.wall());
    entry.Set("setup_s", p.setup());
    entry.Set("peak_rss_mb", p.peak_rss_mib);
    Json calib = Json::Array();
    for (const double c : p.calib) calib.Append(c);
    entry.Set("calib_s", std::move(calib));
    Json row_wall = Json::Array();
    for (const Row& r : p.rows) row_wall.Append(r.wall_s);
    entry.Set("row_wall_s", std::move(row_wall));
    pass_list.Append(std::move(entry));
  }
  Json result = Json::Object();
  result.Set("correct", failed == 0 && consistent);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", MetricsJson(metrics));

  Json report = Json::Object();
  report.Set("workload", o.workload);
  report.Set("seed", o.seed);
  report.Set("trace", o.trace);
  report.Set("config", std::move(config));
  report.Set("digest", Hex(digest));
  report.Set("passes", std::move(pass_list));
  report.Set("rows", std::move(rows));
  report.Set("result", std::move(result));
  WriteFile(o.report, report);
  if (o.trace && !o.spans.empty()) WriteFile(o.spans, SpansJson(passes));

  std::printf("workload %s seed %" PRIu64
              " engine serial@%" PRIu64 " host_threads 1 tjit on protocol "
              "mesi planner heuristic\n",
              o.workload.c_str(), o.seed,
              static_cast<std::uint64_t>(kEngine.quantum));
  std::printf("passes %zu (traced %zu) attempted %d failed %d consistent %s\n",
              passes.size(), traced.size(), attempted, failed,
              consistent ? "yes" : "no");
  std::printf("digest %s\n", Hex(digest).c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace cobra::perfbench

int main(int argc, char** argv) { return cobra::perfbench::Main(argc, argv); }
