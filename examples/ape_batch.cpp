/// ape_batch — batch estimation / synthesis over a spec file.
///
/// The service-shaped front end of the batch runtime (DESIGN.md §7):
/// reads opamp specs (one per line, `key=value` tokens), fans them
/// across the runtime::Executor pool with a shared estimate cache, and
/// emits per-job JSON plus aggregate throughput.
///
///   ape_batch                           # built-in Table-1 spec set
///   ape_batch --threads 8 specs.txt     # pooled synthesis batch
///   ape_batch --estimate-only specs.txt # APE estimates only (no anneal)
///   ape_batch --timeout-ms 500 --retries 2 specs.txt   # supervised run
///   ape_batch --checkpoint run.ckpt specs.txt          # checkpointed run
///   ape_batch --resume run.ckpt --checkpoint run.ckpt specs.txt
///   ape_batch --corners all --mc-samples 64 --yield    # PVT + MC yield
///
/// Corner sweeps (DESIGN.md §12): any of --corners/--mc-samples/--yield
/// switches to sweep mode — each spec's nominal design (the APE
/// estimate by default; --synthesize for a full supervised synthesis
/// pass, which also honours --timeout-ms/--retries/--checkpoint/
/// --resume) is evaluated across the selected PVT corners and, with
/// --mc-samples N, across N Pelgrom mismatch draws per corner, and the
/// per-job + pooled YieldReports (pass rates, worst corner, Wilson CI)
/// are emitted. --yield-weight W adds the worst-corner cost term to the
/// annealer in any synthesis mode.
///
/// Synthesis batches run under the supervised runtime (DESIGN.md §10):
/// --timeout-ms bounds each job's wall clock, --retries configures the
/// recovery ladder (N plain retries + 1 relaxed-tolerance retry + the
/// APE estimate-only fallback), --quarantine N trips the circuit breaker
/// after N consecutive failures of the same spec fingerprint, and
/// --checkpoint/--resume persist and restore finished jobs bit-exactly.
///
/// Spec file grammar (one spec per line, '#' starts a comment):
///
///   name=oa0 gain=200 ugf=1.3e6 ibias=1e-6 cload=10e-12
///   name=oa1 gain=500 source=wilson buffer=1 zout=1e3 area=5000e-12
///
/// Unknown keys are rejected; omitted keys keep OpAmpSpec defaults.
/// Output is a single JSON document on stdout (or --out FILE):
/// {"config":{...},"jobs":[...],"aggregate":{...}}.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/batch.h"
#include "src/runtime/cache.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/sweep.h"
#include "src/stat/corners.h"
#include "src/util/error.h"
#include "src/util/json.h"
#include "src/util/signal.h"

using namespace ape;

namespace {

struct NamedSpec {
  std::string name;
  est::OpAmpSpec spec;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "ape_batch: %s\n", msg.c_str());
  std::exit(2);
}

/// Parse one `key=value` token into \p out.
void apply_token(const std::string& tok, int line_no, NamedSpec& out) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos || eq == 0) {
    die("line " + std::to_string(line_no) + ": expected key=value, got '" +
        tok + "'");
  }
  const std::string key = tok.substr(0, eq);
  const std::string val = tok.substr(eq + 1);
  auto num = [&] {
    try {
      size_t used = 0;
      const double v = std::stod(val, &used);
      if (used != val.size()) throw std::invalid_argument(val);
      return v;
    } catch (const std::exception&) {
      die("line " + std::to_string(line_no) + ": bad number '" + val +
          "' for key '" + key + "'");
    }
  };
  if (key == "name") {
    out.name = val;
  } else if (key == "gain") {
    out.spec.gain = num();
  } else if (key == "ugf") {
    out.spec.ugf_hz = num();
  } else if (key == "ibias") {
    out.spec.ibias = num();
  } else if (key == "cload") {
    out.spec.cload = num();
  } else if (key == "zout") {
    out.spec.zout = num();
  } else if (key == "area") {
    out.spec.area_budget = num();
  } else if (key == "buffer") {
    out.spec.buffer = num() != 0.0;
  } else if (key == "source") {
    if (val == "mirror") {
      out.spec.source = est::CurrentSourceKind::Mirror;
    } else if (val == "wilson") {
      out.spec.source = est::CurrentSourceKind::Wilson;
    } else {
      die("line " + std::to_string(line_no) +
          ": source must be mirror|wilson, got '" + val + "'");
    }
  } else {
    die("line " + std::to_string(line_no) + ": unknown key '" + key + "'");
  }
}

std::vector<NamedSpec> read_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot open spec file '" + path + "'");
  std::vector<NamedSpec> specs;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string tok;
    NamedSpec ns;
    bool any = false;
    while (tokens >> tok) {
      apply_token(tok, line_no, ns);
      any = true;
    }
    if (!any) continue;
    if (ns.name.empty()) ns.name = "job" + std::to_string(specs.size());
    specs.push_back(std::move(ns));
  }
  if (specs.empty()) die("spec file '" + path + "' contains no specs");
  return specs;
}

std::vector<NamedSpec> builtin_specs() {
  std::vector<NamedSpec> specs;
  for (const auto& row : bench::table1_specs()) {
    specs.push_back({row.name, bench::to_spec(row)});
  }
  return specs;
}

/// Opens "aggregate" with what every mode reports (json.h to_json).
void open_aggregate(json::Writer& w, const runtime::BatchStats& stats,
                    const runtime::SupervisionStats& supervision) {
  w.key("aggregate").begin_object();
  stats.to_json(w);
  supervision.to_json(w);
}

/// The finished document to stdout, or to \p out_path when given.
void emit(const json::Writer& w, const std::string& out_path) {
  if (out_path.empty()) {
    std::printf("%s\n", w.str().c_str());
    return;
  }
  std::ofstream out(out_path);
  if (!out) die("cannot write '" + out_path + "'");
  out << w.str() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  runtime::BatchOptions options;
  options.synth.use_ape_seed = true;
  options.synth.anneal.iterations = 2000;
  bool estimate_only = false;
  std::string spec_path;
  std::string out_path;
  double timeout_ms = 0.0;
  int retries = 0;
  int quarantine_threshold = 0;  // 0 = quarantine disabled
  std::string checkpoint_path;
  int checkpoint_every = 1;
  std::string resume_path;
  std::string corners_sel;       // --corners (empty = no sweep)
  int mc_samples = 0;            // --mc-samples
  bool yield_flag = false;       // --yield (sweep with default corners)
  bool sweep_synthesize = false; // --synthesize (sweep nominal pass)
  double yield_weight = 0.0;     // --yield-weight (annealer corner term)

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--threads") {
      options.threads = std::atoi(next().c_str());
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--iters") {
      options.synth.anneal.iterations = std::atoi(next().c_str());
    } else if (arg == "--restarts") {
      options.synth.restarts = std::atoi(next().c_str());
    } else if (arg == "--blind") {
      options.synth.use_ape_seed = false;
    } else if (arg == "--estimate-only") {
      estimate_only = true;
    } else if (arg == "--timeout-ms") {
      timeout_ms = std::atof(next().c_str());
    } else if (arg == "--retries") {
      retries = std::atoi(next().c_str());
    } else if (arg == "--quarantine") {
      quarantine_threshold = std::atoi(next().c_str());
    } else if (arg == "--checkpoint") {
      checkpoint_path = next();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = std::atoi(next().c_str());
    } else if (arg == "--resume") {
      resume_path = next();
    } else if (arg == "--corners") {
      corners_sel = next();
    } else if (arg == "--mc-samples") {
      mc_samples = std::atoi(next().c_str());
    } else if (arg == "--yield") {
      yield_flag = true;
    } else if (arg == "--synthesize") {
      sweep_synthesize = true;
    } else if (arg == "--yield-weight") {
      yield_weight = std::atof(next().c_str());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: ape_batch [--threads N] [--seed S] [--iters N]\n"
          "                 [--restarts M] [--blind] [--estimate-only]\n"
          "                 [--timeout-ms T] [--retries N] [--quarantine N]\n"
          "                 [--checkpoint FILE] [--checkpoint-every N]\n"
          "                 [--resume FILE]\n"
          "                 [--corners all|tm,ws,...] [--mc-samples N]\n"
          "                 [--yield] [--synthesize] [--yield-weight W]\n"
          "                 [--out FILE] [specfile]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      die("unknown option '" + arg + "' (see --help)");
    } else {
      spec_path = arg;
    }
  }
  if (estimate_only &&
      (!checkpoint_path.empty() || !resume_path.empty())) {
    die("--checkpoint/--resume apply to synthesis batches only");
  }

  const std::vector<NamedSpec> named =
      spec_path.empty() ? builtin_specs() : read_spec_file(spec_path);
  std::vector<est::OpAmpSpec> specs;
  specs.reserve(named.size());
  for (const auto& ns : named) specs.push_back(ns.spec);

  const est::Process proc = est::Process::default_1u2();
  runtime::EstimateCache cache;
  options.cache = &cache;

  const bool sweep_mode = !corners_sel.empty() || mc_samples > 0 || yield_flag;
  stat::CornerSet corner_set;
  if (sweep_mode || yield_weight > 0.0) {
    try {
      corner_set =
          stat::CornerSet::parse(corners_sel.empty() ? "all" : corners_sel);
    } catch (const Error& e) {
      die(e.what());
    }
  }
  if (yield_weight > 0.0) {
    // Worst-corner cost term in the annealer (any synthesis mode).
    options.synth.yield_weight = yield_weight;
    options.synth.corner_procs = corner_set.realize(proc);
  }

  json::Writer w;
  w.begin_object()
      .key("config")
      .begin_object()
      .field("jobs", specs.size())
      .field("seed", options.seed);
  if (sweep_mode) {
    if (estimate_only && sweep_synthesize) {
      die("--estimate-only and --synthesize conflict");
    }
    if (!sweep_synthesize && (!checkpoint_path.empty() || !resume_path.empty())) {
      die("--checkpoint/--resume in sweep mode require --synthesize");
    }
    runtime::SweepOptions sw;
    sw.supervisor.batch = options;
    sw.supervisor.job_timeout_s = timeout_ms / 1000.0;
    if (retries > 0) {
      sw.supervisor.retry.plain_retries = retries;
      sw.supervisor.retry.numeric_recovery_retries = 1;
      sw.supervisor.retry.relaxed_retries = 1;
      sw.supervisor.retry.estimate_fallback = true;
    }
    runtime::QuarantineRegistry sweep_quarantine;
    if (quarantine_threshold > 0) {
      sw.supervisor.quarantine = &sweep_quarantine;
      sw.supervisor.quarantine_threshold = quarantine_threshold;
    }
    sw.supervisor.checkpoint_path = checkpoint_path;
    sw.supervisor.checkpoint_every = checkpoint_every > 0 ? checkpoint_every : 1;
    sw.supervisor.resume_path = resume_path;
    static CancelToken sweep_interrupt;
    util::install_cancel_on_signal(sweep_interrupt);
    sw.supervisor.cancel = &sweep_interrupt;
    sw.corners = corner_set;
    sw.mc_samples = mc_samples;
    sw.synthesize = sweep_synthesize;

    runtime::SweepResult r;
    try {
      r = mc_samples > 0 ? runtime::run_monte_carlo(proc, specs, sw)
                         : runtime::run_corner_sweep(proc, specs, sw);
    } catch (const Error& e) {
      die(e.what());
    }

    w.field("mc_samples", r.samples_per_corner)
        .field("corners", sw.corners.names())
        .field("mode", sweep_synthesize ? "sweep-synthesize" : "sweep-estimate")
        .end_object()
        .key("jobs")
        .begin_array();
    for (size_t i = 0; i < r.jobs.size(); ++i) {
      const auto& j = r.jobs[i];
      w.begin_object()
          .field("name", named[i].name)
          .field("index", j.index)
          .field("ok", j.ok);
      if (j.ok) {
        const auto ci = j.report.ci();
        w.field("yield", j.report.yield())
            .field("ci_lo", ci.lo)
            .field("ci_hi", ci.hi)
            .field("samples", j.report.total.samples)
            .field("passes", j.report.total.pass)
            .field("worst_corner", j.report.worst_corner_name())
            .field("corner_estimate_ok",
                   runtime::corner_flags(j.corner_estimate_ok))
            .field("report", j.report);
      } else {
        w.field("error", j.error);
      }
      w.end_object();
    }
    w.end_array();
    open_aggregate(w, r.stats, r.supervision);
    const auto ci = r.aggregate.ci();
    w.field("yield", r.aggregate.yield())
        .field("ci_lo", ci.lo)
        .field("ci_hi", ci.hi)
        .field("yield_samples", r.aggregate.total.samples)
        .field("yield_passes", r.aggregate.total.pass)
        .field("worst_corner", r.aggregate.worst_corner_name())
        .field("samples_per_corner", r.samples_per_corner)
        .end_object()
        .end_object();

    emit(w, out_path);
    if (!out_path.empty()) {
      std::fprintf(stderr,
                   "ape_batch: wrote %s (%d jobs x %zu corners x %d samples, "
                   "yield %.1f%%)\n",
                   out_path.c_str(), r.stats.jobs, sw.corners.size(),
                   r.samples_per_corner, 100.0 * r.aggregate.yield());
    }
    if (util::last_signal() != 0) return 130;
    return r.stats.failed == 0 ? 0 : 1;
  }

  w.field("iterations", options.synth.anneal.iterations)
      .field("restarts", options.synth.restarts)
      .field("mode", estimate_only ? "estimate" : "synthesize")
      .end_object()
      .key("jobs")
      .begin_array();

  runtime::BatchStats stats;
  runtime::SupervisionStats supervision;
  if (estimate_only) {
    const auto r = runtime::estimate_opamp_batch(proc, specs, options);
    stats = r.stats;
    for (size_t i = 0; i < r.jobs.size(); ++i) {
      const auto& j = r.jobs[i];
      w.begin_object()
          .field("name", named[i].name)
          .field("index", j.index)
          .field("ok", j.ok);
      if (j.ok) {
        j.outcome->perf.to_json(w);
      } else {
        w.field("error", j.error);
      }
      w.end_object();
    }
  } else {
    runtime::SupervisorOptions sup;
    sup.batch = options;
    sup.job_timeout_s = timeout_ms / 1000.0;
    if (retries > 0) {
      sup.retry.plain_retries = retries;
      sup.retry.numeric_recovery_retries = 1;
      sup.retry.relaxed_retries = 1;
      sup.retry.estimate_fallback = true;
    }
    runtime::QuarantineRegistry quarantine;
    if (quarantine_threshold > 0) {
      sup.quarantine = &quarantine;
      sup.quarantine_threshold = quarantine_threshold;
    }
    sup.checkpoint_path = checkpoint_path;
    sup.checkpoint_every = checkpoint_every > 0 ? checkpoint_every : 1;
    sup.resume_path = resume_path;

    // SIGINT/SIGTERM trip the run's CancelToken instead of killing the
    // process: in-flight jobs stop at their next probe, the supervisor
    // writes its final checkpoint (cancelled jobs recorded unfinished,
    // so --resume re-runs exactly those), and we exit 130 below. A
    // second signal falls through to the default disposition.
    static CancelToken interrupt;
    util::install_cancel_on_signal(interrupt);
    sup.cancel = &interrupt;

    const auto r = runtime::run_supervised_opamp_batch(proc, specs, sup);
    stats = r.stats;
    supervision = r.supervision;
    for (size_t i = 0; i < r.jobs.size(); ++i) {
      const auto& j = r.jobs[i];
      w.begin_object()
          .field("name", named[i].name)
          .field("index", j.index)
          .field("attempts", j.attempts)
          .field("rung", to_string(j.final_rung))
          .field("deadline_hit", j.deadline_hit)
          .field("quarantined", j.quarantined)
          .field("resumed", j.resumed)
          .field("estimate_fallback", j.estimate_fallback)
          .field("ok", j.ok);
      if (j.ok) {
        const synth::SynthesisOutcome& o = j.outcome;
        w.field("meets_spec", o.meets_spec)
            .field("sim_failed", o.sim_failed)
            .field("comment", o.comment)
            .field("cost", o.cost)
            .field("evaluations", o.evaluations)
            .field("skipped_candidates", o.skipped_candidates)
            .field("bias_stage_solves", o.bias_stages.solved)
            .field("bias_stage_reuses", o.bias_stages.reused)
            .field("sim_gain", o.sim.gain)
            .field("sim_ugf_hz", o.sim.ugf_hz.value_or(0.0))
            .field("gate_area", o.design.perf.gate_area)
            .field("cpu_seconds", o.cpu_seconds);
      } else {
        w.field("error", j.error);
      }
      w.end_object();
    }
  }
  w.end_array();
  open_aggregate(w, stats, supervision);
  w.end_object().end_object();

  emit(w, out_path);
  if (!out_path.empty()) {
    std::fprintf(stderr, "ape_batch: wrote %s (%d jobs, %.2f jobs/s)\n",
                 out_path.c_str(), stats.jobs, stats.jobs_per_second);
  }
  if (util::last_signal() != 0) {
    std::fprintf(stderr,
                 "ape_batch: interrupted by signal %d after %d cancelled "
                 "job(s)%s\n",
                 util::last_signal(), supervision.cancelled_jobs,
                 checkpoint_path.empty()
                     ? ""
                     : ("; resume with --resume " + checkpoint_path).c_str());
    return 130;
  }
  return stats.failed == 0 ? 0 : 1;
}
