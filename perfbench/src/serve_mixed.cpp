/// serve_mixed: an in-process serve::Server on a Unix socket with
/// max_in_flight = 2, and two serve::Client connections, each in a closed
/// loop (the next request goes out only after the previous reply). About
/// 84% of requests are `estimate` on a repeating spec pool (mostly cache
/// hits), 12% `synthesize` with 400 iterations, 3% `synthesize` on specs
/// whose area budget is below the minimum-geometry floor (refuted by the
/// prover at admission) and 1% `ping`. Transport, JSON handling and
/// admission dominate the estimate latency while synthesize jobs share
/// the executor: the ROADMAP's second end-to-end unit.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "src/estimator/verify.h"
#include "src/lint/prove.h"
#include "src/runtime/cache.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/util/error.h"
#include "src/util/json.h"
#include "trace.h"
#include "workload.h"
#include "workloads.h"

namespace perfbench {

using ape::est::OpAmpSpec;
using ape::est::Process;

namespace {

constexpr int kClients = 2;
constexpr int kSynthIterations = 400;
constexpr size_t kPool = 16;        // distinct specs behind the repeating requests
constexpr size_t kInfeasible = 4;   // distinct refuted specs
constexpr size_t kBlocks = 82;      // blocks of 100 requests per client; the loop wraps

enum class Kind { Estimate, Synthesize, Infeasible, Ping };
constexpr const char* kKindName[] = {"serve.estimate", "serve.synthesize",
                                     "serve.infeasible", "serve.ping"};

/// One block of 100 requests, interleaved evenly: estimates on the pool
/// (cache hits once warm), estimates on fresh specs (misses), synthesize,
/// refuted synthesize, ping.
constexpr size_t kBlockMix[] = {76, 8, 12, 3, 1};

struct Request {
  Kind kind = Kind::Ping;
  size_t spec = 0;   ///< index into Inputs::specs
  std::string json;  ///< the wire payload, rendered up front
};

struct Inputs {
  Process proc = Process::default_1u2();
  std::vector<OpAmpSpec> specs;  ///< pool, then refuted, then fresh ones
  std::vector<std::vector<Request>> requests;  ///< one list per client
  uint64_t seed = 1;
};

std::string render(const Request& q, const OpAmpSpec& spec, const std::string& id) {
  const std::string s = ape::serve::spec_to_json(spec);
  switch (q.kind) {
    case Kind::Estimate:
      return "{\"op\":\"estimate\",\"id\":\"" + id + "\",\"spec\":" + s + "}";
    case Kind::Synthesize:
    case Kind::Infeasible:
      return "{\"op\":\"synthesize\",\"id\":\"" + id + "\",\"iterations\":" +
             std::to_string(kSynthIterations) + ",\"spec\":" + s + "}";
    case Kind::Ping:
      break;
  }
  return "{\"op\":\"ping\",\"id\":\"" + id + "\"}";
}

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  in.seed = seed;
  SeedStream rng(seed);
  GenOptions g;
  g.perturb = 0.08;
  for (const OpAmpCase& c : gen_opamps(rng, kPool, g, in.proc)) {
    in.specs.push_back(c.spec);
  }
  GenOptions bad = g;
  bad.infeasible_share = 1.0;
  for (const OpAmpCase& c : gen_opamps(rng, kInfeasible, bad, in.proc)) {
    in.specs.push_back(c.spec);
  }
  const std::vector<size_t> block = interleave(
      std::vector<size_t>(std::begin(kBlockMix), std::end(kBlockMix)));
  const size_t n_fresh = kClients * kBlocks * kBlockMix[1];
  for (const OpAmpCase& c : gen_opamps(rng, n_fresh, g, in.proc)) {
    in.specs.push_back(c.spec);
  }
  size_t next_fresh = kPool + kInfeasible;
  for (int c = 0; c < kClients; ++c) {
    std::vector<Request> list;
    size_t pool = 0, synth = 0, refuted = 0;
    for (size_t n = 0; n < kBlocks * block.size(); ++n) {
      // The second client runs the same mix half a block out of phase.
      const size_t slot = block[(n + static_cast<size_t>(c) * 50) % block.size()];
      Request q;
      switch (slot) {
        case 0: q.kind = Kind::Estimate; q.spec = pool++ % kPool; break;
        case 1: q.kind = Kind::Estimate; q.spec = next_fresh++; break;
        case 2: q.kind = Kind::Synthesize; q.spec = (synth++ * 5) % kPool; break;
        case 3: q.kind = Kind::Infeasible; q.spec = kPool + refuted++ % kInfeasible; break;
        default: q.kind = Kind::Ping; break;
      }
      q.json = render(q, in.specs[q.spec],
                      "c" + std::to_string(c) + "-" + std::to_string(n));
      list.push_back(std::move(q));
    }
    in.requests.push_back(std::move(list));
  }
  return in;
}

/// The server on a background thread; the destructor drains and joins it.
/// Clients must be closed first (declare them after the daemon).
class Daemon {
public:
  Daemon(const Process& proc, const std::string& socket, uint64_t seed)
      : server_(proc, options(socket, seed)),
        runner_([this] { server_.serve_forever(); }) {}
  ~Daemon() {
    server_.request_drain();
    runner_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

private:
  static ape::serve::ServeOptions options(const std::string& socket,
                                          uint64_t seed) {
    ape::serve::ServeOptions o;
    o.socket_path = socket;
    o.max_in_flight = 2;
    o.seed = seed;
    // A synthesize whose final verification fails (seed-dependent, about
    // one in a thousand) spends all three retry attempts on it, which
    // reaches the default quarantine threshold of 3 at once and would
    // refuse that pool spec for the rest of the run. The reply itself is
    // answered (best-so-far, sim_failed) and counts against spec_met_ratio.
    o.quarantine_threshold = 1 << 30;
    return o;
  }
  ape::serve::Server server_;
  std::thread runner_;  // declared after server_, which it uses
};

/// One answered request.
struct Record {
  Kind kind = Kind::Ping;
  size_t spec = 0;
  double latency_us = 0.0;
  std::string response;
};

/// A `stats` snapshot (the fields the benchmark reads).
struct Stats {
  long accepted = 0, completed_ok = 0, cancelled = 0, errors = 0;
  long degraded = 0, shed = 0, proven_infeasible = 0, peak_in_flight = 0;
  long cache_hits = 0, cache_misses = 0;
};

Stats read_stats(ape::serve::Client& client) {
  const ape::json::Value v =
      ape::json::parse(client.call("{\"op\":\"stats\",\"id\":\"stats\"}"));
  // Look for numeric members only: the envelope's boolean "degraded"
  // precedes the counter of the same name.
  auto num = [&](const char* key) {
    for (const auto& [name, value] : v.members) {
      if (name == key && value.kind == ape::json::Value::Kind::Number) {
        return value.as_long();
      }
    }
    throw ape::ParseError(std::string("stats lacks ") + key);
  };
  Stats s;
  s.accepted = num("accepted");
  s.completed_ok = num("completed_ok");
  s.cancelled = num("cancelled");
  s.errors = num("errors");
  s.degraded = num("degraded");
  s.shed = num("shed_overload") + num("shed_quota") + num("shed_draining");
  s.proven_infeasible = num("proven_infeasible");
  s.peak_in_flight = num("peak_in_flight");
  s.cache_hits = num("cache_hits");
  s.cache_misses = num("cache_misses");
  return s;
}

/// Both clients in closed loops for \p seconds; with \p logs set, one
/// span per request. \p offset continues each client's request list.
std::vector<Record> closed_loops(const Inputs& in,
                                 std::vector<ape::serve::Client>& clients,
                                 double seconds, size_t* offset,
                                 std::vector<SpanLog>* logs, double* wall_s) {
  std::atomic<bool> stop{false};
  std::vector<std::vector<Record>> per_client(clients.size());
  std::vector<std::string> errors(clients.size());
  const size_t start = *offset;
  auto loop = [&](size_t c) {
    SpanLog* log = logs != nullptr ? &(*logs)[c] : nullptr;
    const std::vector<Request>& list = in.requests[c];
    try {
      for (size_t n = start; !stop.load(std::memory_order_relaxed); ++n) {
        const Request& q = list[n % list.size()];
        Record rec;
        rec.kind = q.kind;
        rec.spec = q.spec;
        const int64_t t0 = now_ns();
        {
          ScopedSpan span(log, kKindName[static_cast<int>(q.kind)],
                          static_cast<int32_t>(c * list.size() + n % list.size()));
          rec.response = clients[c].call(q.json);
        }
        rec.latency_us = double(now_ns() - t0) * 1e-3;
        per_client[c].push_back(std::move(rec));
      }
    } catch (const std::exception& e) {
      errors[c] = e.what();
    }
  };
  const int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) threads.emplace_back(loop, c);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  *wall_s = double(now_ns() - t0) * 1e-9;
  std::vector<Record> all;
  size_t longest = 0;
  for (size_t c = 0; c < clients.size(); ++c) {
    if (!errors[c].empty()) throw ape::Error("client " + std::to_string(c) + ": " + errors[c]);
    longest = std::max(longest, per_client[c].size());
    for (Record& rec : per_client[c]) all.push_back(std::move(rec));
  }
  *offset = start + longest;
  return all;
}

/// Checks every response against what its request expected; returns the
/// number of failures and fills the synthesis quality counts.
long check_responses(const Inputs& in, const std::vector<Record>& records,
                     std::map<size_t, ape::est::OpAmpPerf>& estimates,
                     long* synth_ok, long* synth_met, RunResult& r) {
  const ape::est::OpAmpEstimator oe(in.proc);
  long failed = 0;
  for (const Record& rec : records) {
    bool ok = false;
    try {
      const ape::json::Value v = ape::json::parse(rec.response);
      auto field = [](const ape::json::Value& obj, const char* key) -> const ape::json::Value& {
        const ape::json::Value* f = obj.find(key);
        if (f == nullptr) throw ape::ParseError(std::string("response lacks ") + key);
        return *f;
      };
      const std::string& status = field(v, "status").as_string();
      const bool degraded = field(v, "degraded").as_bool();
      switch (rec.kind) {
        case Kind::Estimate: {
          auto it = estimates.find(rec.spec);
          if (it == estimates.end()) {
            it = estimates.emplace(rec.spec, oe.estimate(in.specs[rec.spec]).perf).first;
          }
          ok = status == "ok" && !degraded;
          if (ok) {
            const ape::json::Value& perf = field(v, "perf");
            ok = field(perf, "gain").as_number() == it->second.gain &&
                 field(perf, "ugf_hz").as_number() == it->second.ugf_hz &&
                 field(perf, "dc_power").as_number() == it->second.dc_power;
          }
          break;
        }
        case Kind::Synthesize:
          ok = status == "ok" && !degraded;
          if (ok) {
            ++*synth_ok;
            if (field(v, "meets_spec").as_bool()) ++*synth_met;
          }
          break;
        case Kind::Infeasible:
          ok = status == "infeasible";
          break;
        case Kind::Ping:
          ok = status == "ok" && v.find("pong") != nullptr;
          break;
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) {
      if (failed == 0) r.check(false, "serve_mixed: unexpected response " + rec.response);
      ++failed;
    }
  }
  r.check(failed == 0, "serve_mixed: " + std::to_string(failed) + " unexpected responses");
  return failed;
}

std::vector<double> latencies(const std::vector<Record>& records, Kind kind) {
  std::vector<double> v;
  for (const Record& rec : records) {
    if (rec.kind == kind) v.push_back(rec.latency_us);
  }
  return v;
}

}  // namespace

RunResult run_serve_mixed(const Options& opts) {
  const int64_t g0 = now_ns();
  const Inputs in = make_inputs(opts.seed);
  const int64_t inputs_ns = now_ns() - g0;
  const std::string socket =
      opts.workdir + "/serve-" + std::to_string(::getpid()) + ".sock";
  Daemon daemon(in.proc, socket, in.seed);
  std::vector<ape::serve::Client> clients;
  ape::serve::ConnectOptions connect;
  connect.retries = 20;
  connect.backoff_ms = 2;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(socket, connect);
    (void)clients.back().call("{\"op\":\"ping\",\"id\":\"hello\"}");
  }
  if (opts.setup_probe) {
    report_ready(inputs_ns);
    return {};
  }
  RunResult r;
  std::printf("serve_mixed: %d closed-loop clients, max_in_flight 2, %zu specs "
              "generated\n", kClients, in.specs.size());

  const Stats before = read_stats(clients[0]);
  size_t offset = 0;
  double wall = 0.0;
  std::vector<Record> records = closed_loops(
      in, clients, opts.trace ? opts.seconds / 2 : opts.seconds, &offset,
      nullptr, &wall);
  const double untraced_rps = double(records.size()) / wall;

  std::vector<SpanLog> logs(kClients);
  std::vector<Record> traced;
  double traced_wall = 0.0;
  if (opts.trace) {
    traced = closed_loops(in, clients, opts.seconds / 2, &offset, &logs,
                          &traced_wall);
  }
  const Stats after = read_stats(clients[0]);

  std::map<size_t, ape::est::OpAmpPerf> estimates;
  long synth_ok = 0, synth_met = 0;
  long failed = check_responses(in, records, estimates, &synth_ok, &synth_met, r);
  failed += check_responses(in, traced, estimates, &synth_ok, &synth_met, r);
  r.attempted = static_cast<long>(records.size() + traced.size());
  r.failed = failed;
  r.check(after.accepted == after.completed_ok + after.cancelled + after.errors,
          "serve_mixed: accepted != completed_ok + cancelled + errors");
  r.check(after.errors == before.errors, "serve_mixed: server counted errors");

  const std::vector<double> est = latencies(records, Kind::Estimate);
  const std::vector<double> syn = latencies(records, Kind::Synthesize);
  std::vector<double> syn_ms;
  for (double us : syn) syn_ms.push_back(us * 1e-3);
  std::printf("%zu requests in %.2f s: %.1f requests/s\n", records.size(), wall,
              untraced_rps);
  print_latency("estimate round trip (us)", est, "us");
  print_latency("synthesize round trip (ms)", syn_ms, "ms");
  print_latency("refuted synthesize (us)", latencies(records, Kind::Infeasible), "us");
  print_latency("ping round trip (us)", latencies(records, Kind::Ping), "us");

  if (!opts.trace) {
    // Estimate-vs-simulation of the answers the pool requests received.
    std::vector<double> err_pct;
    const ape::est::OpAmpEstimator oe(in.proc);
    for (size_t i = 0; i < kPool; ++i) {
      const ape::est::OpAmpDesign d = oe.estimate(in.specs[i]);
      const ape::est::OpAmpSimReport sim = ape::est::simulate_opamp(d, in.proc, false);
      r.check(sim.ugf_hz.has_value(), "serve_mixed: pool design has no UGF");
      add_est_sim_error(err_pct, d.perf.gain, sim.gain);
      add_est_sim_error(err_pct, d.perf.ugf_hz, sim.ugf_hz.value_or(0.0));
      add_est_sim_error(err_pct, d.perf.dc_power, sim.power);
    }
    r.add("jobs_per_s", untraced_rps, "1/s");
    r.add("job_p50_ms", median(syn_ms), "ms");
    r.add("estimate_p50_us", median(est), "us");
    r.add("spec_met_ratio", synth_ok > 0 ? double(synth_met) / double(synth_ok) : 0.0,
          "ratio");
    r.add("est_sim_err_pct", median(err_pct), "%");
    return r;
  }

  // Per-layer figures from the traced half, plus in-process references
  // for the same calls the server makes.
  SpanLog spans;
  for (const SpanLog& l : logs) spans.merge(l);
  const auto layers = layer_times(spans);
  print_layer_table(layers);

  ape::runtime::EstimateCache local;  // hits the way the server's cache does
  std::vector<double> cached_us, cold_us, prove_us;
  const ape::est::OpAmpEstimator oe(in.proc);
  for (const Record& rec : traced) {
    if (rec.kind == Kind::Estimate) {
      int64_t t0 = now_ns();
      (void)local.opamp(in.proc, in.specs[rec.spec]);
      cached_us.push_back(double(now_ns() - t0) * 1e-3);
    }
  }
  for (size_t i = 0; i < in.specs.size(); ++i) {
    if (i >= kPool && i < kPool + kInfeasible) {
      ape::lint::ProveOptions po;
      po.contraction_segments = 0;  // the admission check
      const int64_t t0 = now_ns();
      (void)ape::lint::prove_opamp_feasibility(in.proc, in.specs[i], po);
      prove_us.push_back(double(now_ns() - t0) * 1e-3);
      continue;
    }
    const int64_t t0 = now_ns();
    (void)oe.estimate(in.specs[i]);
    cold_us.push_back(double(now_ns() - t0) * 1e-3);
  }
  const double attempted = double(std::max<size_t>(1, records.size() + traced.size()));
  const long hits = after.cache_hits - before.cache_hits;
  const long misses = after.cache_misses - before.cache_misses;
  const double traced_rps = double(traced.size()) / traced_wall;
  r.add("estimator.estimate_us", median(cold_us), "us");
  r.add("lint.prove_us", median(prove_us), "us");
  r.add("lint.refuted", double(after.proven_infeasible - before.proven_infeasible),
        "count");
  r.add("runtime.cache_hit_ratio",
        hits + misses > 0 ? double(hits) / double(hits + misses) : 0.0, "ratio");
  r.add("serve.ping_p50_us", median(latencies(traced, Kind::Ping)), "us");
  r.add("serve.overhead_us",
        median(latencies(traced, Kind::Estimate)) - median(cached_us), "us");
  r.add("serve.infeasible_p50_us", median(latencies(traced, Kind::Infeasible)), "us");
  r.add("serve.degraded_ratio", double(after.degraded - before.degraded) / attempted,
        "ratio");
  r.add("serve.shed_ratio", double(after.shed - before.shed) / attempted, "ratio");
  r.add("serve.proven_infeasible_ratio",
        double(after.proven_infeasible - before.proven_infeasible) / attempted, "ratio");
  r.add("serve.peak_in_flight", double(after.peak_in_flight), "count");
  r.add("trace.overhead_pct", 100.0 * (untraced_rps - traced_rps) / untraced_rps, "%");
  r.add("trace.spans", double(spans.spans().size()), "count");

  const std::string path = opts.workdir + "/spans-serve_mixed.jsonl";
  r.check(write_spans(spans, path), "cannot write " + path);
  return r;
}

}  // namespace perfbench
