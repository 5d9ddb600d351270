#include "src/serve/server.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/lint/prove.h"
#include "src/runtime/sweep.h"
#include "src/spice/analysis.h"
#include "src/spice/parser.h"
#include "src/stat/corners.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"

namespace ape::serve {
namespace {

void append_kv(std::string& json, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", key, v);
  json += buf;
}

void append_kv(std::string& json, const char* key, long v) {
  json += ",\"";
  json += key;
  json += "\":";
  json += std::to_string(v);
}

void append_kv(std::string& json, const char* key, bool v) {
  json += ",\"";
  json += key;
  json += "\":";
  json += v ? "true" : "false";
}

void append_perf(std::string& json, const est::OpAmpPerf& p) {
  json += ",\"perf\":{";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "\"gain\":%.17g,\"ugf_hz\":%.17g,\"phase_margin\":%.17g,"
                "\"dc_power\":%.17g,\"gate_area\":%.17g,\"slew\":%.17g,"
                "\"cmrr_db\":%.17g,\"zout\":%.17g",
                p.gain, p.ugf_hz, p.phase_margin, p.dc_power, p.gate_area,
                p.slew, p.cmrr_db, p.zout);
  json += buf;
  json += '}';
}

}  // namespace

std::string ServerStats::summary() const {
  std::ostringstream os;
  os << "serve: connections=" << connections_opened
     << " (rejected=" << connections_rejected << ") requests=" << requests
     << " accepted=" << accepted << " ok=" << completed_ok
     << " degraded=" << degraded << " shed=" << shed_overload + shed_quota +
     shed_draining << " (overload=" << shed_overload << " quota=" << shed_quota
     << " draining=" << shed_draining << ") errors=" << errors
     << " malformed=" << malformed_frames << " framing=" << framing_errors
     << " deadline_hits=" << deadline_hits << " cancelled=" << cancelled
     << " quarantine_hits=" << quarantine_hits
     << " numeric_recoveries=" << numeric_recoveries
     << " refinement_solves=" << refinement_solves
     << " proven_infeasible=" << proven_infeasible
     << " peak_in_flight=" << peak_in_flight;
  return os.str();
}

/// One client connection: its fd, reader thread and admission ledger.
struct Server::Connection {
  int fd = -1;
  std::thread reader;
  std::atomic<bool> done{false};
  int admitted = 0;  ///< requests admitted on this connection (quota)
};

Server::Server(const est::Process& proc, ServeOptions options)
    : proc_(proc),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {
  if (options_.socket_path.empty()) {
    throw SpecError("serve: socket_path is required");
  }
  if (options_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw SpecError("serve: socket path too long for AF_UNIX");
  }
  options_.max_in_flight = std::max(options_.max_in_flight, 1);
  options_.queue_slots = std::max(options_.queue_slots, 0);
  options_.max_connections = std::max(options_.max_connections, 1);
  options_.max_deadline_s =
      options_.max_deadline_s > 0.0 ? options_.max_deadline_s : 10.0;

  listen_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw Error(std::string("serve: socket(): ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead run
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    throw Error("serve: bind('" + options_.socket_path + "'): " + err);
  }
  if (listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    throw Error("serve: listen(): " + err);
  }
  executor_ = std::make_unique<runtime::Executor>(options_.max_in_flight);
}

Server::~Server() {
  request_drain();
  close_listener();
  drain_cancel_.cancel();
  begin_connection_shutdown();
  reap_finished_connections(/*join_all=*/true);
  ::unlink(options_.socket_path.c_str());
}

void Server::request_drain() {
  draining_.store(true, std::memory_order_release);
}

void Server::close_listener() {
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::begin_connection_shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& conn : connections_) {
    if (!conn->done.load(std::memory_order_acquire) && conn->fd >= 0) {
      // Half-close: the reader sees EOF after its current frame, but the
      // write side stays open so the in-flight response still lands.
      shutdown(conn->fd, SHUT_RD);
    }
  }
}

void Server::reap_finished_connections(bool join_all) {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if (join_all || (*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside mu_: a reader thread may be taking mu_ for stats.
  for (auto& conn : finished) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->fd >= 0) close(conn->fd);
  }
}

int Server::serve_forever(int wake_fd) {
  accept_loop(wake_fd);
  close_listener();

  // Drain phase 1: half-close every connection and give in-flight work
  // the grace window to finish naturally.
  begin_connection_shutdown();
  const double grace_deadline = now_seconds() + options_.drain_grace_s;
  auto connections_alive = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : connections_) {
      if (!conn->done.load(std::memory_order_acquire)) return true;
    }
    return false;
  };
  while (connections_alive() && now_seconds() < grace_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    reap_finished_connections(false);
  }

  // Drain phase 2: the grace expired — fire the drain token. Every
  // request budget is attached to it, so remaining jobs resolve at their
  // next cooperative probe and their connections answer then exit.
  if (connections_alive()) {
    drain_cancel_.cancel();
    const double hard_deadline =
        now_seconds() + options_.max_deadline_s + options_.drain_grace_s;
    while (connections_alive() && now_seconds() < hard_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      reap_finished_connections(false);
    }
  }

  reap_finished_connections(/*join_all=*/true);
  ::unlink(options_.socket_path.c_str());

  const ServerStats final_stats = stats();
  const runtime::CacheStats cs = cache_.stats();
  std::fprintf(stderr, "%s\n", final_stats.summary().c_str());
  std::fprintf(stderr,
               "serve: cache hits=%ld misses=%ld evictions=%ld entries=%ld "
               "quarantined=%zu\n",
               cs.hits, cs.misses, cs.evictions, cs.entries,
               quarantine_.quarantined_count());
  return 0;
}

void Server::accept_loop(int wake_fd) {
  while (!draining()) {
    pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_fd;
    fds[1].events = POLLIN;
    const nfds_t nfds = wake_fd >= 0 ? 2 : 1;
    const int rc = poll(fds, nfds, /*timeout_ms=*/100);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: drain flag checked above
      break;
    }
    reap_finished_connections(false);
    if (rc == 0) continue;
    if (wake_fd >= 0 && (fds[1].revents & POLLIN) != 0) {
      request_drain();
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    bool reject = draining();
    if (!reject) {
      std::lock_guard<std::mutex> lock(mu_);
      reject = connections_.size() >=
               static_cast<size_t>(options_.max_connections);
    }
    if (reject) {
      // Over the connection limit (or drain raced the accept): answer
      // the first frame with a shed so the client sees a decision, not
      // a silent hangup... except we have not read a request yet, so the
      // honest signal is an immediate close.
      close(fd);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.connections_rejected;
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.connections_opened;
      connections_.push_back(std::move(conn));
    }
    raw->reader = std::thread([this, raw] { handle_connection(raw); });
  }
}

void Server::handle_connection(Connection* conn) {
  for (;;) {
    std::string payload;
    const FrameStatus status =
        read_frame(conn->fd, &payload, options_.max_frame_bytes);
    if (status == FrameStatus::Eof) break;
    if (status == FrameStatus::Truncated || status == FrameStatus::IoError) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.framing_errors;
      break;
    }
    if (status == FrameStatus::Oversized || status == FrameStatus::BadLength) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.framing_errors;
      }
      // The stream cannot be re-aligned (we refuse to skip an oversized
      // payload); tell the client why, then close.
      write_frame(conn->fd,
                  error_response("", std::string("frame rejected: ") +
                                         to_string(status)));
      break;
    }

    std::string response;
    Request req;
    bool parsed = false;
    try {
      req = parse_request(payload);
      parsed = true;
    } catch (const Error& e) {
      // Malformed payload inside an intact frame: the connection state
      // is uncorrupted (framing kept the stream aligned), so answer the
      // error and keep serving this client.
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.malformed_frames;
      ++stats_.errors;
      response = error_response("", e.what());
    }
    if (parsed) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.requests;
      }
      response = dispatch(*conn, req);
    }
    if (!write_frame(conn->fd, response)) break;  // client vanished
  }
  conn->done.store(true, std::memory_order_release);
}

Server::Admission Server::admit_heavy() {
  // load_ counts admitted-but-unfinished heavy jobs. Full service while
  // a pool worker is free; the queue band answers degraded (synthesize)
  // or queues (simulate); past the band, shed.
  int load = load_.load(std::memory_order_relaxed);
  for (;;) {
    if (load >= options_.max_in_flight + options_.queue_slots) {
      return Admission::Shed;
    }
    if (load_.compare_exchange_weak(load, load + 1,
                                    std::memory_order_relaxed)) {
      break;  // `load` holds the pre-increment value we won with
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.peak_in_flight = std::max<long>(stats_.peak_in_flight, load + 1);
  }
  return load < options_.max_in_flight ? Admission::Full : Admission::Degraded;
}

std::string Server::dispatch(Connection& conn, const Request& req) {
  if (req.kind == RequestKind::Ping) {
    return response_head(req.id, "ok", false) + ",\"pong\":true}";
  }
  if (req.kind == RequestKind::Stats) {
    return stats_response(req);
  }

  if (draining()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shed_draining;
    return shed_response(req.id, "draining");
  }
  if (options_.quota_per_conn > 0 && conn.admitted >= options_.quota_per_conn) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shed_quota;
    return shed_response(req.id, "quota");
  }

  switch (req.kind) {
    case RequestKind::Estimate: {
      ++conn.admitted;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.accepted;
      }
      return run_estimate(req, /*degraded=*/false);
    }
    case RequestKind::Synthesize:
      return run_synthesize(conn, req);
    case RequestKind::Simulate:
      return run_simulate(conn, req);
    case RequestKind::CornerSweep:
      return run_corner_sweep(conn, req);
    default:
      return error_response(req.id, "unhandled op");
  }
}

/// Deadline for \p req in seconds: the client ask capped by the server
/// maximum, never unbounded.
static double request_deadline_s(const Request& req, const ServeOptions& o) {
  const double asked = req.timeout_ms > 0.0 ? req.timeout_ms / 1000.0 : 0.0;
  return asked > 0.0 ? std::min(asked, o.max_deadline_s) : o.max_deadline_s;
}

std::string Server::run_estimate(const Request& req, bool degraded) {
  RunBudget budget = RunBudget::with_deadline(request_deadline_s(req, options_));
  budget.attach_cancel(&drain_cancel_);
  ScopedJobBudget ambient(budget);
  ErrorContext scope("serve[estimate]");
  try {
    const std::shared_ptr<const est::OpAmpDesign> design =
        cache_.opamp(proc_, req.spec);
    std::string json = response_head(req.id, "ok", degraded);
    append_perf(json, design->perf);
    json += '}';
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed_ok;
    if (degraded) ++stats_.degraded;
    return json;
  } catch (const Error& e) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.errors;
    return error_response(req.id, e.what());
  }
}

std::string Server::run_synthesize(Connection& conn, const Request& req) {
  // Feasibility pre-admission (APE-F, src/lint/prove.h): when interval
  // bounds over the whole sizing box prove the spec unreachable, the
  // request is answered *now* — microseconds, on the connection thread,
  // no executor slot, no synthesis budget — with the proof attached.
  const lint::FeasibilityProof proof = [&] {
    lint::ProveOptions po;
    po.contraction_segments = 0;  // global check only; admission is hot
    return lint::prove_opamp_feasibility(proc_, req.spec, po);
  }();
  if (proof.infeasible) {
    std::string json = response_head(req.id, "infeasible", false);
    json += ",\"proof\":" + proof.report.to_json();
    json += '}';
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.proven_infeasible;
    return json;
  }

  const Admission admission = admit_heavy();
  if (admission == Admission::Shed) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shed_overload;
    return shed_response(req.id, "overload");
  }
  ++conn.admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.accepted;
  }
  if (admission == Admission::Degraded) {
    // Saturated: answer now with the cheap analytic estimate instead of
    // queueing expensive synthesis — the paper's estimate-for-simulation
    // trade as a shedding discipline.
    load_.fetch_sub(1, std::memory_order_relaxed);
    return run_estimate(req, /*degraded=*/true);
  }

  const double deadline_abs =
      now_seconds() + request_deadline_s(req, options_);
  const uint64_t ordinal =
      request_ordinal_.fetch_add(1, std::memory_order_relaxed);
  std::future<std::string> result = executor_->submit([this, req, deadline_abs,
                                                       ordinal, proof] {
    ErrorContext scope("serve[synthesize#" + std::to_string(ordinal) + "]");
    const double remaining = deadline_abs - now_seconds();
    if (remaining <= 0.002 || drain_cancel_.cancelled()) {
      // Spent its whole deadline queued (or the drain fired): the honest
      // cheap answer is the analytic estimate, marked degraded.
      return run_estimate(req, /*degraded=*/true);
    }

    runtime::SupervisorOptions sup;
    sup.batch.threads = 1;
    sup.batch.seed = req.seed != 0 ? req.seed : options_.seed;
    sup.batch.cache = &cache_;
    sup.batch.synth.use_ape_seed = true;
    sup.batch.synth.anneal.iterations =
        req.iterations > 0
            ? std::min(req.iterations, options_.synth_iterations_cap)
            : options_.synth_iterations;
    // Admission already proved the spec feasible; hand the proof's box
    // and cost floor to the annealer (see SynthesisOptions).
    sup.batch.synth.feasible_box = proof.feasible_box;
    sup.batch.synth.cost_lower_bound = proof.cost_lower_bound;
    sup.retry.plain_retries = std::max(options_.retries, 0);
    sup.retry.numeric_recovery_retries = 1;
    sup.retry.relaxed_retries = 1;
    sup.retry.estimate_fallback = true;
    sup.job_timeout_s = remaining;
    sup.cancel = &drain_cancel_;
    sup.quarantine = &quarantine_;
    sup.quarantine_threshold = options_.quarantine_threshold;

    const runtime::OpAmpJobResult r =
        runtime::run_supervised_opamp_job(proc_, req.spec, sup, ordinal);

    if (r.cancelled) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cancelled;
      ++stats_.shed_draining;
      return shed_response(req.id, "draining");
    }
    if (r.quarantined) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.quarantine_hits;
      ++stats_.errors;
      return error_response(req.id, r.error);
    }
    if (!r.ok && r.deadline_hit) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.deadline_hits;
      }
      // No usable attempt inside the deadline — fall back to the
      // analytic estimate rather than failing the client.
      return run_estimate(req, /*degraded=*/true);
    }
    if (!r.ok) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.errors;
      return error_response(req.id, r.error);
    }

    const synth::SynthesisOutcome& o = r.outcome;
    std::string json = response_head(req.id, "ok", r.estimate_fallback);
    append_kv(json, "deadline_hit", r.deadline_hit);
    append_kv(json, "attempts", static_cast<long>(r.attempts));
    json += ",\"rung\":\"";
    json += to_string(r.final_rung);
    json += '"';
    append_kv(json, "meets_spec", o.meets_spec);
    append_kv(json, "sim_failed", o.sim_failed);
    append_kv(json, "cost", o.cost);
    append_kv(json, "evaluations", static_cast<long>(o.evaluations));
    json += ",\"comment\":\"" + json::escape(o.comment) + "\"";
    append_perf(json, o.design.perf);
    json += '}';
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed_ok;
    if (r.estimate_fallback) ++stats_.degraded;
    if (r.deadline_hit) ++stats_.deadline_hits;
    if (r.final_rung == RetryRung::NumericRecovery) ++stats_.numeric_recoveries;
    return json;
  });

  std::string response;
  try {
    response = result.get();
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.errors;
    }
    response = error_response(req.id, e.what());
  }
  load_.fetch_sub(1, std::memory_order_relaxed);
  return response;
}

std::string Server::run_simulate(Connection& conn, const Request& req) {
  const Admission admission = admit_heavy();
  if (admission == Admission::Shed) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shed_overload;
    return shed_response(req.id, "overload");
  }
  ++conn.admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.accepted;
  }
  // Simulation has no analytic degraded form: the queue band queues it
  // (its deadline keeps ticking, so a long wait degrades into a shed).
  const double deadline_abs =
      now_seconds() + request_deadline_s(req, options_);
  std::future<std::string> result = executor_->submit([this, req,
                                                       deadline_abs] {
    ErrorContext scope("serve[simulate]");
    const double remaining = deadline_abs - now_seconds();
    if (remaining <= 0.002 || drain_cancel_.cancelled()) {
      const bool draining = drain_cancel_.cancelled();
      std::lock_guard<std::mutex> lock(mu_);
      if (draining) {
        ++stats_.cancelled;
        ++stats_.shed_draining;
      } else {
        ++stats_.deadline_hits;
        ++stats_.shed_overload;
      }
      return shed_response(req.id, draining ? "draining" : "overload");
    }
    RunBudget budget = RunBudget::with_deadline(remaining);
    budget.attach_cancel(&drain_cancel_);
    ScopedJobBudget ambient(budget);
    try {
      spice::Circuit ckt = spice::parse_netlist(req.netlist);
      ConvergenceReport report;
      spice::DcOptions opts;
      opts.report = &report;
      spice::Solution sol;
      bool recovery_rung = false;
      try {
        sol = spice::dc_operating_point(ckt, opts);
      } catch (const NumericError&) {
        // The request-level NumericRecovery rung (DESIGN.md section 15):
        // one re-run under forced numerical health — equilibration,
        // condition estimation and iterative refinement on every solve —
        // before failing the client, mirroring the batch ladder.
        ScopedNumericHealthMode force(NumericHealthMode::Force);
        sol = spice::dc_operating_point(ckt, opts);
        recovery_rung = true;
      }
      // A request counts as a numeric recovery when any rung of the
      // DESIGN.md section 15 ladder fired on its behalf: the in-kernel
      // escalation (equilibrate-and-refactorize), the request-level
      // Force re-run above, or — the ladder's first rung — refinement
      // itself, which under ambient Auto mode only engages after pivot
      // growth or the condition estimate crossed the health thresholds.
      long recoveries =
          report.kernel.numeric_recoveries + (recovery_rung ? 1 : 0);
      if (recoveries == 0 && report.kernel.refinement_solves > 0) {
        recoveries = 1;
      }
      std::string json = response_head(req.id, "ok", false);
      append_kv(json, "converged", report.converged);
      append_kv(json, "newton_iterations", report.newton_iterations);
      append_kv(json, "numeric_recoveries", recoveries);
      append_kv(json, "refinement_solves", report.kernel.refinement_solves);
      append_kv(json, "equilibrated_solves", report.kernel.equilibrated_solves);
      json += ",\"nodes\":{";
      for (size_t n = 0; n < ckt.num_nodes(); ++n) {
        if (n != 0) json += ',';
        char buf[64];
        std::snprintf(buf, sizeof buf, "\"%s\":%.17g",
                      json::escape(ckt.node_name(static_cast<int>(n))).c_str(),
                      sol.at(static_cast<int>(n)));
        json += buf;
      }
      json += "}}";
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.completed_ok;
      stats_.numeric_recoveries += recoveries;
      stats_.refinement_solves += report.kernel.refinement_solves;
      return json;
    } catch (const Error& e) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.errors;
      if (budget.exhausted() && !budget.cancelled()) ++stats_.deadline_hits;
      if (budget.cancelled()) ++stats_.cancelled;
      return error_response(req.id, e.what());
    }
  });

  std::string response;
  try {
    response = result.get();
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.errors;
    }
    response = error_response(req.id, e.what());
  }
  load_.fetch_sub(1, std::memory_order_relaxed);
  return response;
}

std::string Server::run_corner_sweep(Connection& conn, const Request& req) {
  const Admission admission = admit_heavy();
  if (admission == Admission::Shed) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shed_overload;
    return shed_response(req.id, "overload");
  }
  ++conn.admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.accepted;
  }
  // A sweep has no cheap degraded form (its whole point is the grid),
  // so the queue band queues it like simulate; a long wait sheds.
  const double deadline_abs =
      now_seconds() + request_deadline_s(req, options_);
  const uint64_t ordinal =
      request_ordinal_.fetch_add(1, std::memory_order_relaxed);
  std::future<std::string> result = executor_->submit([this, req, deadline_abs,
                                                       ordinal] {
    ErrorContext scope("serve[corner_sweep#" + std::to_string(ordinal) + "]");
    const double remaining = deadline_abs - now_seconds();
    if (remaining <= 0.002 || drain_cancel_.cancelled()) {
      const bool draining = drain_cancel_.cancelled();
      std::lock_guard<std::mutex> lock(mu_);
      if (draining) {
        ++stats_.cancelled;
        ++stats_.shed_draining;
      } else {
        ++stats_.deadline_hits;
        ++stats_.shed_overload;
      }
      return shed_response(req.id, draining ? "draining" : "overload");
    }
    RunBudget budget = RunBudget::with_deadline(remaining);
    budget.attach_cancel(&drain_cancel_);
    ScopedJobBudget ambient(budget);
    try {
      runtime::SweepOptions sweep;
      // The sweep runs inside this executor slot: its internal fan-out
      // must not claim more workers or the daemon deadlocks under load.
      sweep.supervisor.batch.threads = 1;
      sweep.supervisor.batch.seed = req.seed != 0 ? req.seed : options_.seed;
      sweep.supervisor.batch.cache = &cache_;
      sweep.supervisor.cancel = &drain_cancel_;
      sweep.corners =
          stat::CornerSet::parse(req.corners.empty() ? "all" : req.corners);
      sweep.mc_samples = std::min(req.mc_samples, options_.mc_samples_cap);
      const std::vector<est::OpAmpSpec> specs{req.spec};
      const runtime::SweepResult r =
          sweep.mc_samples > 0 ? runtime::run_monte_carlo(proc_, specs, sweep)
                               : runtime::run_corner_sweep(proc_, specs, sweep);
      const runtime::SweepJobResult& job = r.jobs.at(0);
      if (!job.ok) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.errors;
        if (budget.cancelled()) ++stats_.cancelled;
        return error_response(req.id, job.error);
      }
      std::string json = response_head(req.id, "ok", false);
      json += ",\"corners\":\"";
      for (size_t c = 0; c < sweep.corners.size(); ++c) {
        if (c != 0) json += ',';
        json += sweep.corners[c].name;
      }
      json += '"';
      append_kv(json, "mc_samples", static_cast<long>(sweep.mc_samples));
      append_kv(json, "samples_per_corner",
                static_cast<long>(r.samples_per_corner));
      json += ",\"corner_estimate_ok\":\"";
      for (const uint8_t ok : job.corner_estimate_ok) json += ok ? '1' : '0';
      json += '"';
      json += ",\"corner_proven_infeasible\":\"";
      for (const uint8_t p : job.corner_proven_infeasible) json += p ? '1' : '0';
      json += '"';
      append_kv(json, "corners_pruned", static_cast<long>(r.corners_pruned));
      json += ",\"yield_report\":" + job.report.to_json();
      json += '}';
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.completed_ok;
      return json;
    } catch (const Error& e) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.errors;
      if (budget.exhausted() && !budget.cancelled()) ++stats_.deadline_hits;
      if (budget.cancelled()) ++stats_.cancelled;
      return error_response(req.id, e.what());
    }
  });

  std::string response;
  try {
    response = result.get();
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.errors;
    }
    response = error_response(req.id, e.what());
  }
  load_.fetch_sub(1, std::memory_order_relaxed);
  return response;
}

std::string Server::stats_response(const Request& req) const {
  const ServerStats s = stats();
  const runtime::CacheStats cs = cache_.stats();
  std::string json = response_head(req.id, "ok", false);
  append_kv(json, "connections_opened", s.connections_opened);
  append_kv(json, "connections_rejected", s.connections_rejected);
  append_kv(json, "requests", s.requests);
  append_kv(json, "accepted", s.accepted);
  append_kv(json, "completed_ok", s.completed_ok);
  append_kv(json, "degraded", s.degraded);
  append_kv(json, "shed_overload", s.shed_overload);
  append_kv(json, "shed_quota", s.shed_quota);
  append_kv(json, "shed_draining", s.shed_draining);
  append_kv(json, "errors", s.errors);
  append_kv(json, "malformed_frames", s.malformed_frames);
  append_kv(json, "framing_errors", s.framing_errors);
  append_kv(json, "deadline_hits", s.deadline_hits);
  append_kv(json, "cancelled", s.cancelled);
  append_kv(json, "quarantine_hits", s.quarantine_hits);
  append_kv(json, "numeric_recoveries", s.numeric_recoveries);
  append_kv(json, "refinement_solves", s.refinement_solves);
  append_kv(json, "proven_infeasible", s.proven_infeasible);
  append_kv(json, "peak_in_flight", s.peak_in_flight);
  append_kv(json, "in_flight", static_cast<long>(load()));
  append_kv(json, "draining", draining());
  append_kv(json, "cache_hits", cs.hits);
  append_kv(json, "cache_misses", cs.misses);
  append_kv(json, "cache_evictions", cs.evictions);
  append_kv(json, "cache_entries", cs.entries);
  append_kv(json, "quarantined_specs",
            static_cast<long>(quarantine_.quarantined_count()));
  json += '}';
  return json;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ape::serve
