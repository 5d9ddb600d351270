#include "src/serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

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

void ServerStats::to_json(json::Writer& w) const {
  w.field("connections_opened", connections_opened)
      .field("connections_rejected", connections_rejected)
      .field("requests", requests)
      .field("accepted", accepted)
      .field("completed_ok", completed_ok)
      .field("degraded", degraded)
      .field("shed_overload", shed_overload)
      .field("shed_quota", shed_quota)
      .field("shed_draining", shed_draining)
      .field("proven_infeasible", proven_infeasible)
      .field("errors", errors)
      .field("malformed_frames", malformed_frames)
      .field("framing_errors", framing_errors)
      .field("deadline_hits", deadline_hits)
      .field("cancelled", cancelled)
      .field("quarantine_hits", quarantine_hits)
      .field("numeric_recoveries", numeric_recoveries)
      .field("refinement_solves", refinement_solves)
      .field("peak_in_flight", peak_in_flight);
}

/// One client connection: its fd, reader thread and admission ledger.
struct Server::Connection {
  int fd = -1;
  std::thread reader;
  std::atomic<bool> done{false};
  int admitted = 0;  ///< requests admitted on this connection (quota)
};

/// How one admitted request ended: its response payload and the ledger
/// entry settle() makes for it. Every admitted request ends in exactly
/// one of completed_ok (Ok, Degraded), errors or cancelled.
struct Server::Answer {
  enum class Fate { Ok, Degraded, Error, Cancelled };
  std::string payload;
  Fate fate = Fate::Ok;
  bool deadline_hit = false;
};

Server::Answer Server::failure(const Request& req, const std::string& what) {
  return {error_response(req.id, what), Answer::Fate::Error};
}

template <class Edit>
void Server::tally(Edit edit) {
  std::lock_guard<std::mutex> lock(mu_);
  edit(stats_);
}

std::string Server::settle(Answer a) {
  tally([&a](ServerStats& s) {
    switch (a.fate) {
      case Answer::Fate::Degraded: ++s.degraded; [[fallthrough]];
      case Answer::Fate::Ok: ++s.completed_ok; break;
      case Answer::Fate::Error: ++s.errors; break;
      case Answer::Fate::Cancelled: ++s.cancelled; break;
    }
    if (a.deadline_hit) ++s.deadline_hits;
  });
  return std::move(a.payload);
}

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

  // Sleep and reap until every connection is done or \p seconds pass;
  // true when some connection is still alive.
  auto wait_for_connections = [this](double seconds) {
    const double deadline = now_seconds() + seconds;
    for (;;) {
      bool alive;
      {
        std::lock_guard<std::mutex> lock(mu_);
        alive = std::any_of(connections_.begin(), connections_.end(),
                            [](const auto& conn) {
                              return !conn->done.load(std::memory_order_acquire);
                            });
      }
      if (!alive || now_seconds() >= deadline) return alive;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      reap_finished_connections(false);
    }
  };

  // Drain phase 1: half-close every connection and give in-flight work
  // the grace window to finish naturally. Phase 2: the grace expired —
  // fire the drain token. Every request budget is attached to it, so
  // remaining jobs resolve at their next cooperative probe and their
  // connections answer then exit.
  begin_connection_shutdown();
  if (wait_for_connections(options_.drain_grace_s)) {
    drain_cancel_.cancel();
    wait_for_connections(options_.max_deadline_s + options_.drain_grace_s);
  }

  reap_finished_connections(/*join_all=*/true);
  ::unlink(options_.socket_path.c_str());

  // The final flush is the `stats` op's document.
  std::fprintf(stderr, "serve: %s\n", stats_response(Request{}).c_str());
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
    std::lock_guard<std::mutex> lock(mu_);
    if (draining() || connections_.size() >=
                          static_cast<size_t>(options_.max_connections)) {
      // Over the connection limit (or drain raced the accept): no request
      // has been read yet, so the honest signal is an immediate close.
      close(fd);
      ++stats_.connections_rejected;
      continue;
    }
    ++stats_.connections_opened;
    Connection* raw =
        connections_.emplace_back(std::make_unique<Connection>()).get();
    raw->fd = fd;
    raw->reader = std::thread([this, raw] { handle_connection(raw); });
  }
}

void Server::handle_connection(Connection* conn) {
  for (;;) {
    std::string payload;
    const FrameStatus status =
        read_frame(conn->fd, &payload, options_.max_frame_bytes);
    if (status == FrameStatus::Eof) break;
    if (status != FrameStatus::Ok) {
      tally([](ServerStats& s) { ++s.framing_errors; });
      // An oversized or zero-length frame cannot be re-aligned (we refuse
      // to skip an oversized payload): tell the client why, then close.
      if (status == FrameStatus::Oversized || status == FrameStatus::BadLength) {
        write_frame(conn->fd,
                    error_response("", std::string("frame rejected: ") +
                                           to_string(status)));
      }
      break;
    }

    Request req;
    try {
      req = parse_request(payload);
    } catch (const Error& e) {
      // Malformed payload inside an intact frame: the connection state
      // is uncorrupted (framing kept the stream aligned), so answer the
      // error and keep serving this client. It was never admitted, so it
      // stays out of the accepted ledger and its errors.
      tally([](ServerStats& s) { ++s.malformed_frames; });
      if (!write_frame(conn->fd, error_response("", e.what()))) break;
      continue;
    }
    tally([](ServerStats& s) { ++s.requests; });
    if (!write_frame(conn->fd, dispatch(*conn, req))) break;  // client gone
  }
  conn->done.store(true, std::memory_order_release);
}

Server::Admission Server::admit_heavy() {
  // load_ counts admitted-but-unfinished heavy jobs. Full service while
  // a pool worker is free; the queue band answers degraded (synthesize)
  // or queues (simulate, corner_sweep); past the band, shed.
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
  tally([load](ServerStats& s) {
    s.peak_in_flight = std::max<long>(s.peak_in_flight, load + 1);
  });
  return load < options_.max_in_flight ? Admission::Full : Admission::Degraded;
}

std::string Server::dispatch(Connection& conn, const Request& req) {
  if (req.kind == RequestKind::Ping) {
    json::Writer w = response(req.id, "ok", false);
    return w.field("pong", true).end_object().str();
  }
  if (req.kind == RequestKind::Stats) {
    return stats_response(req);
  }

  if (draining()) {
    tally([](ServerStats& s) { ++s.shed_draining; });
    return shed_response(req.id, "draining");
  }
  if (options_.quota_per_conn > 0 && conn.admitted >= options_.quota_per_conn) {
    tally([](ServerStats& s) { ++s.shed_quota; });
    return shed_response(req.id, "quota");
  }

  switch (req.kind) {
    case RequestKind::Estimate:
      ++conn.admitted;
      tally([](ServerStats& s) { ++s.accepted; });
      return settle(run_estimate(req, /*degraded=*/false));
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

Server::Answer Server::run_estimate(const Request& req, bool degraded) {
  RunBudget budget = RunBudget::with_deadline(request_deadline_s(req, options_));
  budget.attach_cancel(&drain_cancel_);
  ScopedBudget job(budget);
  ErrorContext scope("serve[estimate]");
  try {
    const std::shared_ptr<const est::OpAmpDesign> design =
        cache_.opamp(proc_, req.spec);
    json::Writer w = response(req.id, "ok", degraded);
    w.field("perf", design->perf).end_object();
    return {w.str(), degraded ? Answer::Fate::Degraded : Answer::Fate::Ok};
  } catch (const Error& e) {
    return failure(req, e.what());
  }
}

Server::Answer Server::lapsed(const Request& req, Answer error) {
  if (req.kind == RequestKind::Synthesize) {
    error = run_estimate(req, /*degraded=*/true);
  }
  error.deadline_hit = true;
  return error;
}

template <class Body>
std::string Server::run_heavy(Connection& conn, const Request& req,
                              Body body) {
  const Admission admission = admit_heavy();
  if (admission == Admission::Shed) {
    tally([](ServerStats& s) { ++s.shed_overload; });
    return shed_response(req.id, "overload");
  }
  // Every way out of this function returns the admitted slot.
  struct SlotRelease {
    Server* server;
    ~SlotRelease() { server->load_.fetch_sub(1, std::memory_order_relaxed); }
  } release{this};
  ++conn.admitted;
  tally([](ServerStats& s) { ++s.accepted; });

  const bool synthesize = req.kind == RequestKind::Synthesize;
  if (admission == Admission::Degraded && synthesize) {
    // Saturated: answer now with the cheap analytic estimate instead of
    // queueing expensive synthesis — the paper's estimate-for-simulation
    // trade as a shedding discipline. Simulate and corner_sweep have no
    // cheap form, so the band queues them.
    return settle(run_estimate(req, /*degraded=*/true));
  }

  const double deadline_abs = now_seconds() + request_deadline_s(req, options_);
  const uint64_t ordinal =
      request_ordinal_.fetch_add(1, std::memory_order_relaxed);
  // The connection thread waits on the future, so the job may borrow
  // everything on this frame.
  std::future<Answer> result = executor_->submit([&]() -> Answer {
    ErrorContext scope(std::string("serve[") + to_string(req.kind) + "#" +
                       std::to_string(ordinal) + "]");
    if (drain_cancel_.cancelled()) {
      // The drain fired while this request waited: synthesize still
      // answers with the estimate, the others never started.
      if (synthesize) return run_estimate(req, /*degraded=*/true);
      return {shed_response(req.id, "draining"), Answer::Fate::Cancelled};
    }
    const double remaining = deadline_abs - now_seconds();
    if (remaining <= 0.002) {
      return lapsed(req, failure(req, annotate_with_context(
                                          "deadline exceeded while queued")));
    }
    RunBudget budget = RunBudget::with_deadline(remaining);
    budget.attach_cancel(&drain_cancel_);
    Answer answer;
    {
      ScopedBudget job(budget);
      try {
        answer = body(ordinal);
      } catch (const Error& e) {
        answer = failure(req, e.what());
      }
    }
    // A job that failed because the drain cancelled it counts as
    // cancelled; one whose deadline passed follows the lapse rule, whose
    // estimate runs outside the spent budget.
    if (answer.fate != Answer::Fate::Error) return answer;
    if (budget.cancelled()) {
      answer.fate = Answer::Fate::Cancelled;
      return answer;
    }
    return budget.exhausted() ? lapsed(req, std::move(answer)) : answer;
  });

  Answer answer;
  try {
    answer = result.get();
  } catch (const std::exception& e) {
    answer = failure(req, e.what());
  }
  return settle(std::move(answer));
}

std::string Server::run_synthesize(Connection& conn, const Request& req) {
  // Feasibility pre-admission (APE-F, src/lint/prove.h): when interval
  // bounds over the whole sizing box prove the spec unreachable, the
  // request is answered *now* — microseconds, on the connection thread,
  // no executor slot, no synthesis budget — with the proof attached.
  lint::ProveOptions po;
  po.contraction_segments = 0;  // global check only; admission is hot
  const lint::FeasibilityProof proof =
      lint::prove_opamp_feasibility(proc_, req.spec, po);
  if (proof.infeasible) {
    json::Writer w = response(req.id, "infeasible", false);
    w.field("proof", proof.report).end_object();
    tally([](ServerStats& s) { ++s.proven_infeasible; });
    return w.str();
  }

  return run_heavy(conn, req, [&](uint64_t ordinal) {
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
    sup.quarantine = &quarantine_;
    sup.quarantine_threshold = options_.quarantine_threshold;

    const runtime::OpAmpJobResult r =
        runtime::run_supervised_opamp_job(proc_, req.spec, sup, ordinal);

    if (r.cancelled) {
      return Answer{shed_response(req.id, "draining"), Answer::Fate::Cancelled};
    }
    if (r.quarantined) {
      tally([](ServerStats& s) { ++s.quarantine_hits; });
      return failure(req, r.error);
    }
    // A job with no usable attempt inside its deadline fails here, and
    // run_heavy's lapse rule answers it with the analytic estimate.
    if (!r.ok) return failure(req, r.error);

    const synth::SynthesisOutcome& o = r.outcome;
    json::Writer w = response(req.id, "ok", r.estimate_fallback);
    w.field("deadline_hit", r.deadline_hit)
        .field("attempts", r.attempts)
        .field("rung", to_string(r.final_rung))
        .field("meets_spec", o.meets_spec)
        .field("sim_failed", o.sim_failed)
        .field("cost", o.cost)
        .field("evaluations", o.evaluations)
        .field("comment", o.comment)
        .field("perf", o.design.perf)
        .end_object();
    if (r.final_rung == RetryRung::NumericRecovery) {
      tally([](ServerStats& s) { ++s.numeric_recoveries; });
    }
    return Answer{w.str(),
                  r.estimate_fallback ? Answer::Fate::Degraded
                                      : Answer::Fate::Ok,
                  r.deadline_hit};
  });
}

std::string Server::run_simulate(Connection& conn, const Request& req) {
  return run_heavy(conn, req, [&](uint64_t) {
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
      ScopedJobContext force(
          [](JobContext& c) { c.health_mode = NumericHealthMode::Force; });
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
    json::Writer w = response(req.id, "ok", false);
    w.field("converged", report.converged)
        .field("dc_plan", to_string(report.plan))
        .field("newton_iterations", report.newton_iterations)
        .field("numeric_recoveries", recoveries)
        .field("refinement_solves", report.kernel.refinement_solves)
        .field("equilibrated_solves", report.kernel.equilibrated_solves)
        .key("nodes")
        .begin_object();
    for (size_t n = 0; n < ckt.num_nodes(); ++n) {
      const int node = static_cast<int>(n);
      w.field(ckt.node_name(node), sol.at(node));
    }
    w.end_object().end_object();
    tally([&](ServerStats& s) {
      s.numeric_recoveries += recoveries;
      s.refinement_solves += report.kernel.refinement_solves;
    });
    return Answer{w.str()};
  });
}

std::string Server::run_corner_sweep(Connection& conn, const Request& req) {
  return run_heavy(conn, req, [&](uint64_t) {
    runtime::SweepOptions sweep;
    // The sweep runs inside this executor slot: its internal fan-out
    // must not claim more workers or the daemon deadlocks under load.
    sweep.supervisor.batch.threads = 1;
    sweep.supervisor.batch.seed = req.seed != 0 ? req.seed : options_.seed;
    sweep.supervisor.batch.cache = &cache_;
    sweep.corners =
        stat::CornerSet::parse(req.corners.empty() ? "all" : req.corners);
    sweep.mc_samples = std::min(req.mc_samples, options_.mc_samples_cap);
    const std::vector<est::OpAmpSpec> specs{req.spec};
    const runtime::SweepResult r =
        sweep.mc_samples > 0 ? runtime::run_monte_carlo(proc_, specs, sweep)
                             : runtime::run_corner_sweep(proc_, specs, sweep);
    const runtime::SweepJobResult& job = r.jobs.at(0);
    if (!job.ok) return failure(req, job.error);
    json::Writer w = response(req.id, "ok", false);
    w.field("corners", sweep.corners.names())
        .field("mc_samples", sweep.mc_samples)
        .field("samples_per_corner", r.samples_per_corner)
        .field("corner_estimate_ok",
               runtime::corner_flags(job.corner_estimate_ok))
        .field("corner_proven_infeasible",
               runtime::corner_flags(job.corner_proven_infeasible))
        .field("corners_pruned", r.corners_pruned)
        .field("yield_report", job.report)
        .end_object();
    return Answer{w.str()};
  });
}

std::string Server::stats_response(const Request& req) const {
  const ServerStats s = stats();
  const runtime::CacheStats cs = cache_.stats();
  json::Writer w = response(req.id, "ok", false);
  s.to_json(w);
  w.field("in_flight", load())
      .field("draining", draining())
      .field("cache_hits", cs.hits)
      .field("cache_misses", cs.misses)
      .field("cache_evictions", cs.evictions)
      .field("cache_entries", cs.entries)
      .field("quarantined_specs", quarantine_.quarantined_count())
      .end_object();
  return w.str();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ape::serve
