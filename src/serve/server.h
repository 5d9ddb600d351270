#pragma once
/// \file server.h
/// ape_serve: the overload-safe estimation daemon (DESIGN.md section
/// 11). A long-running server that accepts estimate / synthesize /
/// simulate / corner_sweep jobs over a Unix-domain socket
/// (length-prefixed JSON frames, protocol.h), multiplexes them onto one
/// shared runtime::Executor, and runs every synthesize request through
/// the supervised job lifecycle (runtime::run_supervised_opamp_job:
/// deadline, retry ladder, quarantine) with one bounded EstimateCache
/// shared across all clients.
///
/// Robustness is the design driver, not throughput:
///
///  - One request path. The heavy ops (synthesize, simulate,
///    corner_sweep) share run_heavy(): admission, the deadline, the
///    executor job under its RunBudget, the lapse rule, the ledger and
///    the release of the load slot are written once; each op supplies
///    only its job body.
///  - Admission control. Heavy work is admitted only while
///    `load < max_in_flight + queue_slots`, where load counts
///    admitted-but-unfinished heavy jobs. The executor pool has exactly
///    max_in_flight workers, so queue_slots bounds the backlog a client
///    burst can park on the daemon.
///  - Load shedding with graceful degradation. In the band
///    [max_in_flight, max_in_flight + queue_slots) a synthesize request
///    is not queued — it is answered *immediately* with the analytic APE
///    estimate (the paper's cheap-estimate-for-expensive-simulation
///    trade, applied as a server discipline) and marked
///    `"degraded": true`; simulate and corner_sweep, which have no cheap
///    form, queue. Above the band every heavy request is shed with
///    `"status":"shed","reason":"overload"`. Estimate requests are
///    themselves the cheap path: they always run (inline, off the
///    executor) unless a per-client quota or drain sheds them.
///  - Per-client quotas. Each connection may have at most
///    quota_per_conn requests admitted (0 = unlimited); beyond that it
///    sheds with reason "quota" — one greedy client cannot starve the
///    socket.
///  - Hard per-request deadlines. Every request runs under a RunBudget
///    whose deadline is min(client timeout_ms, max_deadline_s) — always
///    finite — wired to the server's drain CancelToken. The budget is
///    the job context's, and the budgets the op installs below it (the
///    supervisor's, the corner sweep's) chain to it, so no op copies the
///    deadline or the token. A request can therefore never outlive the
///    server's grace window, and a stalled solve stops at its next
///    cooperative probe. A deadline that lapses
///    gets the same answer whether the request was still queued or
///    already running: synthesize the degraded estimate, simulate and
///    corner_sweep an error; both count a deadline hit.
///  - Malformed input never corrupts connection state. Bad JSON in a
///    well-framed payload gets an "error" response and the connection
///    continues (framing keeps the stream aligned). Only framing damage
///    (oversized / zero length / truncation) closes the connection — and
///    only that connection.
///  - Graceful drain. request_drain() (or SIGTERM via
///    util::install_cancel_on_signal + serve main) stops the accept
///    loop, half-closes every connection's read side (in-flight requests
///    still get their responses), and waits drain_grace_s; if work is
///    still running then, the drain CancelToken fires and remaining jobs
///    resolve at their next probe (estimate fallback or cancelled
///    error). Every *accepted* request is answered before exit; the
///    final stats flush to stderr and serve_forever() returns 0.
///
/// Concurrency model: one acceptor (the serve_forever caller's thread)
/// polling {listen fd, signal wake fd}; one reader thread per
/// connection, each handling its frames strictly in order (responses
/// are never interleaved on a connection); heavy jobs run on the shared
/// Executor while the connection thread waits on the future. All
/// shared state is either atomic counters or mutex-guarded (THREAD-
/// SAFETY RULE category (c), diagnostics.h).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/estimator/process.h"
#include "src/runtime/cache.h"
#include "src/runtime/executor.h"
#include "src/runtime/supervisor.h"
#include "src/serve/protocol.h"
#include "src/util/diagnostics.h"

namespace ape::serve {

struct ServeOptions {
  std::string socket_path;     ///< Unix socket path (required)
  int max_in_flight = 2;       ///< executor workers == full-service slots
  int queue_slots = 4;         ///< admitted-beyond-saturation band (degraded)
  int max_connections = 128;   ///< concurrent client connections
  int quota_per_conn = 0;      ///< admitted requests per connection (0 = inf)
  double max_deadline_s = 10.0;///< hard cap on any request's deadline
  double drain_grace_s = 5.0;  ///< drain: time in-flight work may finish
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  size_t cache_capacity = 1024;///< EstimateCache bound per level (0 = inf)
  int synth_iterations = 800;  ///< default anneal iterations
  int synth_iterations_cap = 4000;  ///< cap on client-requested iterations
  int retries = 1;             ///< plain retries in the request ladder
  int quarantine_threshold = 3;///< consecutive failures before quarantine
  uint64_t seed = 1;           ///< base seed; request i uses stream i
  int mc_samples_cap = 256;    ///< cap on corner_sweep mc_samples
};

/// Monotonic server counters (snapshot). The `stats` op serializes this
/// plus the cache counters.
struct ServerStats {
  long connections_opened = 0;
  long connections_rejected = 0;  ///< at accept: over limit or draining
  long requests = 0;          ///< well-formed requests parsed
  long accepted = 0;          ///< admitted into service (incl. degraded);
                              ///< each ends in exactly one of
                              ///< completed_ok, errors or cancelled
  long completed_ok = 0;      ///< "ok" responses
  long degraded = 0;          ///< degraded (estimate-only) responses
  long shed_overload = 0;     ///< shed_*: never admitted (no `accepted`)
  long shed_quota = 0;
  long shed_draining = 0;
  long proven_infeasible = 0; ///< synthesize requests rejected by an
                              ///< APE-F001 feasibility proof at admission
                              ///< (answered with the proof, no executor slot)
  long errors = 0;            ///< accepted requests answered "error": job
                              ///< failure, and deadline lapses of
                              ///< simulate and corner_sweep
  long malformed_frames = 0;  ///< payloads that failed to parse (answered
                              ///< "error", never accepted, not in errors)
  long framing_errors = 0;    ///< oversized / zero-length / truncated frames
  long deadline_hits = 0;     ///< requests whose deadline lapsed
  long cancelled = 0;         ///< accepted requests the drain cut short
  long quarantine_hits = 0;   ///< requests skipped on a quarantined spec
  long numeric_recoveries = 0;///< requests rescued by the numerical-health
                              ///< ladder (kernel-level recoveries plus
                              ///< NumericRecovery retry rungs, DESIGN.md §15)
  long refinement_solves = 0; ///< kernel solves that ran iterative refinement
  long peak_in_flight = 0;

  void to_json(json::Writer& w) const;  ///< every counter, keyed by name
};

class Server {
public:
  /// Binds and listens immediately (throws ape::Error on failure); the
  /// accept loop runs inside serve_forever().
  Server(const est::Process& proc, ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept and serve until drained. Returns 0 after a clean drain in
  /// which every accepted request was answered. \p wake_fd (-1 = none)
  /// is polled alongside the listener; when it becomes readable —
  /// util::signal_wake_fd() after SIGTERM — the server starts its drain.
  int serve_forever(int wake_fd = -1);

  /// Begin the graceful drain (idempotent, callable from any thread —
  /// including the CancelToken path of a signal handler via wake_fd).
  void request_drain();

  /// True once request_drain() was called (or a wake fired).
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  ServerStats stats() const;
  runtime::CacheStats cache_stats() const { return cache_.stats(); }
  const std::string& socket_path() const { return options_.socket_path; }

  /// Current admitted-but-unfinished heavy jobs (test observability).
  int load() const { return load_.load(std::memory_order_relaxed); }

private:
  struct Connection;

  void accept_loop(int wake_fd);
  void handle_connection(Connection* conn);
  /// Serve one parsed request on \p conn; returns the response payload.
  std::string dispatch(Connection& conn, const Request& req);

  /// How an admitted request ended (defined in server.cpp).
  struct Answer;
  static Answer failure(const Request& req, const std::string& what);

  /// The one request path of every heavy op: admission, the deadline,
  /// the executor job under its RunBudget, the lapse rule and the
  /// ledger; \p body(ordinal) runs the op itself under that budget,
  /// which bounds everything the op runs (supervisor, sweep, solvers).
  template <class Body>
  std::string run_heavy(Connection& conn, const Request& req, Body body);
  std::string run_synthesize(Connection& conn, const Request& req);
  std::string run_simulate(Connection& conn, const Request& req);
  std::string run_corner_sweep(Connection& conn, const Request& req);
  Answer run_estimate(const Request& req, bool degraded);
  /// The answer to a request whose deadline passed, queued or running:
  /// synthesize gets the degraded estimate, the other ops \p error.
  Answer lapsed(const Request& req, Answer error);
  std::string stats_response(const Request& req) const;

  /// Update stats_ under mu_.
  template <class Edit>
  void tally(Edit edit);
  /// Count \p answer in the ledger and return its payload.
  std::string settle(Answer answer);

  /// Admission decision for one heavy request; increments load_ when
  /// admitted. Mode of service under the current load.
  enum class Admission { Full, Degraded, Shed };
  Admission admit_heavy();

  void close_listener();
  void begin_connection_shutdown();  ///< half-close every live connection
  void reap_finished_connections(bool join_all);

  est::Process proc_;
  ServeOptions options_;
  int listen_fd_ = -1;

  runtime::EstimateCache cache_;
  runtime::QuarantineRegistry quarantine_;
  std::unique_ptr<runtime::Executor> executor_;
  CancelToken drain_cancel_;  ///< fires after the drain grace expires

  std::atomic<bool> draining_{false};
  std::atomic<int> load_{0};
  std::atomic<uint64_t> request_ordinal_{0};

  mutable std::mutex mu_;  ///< guards stats_ and connections_
  ServerStats stats_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace ape::serve
