/// Tests of the estimation service (DESIGN.md section 11): frame
/// protocol robustness (malformed, truncated, oversized and zero-length
/// frames), admission control and load shedding under an overload soak,
/// per-connection quotas, request deadlines, the shared bounded cache,
/// and graceful drain — both via request_drain() and via a real SIGTERM
/// through the signal wake pipe. Runs under ThreadSanitizer in CI
/// (`ctest -L "runtime|supervision|serve"` in the TSan tree).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/util/json.h"
#include "src/util/signal.h"

namespace ape::serve {
namespace {

const est::Process& proc() {
  static const est::Process p = est::Process::default_1u2();
  return p;
}

/// Fresh socket path per test (each gtest test runs in its own process
/// via ctest, but tests within one manual run must not collide either).
std::string test_socket(const std::string& tag) {
  return "/tmp/ape_serve_test_" + std::to_string(getpid()) + "_" + tag +
         ".sock";
}

/// A Server running serve_forever() on a background thread, drained and
/// joined on destruction. `exit_code` is valid after stop().
struct TestDaemon {
  explicit TestDaemon(ServeOptions options, int wake_fd = -1)
      : server(proc(), std::move(options)) {
    runner = std::thread([this, wake_fd] { exit_code = server.serve_forever(wake_fd); });
  }
  ~TestDaemon() { stop(); }

  int stop() {
    server.request_drain();
    if (runner.joinable()) runner.join();
    return exit_code;
  }

  Server server;
  std::thread runner;
  int exit_code = -1;
};

ServeOptions base_options(const std::string& tag) {
  ServeOptions o;
  o.socket_path = test_socket(tag);
  o.max_in_flight = 2;
  o.queue_slots = 2;
  o.synth_iterations = 30;  // keep heavy ops cheap: the tests probe the
  o.max_deadline_s = 30.0;  // lifecycle, not synthesis quality
  o.drain_grace_s = 2.0;
  return o;
}

json::Value call_json(Client& client, const std::string& request) {
  return json::parse(client.call(request));
}

std::string field(const json::Value& doc, const char* key) {
  const json::Value* v = doc.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

double num_field(const json::Value& doc, const char* key) {
  const json::Value* v = doc.find(key);
  return v != nullptr ? v->as_number() : -1.0;
}

// ---------------------------------------------------------------------------
// Frame protocol (no daemon: a socketpair is both ends of the wire).

struct SocketPair {
  int fds[2];
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    close(fds[0]);
    close(fds[1]);
  }
};

TEST(ServeProtocol, FrameRoundTrip) {
  SocketPair sp;
  ASSERT_TRUE(write_frame(sp.fds[0], "{\"op\":\"ping\"}"));
  std::string payload;
  EXPECT_EQ(read_frame(sp.fds[1], &payload), FrameStatus::Ok);
  EXPECT_EQ(payload, "{\"op\":\"ping\"}");
}

TEST(ServeProtocol, CleanEofOnFrameBoundary) {
  SocketPair sp;
  close(sp.fds[0]);
  sp.fds[0] = -1;
  std::string payload;
  EXPECT_EQ(read_frame(sp.fds[1], &payload), FrameStatus::Eof);
  sp.fds[0] = dup(sp.fds[1]);  // keep the destructor's close() valid
}

TEST(ServeProtocol, TruncatedHeaderAndPayloadDetected) {
  {
    SocketPair sp;
    const unsigned char half_header[2] = {0, 0};
    ASSERT_EQ(write(sp.fds[0], half_header, 2), 2);
    shutdown(sp.fds[0], SHUT_WR);
    std::string payload;
    EXPECT_EQ(read_frame(sp.fds[1], &payload), FrameStatus::Truncated);
  }
  {
    SocketPair sp;
    const unsigned char header[4] = {0, 0, 0, 10};  // promises 10 bytes
    ASSERT_EQ(write(sp.fds[0], header, 4), 4);
    ASSERT_EQ(write(sp.fds[0], "abc", 3), 3);  // delivers 3
    shutdown(sp.fds[0], SHUT_WR);
    std::string payload;
    EXPECT_EQ(read_frame(sp.fds[1], &payload), FrameStatus::Truncated);
  }
}

TEST(ServeProtocol, OversizedAndZeroLengthRejected) {
  {
    SocketPair sp;
    const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(write(sp.fds[0], header, 4), 4);
    std::string payload;
    EXPECT_EQ(read_frame(sp.fds[1], &payload, 1024), FrameStatus::Oversized);
  }
  {
    SocketPair sp;
    const unsigned char header[4] = {0, 0, 0, 0};
    ASSERT_EQ(write(sp.fds[0], header, 4), 4);
    std::string payload;
    EXPECT_EQ(read_frame(sp.fds[1], &payload), FrameStatus::BadLength);
  }
}

TEST(ServeProtocol, RequestParsingRejectsBadInput) {
  EXPECT_THROW(parse_request("not json"), ParseError);
  EXPECT_THROW(parse_request("{\"op\":\"explode\"}"), ParseError);
  EXPECT_THROW(parse_request("{\"id\":\"x\"}"), ParseError);  // missing op
  EXPECT_THROW(parse_request("{\"op\":\"estimate\",\"spec\":{\"gian\":5}}"),
               ParseError);  // typoed key must not be silently ignored
  EXPECT_THROW(
      parse_request("{\"op\":\"synthesize\",\"timeout_ms\":-5}"),
      ParseError);
  EXPECT_THROW(parse_request("{\"op\":\"simulate\"}"), ParseError);
  // Integers a double cannot carry exactly are refused, not wrapped into
  // "server default" (seed 0, iterations 0) or a neighbouring seed.
  for (const char* field :
       {"\"seed\":18446744073709551615", "\"seed\":9007199254740993",
        "\"seed\":-1", "\"iterations\":1e300"}) {
    EXPECT_THROW(
        parse_request(std::string("{\"op\":\"synthesize\",") + field + "}"),
        ParseError)
        << field;
  }
  EXPECT_EQ(parse_request("{\"op\":\"synthesize\",\"seed\":9007199254740991}")
                .seed,
            9007199254740991u);

  const Request r = parse_request(
      "{\"op\":\"synthesize\",\"id\":\"r9\",\"timeout_ms\":250,"
      "\"iterations\":40,\"spec\":{\"gain\":5000,\"source\":\"wilson\"}}");
  EXPECT_EQ(r.kind, RequestKind::Synthesize);
  EXPECT_EQ(r.id, "r9");
  EXPECT_DOUBLE_EQ(r.timeout_ms, 250.0);
  EXPECT_EQ(r.iterations, 40);
  EXPECT_DOUBLE_EQ(r.spec.gain, 5000.0);
  EXPECT_EQ(r.spec.source, est::CurrentSourceKind::Wilson);
}

// ---------------------------------------------------------------------------
// Request lifecycle against a live daemon.

TEST(ServeDaemon, PingEstimateAndStats) {
  TestDaemon daemon(base_options("basic"));
  Client client(daemon.server.socket_path());

  json::Value pong = call_json(client, "{\"op\":\"ping\",\"id\":\"p\"}");
  EXPECT_EQ(field(pong, "status"), "ok");
  EXPECT_EQ(field(pong, "id"), "p");

  json::Value est = call_json(
      client,
      "{\"op\":\"estimate\",\"id\":\"e\",\"spec\":{\"gain\":5000,"
      "\"ugf_hz\":1e6,\"cload\":10e-12}}");
  EXPECT_EQ(field(est, "status"), "ok");
  const json::Value* perf = est.find("perf");
  ASSERT_NE(perf, nullptr);
  EXPECT_GT(perf->find("gain")->as_number(), 0.0);

  // Same spec again: served from the shared cache.
  call_json(client,
            "{\"op\":\"estimate\",\"spec\":{\"gain\":5000,\"ugf_hz\":1e6,"
            "\"cload\":10e-12}}");
  json::Value stats = call_json(client, "{\"op\":\"stats\"}");
  EXPECT_EQ(field(stats, "status"), "ok");
  EXPECT_GE(num_field(stats, "cache_hits"), 1.0);
  EXPECT_EQ(num_field(stats, "requests"), 4.0);
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeDaemon, CornerSweepReturnsAYieldReport) {
  ServeOptions options = base_options("sweep");
  options.mc_samples_cap = 8;  // the cap bounds client-requested depth
  TestDaemon daemon(options);
  Client client(daemon.server.socket_path());

  json::Value r = call_json(
      client,
      "{\"op\":\"corner_sweep\",\"id\":\"cs\",\"spec\":{\"gain\":150,"
      "\"ugf_hz\":2e6,\"ibias\":10e-6,\"cload\":10e-12},"
      "\"corners\":\"tm,ws\",\"mc_samples\":64}");
  EXPECT_EQ(field(r, "status"), "ok");
  EXPECT_EQ(field(r, "corners"), "tm,ws");
  EXPECT_EQ(num_field(r, "mc_samples"), 8.0);          // capped from 64
  EXPECT_EQ(num_field(r, "samples_per_corner"), 8.0);
  EXPECT_EQ(field(r, "corner_estimate_ok"), "11");
  const json::Value* report = r.find("yield_report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->find("samples")->as_number(), 16.0);  // 2 corners x 8
  EXPECT_GE(report->find("yield")->as_number(), 0.0);
  ASSERT_NE(report->find("corners"), nullptr);

  // Identical request: phase A + tm re-estimates hit the shared cache.
  call_json(client,
            "{\"op\":\"corner_sweep\",\"spec\":{\"gain\":150,\"ugf_hz\":2e6,"
            "\"ibias\":10e-6,\"cload\":10e-12},\"corners\":\"tm,ws\"}");
  json::Value stats = call_json(client, "{\"op\":\"stats\"}");
  EXPECT_GE(num_field(stats, "cache_hits"), 3.0);

  // Malformed selections and negative sample counts are error responses,
  // not connection damage.
  json::Value bad = call_json(
      client,
      "{\"op\":\"corner_sweep\",\"spec\":{\"gain\":150},"
      "\"corners\":\"tm,bogus\"}");
  EXPECT_EQ(field(bad, "status"), "error");
  json::Value neg = call_json(
      client, "{\"op\":\"corner_sweep\",\"spec\":{\"gain\":150},"
              "\"mc_samples\":-1}");
  EXPECT_EQ(field(neg, "status"), "error");
  EXPECT_EQ(daemon.stop(), 0);
}

// A synthesize spec proven infeasible over the whole sizing box
// (APE-F001) is answered at admission — status "infeasible" with the
// proof attached — without consuming an executor slot or any synthesis
// budget. Feasible requests are untouched.
TEST(ServeDaemon, InfeasibleSynthesizeRejectedAtAdmissionWithProof) {
  TestDaemon daemon(base_options("infeasible"));
  Client client(daemon.server.socket_path());

  // Gate-area budget below the minimum-geometry area (~3.84e-11 m^2):
  // provably unmeetable, yet estimator-sane — exactly the spec that
  // previously burned a full supervised synthesis.
  json::Value r = call_json(
      client,
      "{\"op\":\"synthesize\",\"id\":\"inf\",\"spec\":{\"gain\":150,"
      "\"ugf_hz\":2e6,\"ibias\":10e-6,\"cload\":10e-12,"
      "\"area_budget\":1e-11}}");
  EXPECT_EQ(field(r, "status"), "infeasible");
  EXPECT_EQ(field(r, "id"), "inf");
  const json::Value* findings =
      r.find("proof") != nullptr ? r.find("proof")->find("findings") : nullptr;
  ASSERT_NE(findings, nullptr) << "infeasible response must carry the proof";
  ASSERT_FALSE(findings->items.empty());
  EXPECT_EQ(findings->items[0].find("rule")->as_string(), "APE-F001");

  // A feasible synthesize on the same connection still works.
  json::Value ok = call_json(
      client,
      "{\"op\":\"synthesize\",\"spec\":{\"gain\":150,\"ugf_hz\":2e6,"
      "\"ibias\":10e-6,\"cload\":10e-12},\"iterations\":30}");
  EXPECT_EQ(field(ok, "status"), "ok");

  // The rejection is accounted in its own counter and never entered the
  // executor: completed_ok counts only the feasible job.
  json::Value stats = call_json(client, "{\"op\":\"stats\"}");
  EXPECT_EQ(num_field(stats, "proven_infeasible"), 1.0);
  EXPECT_EQ(num_field(stats, "completed_ok"), 1.0);
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeDaemon, MalformedPayloadDoesNotCorruptTheConnection) {
  TestDaemon daemon(base_options("malformed"));
  Client client(daemon.server.socket_path());

  json::Value bad = call_json(client, "this is not json {{{");
  EXPECT_EQ(field(bad, "status"), "error");
  json::Value worse = call_json(client, "{\"op\":\"no-such-op\"}");
  EXPECT_EQ(field(worse, "status"), "error");

  // The same connection still serves well-formed requests.
  json::Value pong = call_json(client, "{\"op\":\"ping\"}");
  EXPECT_EQ(field(pong, "status"), "ok");

  json::Value stats = call_json(client, "{\"op\":\"stats\"}");
  EXPECT_EQ(num_field(stats, "malformed_frames"), 2.0);
  EXPECT_EQ(num_field(stats, "framing_errors"), 0.0);
  // A payload that fails to parse was never admitted, so the ledger of
  // admitted requests stays balanced.
  EXPECT_EQ(num_field(stats, "accepted"),
            num_field(stats, "completed_ok") + num_field(stats, "cancelled") +
                num_field(stats, "errors"));
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeDaemon, DeeplyNestedFrameAnswersErrorAndKeepsTheConnection) {
  TestDaemon daemon(base_options("nested"));
  Client client(daemon.server.socket_path());

  // 200 KB of '[': well inside the frame limit, and deep enough to have
  // overflowed the daemon's stack in a recursive parse.
  json::Value deep = call_json(client, std::string(200 * 1024, '['));
  EXPECT_EQ(field(deep, "status"), "error");
  EXPECT_NE(field(deep, "error").find("nesting"), std::string::npos)
      << field(deep, "error");

  // The same connection still serves well-formed requests.
  EXPECT_EQ(field(call_json(client, "{\"op\":\"ping\"}"), "status"), "ok");
  json::Value stats = call_json(client, "{\"op\":\"stats\"}");
  EXPECT_EQ(num_field(stats, "malformed_frames"), 1.0);
  EXPECT_EQ(num_field(stats, "accepted"),
            num_field(stats, "completed_ok") + num_field(stats, "cancelled") +
                num_field(stats, "errors"));
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeDaemon, OversizedFrameClosesOnlyThatConnection) {
  ServeOptions options = base_options("oversized");
  options.max_frame_bytes = 4096;
  TestDaemon daemon(options);

  Client victim(daemon.server.socket_path());
  const unsigned char huge[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_TRUE(victim.send_raw(huge, 4));
  // The daemon answers why, then closes this connection.
  const std::string reply = victim.receive();
  EXPECT_NE(reply.find("oversized"), std::string::npos);
  std::string extra;
  EXPECT_EQ(read_frame(victim.fd(), &extra), FrameStatus::Eof);

  // A fresh connection is unaffected.
  Client fresh(daemon.server.socket_path());
  EXPECT_EQ(field(call_json(fresh, "{\"op\":\"ping\"}"), "status"), "ok");
  json::Value stats = call_json(fresh, "{\"op\":\"stats\"}");
  EXPECT_GE(num_field(stats, "framing_errors"), 1.0);
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeDaemon, TruncatedFrameIsContainedToItsConnection) {
  TestDaemon daemon(base_options("truncated"));
  {
    Client victim(daemon.server.socket_path());
    const unsigned char header[4] = {0, 0, 0, 100};  // promises 100 bytes
    ASSERT_TRUE(victim.send_raw(header, 4));
    ASSERT_TRUE(victim.send_raw("short", 5));  // delivers 5, then EOF
    victim.shutdown_write();
    std::string extra;
    EXPECT_EQ(read_frame(victim.fd(), &extra), FrameStatus::Eof);
  }
  Client fresh(daemon.server.socket_path());
  EXPECT_EQ(field(call_json(fresh, "{\"op\":\"ping\"}"), "status"), "ok");
  json::Value stats = call_json(fresh, "{\"op\":\"stats\"}");
  EXPECT_GE(num_field(stats, "framing_errors"), 1.0);
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeDaemon, PerConnectionQuotaSheds) {
  ServeOptions options = base_options("quota");
  options.quota_per_conn = 2;
  TestDaemon daemon(options);

  Client greedy(daemon.server.socket_path());
  const std::string est =
      "{\"op\":\"estimate\",\"spec\":{\"gain\":5000,\"ugf_hz\":1e6}}";
  EXPECT_EQ(field(call_json(greedy, est), "status"), "ok");
  EXPECT_EQ(field(call_json(greedy, est), "status"), "ok");
  json::Value shed = call_json(greedy, est);
  EXPECT_EQ(field(shed, "status"), "shed");
  EXPECT_EQ(field(shed, "reason"), "quota");
  // ping / stats are exempt (they are how you observe a shedding daemon)...
  EXPECT_EQ(field(call_json(greedy, "{\"op\":\"ping\"}"), "status"), "ok");
  // ...and a new connection gets a fresh quota.
  Client fresh(daemon.server.socket_path());
  EXPECT_EQ(field(call_json(fresh, est), "status"), "ok");
  json::Value stats = call_json(fresh, "{\"op\":\"stats\"}");
  EXPECT_EQ(num_field(stats, "shed_quota"), 1.0);
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeDaemon, DeadlineMidSolveStillAnswers) {
  TestDaemon daemon(base_options("deadline"));
  Client client(daemon.server.socket_path());
  // A deadline far too small for 4000 anneal iterations: the job must
  // stop at a budget probe and answer — degraded estimate or best-so-far
  // with deadline_hit — never hang past the cap.
  json::Value r = call_json(
      client,
      "{\"op\":\"synthesize\",\"id\":\"d\",\"timeout_ms\":1,"
      "\"iterations\":4000,\"spec\":{\"gain\":2000,\"ugf_hz\":1e6,"
      "\"cload\":5e-12}}");
  EXPECT_EQ(field(r, "id"), "d");
  const std::string status = field(r, "status");
  EXPECT_TRUE(status == "ok" || status == "shed") << status;
  if (status == "ok") {
    const json::Value* degraded = r.find("degraded");
    const json::Value* hit = r.find("deadline_hit");
    EXPECT_TRUE((degraded != nullptr && degraded->boolean) ||
                (hit != nullptr && hit->boolean));
  }
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeDaemon, CornerSweepDeadlineStopsMidGrid) {
  ServeOptions options = base_options("sweep-deadline");
  options.max_in_flight = 1;
  TestDaemon daemon(options);
  Client client(daemon.server.socket_path());
  // Seven corners of 256 Monte-Carlo samples each take far longer than
  // 5 ms: the sweep's cells poll the request budget, stop mid-grid and
  // the request lapses to an error with one deadline hit.
  const json::Value r = call_json(
      client,
      "{\"op\":\"corner_sweep\",\"id\":\"csd\",\"timeout_ms\":5,"
      "\"spec\":{\"gain\":150,\"ugf_hz\":2e6,\"ibias\":10e-6,"
      "\"cload\":10e-12},\"corners\":\"all\",\"mc_samples\":256}");
  EXPECT_EQ(field(r, "id"), "csd");
  EXPECT_EQ(field(r, "status"), "error") << field(r, "error");
  const ServerStats s = daemon.server.stats();
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(s.deadline_hits, 1);
  EXPECT_EQ(s.accepted, s.completed_ok + s.cancelled + s.errors);
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeDaemon, SimulateSolvesADeck) {
  TestDaemon daemon(base_options("simulate"));
  Client client(daemon.server.socket_path());
  json::Value r = call_json(
      client,
      "{\"op\":\"simulate\",\"id\":\"sim\",\"netlist\":\"divider\\n"
      "V1 in 0 2\\nR1 in out 1k\\nR2 out 0 1k\\n.end\\n\"}");
  ASSERT_EQ(field(r, "status"), "ok") << field(r, "error");
  const json::Value* nodes = r.find("nodes");
  ASSERT_NE(nodes, nullptr);
  const json::Value* out = nodes->find("out");
  ASSERT_NE(out, nullptr);
  EXPECT_NEAR(out->as_number(), 1.0, 1e-6);
  EXPECT_EQ(field(r, "dc_plan"), "gmin-ladder");

  // A .nodeset deck is answered from the seed, and the reply says so.
  json::Value seeded = call_json(
      client,
      "{\"op\":\"simulate\",\"netlist\":\"divider\\n"
      "V1 in 0 2\\nR1 in out 1k\\nR2 out 0 1k\\n"
      ".nodeset V(in)=2 V(out)=1\\n.end\\n\"}");
  ASSERT_EQ(field(seeded, "status"), "ok") << field(seeded, "error");
  EXPECT_EQ(field(seeded, "dc_plan"), "seeded");

  json::Value bad = call_json(
      client, "{\"op\":\"simulate\",\"netlist\":\"garbage deck\\n\"}");
  EXPECT_EQ(field(bad, "status"), "error");
  EXPECT_EQ(daemon.stop(), 0);
}

// A request whose deadline lapses before a worker starts it gets the
// answer a mid-run lapse gets: a simulate an error, a synthesize the
// degraded estimate, each with one deadline hit and never a shed.
TEST(ServeDaemon, DeadlineLapsedInQueueFollowsTheLapseRule) {
  ServeOptions options = base_options("lapse");
  options.max_in_flight = 1;
  options.queue_slots = 1;
  TestDaemon daemon(options);

  // A long synthesize holds the only worker...
  std::thread holder([&] {
    Client client(daemon.server.socket_path());
    const json::Value r = json::parse(client.call(
        "{\"op\":\"synthesize\",\"id\":\"hold\",\"iterations\":4000,"
        "\"spec\":{\"gain\":2000,\"ugf_hz\":1e6,\"cload\":5e-12}}"));
    EXPECT_EQ(field(r, "status"), "ok");
    EXPECT_FALSE(r.find("degraded")->boolean);
  });
  for (int i = 0; i < 5000 && daemon.server.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...while a 1 ms simulate waits behind it in the queue band.
  Client client(daemon.server.socket_path());
  const json::Value sim = call_json(
      client,
      "{\"op\":\"simulate\",\"id\":\"sim\",\"timeout_ms\":1,\"netlist\":"
      "\"divider\\nV1 in 0 2\\nR1 in out 1k\\nR2 out 0 1k\\n.end\\n\"}");
  EXPECT_EQ(field(sim, "id"), "sim");
  EXPECT_EQ(field(sim, "status"), "error");
  EXPECT_NE(field(sim, "error").find("deadline exceeded while queued"),
            std::string::npos)
      << field(sim, "error");
  holder.join();

  // A synthesize is queued only with a worker free (the band answers it
  // degraded at once), so its 1 ms deadline lapses in the 2 ms start
  // margin: the estimate, marked degraded.
  const json::Value syn = call_json(
      client,
      "{\"op\":\"synthesize\",\"id\":\"syn\",\"timeout_ms\":1,"
      "\"spec\":{\"gain\":2500,\"ugf_hz\":1e6,\"cload\":5e-12}}");
  EXPECT_EQ(field(syn, "id"), "syn");
  EXPECT_EQ(field(syn, "status"), "ok");
  EXPECT_TRUE(syn.find("degraded")->boolean);
  ASSERT_NE(syn.find("perf"), nullptr);
  EXPECT_EQ(syn.find("deadline_hit"), nullptr);  // not a search result

  const ServerStats s = daemon.server.stats();
  EXPECT_EQ(s.accepted, 3);
  EXPECT_EQ(s.completed_ok, 2);  // the holder and the degraded estimate
  EXPECT_EQ(s.degraded, 1);
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(s.deadline_hits, 2);
  EXPECT_EQ(s.cancelled, 0);
  EXPECT_EQ(s.shed_overload, 0);
  EXPECT_EQ(s.accepted, s.completed_ok + s.cancelled + s.errors);
  EXPECT_EQ(daemon.server.load(), 0);
  EXPECT_EQ(daemon.stop(), 0);
}

// ---------------------------------------------------------------------------
// Overload and drain, once for every heavy op: they share one request
// path, so they must keep one ledger. The synthesize instance keeps its
// ServeDaemon name; simulate and corner_sweep run as ServeHeavyOp.

/// Request \p i of a burst of \p op: a distinct spec or deck (cache
/// misses, real work). \p synth_body is the synthesize request's tail;
/// \p mc_samples sets the depth of a corner sweep.
std::string heavy_request(const std::string& op, const std::string& id,
                          int i, const std::string& synth_body,
                          int mc_samples) {
  const std::string head = "{\"op\":\"" + op + "\",\"id\":\"" + id + "\",";
  if (op == "simulate") {
    return head + "\"netlist\":\"divider\\nV1 in 0 " + std::to_string(2 + i) +
           "\\nR1 in out 1k\\nR2 out 0 1k\\n.end\\n\"}";
  }
  if (op == "corner_sweep") {
    return head + "\"corners\":\"all\",\"mc_samples\":" +
           std::to_string(mc_samples) + ",\"spec\":{\"gain\":" +
           std::to_string(150 + i) +
           ",\"ugf_hz\":2e6,\"ibias\":10e-6,\"cload\":10e-12}}";
  }
  return head + synth_body;
}

void overload_soak_sheds_instead_of_collapsing(const std::string& op) {
  ServeOptions options = base_options("soak");
  options.max_in_flight = 2;   // K
  options.queue_slots = 2;
  options.cache_capacity = 8;  // force eviction churn under load
  TestDaemon daemon(options);

  // 4x max_in_flight concurrent bursts, each a distinct request. Every
  // request is answered ok or shed; nothing hangs, nothing crashes,
  // nothing gets a corrupt frame.
  const int burst = 4 * options.max_in_flight;
  std::vector<std::thread> threads;
  std::atomic<int> answered{0}, rejected{0};
  for (int i = 0; i < burst; ++i) {
    threads.emplace_back([&, i] {
      Client client(daemon.server.socket_path());
      const std::string request = heavy_request(
          op, "s" + std::to_string(i), i,
          "\"iterations\":30,\"spec\":{\"gain\":" +
              std::to_string(2000 + i * 10) +
              ",\"ugf_hz\":1e6,\"cload\":5e-12}}",
          /*mc_samples=*/32);
      const json::Value r = json::parse(client.call(request));
      const std::string s = field(r, "status");
      ASSERT_TRUE(s == "ok" || s == "shed") << s;
      answered.fetch_add(1);
      if (s == "shed") rejected.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(answered.load(), burst);  // every request got a decision

  const ServerStats s = daemon.server.stats();
  EXPECT_EQ(s.accepted + s.shed_overload, burst);
  EXPECT_EQ(s.shed_overload, rejected.load());
  EXPECT_EQ(s.accepted, s.completed_ok + s.cancelled + s.errors);
  EXPECT_LE(s.peak_in_flight, options.max_in_flight + options.queue_slots);
  EXPECT_EQ(daemon.server.load(), 0);  // nothing leaked a load slot

  // The bounded cache stayed bounded through the churn.
  const runtime::CacheStats cs = daemon.server.cache_stats();
  EXPECT_LE(cs.entries, static_cast<long>(options.cache_capacity));
  EXPECT_EQ(daemon.stop(), 0);
}

void drain_answers_every_accepted_request(const std::string& op) {
  ServeOptions options = base_options("drain");
  options.max_in_flight = 1;
  options.queue_slots = 1;
  options.drain_grace_s = 0.2;  // force the cancel path, not just the grace
  // Jobs that outlast the grace: the drain token must cut them short.
  options.synth_iterations_cap = 1000000;
  options.mc_samples_cap = 1 << 14;
  TestDaemon daemon(options);

  // Simulate and corner_sweep answer a job the drain cancelled mid-run
  // with an error; synthesize answers it shed "draining".
  const bool cancel_is_error = op != "synthesize";
  std::vector<std::thread> threads;
  std::atomic<int> answered{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      try {
        Client client(daemon.server.socket_path());
        const json::Value r = json::parse(client.call(heavy_request(
            op, "dr" + std::to_string(i), i,
            "\"iterations\":200000,\"spec\":{\"gain\":" +
                std::to_string(3000 + i) + ",\"ugf_hz\":1e6}}",
            /*mc_samples=*/1 << 14)));
        const std::string s = field(r, "status");
        EXPECT_TRUE(s == "ok" || s == "shed" ||
                    (cancel_is_error && s == "error"))
            << s;
        answered.fetch_add(1);
      } catch (const Error&) {
        // Connection raced the listener close before its frame was read:
        // that request was never *accepted*, so no answer is owed.
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(daemon.stop(), 0);  // drain: finish/shed in-flight, exit 0
  for (auto& t : threads) t.join();

  const ServerStats s = daemon.server.stats();
  // Every accepted heavy request produced exactly one response: it
  // completed (possibly degraded), was cancelled by the drain, or failed
  // with an error — no fourth fate, nothing dropped.
  EXPECT_EQ(s.accepted, s.completed_ok + s.cancelled + s.errors);
  EXPECT_EQ(daemon.server.load(), 0);
}

TEST(ServeDaemon, OverloadSoakShedsInsteadOfCollapsing) {
  overload_soak_sheds_instead_of_collapsing("synthesize");
}

TEST(ServeDaemon, DrainAnswersEveryAcceptedRequest) {
  drain_answers_every_accepted_request("synthesize");
}

class ServeHeavyOp : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeHeavyOp, OverloadSoakShedsInsteadOfCollapsing) {
  overload_soak_sheds_instead_of_collapsing(GetParam());
}

TEST_P(ServeHeavyOp, DrainAnswersEveryAcceptedRequest) {
  drain_answers_every_accepted_request(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Ops, ServeHeavyOp,
                         ::testing::Values("simulate", "corner_sweep"),
                         [](const auto& info) { return info.param; });

TEST(ServeDaemon, SigtermWakeFdTriggersCleanDrain) {
  // The real signal path: install the handler, raise SIGTERM, and hand
  // the wake pipe to serve_forever — it must observe the wake, drain and
  // return 0 without any request in flight getting lost.
  static CancelToken stop;
  util::install_cancel_on_signal(stop);

  ServeOptions options = base_options("sigterm");
  Server server(proc(), options);
  Client client(server.socket_path());

  std::raise(SIGTERM);
  ASSERT_TRUE(stop.cancelled());
  EXPECT_EQ(server.serve_forever(util::signal_wake_fd()), 0);
  EXPECT_TRUE(server.draining());
}

TEST(ServeDaemon, RequestsDuringDrainAreShedAsDraining) {
  TestDaemon daemon(base_options("drain-shed"));
  Client client(daemon.server.socket_path());
  EXPECT_EQ(field(call_json(client, "{\"op\":\"ping\"}"), "status"), "ok");

  daemon.server.request_drain();
  // The established connection's next heavy request sheds as draining
  // (the reader may instead see the drain's half-close as EOF — both are
  // clean outcomes; what must not happen is a hang or a torn frame).
  try {
    const json::Value r = call_json(
        client, "{\"op\":\"estimate\",\"spec\":{\"gain\":1000}}");
    EXPECT_EQ(field(r, "status"), "shed");
    EXPECT_EQ(field(r, "reason"), "draining");
  } catch (const Error&) {
  }
  EXPECT_EQ(daemon.stop(), 0);
}

}  // namespace
}  // namespace ape::serve
