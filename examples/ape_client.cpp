/// \file ape_client.cpp
/// Command-line client for the ape_serve daemon: build one request from
/// flags (or pass raw JSON), print the response payload to stdout.
///
///   ape_client --socket /tmp/ape.sock --op ping
///   ape_client --socket /tmp/ape.sock --op estimate --gain 5000
///   ape_client --socket /tmp/ape.sock --op synthesize --iters 400
///   ape_client --socket /tmp/ape.sock --json '{"op":"stats"}'
///
/// Exit status: 0 when the response status is "ok", 2 when "shed",
/// 1 on "error" or any transport failure — so shell scripts can
/// distinguish a load-shedding daemon from a broken one.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/serve/client.h"
#include "src/util/error.h"
#include "src/util/json.h"

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "ape_client: %s\n", msg.c_str());
  std::exit(1);
}

/// --seed: decimal digits below 2^53, the integers a JSON number carries
/// exactly (strtoull saturates, so overlong digit strings fail too).
uint64_t parse_seed(const std::string& s) {
  const uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      v >= (uint64_t{1} << 53)) {
    die("bad --seed '" + s + "' (want an integer in [0, 2^53))");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string op = "ping";
  std::string id;
  std::string raw_json;
  std::string netlist_path;
  double timeout_ms = 0.0;
  int iterations = 0;
  uint64_t seed = 0;
  int repeat = 1;
  std::string corners;
  int mc_samples = 0;
  ape::serve::ConnectOptions connect;
  ape::est::OpAmpSpec spec;
  bool spec_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--op") {
      op = next();
    } else if (arg == "--id") {
      id = next();
    } else if (arg == "--json") {
      raw_json = next();
    } else if (arg == "--timeout-ms") {
      timeout_ms = std::atof(next().c_str());
    } else if (arg == "--iters") {
      iterations = std::atoi(next().c_str());
    } else if (arg == "--seed") {
      seed = parse_seed(next());
    } else if (arg == "--repeat") {
      repeat = std::atoi(next().c_str());
    } else if (arg == "--gain") {
      spec.gain = std::atof(next().c_str());
      spec_set = true;
    } else if (arg == "--ugf") {
      spec.ugf_hz = std::atof(next().c_str());
      spec_set = true;
    } else if (arg == "--ibias") {
      spec.ibias = std::atof(next().c_str());
      spec_set = true;
    } else if (arg == "--cload") {
      spec.cload = std::atof(next().c_str());
      spec_set = true;
    } else if (arg == "--netlist") {
      netlist_path = next();
    } else if (arg == "--corners") {
      corners = next();
    } else if (arg == "--mc-samples") {
      mc_samples = std::atoi(next().c_str());
    } else if (arg == "--connect-retries") {
      connect.retries = std::atoi(next().c_str());
    } else if (arg == "--connect-backoff-ms") {
      connect.backoff_ms = std::atoi(next().c_str());
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: ape_client --socket PATH [--op ping|estimate|synthesize|"
          "simulate|corner_sweep|stats]\n"
          "                  [--id ID] [--timeout-ms T] [--iters N] [--seed S]\n"
          "                  [--gain X] [--ugf HZ] [--ibias A] [--cload F]\n"
          "                  [--corners SEL] [--mc-samples N]\n"
          "                  [--netlist FILE] [--json REQUEST] [--repeat N]\n"
          "                  [--connect-retries N] [--connect-backoff-ms MS]\n"
          "\n"
          "--connect-retries retries a refused / absent socket with bounded\n"
          "exponential backoff (first wait --connect-backoff-ms, doubling,\n"
          "capped at 2 s) — rides out a daemon that is still starting up.\n");
      return 0;
    } else {
      die("unknown option '" + arg + "' (see --help)");
    }
  }
  if (socket_path.empty()) die("--socket is required (see --help)");

  std::string request = raw_json;
  if (request.empty()) {
    ape::json::Writer w;
    w.begin_object().field("op", op);
    if (!id.empty()) w.field("id", id);
    if (timeout_ms > 0.0) w.field("timeout_ms", timeout_ms);
    if (iterations > 0) w.field("iterations", iterations);
    if (seed != 0) w.field("seed", seed);
    if (spec_set) w.field("spec", spec);
    if (!corners.empty()) w.field("corners", corners);
    if (mc_samples > 0) w.field("mc_samples", mc_samples);
    if (!netlist_path.empty()) {
      std::ifstream in(netlist_path);
      if (!in) die("cannot read netlist '" + netlist_path + "'");
      std::ostringstream ss;
      ss << in.rdbuf();
      w.field("netlist", ss.str());
    }
    request = w.end_object().str();
  }

  try {
    ape::serve::Client client(socket_path, connect);
    int exit_code = 0;
    for (int r = 0; r < repeat; ++r) {
      const std::string response = client.call(request);
      std::printf("%s\n", response.c_str());
      const ape::json::Value doc = ape::json::parse(response);
      const ape::json::Value* status = doc.find("status");
      const std::string s =
          status != nullptr ? status->as_string() : std::string("error");
      if (s == "shed") {
        exit_code = std::max(exit_code, 2);
      } else if (s != "ok") {
        exit_code = std::max(exit_code, 1);
      }
    }
    return exit_code;
  } catch (const ape::Error& e) {
    die(e.what());
  }
}
