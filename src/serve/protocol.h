#pragma once
/// \file protocol.h
/// Wire protocol of the estimation service (DESIGN.md section 11).
///
/// Framing: every message — request or response — is one frame:
///
///   [4-byte big-endian payload length N] [N bytes of UTF-8 JSON]
///
/// The length prefix is what makes malformed *payloads* recoverable: a
/// frame whose JSON does not parse is rejected with an error response,
/// but the byte stream stays aligned on frame boundaries, so the same
/// connection keeps working. Only framing-level damage closes the
/// connection: a length above the negotiated cap (the client is either
/// broken or hostile; we will not stream-skip gigabytes), a zero length
/// (no payload to diagnose), or EOF mid-frame.
///
/// Requests (all fields beyond "op" optional unless noted):
///
///   {"op":"estimate",  "id":"r1", "timeout_ms":500, "spec":{...}}
///   {"op":"synthesize","id":"r2", "timeout_ms":2000, "iterations":400,
///                      "spec":{...}}
///   {"op":"simulate",  "id":"r3", "timeout_ms":500, "netlist":"..."}
///   {"op":"corner_sweep","id":"r4", "spec":{...}, "corners":"all",
///                      "mc_samples":32}
///   {"op":"stats",     "id":"r5"}
///   {"op":"ping",      "id":"r6"}
///
/// "spec" keys are the est::OpAmpSpec field names: gain, ugf_hz, ibias,
/// cload, zout, area_budget (numbers), buffer (a JSON bool) and source
/// ("mirror"|"wilson"). The ape_batch spec-file grammar spells three of
/// them differently: ugf for ugf_hz, area for area_budget, and a
/// numeric buffer (buffer=1; any nonzero value is true); gain, ibias,
/// cload, zout and source are spelled alike. Unknown keys are rejected
/// (a typoed constraint silently ignored is worse than an error).
/// "seed" must be an integer in [0, 2^53), the integers a JSON number
/// carries exactly (0 = server default); "iterations" and "mc_samples"
/// are non-negative integers.
///
/// Responses always carry "id" (echoed, "" when the request had none),
/// "status" ("ok" | "shed" | "error" | "infeasible") and "degraded"
/// (true when the server answered a synthesize request with the analytic
/// estimate under load). "shed" responses carry "reason" ("overload" |
/// "quota" | "draining"); "error" responses carry "error". "infeasible"
/// responses — a synthesize spec proven unreachable over the whole
/// sizing box at admission (APE-F001, src/lint/prove.h) — carry "proof":
/// the lint Report JSON whose APE-F findings state the violated
/// inequality and the guaranteed metric interval. They are answered on
/// the connection thread in microseconds without an executor slot.

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/estimator/opamp.h"
#include "src/util/json.h"

namespace ape::serve {

/// Default cap on one frame's payload (requests and responses).
constexpr uint32_t kDefaultMaxFrameBytes = 1u << 20;

/// Outcome of reading one frame from a blocking fd.
enum class FrameStatus {
  Ok,         ///< *payload holds a complete frame
  Eof,        ///< clean end-of-stream on a frame boundary
  Truncated,  ///< EOF mid-header or mid-payload
  Oversized,  ///< length prefix exceeded the cap (connection must close)
  BadLength,  ///< zero-length frame (connection must close)
  IoError,    ///< read() failed (errno other than EINTR)
};

const char* to_string(FrameStatus status);

/// Read one length-prefixed frame. Blocks; retries EINTR.
FrameStatus read_frame(int fd, std::string* payload,
                       uint32_t max_bytes = kDefaultMaxFrameBytes);

/// Write one length-prefixed frame (handles short writes; retries
/// EINTR). Returns false on any write failure, e.g. EPIPE after the
/// peer vanished — callers treat that as "client gone", never fatal.
bool write_frame(int fd, const std::string& payload);

/// Write all \p n bytes of \p data (short writes and EINTR retried);
/// false on any write failure. The unframed primitive under write_frame.
bool write_all(int fd, const void* data, size_t n);

// ---------------------------------------------------------------------------
// Request / response model.

enum class RequestKind {
  Estimate,
  Synthesize,
  Simulate,
  CornerSweep,
  Stats,
  Ping,
};

const char* to_string(RequestKind kind);

struct Request {
  RequestKind kind = RequestKind::Ping;
  std::string id;          ///< client echo tag ("" when absent)
  est::OpAmpSpec spec;     ///< estimate / synthesize / sweep payload
  std::string netlist;     ///< simulate payload (SPICE deck)
  double timeout_ms = 0.0; ///< requested deadline; the server caps it
  int iterations = 0;      ///< synthesize: anneal iterations (server-capped)
  uint64_t seed = 0;       ///< synthesize/sweep: seed (0 = server default)
  std::string corners;     ///< corner_sweep: selection ("" = "all")
  int mc_samples = 0;      ///< corner_sweep: MC draws per corner (capped)
};

/// Parse one request payload. Throws ape::ParseError on malformed JSON,
/// an unknown op, unknown spec keys, or wrong value types — the server
/// turns that into an "error" response without touching connection
/// state.
Request parse_request(const std::string& payload);

/// Serialize \p spec back to the request JSON spec object (used by
/// clients and tests); json::dump of OpAmpSpec::to_json.
std::string spec_to_json(const est::OpAmpSpec& spec);

// Response assembly helpers (the server composes payload fields itself;
// these keep status/envelope spelling in one place).

/// {"id":...,"status":"error","degraded":false,"error":...}
std::string error_response(const std::string& id, const std::string& what);

/// {"id":...,"status":"shed","degraded":false,"reason":...}
std::string shed_response(const std::string& id, const std::string& reason);

/// A writer holding the open envelope {"id":...,"status":...,
/// "degraded":... — callers add their fields and end_object().
json::Writer response(const std::string& id, const char* status,
                      bool degraded);

}  // namespace ape::serve
