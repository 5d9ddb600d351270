#include "src/serve/protocol.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include <unistd.h>

#include "src/util/error.h"

namespace ape::serve {
namespace {

/// read() exactly \p n bytes; returns bytes actually read before EOF
/// (== n on success), or -1 on a hard error.
ssize_t read_exact(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<size_t>(r);
    } else if (r == 0) {
      break;  // EOF
    } else if (errno != EINTR) {
      return -1;
    }
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

const char* to_string(FrameStatus status) {
  switch (status) {
    case FrameStatus::Ok: return "ok";
    case FrameStatus::Eof: return "eof";
    case FrameStatus::Truncated: return "truncated";
    case FrameStatus::Oversized: return "oversized";
    case FrameStatus::BadLength: return "bad-length";
    case FrameStatus::IoError: return "io-error";
  }
  return "?";
}

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::Estimate: return "estimate";
    case RequestKind::Synthesize: return "synthesize";
    case RequestKind::Simulate: return "simulate";
    case RequestKind::CornerSweep: return "corner_sweep";
    case RequestKind::Stats: return "stats";
    case RequestKind::Ping: return "ping";
  }
  return "?";
}

FrameStatus read_frame(int fd, std::string* payload, uint32_t max_bytes) {
  unsigned char header[4];
  const ssize_t h = read_exact(fd, reinterpret_cast<char*>(header), 4);
  if (h < 0) return FrameStatus::IoError;
  if (h == 0) return FrameStatus::Eof;
  if (h < 4) return FrameStatus::Truncated;
  const uint32_t len = (uint32_t(header[0]) << 24) | (uint32_t(header[1]) << 16) |
                       (uint32_t(header[2]) << 8) | uint32_t(header[3]);
  if (len == 0) return FrameStatus::BadLength;
  if (len > max_bytes) return FrameStatus::Oversized;
  payload->resize(len);
  const ssize_t b = read_exact(fd, payload->data(), len);
  if (b < 0) return FrameStatus::IoError;
  if (static_cast<uint32_t>(b) < len) return FrameStatus::Truncated;
  return FrameStatus::Ok;
}

bool write_frame(int fd, const std::string& payload) {
  if (payload.size() > 0xffffffffull) return false;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>(len >> 24),
      static_cast<unsigned char>(len >> 16),
      static_cast<unsigned char>(len >> 8),
      static_cast<unsigned char>(len),
  };
  std::string frame(reinterpret_cast<const char*>(header), 4);
  frame += payload;
  return write_all(fd, frame.data(), frame.size());
}

bool write_all(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < n) {
    const ssize_t w = write(fd, p + sent, n - sent);
    if (w > 0) {
      sent += static_cast<size_t>(w);
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else {
      return false;  // EPIPE / ECONNRESET: peer is gone
    }
  }
  return true;
}

// ---------------------------------------------------------------------------

namespace {

double as_spec_number(const std::string& key, const json::Value& value) {
  if (value.kind != json::Value::Kind::Number) {
    throw ParseError("request: '" + key + "' must be a number");
  }
  return value.number;
}

est::OpAmpSpec spec_from_json(const json::Value& obj) {
  if (obj.kind != json::Value::Kind::Object) {
    throw ParseError("request: 'spec' must be an object");
  }
  est::OpAmpSpec spec;
  for (const auto& [key, value] : obj.members) {
    if (key == "gain") {
      spec.gain = as_spec_number(key, value);
    } else if (key == "ugf_hz") {
      spec.ugf_hz = as_spec_number(key, value);
    } else if (key == "ibias") {
      spec.ibias = as_spec_number(key, value);
    } else if (key == "cload") {
      spec.cload = as_spec_number(key, value);
    } else if (key == "zout") {
      spec.zout = as_spec_number(key, value);
    } else if (key == "area_budget") {
      spec.area_budget = as_spec_number(key, value);
    } else if (key == "buffer") {
      if (value.kind != json::Value::Kind::Bool) {
        throw ParseError("request: 'buffer' must be a bool");
      }
      spec.buffer = value.boolean;
    } else if (key == "source") {
      const std::string& s = value.as_string();
      if (s == "mirror") {
        spec.source = est::CurrentSourceKind::Mirror;
      } else if (s == "wilson") {
        spec.source = est::CurrentSourceKind::Wilson;
      } else {
        throw ParseError("request: source must be mirror|wilson, got '" + s +
                         "'");
      }
    } else {
      throw ParseError("request: unknown spec key '" + key + "'");
    }
  }
  return spec;
}

/// A non-negative integer field that fits an int (as_long() already
/// refuses fractions and values outside long).
int as_count(const json::Value& value, const char* key) {
  const long n = value.as_long();
  if (n < 0 || n > std::numeric_limits<int>::max()) {
    throw ParseError(std::string("request: bad ") + key);
  }
  return static_cast<int>(n);
}

}  // namespace

Request parse_request(const std::string& payload) {
  const json::Value doc = json::parse(payload);
  if (doc.kind != json::Value::Kind::Object) {
    throw ParseError("request: payload must be a JSON object");
  }
  Request req;
  const json::Value* op = doc.find("op");
  if (op == nullptr) throw ParseError("request: missing 'op'");
  const std::string& kind = op->as_string();
  constexpr RequestKind kKinds[] = {
      RequestKind::Estimate,    RequestKind::Synthesize, RequestKind::Simulate,
      RequestKind::CornerSweep, RequestKind::Stats,      RequestKind::Ping};
  const auto known =
      std::find_if(std::begin(kKinds), std::end(kKinds),
                   [&](RequestKind k) { return kind == to_string(k); });
  if (known == std::end(kKinds)) {
    throw ParseError("request: unknown op '" + kind + "'");
  }
  req.kind = *known;

  if (const json::Value* id = doc.find("id")) req.id = id->as_string();
  if (const json::Value* t = doc.find("timeout_ms")) {
    req.timeout_ms = t->as_number();
    if (req.timeout_ms < 0.0) throw ParseError("request: negative timeout_ms");
  }
  if (const json::Value* it = doc.find("iterations")) {
    req.iterations = as_count(*it, "iterations");
  }
  if (const json::Value* s = doc.find("seed")) {
    // A JSON number is a double: integers below 2^53 arrive exactly,
    // while 2^53 is also where 2^53 + 1 rounds to, so it is refused too.
    const double seed = s->as_number();
    if (!(seed >= 0.0 && seed < 9007199254740992.0) ||
        seed != std::trunc(seed)) {
      throw ParseError("request: bad seed");
    }
    req.seed = static_cast<uint64_t>(seed);
  }

  if (req.kind == RequestKind::Estimate || req.kind == RequestKind::Synthesize ||
      req.kind == RequestKind::CornerSweep) {
    const json::Value* spec = doc.find("spec");
    if (spec != nullptr) req.spec = spec_from_json(*spec);
  }
  if (req.kind == RequestKind::CornerSweep) {
    if (const json::Value* c = doc.find("corners")) req.corners = c->as_string();
    if (const json::Value* m = doc.find("mc_samples")) {
      req.mc_samples = as_count(*m, "mc_samples");
    }
  }
  if (req.kind == RequestKind::Simulate) {
    const json::Value* netlist = doc.find("netlist");
    if (netlist == nullptr) throw ParseError("request: simulate needs 'netlist'");
    req.netlist = netlist->as_string();
  }
  return req;
}

std::string spec_to_json(const est::OpAmpSpec& spec) { return json::dump(spec); }

json::Writer response(const std::string& id, const char* status,
                      bool degraded) {
  json::Writer w;
  w.begin_object()
      .field("id", id)
      .field("status", status)
      .field("degraded", degraded);
  return w;
}

std::string error_response(const std::string& id, const std::string& what) {
  json::Writer w = response(id, "error", false);
  return w.field("error", what).end_object().str();
}

std::string shed_response(const std::string& id, const std::string& reason) {
  json::Writer w = response(id, "shed", false);
  return w.field("reason", reason).end_object().str();
}

}  // namespace ape::serve
