#include "src/runtime/cache.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>

namespace ape::runtime {
namespace {

/// Writes the bytes of a key, or only counts them when it has no buffer:
/// one pass sizes the key and a second fills it, both through the same
/// put() calls, so the field list is written down once.
class KeyWriter {
public:
  explicit KeyWriter(char* out = nullptr) : out_(out) {}

  size_t size() const { return size_; }

  /// The low \p Width bytes of \p v, least significant first. The order
  /// is fixed rather than the host's, so a fingerprint (supervisor.h)
  /// reads the same on every machine.
  template <size_t Width>
  void le(uint64_t v) {
    if (out_ != nullptr) {
      // One expression per byte (no loop), through a local pointer: the
      // compiler merges the shifts into a single store on a
      // little-endian host.
      char* p = out_ + size_;
      [&]<size_t... I>(std::index_sequence<I...>) {
        ((p[I] = static_cast<char>(v >> (8 * I))), ...);
      }(std::make_index_sequence<Width>{});
    }
    size_ += Width;
  }

  void bytes(const std::string& s) {
    if (out_ != nullptr && !s.empty()) {
      std::memcpy(out_ + size_, s.data(), s.size());
    }
    size_ += s.size();
  }

private:
  char* out_;
  size_t size_ = 0;
};

/// A double as its IEEE-754 bit pattern: exact (distinct doubles, +0.0
/// and -0.0 included, never collide; equal doubles always match).
void put(KeyWriter& w, double v) { w.le<8>(std::bit_cast<uint64_t>(v)); }

/// An enum, bool or int as a fixed-width 4-byte tag.
void put_tag(KeyWriter& w, int32_t v) { w.le<4>(static_cast<uint32_t>(v)); }

/// A string behind its length, so no content can shift a field boundary.
void put(KeyWriter& w, const std::string& s) {
  w.le<8>(s.size());
  w.bytes(s);
}

void put(KeyWriter& w, const spice::MosModelCard& c) {
  put(w, c.name);
  put_tag(w, static_cast<int32_t>(c.type));
  put_tag(w, c.level);
  // Every numeric field of the card, DC through noise (parser order).
  for (double v : {c.vto, c.kp, c.gamma, c.phi, c.lambda, c.u0, c.tox,
                   c.nsub, c.ld, c.ucrit, c.uexp, c.vmax, c.theta, c.eta,
                   c.kappa, c.xj, c.vfb, c.k1, c.k2, c.muz, c.u0v, c.u1,
                   c.cgso, c.cgdo, c.cgbo, c.cj, c.mj, c.cjsw, c.mjsw,
                   c.pb, c.js, c.kf, c.af, c.rsh, c.lref}) {
    put(w, v);
  }
}

void put(KeyWriter& w, const est::Process& proc) {
  put(w, proc.name);
  // Scenario identity: the corner / Monte-Carlo variant tag and the
  // temperature condition. Without these, a zero-width perturbation (or
  // a corner whose numeric deltas happen to cancel) would collide with
  // the nominal process in the cache AND in quarantine/checkpoint
  // fingerprints, which hash this same key (supervisor.h).
  put(w, proc.variant);
  put(w, proc.temp_c);
  put(w, proc.nmos);
  put(w, proc.pmos);
  for (double v : {proc.vdd, proc.vss, proc.lmin, proc.wmin, proc.wmax}) {
    put(w, v);
  }
}

void put(KeyWriter& w, const est::OpAmpSpec& spec) {
  put_tag(w, static_cast<int32_t>(spec.source));
  put_tag(w, spec.buffer ? 1 : 0);
  for (double v : {spec.gain, spec.ugf_hz, spec.ibias, spec.cload, spec.zout,
                   spec.area_budget}) {
    put(w, v);
  }
}

void put(KeyWriter& w, const est::ModuleSpec& spec) {
  put_tag(w, static_cast<int32_t>(spec.kind));
  put_tag(w, spec.order);
  for (double v : {spec.gain, spec.bw_hz, spec.f0_hz, spec.delay_s, spec.slew,
                   spec.area_budget}) {
    put(w, v);
  }
}

/// Which estimate a key names: an opamp key and a module key of the same
/// process have the same length, so this tag alone tells them apart.
enum KeyKind : int32_t { kOpAmpKey = 1, kModuleKey = 2 };

template <class Spec>
std::string make_key(KeyKind kind, const est::Process& proc, const Spec& spec) {
  auto write = [&](KeyWriter& w) {
    put_tag(w, kind);
    put(w, proc);
    put(w, spec);
  };
  KeyWriter counter;
  write(counter);
  std::string key(counter.size(), '\0');
  KeyWriter writer(key.data());
  write(writer);
  return key;
}

}  // namespace

std::string cache_key(const est::Process& proc, const est::OpAmpSpec& spec) {
  return make_key(kOpAmpKey, proc, spec);
}

std::string cache_key(const est::Process& proc, const est::ModuleSpec& spec) {
  return make_key(kModuleKey, proc, spec);
}

std::shared_ptr<const est::OpAmpDesign> EstimateCache::opamp(
    const est::Process& proc, const est::OpAmpSpec& spec) {
  return opamps_.get_or_compute(cache_key(proc, spec), [&] {
    return est::OpAmpEstimator(proc).estimate(spec);
  });
}

std::shared_ptr<const est::ModuleDesign> EstimateCache::module(
    const est::Process& proc, const est::ModuleSpec& spec) {
  return modules_.get_or_compute(cache_key(proc, spec), [&] {
    return est::ModuleEstimator(proc).estimate(spec);
  });
}

CacheStats EstimateCache::stats() const {
  CacheStats s = opamps_.stats();
  s += modules_.stats();
  return s;
}

}  // namespace ape::runtime
