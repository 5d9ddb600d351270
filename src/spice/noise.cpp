#include "src/spice/noise.h"

#include <cmath>
#include <complex>

#include "src/spice/devices.h"
#include "src/spice/kernel.h"
#include "src/util/error.h"
#include "src/util/matrix.h"

namespace ape::spice {

double NoiseResult::integrated_out_vrms(double f1, double f2) const {
  double acc = 0.0;
  for (size_t k = 1; k < freq_hz.size(); ++k) {
    const double a = freq_hz[k - 1];
    const double b = freq_hz[k];
    if (b < f1 || a > f2) continue;
    const double lo = std::max(a, f1);
    const double hi = std::min(b, f2);
    // Linear interpolation of the PSD inside the panel.
    const double t0 = (lo - a) / (b - a);
    const double t1 = (hi - a) / (b - a);
    const double p0 = out_v2[k - 1] + t0 * (out_v2[k] - out_v2[k - 1]);
    const double p1 = out_v2[k - 1] + t1 * (out_v2[k] - out_v2[k - 1]);
    acc += 0.5 * (p0 + p1) * (hi - lo);
  }
  return std::sqrt(acc);
}

NoiseResult noise_analysis(Circuit& ckt, const std::string& out_node,
                           double f_start, double f_stop,
                           int points_per_decade, const std::string& in_source) {
  if (f_start <= 0.0 || f_stop < f_start) {
    throw SpecError("noise_analysis: bad frequency range");
  }
  ckt.finalize();
  const size_t dim = ckt.dim();
  const NodeId out = ckt.find_node(out_node);
  if (out == kGround) throw SpecError("noise_analysis: output is ground");

  // Collect every device's noise sources once (op-point dependent).
  std::vector<NoiseSource> sources;
  for (const auto& dev : ckt.devices()) dev->noise_sources(sources);

  const VSource* input = nullptr;
  if (!in_source.empty()) {
    input = &ckt.find_as<VSource>(in_source);
  }

  NoiseResult res;
  const double decades = std::log10(f_stop / f_start);
  const int n = std::max(2, static_cast<int>(std::ceil(decades * points_per_decade)) + 1);
  // Compiled kernel: fused G + jwC assembly per point, one in-place
  // factorization reused for the stimulus solve plus one solve per
  // noise source. All buffers live for the whole sweep.
  AcKernel kern(ckt);
  std::vector<std::complex<double>> rhs(dim, {0.0, 0.0});
  std::vector<std::complex<double>> x(dim);
  const double ratio = std::pow(10.0, decades / (n - 1));
  double f = f_start;
  for (int k = 0; k < n; ++k) {
    kern.assemble(2.0 * M_PI * f);
    kern.factorize();

    // Signal transfer (for input referral): the circuit's own AC stimulus.
    double h2 = 0.0;
    if (input != nullptr) {
      kern.solve_rhs(kern.mna().rhs(), x);
      const std::complex<double> h =
          out == kGround ? 0.0 : x[static_cast<size_t>(out)];
      h2 = std::norm(h);
    }

    // One solve per noise source: unit current injected p -> n.
    double psd_out = 0.0;
    for (const auto& src : sources) {
      if (src.p != kGround) rhs[static_cast<size_t>(src.p)] = {1.0, 0.0};
      if (src.n != kGround) rhs[static_cast<size_t>(src.n)] = {-1.0, 0.0};
      kern.solve_rhs(rhs, x);
      if (src.p != kGround) rhs[static_cast<size_t>(src.p)] = {0.0, 0.0};
      if (src.n != kGround) rhs[static_cast<size_t>(src.n)] = {0.0, 0.0};
      const double gain2 = std::norm(x[static_cast<size_t>(out)]);
      psd_out += gain2 * src.psd(f);
    }

    res.freq_hz.push_back(f);
    res.out_v2.push_back(psd_out);
    res.in_v2.push_back(h2 > 0.0 ? psd_out / h2 : 0.0);
    f *= ratio;
  }
  return res;
}

}  // namespace ape::spice
