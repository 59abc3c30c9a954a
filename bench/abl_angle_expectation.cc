// Ablation for Theorem III.1 / Sec. III-B: (a) verify the generated trip
// lengths fit a log-normal, (b) numerically evaluate the paper's expected
// sharing probability E(theta >= delta) at delta = pi/2 under the fitted
// log-normal with gamma = 1.5 (paper reports 40.98% for CHD and 41.38% for
// NYC), and (c) measure the empirical shareable fraction among wide-angle
// pairs for comparison.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "geo/angle.h"
#include "roadnet/generator.h"
#include "sharegraph/builder.h"
#include "sim/datasets.h"
#include "sim/workload.h"
#include "util/stats.h"

using namespace structride;

namespace {

// Log-normal CDF with parameters (mu, sigma).
double LogNormalCdf(double x, double mu, double sigma) {
  if (x <= 0) return 0;
  return 0.5 * std::erfc(-(std::log(x) - mu) / (sigma * std::sqrt(2.0)));
}

// The paper's E(theta >= delta): for trip cost 2c = x of request ra, a
// candidate rb at angle theta = delta shares if its trip cost y satisfies
// y <= g(c) (schedule a) or y >= h(c) (schedule b), with
//   g(c) = 1 / (cos^2(t/2) / (gamma c) + sin^2(t/2) / ((gamma-1) c))
//   h(c) = 2 c (1 - cos t) / (gamma - 1).
double ExpectedSharingProbability(double mu, double sigma, double gamma,
                                  double theta) {
  double cos_half_sq = std::pow(std::cos(theta / 2), 2);
  double sin_half_sq = std::pow(std::sin(theta / 2), 2);
  // Numeric integration over x ~ LogNormal(mu, sigma).
  const int kSteps = 4000;
  double total = 0;
  double prev_cdf = 0;
  for (int i = 1; i <= kSteps; ++i) {
    // Integrate in quantile space for stability.
    double q = (static_cast<double>(i) - 0.5) / kSteps;
    // Inverse CDF via bisection on LogNormalCdf.
    double lo = 1e-6, hi = std::exp(mu + 6 * sigma);
    for (int it = 0; it < 60; ++it) {
      double mid = 0.5 * (lo + hi);
      if (LogNormalCdf(mid, mu, sigma) < q) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    double x = 0.5 * (lo + hi);
    double c = x / 2;
    double g = 1.0 / (cos_half_sq / (gamma * c) + sin_half_sq / ((gamma - 1) * c));
    double h = 2 * c * (1 - std::cos(theta)) / (gamma - 1);
    double p = LogNormalCdf(g, mu, sigma) +
               (1.0 - LogNormalCdf(std::max(h, g), mu, sigma));
    total += p;
    (void)prev_cdf;
  }
  return total / kSteps;
}

}  // namespace

int main() {
  std::printf("\n================================================================\n");
  std::printf("Sec. III-B ablation: angle pruning expectation E(theta >= pi/2)\n");
  std::printf("================================================================\n");
  std::printf("%-10s%12s%12s%16s%18s\n", "dataset", "fit mu", "fit sigma",
              "E(analytic)", "empirical share");

  for (const char* name : {"CHD", "NYC"}) {
    DatasetSpec spec = DatasetByName(name, 0.2);
    RoadNetwork net = BuildNetwork(&spec);
    TravelCostEngine engine(net);
    auto reqs = GenerateWorkload(net, &engine, spec.policy, spec.workload);

    // Fit log-normal to direct costs.
    RunningStat logs;
    for (const Request& r : reqs) logs.Add(std::log(r.direct_cost));
    double mu = logs.Mean();
    double sigma = logs.StdDev();

    double analytic = ExpectedSharingProbability(mu, sigma, /*gamma=*/1.5,
                                                 /*theta=*/kPi / 2);

    // Empirical: among sampled pairs with angle >= pi/2, what fraction is
    // actually shareable? (These are the pairs the prune would discard.)
    ShareGraphBuilder builder(&engine, {});
    int wide = 0, wide_shareable = 0;
    size_t limit = std::min<size_t>(reqs.size(), 400);
    for (size_t i = 0; i < limit; ++i) {
      for (size_t j = i + 1; j < limit && wide < 4000; ++j) {
        const Request& ra = reqs[i];
        const Request& rb = reqs[j];
        if (std::abs(ra.release_time - rb.release_time) > 120) continue;
        Point sb = net.position(rb.source);
        Point eb = net.position(rb.destination);
        Point ea = net.position(ra.destination);
        double theta = AngleBetween(ea - sb, eb - sb);
        if (theta < kPi / 2) continue;
        ++wide;
        if (builder.Shareable(ra, rb)) ++wide_shareable;
      }
    }
    double empirical = wide == 0 ? 0 : static_cast<double>(wide_shareable) / wide;
    bench::RecordJsonValue(name, "gamma=1.5", "analytic_expectation", analytic);
    bench::RecordJsonValue(name, "gamma=1.5", "empirical_share", empirical);
    std::printf("%-10s%12.3f%12.3f%16.4f%18.4f\n", name, mu, sigma, analytic,
                empirical);
  }
  std::printf("\npaper: E = 0.4098 (CHD), 0.4138 (NYC) at gamma=1.5\n");
  return 0;
}
