// Copyright (c) swsample authors. Licensed under the MIT license.

#include "apps/freq_moments.h"

#include <cmath>
#include <string>
#include <utility>

namespace swsample {

Result<std::unique_ptr<FkEstimator>> FkEstimator::Create(
    const Substrate::Params& params, uint32_t moment) {
  if (moment < 1) {
    return Status::InvalidArgument("ams-fk: moment must be >= 1");
  }
  auto substrate =
      Substrate::Create(params, CountOnSampled{}, CountOnArrival{});
  if (!substrate.ok()) return substrate.status();
  return std::unique_ptr<FkEstimator>(
      new FkEstimator(std::move(substrate).ValueOrDie(), moment));
}

FkEstimator::FkEstimator(Substrate substrate, uint32_t moment)
    : substrate_(std::move(substrate)), moment_(moment), metric_("F") {
  metric_ += std::to_string(moment);
}

EstimateReport FkEstimator::Estimate() {
  EstimateReport report;
  report.metric = metric_;
  const double n = substrate_.WindowSizeEstimate();
  report.window_size = n;
  if (n <= 0.0) return report;
  double acc = 0.0;
  report.support = substrate_.ForEachSample(
      [&](const Item&, const CountPayload& payload) {
        const double c = static_cast<double>(payload.count);
        acc += n * (std::pow(c, moment_) - std::pow(c - 1.0, moment_));
      });
  if (report.support > 0) {
    report.value = acc / static_cast<double>(report.support);
  }
  return report;
}

}  // namespace swsample
