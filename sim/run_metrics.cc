#include "sim/run_metrics.h"

#include <cstdio>
#include <utility>

namespace structride {
namespace {

// RunMetrics{AnyField<0>{}, ...} compiles exactly when it has at most as
// many initializers as RunMetrics has fields.
template <size_t>
struct AnyField {
  template <typename T>
  operator T() const;
};
template <typename Seq, typename = void>
struct Initializable : std::false_type {};
template <size_t... I>
struct Initializable<std::index_sequence<I...>,
                     std::void_t<decltype(RunMetrics{AnyField<I>{}...})>>
    : std::true_type {};
constexpr size_t kEntries = std::tuple_size_v<decltype(kRunMetricFields)>;
static_assert(Initializable<std::make_index_sequence<kEntries>>::value &&
                  !Initializable<std::make_index_sequence<kEntries + 1>>::value,
              "kRunMetricFields needs one entry per RunMetrics field");

}  // namespace

std::string ParityDiff(const RunMetrics& a, const RunMetrics& b,
                       ParityScope scope) {
  auto every_digit = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  std::string diff;
  ForEachMetric([&](const auto& field) {
    const bool checked =
        field.parity == Parity::kOutcome ||
        (field.parity == Parity::kWork &&
         scope == ParityScope::kOutcomeAndWork);
    if (!checked || a.*field.member == b.*field.member) return;
    if (!diff.empty()) diff += "; ";
    diff += std::string(field.name) + " " +
            MetricText(a.*field.member, every_digit, ",") + " vs " +
            MetricText(b.*field.member, every_digit, ",");
  });
  return diff;
}

}  // namespace structride
