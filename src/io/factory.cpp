#include "io/factory.hpp"

#include <memory>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "common/fp.hpp"

namespace lazyckpt::io {
namespace {

/// TraceStorage that co-owns its immutable trace, so per-replica clone()
/// stays cheap while the pointer TraceStorage holds remains valid.
class SyntheticTraceStorage final : public StorageModel {
 public:
  SyntheticTraceStorage(std::shared_ptr<const BandwidthTrace> trace,
                        double size_gb, double offset_hours,
                        double read_speedup)
      : trace_(std::move(trace)),
        inner_(size_gb, *trace_, offset_hours, read_speedup) {}

  [[nodiscard]] double checkpoint_time(double now_hours) const override {
    return inner_.checkpoint_time(now_hours);
  }
  [[nodiscard]] double restart_time(double now_hours) const override {
    return inner_.restart_time(now_hours);
  }
  [[nodiscard]] double checkpoint_size_gb() const override {
    return inner_.checkpoint_size_gb();
  }
  [[nodiscard]] StorageModelPtr clone() const override {
    return std::make_unique<SyntheticTraceStorage>(*this);
  }

 private:
  std::shared_ptr<const BandwidthTrace> trace_;
  TraceStorage inner_;
};

StorageModelPtr build_constant(const keyval::ParsedSpec& spec) {
  spec.require_keys({"beta", "gamma", "size_gb"});
  const double beta = spec.number("beta");
  return std::make_unique<ConstantStorage>(beta, spec.number_or("gamma", beta),
                                           spec.number_or("size_gb", 0.0));
}

StorageModelPtr build_spider(const keyval::ParsedSpec& spec) {
  spec.require_keys(
      {"size_gb", "span", "mean", "seed", "offset", "read_speedup"});
  return make_spider_storage(spec);
}

}  // namespace

std::shared_ptr<const BandwidthTrace> shared_spider_trace(
    double span_hours, double mean_gbps, std::uint64_t seed) {
  static std::mutex mutex;
  static double memo_span = 0.0;
  static double memo_mean = 0.0;
  static std::uint64_t memo_seed = 0;
  static std::shared_ptr<const BandwidthTrace> memo;
  // Held across the synthesis, so concurrent first calls build one trace.
  const std::lock_guard<std::mutex> lock(mutex);
  if (memo == nullptr || !fp::exact_eq(memo_span, span_hours) ||
      !fp::exact_eq(memo_mean, mean_gbps) || memo_seed != seed) {
    memo = std::make_shared<const BandwidthTrace>(
        BandwidthTrace::synthetic_spider(span_hours, mean_gbps, 1.0, 110.0,
                                         seed));
    memo_span = span_hours;
    memo_mean = mean_gbps;
    memo_seed = seed;
  }
  return memo;
}

StorageModelPtr make_spider_storage(const keyval::ParsedSpec& spec) {
  const double span = spec.number("span");
  const double mean = spec.number_or("mean", 10.0);
  const double seed = spec.number_or("seed", 7.0);
  auto trace =
      shared_spider_trace(span, mean, static_cast<std::uint64_t>(seed));
  return std::make_unique<SyntheticTraceStorage>(
      std::move(trace), spec.number("size_gb"),
      spec.number_or("offset", 0.0), spec.number_or("read_speedup", 1.0));
}

StorageRegistry::StorageRegistry() {
  builders_.emplace("constant", &build_constant);
  builders_.emplace("spider", &build_spider);
}

StorageRegistry& StorageRegistry::instance() {
  static StorageRegistry registry;
  return registry;
}

void StorageRegistry::add(const std::string& kind, StorageBuilder builder) {
  require(builder != nullptr, "StorageRegistry::add: null builder");
  if (!builders_.emplace(kind, builder).second) {
    throw InvalidArgument("storage kind '" + kind + "' is already registered");
  }
}

StorageModelPtr StorageRegistry::make(std::string_view spec) const {
  const keyval::ParsedSpec parsed = keyval::parse_spec(spec);
  const auto it = builders_.find(parsed.kind);
  if (it == builders_.end()) {
    throw InvalidArgument("unknown storage kind '" + parsed.kind + "' in '" +
                          parsed.text + "'");
  }
  return it->second(parsed);
}

std::vector<std::string> StorageRegistry::kinds() const {
  std::vector<std::string> out;
  out.reserve(builders_.size());
  for (const auto& entry : builders_) out.push_back(entry.first);
  return out;
}

StorageModelPtr make_storage(std::string_view spec) {
  return StorageRegistry::instance().make(spec);
}

}  // namespace lazyckpt::io
