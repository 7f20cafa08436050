#include "io/hierarchy.hpp"

#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/fp.hpp"
#include "io/factory.hpp"

namespace lazyckpt::io {
namespace {

/// Shared tier construction: β/γ source (constant or spider trace) plus
/// the cadence/capacity/survivability knobs.  `default_survivable` is the
/// only thing the builtin kinds disagree on.
StorageTier build_tier(const keyval::ParsedSpec& spec,
                       double default_survivable) {
  spec.require_keys({"beta", "gamma", "size_gb", "survivable", "every",
                     "capacity", "span", "mean", "seed", "offset",
                     "read_speedup"});

  StorageTier tier;
  tier.kind = spec.kind;
  if (spec.has("span")) {
    if (spec.has("beta") || spec.has("gamma")) {
      throw InvalidArgument("tier '" + spec.text +
                            "': beta/gamma and span are mutually exclusive "
                            "(a trace tier derives both from the trace)");
    }
    tier.model = make_spider_storage(spec);
  } else {
    const double beta = spec.number("beta");
    tier.model = std::make_unique<ConstantStorage>(
        beta, spec.number_or("gamma", beta), spec.number_or("size_gb", 0.0));
  }

  tier.survivable_fraction = spec.number_or("survivable", default_survivable);
  const double every = spec.number_or("every", 1.0);
  require(every >= 1.0 &&
              fp::exact_eq(every,
                           static_cast<double>(static_cast<int>(every))),
          "tier '" + spec.text + "': every must be a positive integer");
  tier.every = static_cast<int>(every);
  const double capacity = spec.number_or("capacity", 0.0);
  require(capacity >= 0.0 &&
              fp::exact_eq(capacity,
                           static_cast<double>(
                               static_cast<std::size_t>(capacity))),
          "tier '" + spec.text + "': capacity must be a non-negative "
          "integer");
  tier.capacity = static_cast<std::size_t>(capacity);
  return tier;
}

// The builtin kinds differ only in the failure domain their copies live
// in: node-local memory replicas survive process-level failures but die
// with the node (ReStore), burst buffers survive most node losses, the
// parallel filesystem survives everything.
StorageTier build_mem(const keyval::ParsedSpec& spec) {
  return build_tier(spec, 0.5);
}
StorageTier build_bb(const keyval::ParsedSpec& spec) {
  return build_tier(spec, 0.8);
}
StorageTier build_pfs(const keyval::ParsedSpec& spec) {
  return build_tier(spec, 1.0);
}

}  // namespace

StorageTier StorageTier::clone() const {
  StorageTier out;
  out.kind = kind;
  out.model = model->clone();
  out.survivable_fraction = survivable_fraction;
  out.every = every;
  out.capacity = capacity;
  return out;
}

StorageHierarchy::StorageHierarchy(std::vector<StorageTier> tiers)
    : tiers_(std::move(tiers)) {
  require(!tiers_.empty(), "StorageHierarchy needs at least one tier");
  for (std::size_t level = 0; level < tiers_.size(); ++level) {
    const StorageTier& tier = tiers_[level];
    const std::string label =
        "StorageHierarchy tier " + std::to_string(level + 1) + " (" +
        tier.kind + ")";
    require(tier.model != nullptr, label + ": missing storage model");
    require_positive(tier.model->checkpoint_time(0.0), label + ": beta");
    require_non_negative(tier.model->restart_time(0.0), label + ": gamma");
    require(tier.every >= 1, label + ": every must be >= 1");
    require(tier.survivable_fraction >= 0.0 &&
                tier.survivable_fraction <= 1.0,
            label + ": survivable fraction must lie in [0, 1]");
    if (level > 0) {
      require(tier.survivable_fraction >=
                  tiers_[level - 1].survivable_fraction,
              label + ": survivable fractions must be non-decreasing with "
                      "depth (deeper tiers sit in larger failure domains)");
    }
  }
  require(tiers_.front().every == 1,
          "StorageHierarchy tier 1 must have every = 1 (it receives every "
          "checkpoint)");
  require(tiers_.back().survivable_fraction >= 1.0,
          "StorageHierarchy: the last tier must survive every failure "
          "(survivable = 1)");
}

StorageHierarchy StorageHierarchy::clone() const {
  std::vector<StorageTier> copies;
  copies.reserve(tiers_.size());
  for (const StorageTier& tier : tiers_) copies.push_back(tier.clone());
  return StorageHierarchy(std::move(copies));
}

std::vector<double> StorageHierarchy::betas_at(double now_hours) const {
  std::vector<double> betas;
  betas.reserve(tiers_.size());
  for (const StorageTier& tier : tiers_) {
    betas.push_back(tier.model->checkpoint_time(now_hours));
  }
  return betas;
}

std::vector<std::uint64_t> StorageHierarchy::cumulative_periods() const {
  std::vector<std::uint64_t> periods;
  periods.reserve(tiers_.size());
  std::uint64_t period = 1;
  for (const StorageTier& tier : tiers_) {
    period *= static_cast<std::uint64_t>(tier.every);
    periods.push_back(period);
  }
  return periods;
}

TierRegistry::TierRegistry() {
  builders_.emplace("mem", &build_mem);
  builders_.emplace("bb", &build_bb);
  builders_.emplace("pfs", &build_pfs);
}

TierRegistry& TierRegistry::instance() {
  static TierRegistry registry;
  return registry;
}

void TierRegistry::add(const std::string& kind, TierBuilder builder) {
  require(builder != nullptr, "TierRegistry::add: null builder");
  if (!builders_.emplace(kind, builder).second) {
    throw InvalidArgument("tier kind '" + kind + "' is already registered");
  }
}

StorageTier TierRegistry::make_tier(std::string_view spec) const {
  const keyval::ParsedSpec parsed = keyval::parse_spec(spec);
  const auto it = builders_.find(parsed.kind);
  if (it == builders_.end()) {
    throw InvalidArgument("unknown tier kind '" + parsed.kind + "' in '" +
                          parsed.text + "'");
  }
  return it->second(parsed);
}

std::vector<std::string> TierRegistry::kinds() const {
  std::vector<std::string> out;
  out.reserve(builders_.size());
  for (const auto& entry : builders_) out.push_back(entry.first);
  return out;
}

StorageHierarchy make_hierarchy(std::string_view spec) {
  std::vector<StorageTier> tiers;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t bar = spec.find('|', start);
    const std::string_view segment =
        bar == std::string_view::npos ? spec.substr(start)
                                      : spec.substr(start, bar - start);
    start = bar == std::string_view::npos ? spec.size() + 1 : bar + 1;
    if (segment.empty()) {
      throw InvalidArgument("hierarchy spec '" + std::string(spec) +
                            "': empty tier segment");
    }
    tiers.push_back(TierRegistry::instance().make_tier(segment));
  }
  return StorageHierarchy(std::move(tiers));
}

}  // namespace lazyckpt::io
