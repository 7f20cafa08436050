#pragma once

/// \file factory.hpp
/// \brief Construct storage models from compact textual specs — the
/// io-layer sibling of core::make_policy (DESIGN.md §5g).
///
/// Spec grammar (kind plus key=value parameters, common/keyval.hpp):
///   "constant:beta=0.5"                     — ConstantStorage(0.5, 0.5)
///   "constant:beta=0.5,gamma=0.25"          — ConstantStorage(0.5, 0.25)
///   "constant:beta=0.5,size_gb=150"         — with write-volume accounting
///   "spider:size_gb=150,span=1000"          — synthetic Spider-like
///     bandwidth trace (io::BandwidthTrace::synthetic_spider, one shared
///     trace per span/mean/seed: shared_spider_trace) driving a
///     TraceStorage; optional mean=10, seed=7, offset=0, read_speedup=1
///
/// γ defaults to β when omitted.  Kinds live in a registry so new backends
/// (tiered, trace-file-driven) plug in without touching this file.  Unknown
/// kinds, unknown keys, and malformed numbers throw InvalidArgument naming
/// the offending token.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/keyval.hpp"
#include "io/bandwidth_trace.hpp"
#include "io/storage_model.hpp"

namespace lazyckpt::io {

/// Builds a storage model from its parsed spec.  Throws InvalidArgument on
/// missing/unknown parameters.
using StorageBuilder = StorageModelPtr (*)(const keyval::ParsedSpec&);

/// The kind → builder table behind make_storage.  Builtin kinds (constant,
/// spider) are registered on first use; extensions add theirs via add().
class StorageRegistry {
 public:
  /// The process-wide registry.
  static StorageRegistry& instance();

  /// Register `kind`.  Throws InvalidArgument if it is already taken.
  void add(const std::string& kind, StorageBuilder builder);

  /// Parse `spec` and build.  Throws InvalidArgument on an unknown kind or
  /// malformed parameters.
  [[nodiscard]] StorageModelPtr make(std::string_view spec) const;

  /// Registered kinds in name order (deterministic for --list output).
  [[nodiscard]] std::vector<std::string> kinds() const;

 private:
  StorageRegistry();
  std::map<std::string, StorageBuilder, std::less<>> builders_;
};

/// BandwidthTrace::synthetic_spider(span_hours, mean_gbps, 1.0, 110.0,
/// seed), shared: the last successful synthesis is kept and returned to
/// every call with equal arguments, so rebuilding a spider model (each
/// Scenario::validate on a cache hit does) costs no re-synthesis.
/// Thread-safe; a failed synthesis throws as synthetic_spider does and is
/// not kept.
[[nodiscard]] std::shared_ptr<const BandwidthTrace> shared_spider_trace(
    double span_hours, double mean_gbps, std::uint64_t seed);

/// The model behind the spider kind and io/hierarchy.hpp's trace tiers,
/// from `spec`'s span/mean/seed/size_gb/offset/read_speedup keys.
[[nodiscard]] StorageModelPtr make_spider_storage(
    const keyval::ParsedSpec& spec);

/// Parse `spec` and build the storage model via the process registry.
/// Throws InvalidArgument on a malformed or unknown spec.
[[nodiscard]] StorageModelPtr make_storage(std::string_view spec);

}  // namespace lazyckpt::io
