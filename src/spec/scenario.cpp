#include "spec/scenario.hpp"

#include <cstddef>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fp.hpp"
#include "common/keyval.hpp"
#include "core/policy/factory.hpp"
#include "io/factory.hpp"
#include "io/hierarchy.hpp"
#include "stats/factory.hpp"

namespace lazyckpt::spec {
namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t' ||
                           text.front() == '\r')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string_view output_id(OutputFormat format) {
  return format == OutputFormat::kJson ? "json" : "table";
}

OutputFormat output_from_id(std::string_view id, std::string_view context) {
  if (id == "table") return OutputFormat::kTable;
  if (id == "json") return OutputFormat::kJson;
  throw InvalidArgument("unknown output format '" + std::string(id) +
                        "' in '" + std::string(context) +
                        "' (want table or json)");
}

}  // namespace

std::string Scenario::tier_spec() const {
  std::string joined;
  for (const std::string& tier : tiers) {
    if (!joined.empty()) joined += '|';
    joined += tier;
  }
  return joined;
}

void Scenario::validate() const {
  if (!valid_name(name)) {
    throw InvalidArgument("scenario name '" + name +
                          "' must be non-empty [A-Za-z0-9_.-]");
  }
  // The factory specs must parse; building them is the only reliable check.
  // These builds sit on the cache-hit path (parse, run and key derivation
  // each validate), so they must stay cheap: spider storage and trace
  // tiers reuse one shared trace (io::shared_spider_trace) rather than
  // re-synthesizing it on every build.
  (void)stats::make_distribution(distribution);
  if (is_tiered()) {
    require(storage.empty(),
            "scenario " + name +
                ": storage and tier.N are mutually exclusive (a hierarchy "
                "replaces the single-level storage model)");
    (void)io::make_hierarchy(tier_spec());
    require(!is_campaign(),
            "scenario " + name + ": hierarchy scenarios do not support "
                                 "campaign mode");
    require(!record_timeline,
            "scenario " + name + ": hierarchy scenarios do not support "
                                 "record-timeline");
    require(fp::exact_eq(blocking_fraction, 1.0),
            "scenario " + name + ": hierarchy scenarios do not support "
                                 "blocking-fraction (async writes)");
    require(time_budget_hours <= 0.0,
            "scenario " + name + ": hierarchy scenarios do not support "
                                 "time-budget");
  } else {
    (void)io::make_storage(storage);
  }
  (void)core::make_policy(policy);

  require_positive(compute_hours, "scenario " + name + ": compute");
  require_non_negative(oci_hours, "scenario " + name + ": oci");
  require_non_negative(mtbf_hint_hours, "scenario " + name + ": mtbf-hint");
  require_positive(shape_hint, "scenario " + name + ": shape-hint");
  require(replicas > 0, "scenario " + name + ": replicas must be > 0");
  require(blocking_fraction > 0.0 && blocking_fraction <= 1.0,
          "scenario " + name + ": blocking-fraction must lie in (0, 1]");
  require_non_negative(time_budget_hours,
                       "scenario " + name + ": time-budget");
  require_non_negative(allocation_hours, "scenario " + name + ": allocation");
  require_non_negative(gap_hours, "scenario " + name + ": gap");
  if (is_campaign()) {
    require(max_allocations > 0,
            "scenario " + name + ": max-allocations must be > 0");
    require(time_budget_hours <= 0.0,
            "scenario " + name +
                ": time-budget and allocation are mutually exclusive "
                "(the campaign sets per-allocation budgets)");
  }
}

Scenario parse_scenario(std::string_view text) {
  Scenario out;
  std::set<std::string, std::less<>> seen;
  std::vector<std::pair<std::size_t, std::string>> tier_lines;
  int line_no = 0;

  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    std::string_view line = nl == std::string_view::npos
                                ? text.substr(start)
                                : text.substr(start, nl - start);
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw InvalidArgument("scenario line " + std::to_string(line_no) +
                            ": '" + std::string(line) + "' is not key = value");
    }
    const std::string key{trim(line.substr(0, eq))};
    const std::string value{trim(line.substr(eq + 1))};
    if (key.empty() || value.empty()) {
      throw InvalidArgument("scenario line " + std::to_string(line_no) +
                            ": empty key or value in '" + std::string(line) +
                            "'");
    }
    if (!seen.insert(key).second) {
      throw InvalidArgument("scenario line " + std::to_string(line_no) +
                            ": duplicate key '" + key + "'");
    }

    if (key == "name") {
      out.name = value;
    } else if (key == "title") {
      out.title = value;
    } else if (key == "distribution") {
      out.distribution = value;
    } else if (key == "storage") {
      out.storage = value;
    } else if (key == "policy") {
      out.policy = value;
    } else if (key == "compute") {
      out.compute_hours = keyval::parse_double(value, line);
    } else if (key == "oci") {
      out.oci_hours = value == "daly" ? 0.0 : keyval::parse_double(value, line);
    } else if (key == "mtbf-hint") {
      out.mtbf_hint_hours =
          value == "derive" ? 0.0 : keyval::parse_double(value, line);
    } else if (key == "shape-hint") {
      out.shape_hint = keyval::parse_double(value, line);
    } else if (key == "replicas") {
      out.replicas =
          static_cast<std::size_t>(keyval::parse_uint(value, line));
    } else if (key == "seed") {
      out.seed = keyval::parse_uint(value, line);
    } else if (key == "record-timeline") {
      out.record_timeline = keyval::parse_bool(value, line);
    } else if (key == "blocking-fraction") {
      out.blocking_fraction = keyval::parse_double(value, line);
    } else if (key == "time-budget") {
      out.time_budget_hours = keyval::parse_double(value, line);
    } else if (key == "allocation") {
      out.allocation_hours = keyval::parse_double(value, line);
    } else if (key == "gap") {
      out.gap_hours = keyval::parse_double(value, line);
    } else if (key == "max-allocations") {
      out.max_allocations =
          static_cast<std::size_t>(keyval::parse_uint(value, line));
    } else if (key == "output") {
      out.output = output_from_id(value, line);
    } else if (key.starts_with("tier.")) {
      const std::string_view index_text{std::string_view(key).substr(5)};
      const std::uint64_t index = keyval::parse_uint(index_text, line);
      if (index == 0) {
        throw InvalidArgument("scenario line " + std::to_string(line_no) +
                              ": tier indices start at 1");
      }
      tier_lines.emplace_back(static_cast<std::size_t>(index), value);
    } else {
      throw InvalidArgument("scenario line " + std::to_string(line_no) +
                            ": unknown key '" + key + "'");
    }
  }

  if (!tier_lines.empty()) {
    // Tier lines may appear in any order; the indices must be exactly
    // 1..N (duplicates were already rejected by the seen-key set).
    out.tiers.resize(tier_lines.size());
    for (const auto& [index, value] : tier_lines) {
      if (index > out.tiers.size()) {
        throw InvalidArgument(
            "scenario: tier indices must be contiguous 1.." +
            std::to_string(out.tiers.size()) + " but found tier." +
            std::to_string(index));
      }
      out.tiers[index - 1] = value;
    }
  }

  out.validate();
  return out;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot read scenario file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_scenario(buffer.str());
  } catch (const InvalidArgument& error) {
    throw InvalidArgument(path + ": " + error.what());
  }
}

std::string to_string(const Scenario& scenario) {
  const Scenario defaults;
  std::string out;
  const auto line = [&out](std::string_view key, std::string_view value) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  };

  line("name", scenario.name);
  if (!scenario.title.empty()) line("title", scenario.title);
  line("distribution", scenario.distribution);
  if (scenario.is_tiered()) {
    for (std::size_t level = 0; level < scenario.tiers.size(); ++level) {
      line("tier." + std::to_string(level + 1), scenario.tiers[level]);
    }
  } else {
    line("storage", scenario.storage);
  }
  line("policy", scenario.policy);
  line("compute", keyval::format_double(scenario.compute_hours));
  line("oci", scenario.oci_hours <= 0.0
                  ? "daly"
                  : keyval::format_double(scenario.oci_hours));
  line("mtbf-hint", scenario.mtbf_hint_hours <= 0.0
                        ? "derive"
                        : keyval::format_double(scenario.mtbf_hint_hours));
  line("shape-hint", keyval::format_double(scenario.shape_hint));
  line("replicas", std::to_string(scenario.replicas));
  line("seed", std::to_string(scenario.seed));
  if (scenario.record_timeline) line("record-timeline", "true");
  if (fp::exact_ne(scenario.blocking_fraction, defaults.blocking_fraction)) {
    line("blocking-fraction",
         keyval::format_double(scenario.blocking_fraction));
  }
  if (fp::exact_ne(scenario.time_budget_hours, defaults.time_budget_hours)) {
    line("time-budget", keyval::format_double(scenario.time_budget_hours));
  }
  if (scenario.is_campaign()) {
    line("allocation", keyval::format_double(scenario.allocation_hours));
    line("gap", keyval::format_double(scenario.gap_hours));
    line("max-allocations", std::to_string(scenario.max_allocations));
  }
  if (scenario.output != defaults.output) {
    line("output", output_id(scenario.output));
  }
  return out;
}

std::string to_file_string(const Scenario& scenario) {
  return "# lazyckpt scenario (DESIGN.md \xC2\xA7"
         "5g); run with: lazyckpt-run <this file>\n" +
         to_string(scenario);
}

void save_scenario(const Scenario& scenario, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open scenario file for writing: " + path);
  out << to_file_string(scenario);
  if (!out) throw IoError("failed writing scenario file: " + path);
}

}  // namespace lazyckpt::spec
