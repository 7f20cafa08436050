/// Bounded, deterministic mutation test over the tools/json reader: every
/// input either parses or throws json::ParseError, never anything else
/// (and never a crash, which the sanitizer CI job would report).
///
/// The corpus is the committed results/BENCH_*.json snapshots plus a
/// Chrome trace rendered by obs::render_chrome_trace.  A seeded
/// lazyckpt::Rng drives byte flips, truncations, splices and nesting
/// bombs, and each mutant goes through the bare reader and through the
/// three document readers built on it (the trace tool's and the gate's
/// two).  Label `fuzz`; it runs well under a second.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hpp"
#include "gate.hpp"
#include "json.hpp"
#include "obs/trace.hpp"
#include "trace_tool.hpp"

namespace lazyckpt {
namespace {

constexpr std::uint64_t kSeed = 20140623;
constexpr int kMutants = 1000;

std::vector<std::string> corpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(LAZYCKPT_SOURCE_DIR) / "results")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<std::string> documents;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    documents.push_back(buffer.str());
  }

  std::vector<obs::TraceEvent> events(6);
  events[0].name = "spec.run";
  events[0].kind = obs::EventKind::kBegin;
  events[0].ts_ns = 1'000;
  events[0].args = {obs::TraceArg::str("scenario", "fig13 \"q\"\t"),
                    obs::TraceArg::num("replicas", 200.0)};
  events[1].name = "spec.flow";
  events[1].kind = obs::EventKind::kFlowBegin;
  events[1].ts_ns = 2'000;
  events[1].flow = 7;
  events[2].name = "items";
  events[2].kind = obs::EventKind::kCounter;
  events[2].ts_ns = 2'500;
  events[2].value = 3.5;
  events[3].name = "spec.flow";
  events[3].kind = obs::EventKind::kFlowEnd;
  events[3].ts_ns = 3'000;
  events[3].flow = 7;
  events[4].name = "mark";
  events[4].kind = obs::EventKind::kInstant;
  events[4].ts_ns = 3'500;
  events[5].name = "spec.run";
  events[5].kind = obs::EventKind::kEnd;
  events[5].ts_ns = 4'000;
  events[5].args = {obs::TraceArg::str("cache", "miss")};
  documents.push_back(obs::render_chrome_trace(events));
  return documents;
}

/// Bytes a flip draws from: JSON's structural and number characters, so
/// most flips make a near-miss rather than plain garbage.
constexpr std::string_view kFlipBytes = "{}[]:,\"\\-+.eE0123456789 \ntfnux";

std::string mutate(const std::vector<std::string>& documents, Rng& rng) {
  std::string text = documents[rng.uniform_index(documents.size())];
  const auto position = [&] { return rng.uniform_index(text.size() + 1); };
  switch (rng.uniform_index(4)) {
    case 0: {  // byte flips
      const std::uint64_t flips = 1 + rng.uniform_index(4);
      for (std::uint64_t i = 0; i < flips && !text.empty(); ++i) {
        const std::uint64_t at = rng.uniform_index(text.size());
        text[at] = rng.uniform_index(2) == 0
                       ? kFlipBytes[rng.uniform_index(kFlipBytes.size())]
                       : static_cast<char>(rng.uniform_index(256));
      }
      break;
    }
    case 1:  // truncation
      text.resize(position());
      break;
    case 2: {  // splice a slice of some corpus document into this one
      const std::string& donor =
          documents[rng.uniform_index(documents.size())];
      const std::uint64_t from = rng.uniform_index(donor.size());
      const std::uint64_t length =
          rng.uniform_index(std::min<std::uint64_t>(donor.size() - from, 256));
      const std::uint64_t at = position();
      const std::uint64_t erase = rng.uniform_index(text.size() - at + 1);
      text.replace(at, erase, donor, from, length);
      break;
    }
    default: {  // nesting bomb, either side of the depth limit
      const std::uint64_t depth =
          rng.uniform_index(8) == 0
              ? 400'000
              : static_cast<std::uint64_t>(json::kMaxDepth) - 8 +
                    rng.uniform_index(16);
      const char* level = rng.uniform_index(2) == 0 ? "[" : "{\"k\": ";
      std::string bomb;
      for (std::uint64_t i = 0; i < depth; ++i) bomb += level;
      text.insert(position(), bomb);
      break;
    }
  }
  return text;
}

/// Run `parse` on one input; anything thrown other than json::ParseError
/// is a failure, reported with the input's index.
template <typename Parse>
void expect_parses_or_parse_error(int index, const char* reader,
                                  Parse&& parse) {
  try {
    parse();
  } catch (const json::ParseError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << reader << " threw a non-ParseError on mutant " << index
                  << ": " << e.what();
  }
}

TEST(JsonFuzz, EveryMutantParsesOrThrowsParseError) {
  const std::vector<std::string> documents = corpus();
  ASSERT_GE(documents.size(), 4u);  // the BENCH_*.json snapshots + a trace
  Rng rng(kSeed);
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutate(documents, rng);
    expect_parses_or_parse_error(i, "json::Reader", [&] {
      json::Reader reader(text);
      reader.skip_value();
      (void)reader.at_end();
    });
    expect_parses_or_parse_error(i, "parse_trace", [&] {
      (void)tracetool::parse_trace(text);
    });
    expect_parses_or_parse_error(i, "parse_bench_report", [&] {
      (void)benchgate::parse_bench_report(text);
    });
    expect_parses_or_parse_error(i, "parse_cache_report", [&] {
      (void)benchgate::parse_cache_report(text);
    });
  }
}

TEST(JsonFuzz, CorpusParsesUnmutated) {
  const std::vector<std::string> documents = corpus();
  for (const std::string& text : documents) {
    EXPECT_NO_THROW({
      json::Reader reader(text);
      reader.skip_value();
      EXPECT_TRUE(reader.at_end());
    });
  }
  EXPECT_EQ(tracetool::parse_trace(documents.back()).events.size(), 6u);
}

}  // namespace
}  // namespace lazyckpt
