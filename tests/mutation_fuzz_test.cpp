// Seeded mutation fuzz over everything a CLI feeds a trace file into: the
// .ttb reader, SynthesisSession::ingest_file (+ model) and
// StreamSentinel::feed_file. Mutants truncate and flip bytes of the
// golden trace, both as JSONL and as a .ttb written from it. Every
// mutant must end in a typed error (an api::Error, or an exception from
// the TtbReader constructor) or a valid result — never a crash, a
// sanitizer report or an exception escaping a Result API.
//
// The mutants come from a fixed std::mt19937_64 stream (its output is
// fixed by the standard), so every platform runs the same inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "sentinel/stream.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"

namespace tetra {
namespace {

constexpr std::uint64_t kSeed = 0x7e77a5eedULL;
constexpr int kTruncations = 8;
constexpr int kFlipMutants = 24;

std::string golden_path() {
  return std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
}

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << "cannot write " << path;
}

struct Mutant {
  std::string description;
  std::string bytes;
};

/// Truncations at evenly spread lengths (including 0 and one byte short),
/// then mutants with 1-4 random bytes each replaced by a random value.
std::vector<Mutant> mutants_of(const std::string& bytes, std::uint64_t seed) {
  std::vector<Mutant> out;
  for (int k = 0; k < kTruncations; ++k) {
    const std::size_t length =
        k + 1 == kTruncations ? bytes.size() - 1
                              : bytes.size() * static_cast<std::size_t>(k) /
                                    kTruncations;
    out.push_back({"truncated to " + std::to_string(length) + " bytes",
                   bytes.substr(0, length)});
  }
  std::mt19937_64 rng(seed);
  for (int k = 0; k < kFlipMutants; ++k) {
    Mutant mutant{"", bytes};
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = static_cast<std::size_t>(rng() % bytes.size());
      const char value = static_cast<char>(rng() & 0xff);
      mutant.description += "byte " + std::to_string(at) + " = " +
                            std::to_string(static_cast<unsigned char>(value)) +
                            "; ";
      mutant.bytes[at] = value;
    }
    out.push_back(std::move(mutant));
  }
  return out;
}

sentinel::SentinelConfig follow_config() {
  sentinel::SentinelConfig config;  // the tetra_sentinel --follow set-up
  config.window_span = Duration::ms(400);
  config.window_advance = Duration::ms(200);
  config.rebase_segments = true;
  return config;
}

/// What the consumers made of one mutant.
struct Outcome {
  bool opened = false;    ///< TtbReader accepted it
  bool ingested = false;  ///< the session ingested and synthesized it
  bool fed = false;       ///< the stream accepted it
};

/// Feeds one mutant file through every consumer.
Outcome exercise(const std::string& path, const trace::EventVector& baseline) {
  Outcome outcome;
  try {
    const trace::TtbReader reader(path);
    outcome.opened = true;
    // An opened file was validated: decoding every row must succeed.
    EXPECT_NO_THROW(reader.materialize());
  } catch (const std::exception&) {
    // Typed rejection at open.
  }

  api::SynthesisSession session;
  api::Result<api::SegmentInfo> segment = api::SegmentInfo{};
  EXPECT_NO_THROW(segment = session.ingest_file(path));
  if (segment.ok()) {
    api::Result<core::TimingModel> model = core::TimingModel{};
    EXPECT_NO_THROW(model = session.model());
    outcome.ingested = model.ok();
  }

  sentinel::StreamSentinel stream(follow_config());
  EXPECT_TRUE(stream.ingest_baseline(baseline).ok());
  api::Result<std::vector<sentinel::WindowVerdict>> verdicts =
      std::vector<sentinel::WindowVerdict>{};
  EXPECT_NO_THROW(verdicts = stream.feed_file(path));
  outcome.fed = verdicts.ok();
  // Whatever the mutant did to the stream's state, the next segment gets
  // a typed answer too.
  EXPECT_NO_THROW(stream.feed_file(golden_path()));
  return outcome;
}

class MutationFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    baseline_ = trace::read_jsonl_file(golden_path());
    dir_ = std::filesystem::path(::testing::TempDir()) / "mutation_fuzz";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Runs every mutant; returns how many the stream accepted and how
  /// many it rejected, so a test can check both outcomes occur.
  std::pair<int, int> run_mutants(const std::string& bytes,
                                  const std::string& extension,
                                  std::uint64_t seed) {
    const std::vector<Mutant> mutants = mutants_of(bytes, seed);
    int accepted = 0;
    for (std::size_t k = 0; k < mutants.size(); ++k) {
      SCOPED_TRACE("mutant " + std::to_string(k) + ": " +
                   mutants[k].description);
      const std::string path =
          (dir_ / ("mutant-" + std::to_string(k) + extension)).string();
      write_bytes(path, mutants[k].bytes);
      accepted += exercise(path, baseline_).fed ? 1 : 0;
    }
    return {accepted, static_cast<int>(mutants.size()) - accepted};
  }

  trace::EventVector baseline_;
  std::filesystem::path dir_;
};

TEST_F(MutationFuzzTest, TtbMutantsErrorOrSucceed) {
  const std::string ttb = (dir_ / "golden.ttb").string();
  trace::write_ttb_file(ttb, baseline_);
  const auto [accepted, rejected] = run_mutants(read_bytes(ttb), ".ttb", kSeed);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(MutationFuzzTest, JsonlMutantsErrorOrSucceed) {
  const auto [accepted, rejected] =
      run_mutants(read_bytes(golden_path()), ".jsonl", kSeed + 1);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(MutationFuzzTest, ExtremeTimestampsErrorOrSucceed) {
  // Files whose event times or embedded source timestamps sit at or just
  // inside the ends of the trace timestamp range: readers reject the
  // former, and differences and rebase offsets over the latter must not
  // overflow anywhere downstream.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::size_t rows[] = {0, baseline_.size() / 3, baseline_.size() - 1};
  int k = 0;
  for (const std::int64_t value : {kMin, kMax, kMin / 2, kMax / 2}) {
    for (const std::size_t row : rows) {
      for (const bool source_ts : {false, true}) {
        trace::EventVector events = baseline_;
        std::size_t at = row;
        if (source_ts) {
          // The first write at or after the row, else the last before it.
          const auto is_write = [&](std::size_t i) {
            return events[i].type == trace::EventType::DdsWrite;
          };
          while (at < events.size() && !is_write(at)) ++at;
          if (at == events.size()) {
            at = row;
            while (at > 0 && !is_write(at)) --at;
          }
          ASSERT_EQ(events[at].type, trace::EventType::DdsWrite);
          std::get<trace::DdsWriteInfo>(events[at].payload).src_ts =
              TimePoint{value};
        } else {
          events[at].time = TimePoint{value};
        }
        SCOPED_TRACE("row " + std::to_string(at) +
                     (source_ts ? " src_ts = " : " time = ") +
                     std::to_string(value));
        const std::string path =
            (dir_ / ("extreme-" + std::to_string(k++) + ".ttb")).string();
        trace::write_ttb_file(path, events);
        const Outcome outcome = exercise(path, baseline_);
        // Readers accept exactly the timestamps within the trace range.
        EXPECT_EQ(outcome.opened, trace::timestamp_in_range(value));
      }
    }
  }
}

}  // namespace
}  // namespace tetra
