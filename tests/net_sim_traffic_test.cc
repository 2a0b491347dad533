// The simulated network's traffic, pinned. The paper's figures are message
// and byte counts per category plus virtual execution time, all produced by
// net::Network; a change to how the simulator charges, schedules or
// delivers a message moves them. This suite runs the six generated
// sharing patterns on a 4-node simulated cluster under the adaptive
// protocol (AT) and under no migration (NoHM), with a fixed seed, and
// asserts every category's messages and bytes and the final virtual time
// against values recorded from a known-good build. A legitimate change to
// the simulator's model must update this table on purpose.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "src/workload/patterns.h"
#include "src/workload/runner.h"

namespace hmdsm {
namespace {

constexpr std::size_t kCats = stats::kNumMsgCats;

struct Pinned {
  const char* pattern;
  const char* policy;
  std::int64_t virtual_ns;
  std::uint64_t messages[kCats];  // indexed by stats::MsgCat
  std::uint64_t bytes[kCats];
};

// clang-format off
constexpr Pinned kPinned[] = {
    {"migratory", "AT", 143354886,
     {616, 127, 190, 235, 1056, 0, 0},
     {66157, 48133, 37386, 12690, 64100, 0, 0}},
    {"migratory", "NoHM", 135182246,
     {576, 0, 432, 0, 1056, 0, 0},
     {105696, 0, 84935, 0, 75677, 0, 0}},
    {"pingpong", "AT", 24536108,
     {128, 0, 0, 0, 256, 0, 0},
     {23488, 0, 0, 0, 31943, 0, 0}},
    {"pingpong", "NoHM", 24536108,
     {128, 0, 0, 0, 256, 0, 0},
     {23488, 0, 0, 0, 31943, 0, 0}},
    {"producer_consumer", "AT", 9737149,
     {201, 3, 6, 6, 96, 0, 0},
     {35718, 1137, 1175, 324, 5088, 0, 0}},
    {"producer_consumer", "NoHM", 14024157,
     {192, 0, 48, 0, 96, 0, 0},
     {35232, 0, 9435, 0, 5088, 0, 0}},
    {"hotspot", "AT", 8340880,
     {48, 0, 0, 0, 78, 0, 0},
     {8808, 0, 0, 0, 11036, 0, 0}},
    {"hotspot", "NoHM", 8340880,
     {48, 0, 0, 0, 78, 0, 0},
     {8808, 0, 0, 0, 11036, 0, 0}},
    {"read_mostly", "AT", 9494040,
     {207, 3, 6, 6, 96, 0, 0},
     {36819, 1137, 448, 324, 5088, 0, 0}},
    {"read_mostly", "NoHM", 13615989,
     {240, 0, 48, 0, 96, 0, 0},
     {44040, 0, 3549, 0, 5088, 0, 0}},
    {"phased_writer", "AT", 55297375,
     {136, 31, 46, 43, 768, 0, 0},
     {15373, 11749, 9097, 2322, 42285, 0, 0}},
    {"phased_writer", "NoHM", 91557070,
     {384, 0, 288, 0, 768, 0, 0},
     {70464, 0, 56560, 0, 53988, 0, 0}},
};
// clang-format on

workload::ScenarioResult RunPattern(const std::string& pattern,
                                    const std::string& policy) {
  workload::PatternParams params;
  params.pattern = pattern;
  params.nodes = 4;
  params.objects = 4;
  params.object_bytes = 256;
  params.repetitions = 8;
  params.seed = 1;
  gos::VmOptions vm;
  vm.nodes = params.nodes;
  vm.dsm.policy = policy;
  return workload::RunScenario(vm, workload::GeneratePattern(params));
}

/// One table row in this file's literal syntax, so a deliberate model
/// change can paste the new values in.
std::string Row(const std::string& pattern, const std::string& policy,
                const gos::RunReport& report) {
  std::ostringstream os;
  os << "{\"" << pattern << "\", \"" << policy << "\", "
     << std::llround(report.seconds * 1e9) << ",\n {";
  for (std::size_t c = 0; c < kCats; ++c)
    os << (c ? ", " : "") << report.cat[c].messages;
  os << "},\n {";
  for (std::size_t c = 0; c < kCats; ++c)
    os << (c ? ", " : "") << report.cat[c].bytes;
  os << "}},";
  return os.str();
}

TEST(SimTraffic, SixPatternsUnderATAndNoHMMatchTheRecordedTotals) {
  std::size_t checked = 0;
  for (const std::string& pattern : workload::PatternNames()) {
    for (const std::string policy : {"AT", "NoHM"}) {
      const Pinned* pin = nullptr;
      for (const Pinned& p : kPinned) {
        if (pattern == p.pattern && policy == p.policy) pin = &p;
      }
      const workload::ScenarioResult res = RunPattern(pattern, policy);
      const gos::RunReport& report = res.report;
      ASSERT_NE(pin, nullptr) << "no pinned row; measured:\n"
                              << Row(pattern, policy, report);
      SCOPED_TRACE(pattern + " under " + policy + "; measured:\n" +
                   Row(pattern, policy, report));
      EXPECT_EQ(std::llround(report.seconds * 1e9), pin->virtual_ns);
      for (std::size_t c = 0; c < kCats; ++c) {
        const auto cat = static_cast<stats::MsgCat>(c);
        EXPECT_EQ(report.cat[c].messages, pin->messages[c])
            << stats::MsgCatName(cat);
        EXPECT_EQ(report.cat[c].bytes, pin->bytes[c])
            << stats::MsgCatName(cat);
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kPinned));
}

}  // namespace
}  // namespace hmdsm
