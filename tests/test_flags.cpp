// util::Flags is the one command-line parser of dmm_cli and the bench
// binaries: each command declares its flags (value type, lower bound) and
// positionals, and parse() rejects everything else with a UsageError whose
// text ends in the command's usage line.
#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dmm::util {
namespace {

enum class Mode { kSlow, kFast };

std::optional<Mode> parse_mode(const std::string& text) {
  if (text == "slow") return Mode::kSlow;
  if (text == "fast") return Mode::kFast;
  return std::nullopt;
}

/// A command with one of every kind of declaration.
struct Command {
  std::string path;
  int count = 0;
  std::string instance;
  int threads = 1;
  std::uint64_t seed = 0;
  double fraction = 50.0;
  int rounds = 0;
  std::string out = "default.txt";
  Mode mode = Mode::kSlow;
  bool json = false;
  std::vector<std::string> forwarded;
  Flags flags{"usage: cmd <path> <count> --instance <spec> [--threads N>=1] ..."};

  Command() {
    flags.positional(path)
        .positional(count)
        .option("--instance", instance)
        .required()
        .number("--threads", threads, 1)
        .number("--seed", seed, 0)
        .number("--fraction", fraction, 0.0)
        .number("--rounds", rounds, 1)
        .option("--out", out)
        .option("--mode", mode, parse_mode)
        .flag("--json", json)
        .forward("--benchmark_", forwarded);
  }
};

/// The UsageError text parse() throws for `args`, or "" when it accepts them.
std::string rejection(const std::vector<std::string>& args) {
  Command command;
  try {
    command.flags.parse(args);
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, AcceptsFlagsAndPositionalsInAnyOrder) {
  Command c;
  c.flags.parse({"--threads", "4", "ck.bin", "--json", "--benchmark_filter=x", "--instance",
                 "chain:4", "7", "--mode", "fast", "--seed", "18446744073709551615",
                 "--fraction", "62.5", "--rounds", "9", "--out", "f.dot",
                 "--benchmark_min_time=0.01s"});
  EXPECT_EQ(c.path, "ck.bin");
  EXPECT_EQ(c.count, 7);
  EXPECT_EQ(c.instance, "chain:4");
  EXPECT_EQ(c.threads, 4);
  EXPECT_EQ(c.seed, 18446744073709551615ull);
  EXPECT_EQ(c.fraction, 62.5);
  EXPECT_EQ(c.rounds, 9);
  EXPECT_EQ(c.out, "f.dot");
  EXPECT_EQ(c.mode, Mode::kFast);
  EXPECT_TRUE(c.json);
  EXPECT_EQ(c.forwarded,
            (std::vector<std::string>{"--benchmark_filter=x", "--benchmark_min_time=0.01s"}));
}

TEST(Flags, AbsentFlagsKeepTheirDefaults) {
  Command c;
  c.flags.parse({"--instance", "figure1", "a", "-3"});
  EXPECT_EQ(c.count, -3);  // a positional number has no bound unless declared
  EXPECT_EQ(c.threads, 1);
  EXPECT_EQ(c.seed, 0u);
  EXPECT_EQ(c.fraction, 50.0);
  EXPECT_EQ(c.rounds, 0);
  EXPECT_EQ(c.out, "default.txt");
  EXPECT_EQ(c.mode, Mode::kSlow);
  EXPECT_FALSE(c.json);
  EXPECT_TRUE(c.forwarded.empty());
}

TEST(Flags, RejectsWhatWasNotDeclared) {
  const std::vector<std::string> ok = {"p", "1", "--instance", "chain:4"};
  const auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = ok;
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  };
  EXPECT_EQ(rejection(ok), "");
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {with({"--thread", "4"}), "unknown flag --thread"},
      {with({"--threads=4"}), "unknown flag --threads=4"},
      {with({"--threads", "2", "--threads", "0"}), "repeated flag --threads"},
      {with({"--json", "--json"}), "repeated flag --json"},
      {with({"--instance", "figure1"}), "repeated flag --instance"},
      {with({"--threads"}), "missing value for --threads"},
      {with({"--out", "--json"}), "missing value for --out"},
      {with({"--mode", "medium"}), "bad value 'medium' for --mode"},
      {with({"stray"}), "unexpected argument 'stray'"},
      {{"p", "1"}, "missing --instance"},
      {{"p", "--instance", "chain:4"}, "missing argument"},
      {{"p", "x", "--instance", "chain:4"}, "bad argument 'x'"},
      {with({"-"}), "unexpected argument '-'"},
      {with({"--"}), "unknown flag --"},
  };
  for (const auto& [args, reason] : cases) {
    const std::string text = rejection(args);
    EXPECT_EQ(text.rfind(reason + "\n", 0), 0u) << text;
    // Every rejection ends in the command's usage line.
    EXPECT_NE(text.find("\nusage: cmd <path> <count>"), std::string::npos) << text;
  }
}

TEST(Flags, NumbersAreWholeTokensOfTheirTypeAtLeastTheirBound) {
  const auto threads = [](const std::string& token) {
    return rejection({"p", "1", "--instance", "c", "--threads", token});
  };
  EXPECT_EQ(threads("1"), "");
  EXPECT_EQ(threads("2147483647"), "");
  for (const char* bad : {"0", "-1", "2.5", "3x", "x", "", "+2", "2147483648", " 2"}) {
    EXPECT_NE(threads(bad), "") << bad;
  }
  const auto seed = [](const std::string& token) {
    return rejection({"p", "1", "--instance", "c", "--seed", token});
  };
  EXPECT_EQ(seed("0"), "");
  EXPECT_NE(seed("-1"), "");                    // unsigned: no sign at all
  EXPECT_NE(seed("18446744073709551616"), "");  // one past 2^64 - 1
  const auto fraction = [](const std::string& token) {
    return rejection({"p", "1", "--instance", "c", "--fraction", token});
  };
  EXPECT_EQ(fraction("0"), "");
  EXPECT_EQ(fraction("1e2"), "");
  for (const char* bad : {"-0.5", "nan", "inf", "1e999", "70%"}) {
    EXPECT_NE(fraction(bad), "") << bad;
  }
  EXPECT_NE(rejection({"p", "1", "--instance", "c", "--rounds", "0"}), "");
}

TEST(Flags, ParseNumber) {
  EXPECT_EQ(parse_number<int>("42"), 42);
  EXPECT_EQ(parse_number<int>("-7"), -7);
  EXPECT_EQ(parse_number<int>("-7", 0), std::nullopt);
  EXPECT_EQ(parse_number<long long>("120000", 1), 120000);
  EXPECT_EQ(parse_number<long long>("0", 1), std::nullopt);
  EXPECT_EQ(parse_number<double>("62.5", 0.0), 62.5);
  EXPECT_EQ(parse_number<double>("inf"), std::nullopt);
  EXPECT_EQ(parse_number<int>(""), std::nullopt);
}

TEST(Flags, ForwardedTokensAreNeverValues) {
  // A forwarded token after a value flag is a missing value, not the value.
  EXPECT_EQ(rejection({"p", "1", "--instance", "--benchmark_filter=x"})
                .rfind("missing value for --instance\n", 0),
            0u);
  // Without a forward declaration the same token is an unknown flag.
  std::string path;
  Flags bare("usage: bare <path>");
  bare.positional(path);
  EXPECT_THROW(bare.parse({"p", "--benchmark_filter=x"}), UsageError);
  bare.parse({"p"});
  EXPECT_EQ(path, "p");
}

}  // namespace
}  // namespace dmm::util
