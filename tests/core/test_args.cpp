#include <gtest/gtest.h>

#include "core/args.h"

namespace bismark {
namespace {

ArgParser MakeParser() {
  ArgParser args("test tool");
  args.add_option("seed", "the seed", "42");
  args.add_option("export", "output dir");
  args.add_flag("verbose", "talk more");
  return args;
}

TEST(ArgParserTest, DefaultsApplyWhenAbsent) {
  ArgParser args = MakeParser();
  ASSERT_TRUE(args.parse(std::vector<std::string>{}));
  EXPECT_EQ(args.get_or("seed", "x"), "42");
  EXPECT_EQ(args.get_int("seed", -1), 42);
  EXPECT_FALSE(args.get("export").has_value());
  EXPECT_FALSE(args.has("verbose"));
}

TEST(ArgParserTest, SpaceAndEqualsForms) {
  ArgParser args = MakeParser();
  ASSERT_TRUE(args.parse({"--seed", "7", "--export=/tmp/x"}));
  EXPECT_EQ(args.get_int("seed", -1), 7);
  EXPECT_EQ(args.get_or("export", ""), "/tmp/x");
}

TEST(ArgParserTest, FlagsAndPositionals) {
  ArgParser args = MakeParser();
  ASSERT_TRUE(args.parse({"run", "--verbose", "extra"}));
  EXPECT_TRUE(args.has("verbose"));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "extra");
}

TEST(ArgParserTest, UnknownOptionErrors) {
  ArgParser args = MakeParser();
  EXPECT_FALSE(args.parse({"--bogus", "1"}));
  EXPECT_NE(args.error().find("unknown option"), std::string::npos);
}

TEST(ArgParserTest, MissingValueErrors) {
  ArgParser args = MakeParser();
  EXPECT_FALSE(args.parse({"--seed"}));
  EXPECT_NE(args.error().find("requires a value"), std::string::npos);
}

TEST(ArgParserTest, FlagRejectsValue) {
  ArgParser args = MakeParser();
  EXPECT_FALSE(args.parse({"--verbose=yes"}));
}

TEST(ArgParserTest, NumericFallbacks) {
  ArgParser args = MakeParser();
  ASSERT_TRUE(args.parse({"--seed", "not-a-number"}));
  EXPECT_EQ(args.get_int("seed", -1), -1);
  EXPECT_DOUBLE_EQ(args.get_double("seed", 2.5), 2.5);
  ArgParser args2 = MakeParser();
  ASSERT_TRUE(args2.parse({"--seed", "3.5"}));
  EXPECT_DOUBLE_EQ(args2.get_double("seed", 0.0), 3.5);
}

TEST(ArgParserTest, StrictParsesRejectPartialNumbers) {
  ArgParser args = MakeParser();
  ASSERT_TRUE(args.parse({"--seed", "1e3"}));
  EXPECT_FALSE(args.parse_int("seed").has_value());
  EXPECT_EQ(args.parse_double("seed"), 1000.0);
  ASSERT_TRUE(args.parse({"--seed", "12abc"}));
  EXPECT_FALSE(args.parse_int("seed").has_value());
  EXPECT_FALSE(args.parse_double("seed").has_value());
  ASSERT_TRUE(args.parse({"--seed", "-7"}));
  EXPECT_EQ(args.parse_int("seed"), -7);
  EXPECT_FALSE(args.parse_int("export").has_value());  // no value, no default
}

TEST(ArgParserTest, HelpListsEverything) {
  ArgParser args = MakeParser();
  const std::string help = args.help("tool");
  EXPECT_NE(help.find("--seed"), std::string::npos);
  EXPECT_NE(help.find("--export"), std::string::npos);
  EXPECT_NE(help.find("--verbose"), std::string::npos);
  EXPECT_NE(help.find("default: 42"), std::string::npos);
}

TEST(ArgParserTest, ReparseResetsState) {
  ArgParser args = MakeParser();
  ASSERT_TRUE(args.parse({"--verbose", "one"}));
  ASSERT_TRUE(args.parse(std::vector<std::string>{"two"}));
  EXPECT_FALSE(args.has("verbose"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "two");
}

}  // namespace
}  // namespace bismark
