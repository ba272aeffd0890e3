// Integration tests for the ktx_cli binary (spawned as a subprocess).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/stat.h>

namespace ktx {
namespace {

constexpr const char* kCliPath = "../tools/ktx_cli";

bool CliAvailable() {
  struct stat st{};
  return stat(kCliPath, &st) == 0 && (st.st_mode & S_IXUSR) != 0;
}

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunCli(const std::string& args) {
  RunResult result;
  const std::string cmd = std::string(kCliPath) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) {
    result.output += buf;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

#define SKIP_WITHOUT_CLI()                               \
  if (!CliAvailable()) {                                 \
    GTEST_SKIP() << "ktx_cli not found at " << kCliPath; \
  }

TEST(CliTest, NoArgsPrintsUsage) {
  SKIP_WITHOUT_CLI();
  const RunResult r = RunCli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CliTest, InfoReportsTable1Numbers) {
  SKIP_WITHOUT_CLI();
  const RunResult r = RunCli("info --model ds3");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("DeepSeek-V3"), std::string::npos);
  EXPECT_NE(r.output.find("671.0B"), std::string::npos);
  EXPECT_NE(r.output.find("fits one GPU"), std::string::npos);
}

TEST(CliTest, SimulateDecodeWithAutoDeferral) {
  SKIP_WITHOUT_CLI();
  const RunResult r = RunCli("simulate --model ds3 --system kt --phase decode "
                             "--deferral auto --steps 4");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("deferral heuristic picked 3"), std::string::npos);
  EXPECT_NE(r.output.find("tok/s"), std::string::npos);
}

TEST(CliTest, SimulateRejectsUnknownSystem) {
  SKIP_WITHOUT_CLI();
  const RunResult r = RunCli("simulate --system mystery");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown --system"), std::string::npos);
}

TEST(CliTest, GenerateProducesTokens) {
  SKIP_WITHOUT_CLI();
  const RunResult r = RunCli("generate --prompt hi --tokens 4");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("tokens:"), std::string::npos);
}

TEST(CliTest, InjectAppliesRuleFile) {
  SKIP_WITHOUT_CLI();
  const char* path = "/tmp/ktx_cli_test_rules.yaml";
  FILE* f = fopen(path, "w");
  ASSERT_NE(f, nullptr);
  fputs("- match:\n    class: DeepseekV3MoE\n  replace:\n    class: FusedMoE\n"
        "    kwargs:\n      data_type: \"Int4\"\n      n_deferred_experts: 6\n",
        f);
  fclose(f);
  const RunResult r = RunCli(std::string("inject --rules ") + path + " --model ds3");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("replaced 58"), std::string::npos);  // one per MoE layer
  EXPECT_NE(r.output.find("deferral=6"), std::string::npos);
  std::remove(path);
}

TEST(CliTest, InjectFailsOnARuleTheEngineCannotRun) {
  SKIP_WITHOUT_CLI();
  const char* path = "cli_test_cuda1_rules.yaml";
  FILE* f = fopen(path, "w");
  ASSERT_NE(f, nullptr);
  fputs("- match:\n    name: \"self_attn$\"\n  replace:\n    class: FlashInferMLA\n"
        "    device: \"cuda:1\"\n",
        f);
  fclose(f);
  const RunResult r = RunCli(std::string("inject --rules ") + path + " --model ds3");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("cuda:1"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("engine: cpu="), std::string::npos) << r.output;
  std::remove(path);
}

TEST(CliTest, InjectFailsOnAnUnknownMarlinLinearKwarg) {
  SKIP_WITHOUT_CLI();
  const char* path = "cli_test_marlin_typo_rules.yaml";
  FILE* f = fopen(path, "w");
  ASSERT_NE(f, nullptr);
  fputs("- match:\n    class: torch.nn.Linear\n  replace:\n"
        "    class: operators.linear.MarlinLinear\n    device: \"cuda:0\"\n"
        "    kwargs:\n      data_tpye: \"Int8\"\n",
        f);
  fclose(f);
  const RunResult r = RunCli(std::string("inject --rules ") + path + " --model ds3");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("data_tpye"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("engine: cpu="), std::string::npos) << r.output;
  std::remove(path);
}


TEST(CliTest, EvalReportsPerplexityAndDivergence) {
  SKIP_WITHOUT_CLI();
  const RunResult defer = RunCli("eval --deferral 4 --corpus-len 24");
  EXPECT_EQ(defer.exit_code, 0);
  EXPECT_NE(defer.output.find("baseline: ppl"), std::string::npos);
  EXPECT_NE(defer.output.find("deferring 4 experts"), std::string::npos);
  const RunResult skip = RunCli("eval --deferral 4 --skipping --corpus-len 24");
  EXPECT_EQ(skip.exit_code, 0);
  EXPECT_NE(skip.output.find("skipping 4 experts"), std::string::npos);
}

TEST(CliTest, CpuinfoListsVariantsAndCalibrates) {
  SKIP_WITHOUT_CLI();
  const char* path = "cli_cpuinfo_profile.json";
  std::remove(path);
  const RunResult first = RunCli(std::string("cpuinfo --profile ") + path);
  EXPECT_EQ(first.exit_code, 0);
  EXPECT_NE(first.output.find("cpu features:"), std::string::npos);
  // Every registry entry appears; emulated ones are always available.
  for (const char* name : {"amx_native", "avx512_native", "avx2_native", "amx_emulated",
                           "avx512_emulated", "scalar"}) {
    EXPECT_NE(first.output.find(name), std::string::npos) << name;
  }
  EXPECT_NE(first.output.find("freshly measured"), std::string::npos);
  // Second run loads the profile written by the first.
  const RunResult second = RunCli(std::string("cpuinfo --profile ") + path);
  EXPECT_EQ(second.exit_code, 0);
  EXPECT_NE(second.output.find("from cached profile"), std::string::npos);
  std::remove(path);
}

TEST(CliTest, WarnsOnUnusedFlags) {
  SKIP_WITHOUT_CLI();
  const RunResult r = RunCli("info --model ds2 --bogus-flag 1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("unused flag --bogus-flag"), std::string::npos);
}

}  // namespace
}  // namespace ktx
