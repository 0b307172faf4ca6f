// End-to-end glap-lint CLI: the checked-in tree lints clean (exit 0), a
// seeded violation flips the scan to exit 1, unreadable input exits 2,
// and `trace-kinds` stays pinned to trace::EventKind so the trace-kind
// rule can never drift from the reader.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "common/trace_schema.hpp"
#include "lint/lint.hpp"

namespace {

int run(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string capture(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  pclose(pipe);
  return out;
}

const std::string kBin = GLAP_LINT_BIN;

TEST(LintCli, CheckedInTreeLintsClean) {
  EXPECT_EQ(run(kBin + " scan " + GLAP_SOURCE_DIR), 0)
      << "the repo tree has lint violations; run `glap-lint scan .` for "
         "the list";
}

TEST(LintCli, SeededViolationFlipsTheScanToExitOne) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "glap_lint_seeded_tree";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "sim");
  {
    std::ofstream bad(root / "src" / "sim" / "bad.cpp");
    bad << "#include <cstdlib>\n"
           "int draw() { return std::rand(); }\n";
  }
  EXPECT_EQ(run(kBin + " scan " + root.string()), 1);

  // The same hazard with a justified allow scans clean again.
  {
    std::ofstream ok(root / "src" / "sim" / "bad.cpp");
    ok << "#include <cstdlib>\n"
          "// glap-lint: allow(banned-random): seeded-fixture exemption\n"
          "int draw() { return std::rand(); }\n";
  }
  EXPECT_EQ(run(kBin + " scan " + root.string()), 0);
  fs::remove_all(root);
}

TEST(LintCli, MissingInputsExitTwo) {
  namespace fs = std::filesystem;
  const fs::path empty =
      fs::path(::testing::TempDir()) / "glap_lint_empty_tree";
  fs::remove_all(empty);
  fs::create_directories(empty);
  EXPECT_EQ(run(kBin + " scan " + empty.string()), 2);  // no scan roots
  fs::remove_all(empty);
  EXPECT_EQ(run(kBin + " file /nonexistent/no_such_file.cpp"), 2);
  EXPECT_EQ(run(kBin), 2);                 // no subcommand
  EXPECT_EQ(run(kBin + " frobnicate"), 2); // unknown subcommand
}

TEST(LintCli, FileSubcommandHonoursAsScoping) {
  namespace fs = std::filesystem;
  const fs::path file =
      fs::path(::testing::TempDir()) / "glap_lint_float_probe.cpp";
  {
    std::ofstream out(file);
    out << "float q = 0.0f;\n";
  }
  // float is only a violation inside the Q-table kernels.
  EXPECT_EQ(run(kBin + " file " + file.string()), 0);
  EXPECT_EQ(
      run(kBin + " file " + file.string() + " --as src/qlearn/probe.cpp"),
      1);
  fs::remove(file);
}

// The rule's accepted "ev" set must equal trace::EventKind exactly —
// both directions, via the CLI surface.
TEST(LintCli, TraceKindsMatchTheTraceReaderEnum) {
  const std::string out = capture(kBin + " trace-kinds");
  std::vector<std::string> listed;
  std::string::size_type start = 0;
  while (start < out.size()) {
    auto nl = out.find('\n', start);
    if (nl == std::string::npos) nl = out.size();
    if (nl > start) listed.push_back(out.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(listed.size(), glap::trace::kEventKindCount);
  for (std::size_t i = 0; i < glap::trace::kEventKindCount; ++i) {
    EXPECT_EQ(listed[i], glap::trace::event_kind_name(
                             static_cast<glap::trace::EventKind>(i)));
    std::uint8_t code = 0;
    EXPECT_TRUE(glap::trace::code_of(glap::trace::kEventKinds, listed[i],
                                     &code));
    EXPECT_EQ(code, i);
  }
  // And the in-process list the rule consults is the same list.
  ASSERT_EQ(glap::lint::trace_event_kinds().size(),
            glap::trace::kEventKindCount);
  for (std::size_t i = 0; i < listed.size(); ++i)
    EXPECT_EQ(glap::lint::trace_event_kinds()[i], listed[i]);
}

TEST(LintCli, RulesSubcommandListsTheFullCatalogue) {
  const std::string out = capture(kBin + " rules");
  for (const auto& r : glap::lint::rules())
    EXPECT_NE(out.find(r.name), std::string::npos) << r.name;
}

// The layering DAG is a checked-in contract: the file must exist (else
// the rule silently self-disables) and the real tree's observed module
// graph must be fully declared.
TEST(LintCli, LayersFileExistsAndRealGraphIsFullyDeclared) {
  std::ifstream layers(std::string(GLAP_SOURCE_DIR) +
                       "/tools/lint/layers.txt");
  ASSERT_TRUE(layers.is_open())
      << "tools/lint/layers.txt is gone — the layering rule is a no-op";
  const std::string out =
      capture(kBin + " graph " + GLAP_SOURCE_DIR + " 2>/dev/null");
  EXPECT_NE(out.find("modules ("), std::string::npos);
  EXPECT_NE(out.find("edges ("), std::string::npos);
  EXPECT_EQ(out.find("UNDECLARED"), std::string::npos)
      << "observed module edges missing from layers.txt:\n" << out;
}

TEST(LintCli, GraphDotModeEmitsGraphviz) {
  const std::string out =
      capture(kBin + " graph " + GLAP_SOURCE_DIR + " --dot 2>/dev/null");
  EXPECT_NE(out.find("digraph glap_modules"), std::string::npos);
  EXPECT_NE(out.find("\"sim\" -> \"common\""), std::string::npos);
}

// Incremental cache: cold run misses everything, warm run hits
// everything with identical results, a content change re-lints exactly
// the changed file, and a corrupt cache degrades to a cold scan.
TEST(LintCli, ScanCacheHitsMissesAndDegradesSafely) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "glap_lint_cached";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "sim");
  const fs::path cache = root / "lint.cache";
  {
    std::ofstream a(root / "src" / "sim" / "a.cpp");
    a << "int a() { return 1; }\n";
    std::ofstream b(root / "src" / "sim" / "b.cpp");
    b << "int b() { return 2; }\n";
  }
  const std::string scan =
      kBin + " scan " + root.string() + " --cache " + cache.string();
  std::string out = capture(scan + " 2>/dev/null");
  EXPECT_NE(out.find("0 hit(s), 2 miss(es)"), std::string::npos) << out;
  out = capture(scan + " 2>/dev/null");
  EXPECT_NE(out.find("2 hit(s), 0 miss(es)"), std::string::npos) << out;

  {
    std::ofstream a(root / "src" / "sim" / "a.cpp");
    a << "int a() { return 3; }\n";
  }
  out = capture(scan + " 2>/dev/null");
  EXPECT_NE(out.find("1 hit(s), 1 miss(es)"), std::string::npos) << out;

  {
    std::ofstream corrupt(cache);
    corrupt << "not a cache\n";
  }
  out = capture(scan + " 2>/dev/null");
  EXPECT_NE(out.find("0 hit(s), 2 miss(es)"), std::string::npos) << out;
  fs::remove_all(root);
}

// A warm cache must replay *findings*, not just cleanliness: the exit
// code and the per-file diagnostics survive the cache round-trip.
TEST(LintCli, CachedScanReplaysFindingsIdentically) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "glap_lint_cached_fail";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "sim");
  const fs::path cache = root / "lint.cache";
  {
    std::ofstream bad(root / "src" / "sim" / "bad.cpp");
    bad << "#include <cstdlib>\n"
           "int draw() { return std::rand(); }\n";
  }
  const std::string scan =
      kBin + " scan " + root.string() + " --cache " + cache.string();
  EXPECT_EQ(run(scan), 1);
  const std::string cold = capture(scan + " 2>&1");
  const std::string warm = capture(scan + " 2>&1");
  EXPECT_EQ(run(scan), 1);  // still failing from cache
  EXPECT_NE(warm.find("banned-random"), std::string::npos) << warm;
  // Identical modulo the hit/miss accounting line.
  auto strip_cache_line = [](std::string s) {
    const auto at = s.find("glap-lint: cache");
    if (at == std::string::npos) return s;
    const auto nl = s.find('\n', at);
    return s.erase(at, nl == std::string::npos ? s.size() - at
                                               : nl - at + 1);
  };
  EXPECT_EQ(strip_cache_line(cold), strip_cache_line(warm));
  fs::remove_all(root);
}

}  // namespace
