// blam-analyze CLI. Reads every source file under src/ (the analyzed scope:
// cross-file rules only make sense over the real simulator tree; test and
// bench fixtures deliberately contain rule-violating code) and, for N1's
// uses only, under bench/, examples/, perfbench/, tools/ and tests/. It
// builds the project-wide structure tables and runs K1/S2/R1/N1/A1. Exit
// status is nonzero iff any unsuppressed finding exists, so CI can gate on
// it.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "blam-analyze/analyze.hpp"

namespace {

namespace fs = std::filesystem;

[[nodiscard]] bool analyzable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

void collect(const fs::path& root, std::vector<std::string>& files) {
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    files.push_back(root.generic_string());
    return;
  }
  if (!fs::is_directory(root, ec)) return;
  for (fs::recursive_directory_iterator it{root, ec}, end; it != end && !ec; it.increment(ec)) {
    if (it->is_regular_file(ec) && analyzable(it->path())) {
      files.push_back(it->path().generic_string());
    }
  }
}

void print_usage() {
  std::printf(
      "usage: blam-analyze [--root DIR] [--json] [--show-suppressed] [--list-rules] [paths...]\n"
      "\n"
      "Cross-file analysis of the BLAM simulator sources (default scope: src\n"
      "under --root, which defaults to the current directory; bench, examples,\n"
      "perfbench, tools and tests are read for N1's uses only). Exits 1 when any\n"
      "unsuppressed finding remains, 2 on usage/IO errors.\n"
      "\n"
      "Rules: K1 checkpoint coverage, S2 shard-state escape, R1 RNG-salt registry,\n"
      "N1 no consumer (a src/ header declaration used only by tests, or by\n"
      "nothing), A1 annotation hygiene. --list-rules prints them.\n"
      "\n"
      "Exempt a member from checkpoint coverage (K1) at its declaration:\n"
      "  int scratch_;  // blam-ckpt: skip -- rebuilt by recompute() on restore\n"
      "Document synchronization for shard-visible state (S2):\n"
      "  // blam-shared: guarded by g_mu -- hot counter, flushed per epoch\n"
      "Suppress any other finding, with a mandatory justification:\n"
      "  // blam-analyze: allow(R1) -- fixture exercises the unregistered path\n"
      "A trailing comment covers its own line; a comment on its own line covers\n"
      "the next line.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool show_suppressed = false;
  std::string root = ".";
  std::vector<std::string> args;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--show-suppressed") {
      show_suppressed = true;
    } else if (arg == "--list-rules") {
      for (const auto& info : blam::analyze::rule_infos()) {
        std::printf("%s  %s\n", info.id.c_str(), info.summary.c_str());
      }
      return 0;
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "blam-analyze: --root needs an argument\n");
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "blam-analyze: unknown option %s\n", arg.c_str());
      print_usage();
      return 2;
    } else {
      args.push_back(arg);
    }
  }

  std::vector<std::string> files;
  if (args.empty()) {
    for (const char* dir : {"src", "bench", "examples", "perfbench", "tools", "tests"}) {
      collect(fs::path{root} / dir, files);
    }
  } else {
    for (const std::string& a : args) collect(fs::path{a}, files);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  if (files.empty()) {
    std::fprintf(stderr, "blam-analyze: no source files found (root: %s)\n", root.c_str());
    return 2;
  }

  blam::analyze::Project project;
  for (const std::string& file : files) {
    std::ifstream in{file, std::ios::binary};
    if (!in) {
      std::fprintf(stderr, "blam-analyze: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    project.units.push_back(blam::analyze::parse_unit(file, buf.str()));
  }

  const std::vector<blam::lint::Finding> all = blam::analyze::analyze_project(project);

  std::size_t active = 0;
  std::size_t suppressed = 0;
  for (const auto& f : all) {
    f.suppressed ? ++suppressed : ++active;
  }

  if (json) {
    std::vector<blam::lint::Finding> report;
    std::copy_if(all.begin(), all.end(), std::back_inserter(report),
                 [show_suppressed](const auto& f) { return show_suppressed || !f.suppressed; });
    std::fputs(blam::lint::to_json(report).c_str(), stdout);
  } else {
    for (const auto& f : all) {
      if (f.suppressed && !show_suppressed) continue;
      std::printf("%s\n", blam::lint::to_string(f).c_str());
    }
    std::printf("blam-analyze: %zu file(s), %zu finding(s), %zu suppressed\n", files.size(),
                active, suppressed);
  }
  return active == 0 ? 0 : 1;
}
