// egolint CLI. Usage:
//
//   egolint [--check=NAME]... [--report=FILE] [--list-suppressions] PATH...
//
// PATHs are files or directories (scanned recursively for .h/.cc/.cpp,
// skipping build trees). Exit codes: 0 clean, 1 findings, 2 usage/IO error.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "egolint.h"

namespace {

namespace fs = std::filesystem;

bool IsSourcePath(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

bool InBuildTree(const fs::path& p) {
  for (const auto& part : p) {
    std::string s = part.string();
    if (s.rfind("build", 0) == 0 || s == ".git") return true;
  }
  return false;
}

int Usage(std::ostream& out, int code) {
  out << "usage: egolint [--check=NAME]... [--report=FILE] "
         "[--list-suppressions] PATH...\n"
         "checks: status-discipline checkpoint-coverage include-hygiene "
         "request-discipline lock-discipline "
         "(default: all)\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  egolint::LintOptions options;
  std::string report_path;
  bool list_suppressions = false;
  std::vector<fs::path> roots;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--check=", 0) == 0) {
      std::string name = arg.substr(8);
      if (!egolint::IsKnownCheck(name)) {
        std::cerr << "egolint: unknown check '" << name << "'\n";
        return Usage(std::cerr, 2);
      }
      options.checks.push_back(name);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (arg == "--list-suppressions") {
      list_suppressions = true;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(std::cout, 0);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "egolint: unknown flag '" << arg << "'\n";
      return Usage(std::cerr, 2);
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) return Usage(std::cerr, 2);

  std::vector<egolint::SourceFile> files;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file() || !IsSourcePath(it->path()) ||
            InBuildTree(it->path())) {
          continue;
        }
        std::ifstream in(it->path());
        std::ostringstream content;
        content << in.rdbuf();
        files.push_back(egolint::SourceFile{it->path().generic_string(),
                                            content.str()});
      }
    } else if (fs::is_regular_file(root, ec)) {
      std::ifstream in(root);
      std::ostringstream content;
      content << in.rdbuf();
      files.push_back(
          egolint::SourceFile{root.generic_string(), content.str()});
    } else {
      std::cerr << "egolint: cannot read '" << root.string() << "'\n";
      return 2;
    }
  }

  if (list_suppressions) {
    int count = 0;
    for (const egolint::SourceFile& f : files) {
      egolint::FileModel model = egolint::Lex(f);
      for (const egolint::Suppression& sup : model.suppressions) {
        std::cout << f.path << ":" << sup.line << ": " << sup.name << "("
                  << sup.reason << ")\n";
        ++count;
      }
    }
    std::cout << count << " suppression(s)\n";
    return 0;
  }

  std::vector<egolint::Finding> findings = egolint::RunLint(files, options);
  for (const egolint::Finding& f : findings) {
    std::cout << egolint::FormatFinding(f) << "\n";
  }
  std::cout << findings.size() << " finding(s) in " << files.size()
            << " file(s)\n";
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) {
      std::cerr << "egolint: cannot write report to '" << report_path
                << "'\n";
      return 2;
    }
    out << egolint::FindingsToJson(findings);
  }
  return egolint::ExitCodeFor(findings);
}
