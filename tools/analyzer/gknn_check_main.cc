// gknn_check — interprocedural static analyzer for this repository's
// lock-order, Status-propagation, device-lifetime, and
// concurrency-protocol invariants.
//
// Usage:
//   gknn_check [--root=DIR] [--sarif=FILE] [--rule=r1,r2] [--compdb=FILE]
//              [--jobs=N] [--dump-lock-graph] [paths...]
//
// Paths (files or directories) default to {src, tools} under --root.
// Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
//
// The per-TU front end (lex + event extraction) runs on N threads
// (default: hardware concurrency); whole-program structure scanning and
// the passes are sequential, and findings are merged in sorted file
// order, so output is identical for every --jobs value.
//
// Suppressions: `// gknn-check: allow(<rule>): reason` (the historical
// `gknn-lint:` prefix is honored too) on the flagged line or in the
// comment block directly above it.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lexer.h"
#include "lock_table.h"
#include "model.h"
#include "parser.h"
#include "passes.h"
#include "sarif.h"

namespace fs = std::filesystem;
using namespace gknn::check;

namespace {

std::string ReadAll(const fs::path& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool HasSourceExt(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

std::string Relativize(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty()) return p.generic_string();
  return rel.generic_string();
}

bool IsLockdepFile(const std::string& rel) {
  return rel == "src/util/lockdep.h" || rel == "src/util/lockdep.cc";
}

/// Fixture directories are analyzed as if they lived under src/ so the
/// bad/good example pairs exercise every rule.
bool TreatAsSrc(const std::string& rel) {
  if (rel.rfind("src/", 0) == 0) return true;
  return rel.find("analyzer_fixtures/") != std::string::npos;
}

/// Parse compile_commands.json just enough to pull out the "file" entries.
std::vector<std::string> CompdbFiles(const std::string& path) {
  std::vector<std::string> out;
  const std::string text = ReadAll(path);
  size_t pos = 0;
  while ((pos = text.find("\"file\"", pos)) != std::string::npos) {
    pos = text.find(':', pos);
    if (pos == std::string::npos) break;
    const size_t q1 = text.find('"', pos);
    if (q1 == std::string::npos) break;
    const size_t q2 = text.find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    out.push_back(text.substr(q1 + 1, q2 - q1 - 1));
    pos = q2 + 1;
  }
  return out;
}

struct SuppressionIndex {
  std::map<int, std::string> comments;
  std::set<int> token_lines;
};

bool AllowedOnLine(const std::string& comment, const std::string& rule) {
  const std::string needle = "allow(" + rule + ")";
  const size_t at = comment.find(needle);
  if (at == std::string::npos) return false;
  // Require one of the recognized marker prefixes somewhere before it.
  const size_t lint = comment.rfind("gknn-lint:", at);
  const size_t check = comment.rfind("gknn-check:", at);
  return lint != std::string::npos || check != std::string::npos;
}

bool IsSuppressed(const SuppressionIndex& idx, int line,
                  const std::string& rule) {
  auto on = [&](int l) {
    auto it = idx.comments.find(l);
    return it != idx.comments.end() && AllowedOnLine(it->second, rule);
  };
  if (on(line)) return true;
  // Walk the comment-only block directly above the flagged line.
  for (int l = line - 1; l >= 1; --l) {
    if (idx.token_lines.count(l)) break;
    if (!idx.comments.count(l)) break;
    if (on(l)) return true;
  }
  return false;
}

void Usage() {
  std::cerr
      << "usage: gknn_check [--root=DIR] [--sarif=FILE] [--rule=r1,r2]\n"
      << "                  [--compdb=FILE] [--jobs=N] [--dump-lock-graph]\n"
      << "                  [paths...]\n"
      << "rules: lock-order shared-block status-drop device-span raw-mutex\n"
      << "       atomic-publication deadline-checkpoint shared-write\n"
      << "       lease-lifetime\n";
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string sarif_path;
  std::string compdb_path;
  bool dump_lock_graph = false;
  int jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;
  std::set<std::string> rule_filter;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.rfind("--root=", 0) == 0) {
      root = value("--root=");
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = value("--sarif=");
    } else if (arg.rfind("--compdb=", 0) == 0) {
      compdb_path = value("--compdb=");
    } else if (arg.rfind("--rule=", 0) == 0) {
      std::stringstream ss(value("--rule="));
      std::string r;
      while (std::getline(ss, r, ',')) {
        if (!r.empty()) rule_filter.insert(r);
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::atoi(value("--jobs=").c_str());
      if (jobs < 1) {
        std::cerr << "gknn_check: --jobs must be >= 1\n";
        return 2;
      }
    } else if (arg == "--dump-lock-graph") {
      dump_lock_graph = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "gknn_check: unknown flag " << arg << "\n";
      Usage();
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  Program program;
  std::string error;
  const fs::path lockdep_path = root / "src" / "util" / "lockdep.h";
  if (!ParseLockdepHeader(lockdep_path.string(), &program.locks, &error)) {
    std::cerr << "gknn_check: " << error << "\n";
    return 2;
  }
  const fs::path doc_path = root / "docs" / "CONCURRENCY.md";
  if (!ParseConcurrencyDoc(doc_path.string(), &program.doc_locks, &error)) {
    std::cerr << "gknn_check: " << error << "\n";
    return 2;
  }

  // --- Discover files. ---
  if (paths.empty()) {
    paths = {"src", "tools"};
  }
  std::vector<fs::path> files;
  std::set<std::string> seen;
  auto add_file = [&](const fs::path& p) {
    if (!HasSourceExt(p)) return;
    std::error_code ec;
    const fs::path canon = fs::weakly_canonical(p, ec);
    const std::string key = ec ? p.generic_string() : canon.generic_string();
    if (seen.insert(key).second) files.push_back(p);
  };
  for (const std::string& ps : paths) {
    fs::path p = fs::path(ps);
    if (!p.is_absolute() && !fs::exists(p)) p = root / ps;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        const std::string name = it->path().filename().string();
        if (it->is_directory(ec)) {
          if (name == "build" || name == ".git" ||
              name == "analyzer_fixtures") {
            it.disable_recursion_pending();
          }
          continue;
        }
        add_file(it->path());
      }
    } else if (fs::exists(p, ec)) {
      add_file(p);
    } else {
      std::cerr << "gknn_check: no such path: " << ps << "\n";
      return 2;
    }
  }
  if (!compdb_path.empty()) {
    for (const std::string& f : CompdbFiles(compdb_path)) {
      std::error_code ec;
      if (fs::exists(f, ec)) add_file(f);
    }
  }
  std::sort(files.begin(), files.end());

  // --- Front end. Lexing and per-TU event extraction parallelize over
  // files (each translation unit only writes its own FunctionInfo entries
  // and a private finding buffer); structure scanning stays sequential in
  // sorted file order so function ids — and therefore all downstream
  // output — are deterministic for every --jobs value. ---
  struct Unit {
    fs::path path;
    std::string rel;
  };
  std::vector<Unit> units;
  for (const fs::path& p : files) {
    const std::string rel = Relativize(p, root);
    if (IsLockdepFile(rel)) continue;  // the layer itself is exempt
    units.push_back({p, rel});
  }

  auto run_parallel = [&](const std::function<void(size_t)>& fn) {
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (size_t i = next.fetch_add(1); i < units.size();
           i = next.fetch_add(1)) {
        fn(i);
      }
    };
    if (jobs <= 1 || units.size() <= 1) {
      worker();
      return;
    }
    std::vector<std::thread> threads;
    const int n = std::min<int>(jobs, static_cast<int>(units.size()));
    threads.reserve(n);
    for (int k = 0; k < n; ++k) threads.emplace_back(worker);
    for (std::thread& th : threads) th.join();
  };

  std::vector<LexedFile> lexed(units.size());
  std::vector<SuppressionIndex> unit_suppressions(units.size());
  run_parallel([&](size_t i) {
    lexed[i] = Lex(units[i].rel, ReadAll(units[i].path));
    SuppressionIndex& idx = unit_suppressions[i];
    idx.comments = lexed[i].comments;
    for (const Token& t : lexed[i].tokens) {
      if (t.kind != TokenKind::kEnd) idx.token_lines.insert(t.line);
    }
  });
  std::map<std::string, SuppressionIndex> suppressions;
  for (size_t i = 0; i < units.size(); ++i) {
    suppressions.emplace(units[i].rel, std::move(unit_suppressions[i]));
  }

  for (const LexedFile& lf : lexed) ScanStructure(lf, &program);

  std::vector<std::vector<Finding>> unit_findings(units.size());
  run_parallel([&](size_t i) {
    const LexedFile& lf = lexed[i];
    ExtractEvents(lf, &program, &unit_findings[i]);
    const bool as_src = TreatAsSrc(lf.path);
    const bool gpusim = lf.path.rfind("src/gpusim/", 0) == 0;
    StyleScan(lf, /*flag_raw_mutex=*/true,
              /*flag_device_span=*/as_src && !gpusim,
              /*flag_kernel_capture=*/as_src, &unit_findings[i]);
  });
  std::vector<Finding> findings;
  for (std::vector<Finding>& uf : unit_findings) {
    findings.insert(findings.end(), uf.begin(), uf.end());
  }

  ComputeSummaries(&program);
  RunLockOrderPass(&program, lockdep_path.generic_string(),
                   doc_path.generic_string(), &findings);
  RunSharedBlockPass(&program, &findings);
  RunAtomicPublicationPass(&program, &findings);
  RunDeadlineCheckpointPass(&program, &findings);
  RunSharedWritePass(&program, &findings);
  RunLeaseLifetimePass(&program, &findings);

  if (dump_lock_graph) {
    std::cout << DumpLockGraph(program);
  }

  // --- Filter: rule selection, then suppressions. ---
  std::vector<Finding> kept;
  int suppressed = 0;
  for (const Finding& f : findings) {
    if (!rule_filter.empty() && !rule_filter.count(f.rule)) continue;
    auto it = suppressions.find(f.file);
    if (it != suppressions.end() &&
        IsSuppressed(it->second, f.line, f.rule)) {
      ++suppressed;
      continue;
    }
    kept.push_back(f);
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Finding& a, const Finding& b) {
                           return a.file == b.file && a.line == b.line &&
                                  a.rule == b.rule && a.message == b.message;
                         }),
             kept.end());

  for (const Finding& f : kept) {
    std::cerr << f.file << ":" << f.line << ": " << f.level << ": ["
              << f.rule << "] " << f.message << "\n";
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path);
    if (!out) {
      std::cerr << "gknn_check: cannot write " << sarif_path << "\n";
      return 2;
    }
    out << ToSarif(kept);
  }

  std::cerr << "gknn_check: " << lexed.size() << " files, "
            << program.functions.size() << " functions, "
            << program.edges.size() << " lock edges, " << kept.size()
            << " finding(s), " << suppressed << " suppressed\n";
  return kept.empty() ? 0 : 1;
}
