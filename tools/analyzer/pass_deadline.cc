// Deadline checkpoint coverage pass.
//
// Query-path code runs under a per-request util::Deadline budget; a loop
// that can iterate without ever polling the deadline (Expired /
// RemainingSeconds / CheckBudget, directly or through a callee) turns an
// expensive query into an unbounded one and defeats admission control.
//
// The pass walks the call graph from the QueryServer / ShardRouter query
// entry points, and for every unbounded loop in a reachable function asks
// the CFG: is there a cyclic path (head -> latch -> head) that stays
// inside the loop and dodges every checkpoint block? Counted loops
// (range-for, 3-clause for with condition and increment) are bounded by
// construction and exempt unless they perform device work.

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dataflow.h"
#include "passes.h"

namespace gknn::check {

namespace {

bool IsQueryEntry(const FunctionInfo& f) {
  if (f.class_name != "QueryServer" && f.class_name != "ShardRouter") {
    return false;
  }
  const size_t sep = f.qualified_name.rfind("::");
  const std::string bare =
      sep == std::string::npos ? f.qualified_name
                               : f.qualified_name.substr(sep + 2);
  return bare.rfind("QueryKnn", 0) == 0 || bare.rfind("QueryRange", 0) == 0;
}

/// Only code on the query hot path is in scope; utility containers (heap
/// sift loops, list splices) are bounded by their callers' budgets.
bool InScopeFile(const std::string& file) {
  if (file.rfind("src/core/", 0) == 0) return true;
  if (file.rfind("src/server/", 0) == 0) return true;
  if (file.rfind("src/roadnet/", 0) == 0) return true;
  return file.find("analyzer_fixtures/") != std::string::npos;
}

bool IsDeviceCategory(int cat) {
  const OpCategory c = static_cast<OpCategory>(cat);
  return c == OpCategory::kDeviceTransfer || c == OpCategory::kDeviceSync ||
         c == OpCategory::kDeviceAlloc;
}

}  // namespace

void RunDeadlineCheckpointPass(Program* program,
                               std::vector<Finding>* findings) {
  // --- Reachability from the query entry points, with one witness path
  // edge per function for diagnostics. ---
  std::map<int, int> reached_via;  // function id -> caller id (-1 = entry)
  std::deque<int> work;
  for (const FunctionInfo& f : program->functions) {
    if (f.is_definition && IsQueryEntry(f)) {
      reached_via.emplace(f.id, -1);
      work.push_back(f.id);
    }
  }
  while (!work.empty()) {
    const int id = work.front();
    work.pop_front();
    for (const CallEvent& c : program->functions[id].calls) {
      for (int callee : c.resolved) {
        if (reached_via.emplace(callee, id).second) work.push_back(callee);
      }
    }
  }

  for (const auto& [id, via] : reached_via) {
    const FunctionInfo& f = program->functions[id];
    if (!f.is_definition || !InScopeFile(f.file)) continue;
    const Cfg& cfg = f.cfg;

    for (const CfgLoop& loop : cfg.loops) {
      // Is this loop unbounded (or does it do device work per iteration)?
      bool device_work = false;
      for (const OpEvent& op : f.ops) {
        if (op.pos >= loop.begin_pos && op.pos < loop.end_pos &&
            IsDeviceCategory(static_cast<int>(op.category))) {
          device_work = true;
          break;
        }
      }
      const bool unbounded =
          loop.infinite ||
          ((loop.kind == CfgLoop::Kind::kWhile ||
            loop.kind == CfgLoop::Kind::kDoWhile) &&
           loop.cond_has_call);
      if (!unbounded && !device_work) continue;
      if (loop.counted && !device_work) continue;

      // Checkpoint blocks: blocks of the loop containing a direct deadline
      // poll or a call whose transitive op summary polls.
      std::set<int> polls;
      for (const OpEvent& op : f.ops) {
        if (op.category != OpCategory::kDeadlinePoll) continue;
        const int b = cfg.BlockAt(op.pos);
        if (b >= 0 && loop.Contains(b)) polls.insert(b);
      }
      for (const CallEvent& c : f.calls) {
        const int b = cfg.BlockAt(c.pos);
        if (b < 0 || !loop.Contains(b)) continue;
        for (int callee : c.resolved) {
          if (program->functions[callee].ops_all.count(
                  static_cast<int>(OpCategory::kDeadlinePoll))) {
            polls.insert(b);
            break;
          }
        }
      }

      std::set<int> members;
      for (int b = loop.first_block; b < loop.past_block; ++b) {
        members.insert(b);
      }
      bool uncovered = false;
      for (int latch : loop.latches) {
        if (CanReachAvoiding(cfg, loop.head, latch, polls, &members)) {
          uncovered = true;
          break;
        }
      }
      if (!uncovered) continue;

      std::string path;
      int hop = via;
      int guard = 0;
      while (hop >= 0 && guard++ < 8) {
        path = program->functions[hop].qualified_name +
               (path.empty() ? "" : " -> ") + path;
        auto it = reached_via.find(hop);
        hop = it == reached_via.end() ? -1 : it->second;
      }
      const std::string reach =
          path.empty() ? "a query entry point" : "query path " + path;

      Finding fd;
      fd.rule = "deadline-checkpoint";
      fd.file = f.file;
      fd.line = loop.line;
      fd.message =
          "loop in '" + f.qualified_name + "' (reachable from " + reach +
          ") has an iteration path with no deadline checkpoint; poll "
          "Deadline::Expired / CheckBudget inside the loop so the query "
          "budget bounds it" +
          (device_work ? " (the loop performs device work per iteration)"
                       : "");
      fd.level = "error";
      findings->push_back(fd);
    }
  }
}

}  // namespace gknn::check
