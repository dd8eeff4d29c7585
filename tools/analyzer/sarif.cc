#include "sarif.h"

#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace gknn::check {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct RuleMeta {
  const char* id;
  const char* description;
};

constexpr RuleMeta kRules[] = {
    {"lock-order",
     "Static lock acquisition order must strictly ascend lockdep ranks; "
     "leaf classes must never nest; the static graph must match "
     "docs/CONCURRENCY.md."},
    {"shared-block",
     "Blocking waits, device transfers/syncs, and device allocation must "
     "not be reachable while a shared (reader) lock is held."},
    {"status-drop",
     "util::Status / util::Result failure values must be examined, not "
     "discarded."},
    {"device-span",
     "Raw DeviceBuffer spans must stay inside src/gpusim/, must not outlive "
     "their buffer, and must not be dereferenced across pending stream "
     "work."},
    {"raw-mutex",
     "Use the util::lockdep wrappers instead of raw std synchronization "
     "primitives so lock ordering is validated at runtime."},
    {"kernel-capture",
     "Kernel lambdas (taking ThreadCtx& / WarpCtx&) must enumerate their "
     "captures instead of defaulting to [&] or [=]."},
    {"atomic-publication",
     "Atomic fields stored under a lock and read outside it must use "
     "release stores and acquire loads, or a correctly-ordered seqlock "
     "bracket."},
    {"deadline-checkpoint",
     "Unbounded loops reachable from a query entry point must poll the "
     "request deadline on every iteration path."},
    {"shared-write",
     "Non-atomic members must not be written while the owning class's "
     "shared_mutex is held in shared (reader) mode."},
    {"lease-lifetime",
     "Scheduler stream leases must not escape their acquiring scope, be "
     "used after move, or stay live across a DeviceSet metrics fold."},
};

}  // namespace

std::string ToSarif(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
         "Schemata/sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"gknn_check\",\n"
      << "          \"informationUri\": "
         "\"docs/STATIC_ANALYSIS.md\",\n"
      << "          \"rules\": [\n";
  bool first = true;
  for (const RuleMeta& r : kRules) {
    if (!first) out << ",\n";
    first = false;
    out << "            {\"id\": \"" << r.id
        << "\", \"shortDescription\": {\"text\": \"" << JsonEscape(r.description)
        << "\"}}";
  }
  out << "\n          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  first = true;
  for (const Finding& f : findings) {
    if (!first) out << ",\n";
    first = false;
    out << "        {\n"
        << "          \"ruleId\": \"" << JsonEscape(f.rule) << "\",\n"
        << "          \"level\": \"" << JsonEscape(f.level) << "\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(f.message)
        << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": \""
        << JsonEscape(f.file) << "\"}, \"region\": {\"startLine\": "
        << (f.line > 0 ? f.line : 1) << "}}}\n"
        << "          ]\n"
        << "        }";
  }
  out << "\n      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace gknn::check
