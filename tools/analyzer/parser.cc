#include "parser.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace gknn::check {
namespace {

using Tokens = std::vector<Token>;
constexpr size_t kNpos = static_cast<size_t>(-1);

bool IsKeyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "if",       "for",     "while",    "switch",   "return", "sizeof",
      "catch",    "new",     "delete",   "alignof",  "noexcept",
      "decltype", "static_assert",       "throw",    "co_return",
      "case",     "default", "do",       "else",     "goto",   "try",
      "alignas",  "typeid",  "co_await", "co_yield",
  };
  return kw.count(s) > 0;
}

bool IsSpecifier(const std::string& s) {
  static const std::set<std::string> sp = {
      "inline",    "static",   "virtual",      "explicit", "constexpr",
      "constinit", "consteval", "extern",      "friend",   "mutable",
      "typename",  "register", "thread_local", "volatile",
  };
  return sp.count(s) > 0;
}

bool IsGuardName(const std::string& s) {
  return s == "MutexLock" || s == "UniqueLock" || s == "SharedLock" ||
         s == "ExclusiveLock" || s == "MultiLock";
}

bool IsLockWrapperType(const std::string& s) {
  return s == "Mutex" || s == "SharedMutex" || s == "StripedMutexes";
}

/// `<` opens a template argument list (rather than being a comparison) when
/// it directly follows an identifier or `::`. Inside the declaration
/// headers this scanner looks at, that heuristic is exact.
bool CanOpenAngle(const Tokens& t, size_t j) {
  if (j == 0) return false;
  const Token& p = t[j - 1];
  if (p.kind == TokenKind::kIdent && !IsKeyword(p.text)) return true;
  return p.IsPunct("::");
}

/// t[open] is one of ( [ { — returns the index just past the matching
/// close, counting only that pair (other pairs nest in a balanced way).
size_t SkipBalancedForward(const Tokens& t, size_t open) {
  const std::string& o = t[open].text;
  const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (size_t j = open; j < t.size() && !t[j].Is(TokenKind::kEnd, ""); ++j) {
    if (t[j].kind != TokenKind::kPunct) continue;
    if (t[j].text == o) ++depth;
    if (t[j].text == c && --depth == 0) return j + 1;
  }
  return t.size() - 1;
}

/// t[open] is `<` — returns the index just past the matching `>`,
/// understanding `>>` as two closes.
size_t SkipAnglesForward(const Tokens& t, size_t open) {
  int depth = 0;
  for (size_t j = open; j < t.size() && !t[j].Is(TokenKind::kEnd, ""); ++j) {
    if (t[j].kind != TokenKind::kPunct) continue;
    if (t[j].text == "<") ++depth;
    if (t[j].text == "<<") depth += 2;
    if (t[j].text == ">") {
      if (--depth == 0) return j + 1;
    }
    if (t[j].text == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    }
  }
  return t.size() - 1;
}

/// t[close] is ) ] } — returns the index of the matching open.
size_t SkipBalancedBackward(const Tokens& t, size_t close) {
  const std::string& c = t[close].text;
  const std::string o = c == ")" ? "(" : c == "]" ? "[" : "{";
  int depth = 0;
  for (size_t j = close + 1; j-- > 0;) {
    if (t[j].kind != TokenKind::kPunct) continue;
    if (t[j].text == c) ++depth;
    if (t[j].text == o && --depth == 0) return j;
  }
  return 0;
}

/// t[close] is `>` closing a template argument list — index of its `<`.
size_t SkipAnglesBackward(const Tokens& t, size_t close) {
  int depth = 0;
  for (size_t j = close + 1; j-- > 0;) {
    if (t[j].kind != TokenKind::kPunct) continue;
    if (t[j].text == ">") ++depth;
    if (t[j].text == "<" && --depth == 0) return j;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Type analysis
// ---------------------------------------------------------------------------

bool IsWrapperTemplate(const std::string& s) {
  return s == "unique_ptr" || s == "shared_ptr" || s == "Result" ||
         s == "optional" || s == "StatusOr";
}

struct BasePick {
  size_t id_pos = kNpos;
  size_t group_b = 0, group_e = 0;  // token range inside <...>, if any
};

/// Last top-level identifier in [b, e), with its template argument group.
BasePick PickBase(const Tokens& t, size_t b, size_t e) {
  BasePick out;
  size_t j = b;
  while (j < e) {
    const Token& tk = t[j];
    if (tk.kind == TokenKind::kIdent && !IsSpecifier(tk.text) &&
        tk.text != "const" && tk.text != "unsigned" && tk.text != "signed") {
      out.id_pos = j;
      out.group_b = out.group_e = 0;
      if (j + 1 < e && t[j + 1].IsPunct("<") && CanOpenAngle(t, j + 1)) {
        const size_t after = SkipAnglesForward(t, j + 1);
        if (after <= e) {
          out.group_b = j + 2;
          out.group_e = after - 1;
          j = after;
          continue;
        }
      }
      ++j;
      continue;
    }
    if (tk.IsPunct("[") && j + 1 < e && t[j + 1].IsPunct("[")) {
      // attribute [[...]]
      size_t k = j + 2;
      while (k + 1 < e && !(t[k].IsPunct("]") && t[k + 1].IsPunct("]"))) ++k;
      j = k + 2;
      continue;
    }
    ++j;
  }
  return out;
}

struct TypeSig {
  std::string key;
  bool status = false;
  bool guard = false;
};

/// Classifies the return/declared type spelled by tokens [b, e): unwraps
/// smart pointers and Result to the pointee, flags Status/Result/MultiLock.
TypeSig AnalyzeTypeTokens(const Tokens& t, size_t b, size_t e) {
  TypeSig sig;
  BasePick pick = PickBase(t, b, e);
  if (pick.id_pos == kNpos) return sig;
  std::string base = t[pick.id_pos].text;
  if (base == "Status" || base == "Result" || base == "StatusOr")
    sig.status = true;
  if (base == "MultiLock") sig.guard = true;
  // Unwrap wrappers to the pointee for receiver typing.
  int fuel = 4;
  while (IsWrapperTemplate(base) && pick.group_b < pick.group_e && fuel-- > 0) {
    pick = PickBase(t, pick.group_b, pick.group_e);
    if (pick.id_pos == kNpos) break;
    base = t[pick.id_pos].text;
  }
  sig.key = base;
  return sig;
}

RetSig ToRetSig(const TypeSig& ts) {
  RetSig r;
  r.type_key = ts.key;
  r.status = ts.status;
  r.guard = ts.guard;
  r.known = true;
  return r;
}

void MergeRet(std::map<std::string, RetSig>* table, const std::string& name,
              const RetSig& sig) {
  auto it = table->find(name);
  if (it == table->end() || !it->second.known) (*table)[name] = sig;
}

void NoteNameStatus(Program* program, const std::string& name,
                    const TypeSig& sig) {
  if (sig.status) {
    program->status_names.insert(name);
  } else {
    program->nonstatus_names.insert(name);
  }
}

// ---------------------------------------------------------------------------
// Phase A
// ---------------------------------------------------------------------------

/// The name chain directly before the parameter `(` at `paren`:
/// `DrainIfPending` → {DrainIfPending}; `QueryServer::DrainIfPending` →
/// {QueryServer, DrainIfPending}. Empty for operators and destructors.
struct NameChain {
  std::vector<std::string> names;
  size_t start_pos = kNpos;  // token index of the first chain identifier
};

NameChain ExtractNameChain(const Tokens& t, size_t paren) {
  NameChain out;
  if (paren == 0) return out;
  size_t j = paren - 1;
  if (t[j].IsPunct(">")) {
    const size_t open = SkipAnglesBackward(t, j);
    if (open == 0) return out;
    j = open - 1;
  }
  if (t[j].kind != TokenKind::kIdent) return out;
  if (t[j].text == "operator") return out;
  out.names.push_back(t[j].text);
  out.start_pos = j;
  while (j >= 2 && t[j - 1].IsPunct("::")) {
    size_t k = j - 2;
    if (t[k].IsPunct(">")) {
      const size_t open = SkipAnglesBackward(t, k);
      if (open == 0) break;
      k = open - 1;
    }
    if (t[k].kind != TokenKind::kIdent) break;
    out.names.insert(out.names.begin(), t[k].text);
    out.start_pos = k;
    j = k;
  }
  if (out.start_pos > 0 && t[out.start_pos - 1].IsPunct("~")) {
    out.names.clear();  // destructor: consume the body, register nothing
  }
  return out;
}

/// Extracts a member/global variable declaration from [b, stop): name,
/// declared-type slice, initializer slice. Returns false when no name.
struct VarDecl {
  std::string name;
  size_t type_b = 0, type_e = 0;
  size_t init_b = 0, init_e = 0;  // tokens after the name, before ';'
};

bool ExtractVarDecl(const Tokens& t, size_t b, size_t stop, VarDecl* out) {
  int pd = 0, bd = 0, ad = 0;
  size_t name_pos = kNpos;
  size_t init_start = stop;
  for (size_t j = b; j < stop; ++j) {
    const Token& tk = t[j];
    if (tk.kind == TokenKind::kPunct) {
      const std::string& s = tk.text;
      if (s == "(") ++pd;
      else if (s == ")") --pd;
      else if (s == "<" && CanOpenAngle(t, j)) ++ad;
      else if (s == ">" && ad > 0) --ad;
      else if (s == ">>" && ad > 0) ad = std::max(0, ad - 2);
      else if (pd == 0 && bd == 0 && ad == 0 &&
               (s == "=" || s == "{" || s == "[")) {
        init_start = j;
        break;
      }
      if (s == "[") ++bd;
      else if (s == "]") --bd;
    } else if (tk.kind == TokenKind::kIdent && pd == 0 && bd == 0 && ad == 0) {
      name_pos = j;
    }
  }
  if (name_pos == kNpos || name_pos >= init_start) {
    // Name may come after re-scan boundary (e.g. `int x[3];` name before
    // '['): name_pos tracked the last zero-depth ident before init_start.
    if (name_pos == kNpos) return false;
  }
  out->name = t[name_pos].text;
  out->type_b = b;
  out->type_e = name_pos;
  out->init_b = init_start;
  out->init_e = stop;
  return true;
}

/// Finds a lock class symbol (an identifier registered in the lockdep
/// table, or failing that a `k...Class` identifier) in tokens [b, e).
std::string FindLockSymbol(const Tokens& t, size_t b, size_t e,
                           const Program& program) {
  std::string fallback;
  for (size_t j = b; j < e; ++j) {
    if (t[j].kind != TokenKind::kIdent) continue;
    const std::string& s = t[j].text;
    if (program.locks.by_symbol.count(s)) return s;
    if (fallback.empty() && s.size() > 6 && s[0] == 'k' &&
        s.compare(s.size() - 5, 5, "Class") == 0) {
      fallback = s;
    }
  }
  return fallback;
}

struct Frame {
  bool is_class = false;
  std::string class_name;
};

size_t SkipToSemi(const Tokens& t, size_t i) {
  int pd = 0, brace = 0;
  for (size_t j = i; j < t.size() && !t[j].Is(TokenKind::kEnd, ""); ++j) {
    if (t[j].kind != TokenKind::kPunct) continue;
    if (t[j].text == "(") ++pd;
    else if (t[j].text == ")") --pd;
    else if (t[j].text == "{") ++brace;
    else if (t[j].text == "}") --brace;
    else if (t[j].text == ";" && pd == 0 && brace == 0) return j + 1;
  }
  return t.size() - 1;
}

/// Scans one declaration-or-definition starting at `i` (namespace or class
/// scope). Registers what it finds and returns the index to resume at.
size_t DeclOrFunction(const LexedFile& file, size_t i, const std::string& cls,
                      bool at_class_scope, Program* program) {
  const Tokens& t = file.tokens;
  const size_t n = t.size();
  size_t j = i;
  int pd = 0, bd = 0, ad = 0;
  size_t top_paren = kNpos, top_paren_close = kNpos;
  bool seen_eq = false;
  size_t stop = kNpos;
  bool body = false;

  while (j < n && !t[j].Is(TokenKind::kEnd, "")) {
    const Token& tk = t[j];
    if (tk.kind != TokenKind::kPunct) {
      ++j;
      continue;
    }
    const std::string& s = tk.text;
    if (s == "(") {
      if (pd == 0 && bd == 0 && ad == 0 && top_paren == kNpos && !seen_eq &&
          j > i &&
          (t[j - 1].kind == TokenKind::kIdent || t[j - 1].IsPunct(">"))) {
        top_paren = j;
      }
      ++pd;
    } else if (s == ")") {
      --pd;
      if (pd == 0 && bd == 0 && top_paren != kNpos &&
          top_paren_close == kNpos) {
        top_paren_close = j;
      }
    } else if (s == "[") {
      ++bd;
    } else if (s == "]") {
      --bd;
    } else if (s == "<") {
      if (CanOpenAngle(t, j)) ++ad;
    } else if (s == ">") {
      if (ad > 0) --ad;
    } else if (s == ">>") {
      if (ad > 0) ad = std::max(0, ad - 2);
    } else if (s == "=") {
      if (pd == 0 && bd == 0 && ad == 0) seen_eq = true;
    } else if (s == ";") {
      if (pd == 0 && bd == 0) {
        stop = j;
        break;
      }
    } else if (s == "{") {
      if (pd == 0 && bd == 0) {
        if (seen_eq) {
          j = SkipBalancedForward(t, j);
          continue;
        }
        if (top_paren_close != kNpos) {
          body = true;
          stop = j;
          break;
        }
        // Brace-initialized variable: `Foo x{...};` — consume the group.
        j = SkipBalancedForward(t, j);
        continue;
      }
    } else if (s == ":" && pd == 0 && bd == 0 && ad == 0 &&
               top_paren_close != kNpos && !seen_eq) {
      // Constructor initializer list: `name(...)` / `name{...}` items,
      // then the body `{`.
      size_t k = j + 1;
      while (k < n && !t[k].Is(TokenKind::kEnd, "")) {
        if (t[k].IsPunct("(")) {
          k = SkipBalancedForward(t, k);
          continue;
        }
        if (t[k].IsPunct("{")) {
          if (k > 0 && t[k - 1].kind == TokenKind::kIdent) {
            k = SkipBalancedForward(t, k);
            continue;
          }
          body = true;
          stop = k;
          break;
        }
        ++k;
      }
      if (body) break;
      return k;  // malformed; bail past it
    }
    ++j;
  }
  if (stop == kNpos) return n - 1;

  if (!body) {
    if (top_paren != kNpos && !seen_eq) {
      // Function/method declaration (or, at namespace scope, a variable
      // with constructor arguments — harmless to record as a signature).
      NameChain chain = ExtractNameChain(t, top_paren);
      if (!chain.names.empty()) {
        const std::string& name = chain.names.back();
        const TypeSig sig = AnalyzeTypeTokens(t, i, chain.start_pos);
        const RetSig ret = ToRetSig(sig);
        std::string owner = at_class_scope ? cls : std::string();
        if (!at_class_scope && chain.names.size() > 1) {
          owner = chain.names[chain.names.size() - 2];
        }
        if (!owner.empty()) {
          MergeRet(&program->classes[owner].method_return, name, ret);
        } else {
          MergeRet(&program->free_returns, name, ret);
        }
        if (name != owner) NoteNameStatus(program, name, sig);
      }
    } else {
      VarDecl var;
      if (ExtractVarDecl(t, i, stop, &var)) {
        const TypeSig sig = AnalyzeTypeTokens(t, var.type_b, var.type_e);
        bool is_lockdep = false;
        for (size_t k = var.type_b; k < var.type_e; ++k) {
          if (t[k].IsIdent("lockdep")) is_lockdep = true;
        }
        if (is_lockdep && IsLockWrapperType(sig.key)) {
          const std::string symbol =
              FindLockSymbol(t, var.init_b, var.init_e, *program);
          if (!symbol.empty()) {
            if (at_class_scope) {
              ClassInfo& ci = program->classes[cls];
              ci.lock_members[var.name] = symbol;
              if (sig.key == "SharedMutex")
                ci.shared_lock_members.insert(var.name);
              if (sig.key == "StripedMutexes")
                ci.striped_lock_members.insert(var.name);
            } else {
              program->global_lock_vars[var.name] = symbol;
              if (sig.key == "SharedMutex")
                program->global_shared_lock_vars.insert(var.name);
            }
          }
        } else if (at_class_scope && !sig.key.empty()) {
          ClassInfo& ci = program->classes[cls];
          ci.members[var.name] = sig.key;
          // std::atomic anywhere in the declared type (including
          // array<atomic<T>, N>) makes element accesses atomic.
          for (size_t k = var.type_b; k < var.type_e; ++k) {
            if (t[k].IsIdent("atomic")) {
              ci.atomic_members.insert(var.name);
              break;
            }
          }
        }
      }
    }
    return stop + 1;
  }

  // Function definition: stop is the body '{'.
  const size_t after_body = SkipBalancedForward(t, stop);
  NameChain chain = ExtractNameChain(t, top_paren);
  if (chain.names.empty()) return after_body;
  const std::string& name = chain.names.back();
  std::string class_name = at_class_scope ? cls : std::string();
  if (!at_class_scope && chain.names.size() > 1) {
    class_name = chain.names[chain.names.size() - 2];
  }
  const TypeSig sig = AnalyzeTypeTokens(t, i, chain.start_pos);

  FunctionInfo f;
  f.id = static_cast<int>(program->functions.size());
  f.class_name = class_name;
  f.qualified_name = class_name.empty() ? name : class_name + "::" + name;
  f.file = file.path;
  f.line = t[chain.start_pos].line;
  f.return_type = sig.key;
  f.returns_status = sig.status;
  f.returns_guard = sig.guard;
  f.is_definition = true;
  f.body_begin = stop + 1;
  f.body_end = after_body > 0 ? after_body - 1 : stop + 1;
  program->functions_by_name[name].push_back(f.id);
  program->functions.push_back(std::move(f));

  const RetSig ret = ToRetSig(sig);
  if (!class_name.empty()) {
    MergeRet(&program->classes[class_name].method_return, name, ret);
  } else {
    MergeRet(&program->free_returns, name, ret);
  }
  if (name != class_name) NoteNameStatus(program, name, sig);
  return after_body;
}

}  // namespace

void ScanStructure(const LexedFile& file, Program* program) {
  const Tokens& t = file.tokens;
  const size_t n = t.size();
  std::vector<Frame> frames;
  auto current_class = [&]() -> std::pair<bool, std::string> {
    if (!frames.empty() && frames.back().is_class) {
      return {true, frames.back().class_name};
    }
    return {false, ""};
  };

  size_t i = 0;
  while (i + 1 < n && !t[i].Is(TokenKind::kEnd, "")) {
    const Token& tk = t[i];
    if (tk.IsPunct("}")) {
      if (!frames.empty()) frames.pop_back();
      ++i;
      // Class definitions end with `};` — consume the stray semicolon.
      if (i < n && t[i].IsPunct(";")) ++i;
      continue;
    }
    if (tk.IsPunct("{")) {  // extern "C" or stray block
      frames.push_back({});
      ++i;
      continue;
    }
    if (tk.IsPunct(";")) {
      ++i;
      continue;
    }
    if (tk.IsIdent("namespace")) {
      size_t j = i + 1;
      while (j < n && !t[j].IsPunct("{") && !t[j].IsPunct(";") &&
             !t[j].IsPunct("=")) {
        ++j;
      }
      if (j < n && t[j].IsPunct("{")) {
        frames.push_back({});
        i = j + 1;
      } else {
        i = SkipToSemi(t, j);
      }
      continue;
    }
    if (tk.IsIdent("template")) {
      if (i + 1 < n && t[i + 1].IsPunct("<")) {
        i = SkipAnglesForward(t, i + 1);
      } else {
        ++i;
      }
      continue;
    }
    if (tk.IsIdent("using") || tk.IsIdent("typedef") ||
        tk.IsIdent("static_assert") || tk.IsIdent("friend")) {
      i = SkipToSemi(t, i);
      continue;
    }
    if ((tk.IsIdent("public") || tk.IsIdent("private") ||
         tk.IsIdent("protected")) &&
        i + 1 < n && t[i + 1].IsPunct(":")) {
      i += 2;
      continue;
    }
    if (tk.IsIdent("enum")) {
      size_t j = i + 1;
      while (j < n && !t[j].IsPunct("{") && !t[j].IsPunct(";")) ++j;
      if (j < n && t[j].IsPunct("{")) j = SkipBalancedForward(t, j);
      i = SkipToSemi(t, j);
      continue;
    }
    if (tk.IsIdent("class") || tk.IsIdent("struct") || tk.IsIdent("union")) {
      size_t j = i + 1;
      std::string last_ident;
      size_t open = kNpos;
      int pd = 0;
      while (j < n && !t[j].Is(TokenKind::kEnd, "")) {
        const Token& c = t[j];
        if (c.kind == TokenKind::kIdent) {
          if (c.text != "final" && c.text != "alignas") last_ident = c.text;
          ++j;
          continue;
        }
        if (c.IsPunct("<") && CanOpenAngle(t, j)) {
          j = SkipAnglesForward(t, j);
          continue;
        }
        if (c.IsPunct("(")) ++pd;
        if (c.IsPunct(")")) --pd;
        if (pd == 0 && c.IsPunct(";")) {
          open = kNpos;
          break;  // forward declaration / elaborated specifier
        }
        if (pd == 0 && c.IsPunct(":")) {
          // base clause: scan on to the '{'
          while (j < n && !t[j].IsPunct("{")) {
            if (t[j].IsPunct("<") && CanOpenAngle(t, j)) {
              j = SkipAnglesForward(t, j);
              continue;
            }
            ++j;
          }
          open = j;
          break;
        }
        if (pd == 0 && c.IsPunct("{")) {
          open = j;
          break;
        }
        ++j;
      }
      if (open == kNpos) {
        i = SkipToSemi(t, j);
        continue;
      }
      if (!last_ident.empty()) {
        program->classes[last_ident].name = last_ident;
        frames.push_back({true, last_ident});
      } else {
        frames.push_back({});  // anonymous
      }
      i = open + 1;
      continue;
    }
    const auto [in_class, cls] = current_class();
    i = DeclOrFunction(file, i, cls, in_class, program);
  }
}

// ---------------------------------------------------------------------------
// Phase B
// ---------------------------------------------------------------------------

namespace {

const std::set<std::string>& BlockingNames() {
  static const std::set<std::string> s = {
      "SleepNext",  "sleep_for", "sleep_until", "wait",
      "wait_for",   "wait_until", "join",       "Join",
  };
  return s;
}

const std::set<std::string>& TransferNames() {
  static const std::set<std::string> s = {
      "Upload", "Download", "UploadAsync", "EnqueueH2D", "EnqueueD2H",
  };
  return s;
}

/// One element of a receiver chain, innermost last: for
/// `device_->ledger().RecordH2D(...)` the chain is
/// {device_ (var), ledger (call)} and the callee is RecordH2D.
struct ChainElem {
  std::string name;
  bool is_call = false;
  bool is_index = false;
};

struct Chain {
  std::vector<ChainElem> elems;  // receiver elements, base first
  size_t base_pos = kNpos;       // token index of the base identifier
  bool qualified = false;        // Class::Name(...) form
  std::string qualifier;
};

/// Walks the receiver chain backward from the callee identifier at `pos`.
Chain WalkReceiver(const Tokens& t, size_t pos) {
  Chain out;
  out.base_pos = pos;
  if (pos == 0) return out;
  if (t[pos - 1].IsPunct("::")) {
    size_t k = pos >= 2 ? pos - 2 : 0;
    if (t[k].IsPunct(">")) {
      const size_t open = SkipAnglesBackward(t, k);
      if (open > 0) k = open - 1;
    }
    if (t[k].kind == TokenKind::kIdent) {
      out.qualified = true;
      out.qualifier = t[k].text;
      out.base_pos = k;
      // Walk further qualifiers (util::lockdep::Foo) just for base_pos.
      while (out.base_pos >= 2 && t[out.base_pos - 1].IsPunct("::") &&
             t[out.base_pos - 2].kind == TokenKind::kIdent) {
        out.base_pos -= 2;
      }
    }
    return out;
  }
  size_t j = pos;
  while (j >= 2 && (t[j - 1].IsPunct(".") || t[j - 1].IsPunct("->"))) {
    size_t k = j - 2;
    ChainElem elem;
    if (t[k].IsPunct(")")) {
      const size_t open = SkipBalancedBackward(t, k);
      if (open == 0 || t[open - 1].kind != TokenKind::kIdent) {
        out.elems.clear();
        out.base_pos = pos;
        return out;  // parenthesized expression receiver — give up typing
      }
      elem.is_call = true;
      elem.name = t[open - 1].text;
      k = open - 1;
    } else if (t[k].IsPunct("]")) {
      const size_t open = SkipBalancedBackward(t, k);
      if (open == 0 || t[open - 1].kind != TokenKind::kIdent) {
        out.elems.clear();
        out.base_pos = pos;
        return out;
      }
      elem.is_index = true;
      elem.name = t[open - 1].text;
      k = open - 1;
    } else if (t[k].kind == TokenKind::kIdent) {
      elem.name = t[k].text;
    } else {
      break;
    }
    out.elems.insert(out.elems.begin(), elem);
    out.base_pos = k;
    j = k;
  }
  return out;
}

struct BodyWalker {
  const LexedFile& file;
  const Tokens& t;
  FunctionInfo& f;
  Program& program;
  std::vector<Finding>& findings;
  const ClassInfo* cls;  // enclosing class, or nullptr

  std::map<std::string, std::string> locals;           // name -> type key
  std::map<std::string, std::string> local_lock_vars;  // name -> class symbol
  std::set<std::string> local_shared_lock_vars;

  struct SpanLocal {
    std::string name, buffer;
    bool buffer_local = false;
    int line = 0;
    size_t pos = 0;
    bool reported_pending = false;
    bool invalid = false;
  };
  std::vector<SpanLocal> spans;

  struct StatusLocal {
    std::string name;
    int line = 0;
    size_t decl_end = 0;
  };
  std::vector<StatusLocal> statuses;

  std::set<std::string> pending_streams;
  std::vector<size_t> open_braces;
  std::map<size_t, size_t> close_of;

  BodyWalker(const LexedFile& lf, FunctionInfo& fn, Program& prog,
             std::vector<Finding>& out)
      : file(lf), t(lf.tokens), f(fn), program(prog), findings(out) {
    auto it = program.classes.find(f.class_name);
    cls = it == program.classes.end() ? nullptr : &it->second;
    // Pre-match braces inside the body.
    std::vector<size_t> stack;
    for (size_t j = f.body_begin; j < f.body_end; ++j) {
      if (t[j].IsPunct("{")) stack.push_back(j);
      if (t[j].IsPunct("}") && !stack.empty()) {
        close_of[stack.back()] = j;
        stack.pop_back();
      }
    }
  }

  size_t ScopeClose() const {
    if (open_braces.empty()) return f.body_end;
    auto it = close_of.find(open_braces.back());
    return it == close_of.end() ? f.body_end : it->second;
  }

  std::string TypeOf(const std::string& name) const {
    if (name == "this") return f.class_name;
    auto it = locals.find(name);
    if (it != locals.end()) return it->second;
    if (cls) {
      auto mt = cls->members.find(name);
      if (mt != cls->members.end()) return mt->second;
    }
    return "";
  }

  const RetSig* MethodSig(const std::string& type,
                          const std::string& name) const {
    auto it = program.classes.find(type);
    if (it == program.classes.end()) return nullptr;
    auto mt = it->second.method_return.find(name);
    return mt == it->second.method_return.end() ? nullptr : &mt->second;
  }

  /// Type of the receiver for the call at `pos`, or "".
  std::string ReceiverType(const Chain& chain) const {
    if (chain.elems.empty()) return "";
    std::string type = TypeOf(chain.elems[0].name);
    if (type.empty()) return "";
    for (size_t k = 1; k < chain.elems.size(); ++k) {
      const ChainElem& e = chain.elems[k];
      if (e.is_index) return "";  // container element — unknown
      if (e.is_call) {
        const RetSig* sig = MethodSig(type, e.name);
        if (sig == nullptr || sig->type_key.empty()) return "";
        type = sig->type_key;
      } else {
        auto it = program.classes.find(type);
        if (it == program.classes.end()) return "";
        auto mt = it->second.members.find(e.name);
        if (mt == it->second.members.end()) return "";
        type = mt->second;
      }
    }
    // The first element was typed as a variable; if the chain had N elems
    // the loop above already consumed the rest. For a 1-element chain the
    // receiver type is just the base variable's type.
    return type;
  }

  /// Resolves a call event to function ids (empty = unresolved).
  std::vector<int> Resolve(const std::string& name,
                           const std::string& receiver_type,
                           bool qualified, const std::string& qualifier) {
    auto find_in = [&](const std::string& c) -> int {
      auto it = program.functions_by_name.find(name);
      if (it == program.functions_by_name.end()) return -1;
      for (int id : it->second) {
        if (program.functions[id].class_name == c) return id;
      }
      return -1;
    };
    if (!receiver_type.empty()) {
      const int id = find_in(receiver_type);
      if (id >= 0) return {id};
      return {};
    }
    if (qualified) {
      const int id = find_in(qualifier);
      if (id >= 0) return {id};
      // Namespace qualifier (core::Foo): fall through to by-name.
    } else {
      const int id = find_in(f.class_name);
      if (id >= 0) return {id};
      const int free_id = find_in("");
      if (free_id >= 0) return {free_id};
    }
    auto it = program.functions_by_name.find(name);
    if (it != program.functions_by_name.end() && it->second.size() == 1) {
      return {it->second[0]};
    }
    return {};
  }

  /// Return signature of the call, consulting resolution, then declared
  /// method tables, then free functions.
  RetSig CallSig(const std::string& name, const std::string& receiver_type,
                 bool qualified, const std::string& qualifier,
                 const std::vector<int>& resolved) const {
    if (resolved.size() == 1) {
      const FunctionInfo& g = program.functions[resolved[0]];
      RetSig sig;
      sig.type_key = g.return_type;
      sig.status = g.returns_status;
      sig.guard = g.returns_guard;
      sig.known = true;
      return sig;
    }
    if (!receiver_type.empty()) {
      const RetSig* sig = MethodSig(receiver_type, name);
      if (sig != nullptr) return *sig;
    }
    if (qualified) {
      const RetSig* sig = MethodSig(qualifier, name);
      if (sig != nullptr) return *sig;
    }
    if (!f.class_name.empty()) {
      const RetSig* sig = MethodSig(f.class_name, name);
      if (sig != nullptr) return *sig;
    }
    auto it = program.free_returns.find(name);
    if (it != program.free_returns.end()) return it->second;
    return RetSig{};
  }

  /// Resolves the lock class of a guard constructor argument [b, e).
  std::string ResolveMutexExpr(size_t b, size_t e, bool* shared_mutex) {
    size_t j = b;
    while (j < e && (t[j].IsPunct("&") || t[j].IsPunct("*"))) ++j;
    if (j >= e || t[j].kind != TokenKind::kIdent) return "";
    std::string base = t[j].text;
    // this->member
    if (base == "this" && j + 2 < e && t[j + 1].IsPunct("->")) {
      j += 2;
      base = t[j].text;
    }
    const bool has_field =
        j + 2 < e && (t[j + 1].IsPunct(".") || t[j + 1].IsPunct("->")) &&
        t[j + 2].kind == TokenKind::kIdent;
    if (has_field) {
      const std::string type = TypeOf(base);
      auto it = program.classes.find(type);
      if (it == program.classes.end()) return "";
      auto lm = it->second.lock_members.find(t[j + 2].text);
      if (lm == it->second.lock_members.end()) return "";
      if (shared_mutex != nullptr) {
        *shared_mutex = it->second.shared_lock_members.count(t[j + 2].text) > 0;
      }
      return lm->second;
    }
    auto llv = local_lock_vars.find(base);
    if (llv != local_lock_vars.end()) {
      if (shared_mutex != nullptr) {
        *shared_mutex = local_shared_lock_vars.count(base) > 0;
      }
      return llv->second;
    }
    if (cls != nullptr) {
      auto lm = cls->lock_members.find(base);
      if (lm != cls->lock_members.end()) {
        if (shared_mutex != nullptr) {
          *shared_mutex = cls->shared_lock_members.count(base) > 0;
        }
        return lm->second;
      }
    }
    auto gv = program.global_lock_vars.find(base);
    if (gv != program.global_lock_vars.end()) {
      if (shared_mutex != nullptr) {
        *shared_mutex = program.global_shared_lock_vars.count(base) > 0;
      }
      return gv->second;
    }
    return "";
  }

  /// A receiver chain plus leaf resolved to a dotted member path of the
  /// enclosing class (`this->` allowed; locals shadow members).
  struct FieldPath {
    std::string path;
    bool atomic = false;  // atomicity of the LAST path element
    bool ok = false;
  };

  FieldPath ResolveFieldPath(const std::vector<ChainElem>& elems) const {
    FieldPath out;
    if (cls == nullptr || elems.empty()) return out;
    size_t k = 0;
    if (elems[0].name == "this") {
      ++k;
      if (k >= elems.size()) return out;
    } else if (locals.count(elems[0].name)) {
      return out;  // a local shadows any member of the same name
    }
    const ClassInfo* ci = cls;
    for (; k < elems.size(); ++k) {
      const ChainElem& e = elems[k];
      if (e.is_call || ci == nullptr) return FieldPath{};
      auto mt = ci->members.find(e.name);
      if (mt == ci->members.end()) return FieldPath{};
      out.atomic = ci->atomic_members.count(e.name) > 0;
      if (!out.path.empty()) out.path += ".";
      out.path += e.name;
      auto nx = program.classes.find(mt->second);
      ci = nx == program.classes.end() ? nullptr : &nx->second;
    }
    out.ok = true;
    return out;
  }

  /// Parses the explicit memory_order argument (if any) of the atomic
  /// operation whose argument list spans (b, e): both the classic
  /// `std::memory_order_release` spelling and `memory_order::release`.
  static void ParseOrder(const Tokens& t, size_t b, size_t e,
                         AtomicAccess* access) {
    for (size_t k = b; k < e; ++k) {
      if (t[k].kind != TokenKind::kIdent) continue;
      const std::string& s = t[k].text;
      if (s.rfind("memory_order_", 0) == 0) {
        access->explicit_order = true;
        access->order = s.substr(13);
        return;
      }
      if (s == "memory_order" && k + 2 < e && t[k + 1].IsPunct("::") &&
          t[k + 2].kind == TokenKind::kIdent) {
        access->explicit_order = true;
        access->order = t[k + 2].text;
        return;
      }
    }
  }

  void AddAtomicAccess(AtomicAccess::Kind kind, const FieldPath& fp,
                       size_t order_b, size_t order_e, int line, size_t pos) {
    AtomicAccess aa;
    aa.kind = kind;
    aa.owner = f.class_name;
    aa.field = fp.path;
    aa.line = line;
    aa.pos = pos;
    if (order_e > order_b) ParseOrder(t, order_b, order_e, &aa);
    f.atomics.push_back(aa);
  }

  const LeaseVar* FindLease(const std::string& name) const {
    for (const LeaseVar& lv : f.leases) {
      if (lv.name == name) return &lv;
    }
    return nullptr;
  }

  void NoteLeaseLocal(const std::string& name, int line, size_t pos) {
    LeaseVar lv;
    lv.name = name;
    lv.line = line;
    lv.pos = pos;
    lv.scope_end = ScopeClose();
    f.leases.push_back(lv);
  }

  /// First token of the statement containing `i` (walks back to the
  /// previous ; { or }).
  size_t StmtBegin(size_t i) const {
    size_t j = i;
    while (j > f.body_begin && !(t[j - 1].IsPunct(";") ||
                                 t[j - 1].IsPunct("{") ||
                                 t[j - 1].IsPunct("}"))) {
      --j;
    }
    return j;
  }

  bool StatementStart(size_t i) const {
    size_t j = i;
    while (j > f.body_begin &&
           (t[j - 1].IsIdent("const") || t[j - 1].IsIdent("constexpr") ||
            t[j - 1].IsIdent("static"))) {
      --j;
    }
    if (j == f.body_begin) return true;
    const Token& p = t[j - 1];
    return p.IsPunct(";") || p.IsPunct("{") || p.IsPunct("}");
  }

  /// Typed local declaration: `[const] A::B<...> [&*] name (=|{|(|;)`.
  /// Records the local's type; returns true if matched (never consumes —
  /// the initializer is scanned normally for calls).
  bool TryTypedDecl(size_t i) {
    if (t[i].kind != TokenKind::kIdent || IsKeyword(t[i].text)) return false;
    if (t[i].text == "auto" || t[i].text == "return") return false;
    if (!StatementStart(i)) return false;
    size_t j = i;
    size_t type_b = i;
    // identifier chain with :: and template args
    while (j < f.body_end) {
      if (t[j].kind != TokenKind::kIdent) break;
      ++j;
      if (j < f.body_end && t[j].IsPunct("<") && CanOpenAngle(t, j)) {
        j = SkipAnglesForward(t, j);
      }
      if (j < f.body_end && t[j].IsPunct("::")) {
        ++j;
        continue;
      }
      break;
    }
    const size_t type_e = j;
    if (type_e == type_b) return false;
    while (j < f.body_end && (t[j].IsPunct("&") || t[j].IsPunct("*"))) ++j;
    if (j >= f.body_end || t[j].kind != TokenKind::kIdent) return false;
    const std::string name = t[j].text;
    if (j + 1 >= f.body_end) return false;
    const Token& next = t[j + 1];
    if (!(next.IsPunct("=") || next.IsPunct("{") || next.IsPunct("(") ||
          next.IsPunct(";"))) {
      return false;
    }
    const TypeSig sig = AnalyzeTypeTokens(t, type_b, type_e);
    if (sig.key.empty() || !std::isupper(static_cast<unsigned char>(
                               sig.key[0]))) {
      return false;  // lowercase base — probably not a type we know
    }
    bool is_lockdep = false;
    for (size_t k = type_b; k < type_e; ++k) {
      if (t[k].IsIdent("lockdep")) is_lockdep = true;
    }
    if (is_lockdep && IsLockWrapperType(sig.key)) {
      const size_t stmt_end = SkipToSemi(t, j);
      const std::string symbol = FindLockSymbol(t, j + 1, stmt_end, program);
      if (!symbol.empty()) {
        local_lock_vars[name] = symbol;
        if (sig.key == "SharedMutex") local_shared_lock_vars.insert(name);
      }
      return true;
    }
    locals[name] = sig.key;
    if (sig.key == "Status" || sig.key == "Result" || sig.key == "StatusOr") {
      StatusLocal sv;
      sv.name = name;
      sv.line = t[j].line;
      sv.decl_end = SkipToSemi(t, j);
      statuses.push_back(sv);
    }
    if (sig.key == "Lease") NoteLeaseLocal(name, t[j].line, j);
    return true;
  }

  /// First call chain in [b, e): returns its signature and, via out
  /// params, whether it is a `device_span()` bind and the buffer chain.
  RetSig FirstCallSig(size_t b, size_t e, bool* is_device_span,
                      std::string* buffer, bool* buffer_is_local) {
    for (size_t k = b; k < e; ++k) {
      if (t[k].kind != TokenKind::kIdent || IsKeyword(t[k].text)) continue;
      if (k + 1 >= e || !t[k + 1].IsPunct("(")) continue;
      if (t[k].text == "std" || t[k].text == "move") continue;
      const Chain chain = WalkReceiver(t, k);
      if (t[k].text == "device_span") {
        if (is_device_span != nullptr) *is_device_span = true;
        if (buffer != nullptr && !chain.elems.empty()) {
          *buffer = chain.elems.back().name;
          if (buffer_is_local != nullptr) {
            auto it = locals.find(*buffer);
            *buffer_is_local =
                it != locals.end() && it->second == "DeviceBuffer";
          }
        }
        return RetSig{};
      }
      if (t[k].text == "move") continue;
      const std::string rt = ReceiverType(chain);
      const std::vector<int> ids =
          Resolve(t[k].text, rt, chain.qualified, chain.qualifier);
      return CallSig(t[k].text, rt, chain.qualified, chain.qualifier, ids);
    }
    return RetSig{};
  }

  void AddFinding(const std::string& rule, int line, const std::string& msg,
                  const std::string& level) {
    Finding fd;
    fd.rule = rule;
    fd.file = file.path;
    fd.line = line;
    fd.message = msg;
    fd.level = level;
    findings.push_back(fd);
  }

  void Walk();
  void HandleCall(size_t i);
  void FinishStatuses();
};

void BodyWalker::HandleCall(size_t i) {
  const std::string& name = t[i].text;
  const Chain chain = WalkReceiver(t, i);
  const std::string receiver_type = ReceiverType(chain);

  CallEvent ev;
  ev.callee_name = name;
  ev.receiver_type = receiver_type;
  ev.qualified = chain.qualified;
  ev.qualifier = chain.qualifier;
  ev.line = t[i].line;
  ev.pos = i;
  ev.resolved = Resolve(name, receiver_type, chain.qualified, chain.qualifier);

  // Guard-returning call: the callee's transitive acquires are held until
  // the current scope closes (`auto locks = LockCellStripes(...)`).
  const RetSig sig =
      CallSig(name, receiver_type, chain.qualified, chain.qualifier,
              ev.resolved);
  if (sig.guard && ev.resolved.size() == 1) {
    AcquireEvent acq;
    acq.via_callee = ev.resolved[0];
    acq.multi = true;
    acq.line = t[i].line;
    acq.begin_pos = i;
    acq.end_pos = ScopeClose();
    f.acquires.push_back(acq);
  }

  // Op classification for the blocking-under-shared-lock pass.
  auto add_op = [&](OpCategory cat) {
    OpEvent op;
    op.category = cat;
    op.detail = name;
    op.line = t[i].line;
    op.pos = i;
    f.ops.push_back(op);
  };
  if (BlockingNames().count(name)) add_op(OpCategory::kBlockingWait);
  if (TransferNames().count(name)) add_op(OpCategory::kDeviceTransfer);
  if (name == "Synchronize" || name == "Launch")
    add_op(OpCategory::kDeviceSync);
  if ((name == "Allocate" &&
       ((chain.qualified && chain.qualifier == "DeviceBuffer") ||
        receiver_type == "DeviceBuffer")) ||
      name == "RegisterAlloc") {
    add_op(OpCategory::kDeviceAlloc);
  }
  // Deadline observation points for the deadline-checkpoint pass. Matched
  // by name because parameters are untyped in this parser: `deadline` and
  // `control->deadline` both surface as bare Expired() calls.
  if (name == "Expired" || name == "RemainingSeconds" ||
      name == "CheckBudget") {
    add_op(OpCategory::kDeadlinePoll);
  }

  // Atomic member operations (x_.store(v, order) / load / RMW) feed the
  // atomic-publication pass.
  static const std::set<std::string> kAtomicRmwNames = {
      "exchange",       "fetch_add", "fetch_sub",
      "fetch_and",      "fetch_or",  "fetch_xor",
      "compare_exchange_weak",       "compare_exchange_strong",
  };
  if ((name == "store" || name == "load" || kAtomicRmwNames.count(name)) &&
      !chain.qualified && !chain.elems.empty()) {
    const FieldPath fp = ResolveFieldPath(chain.elems);
    if (fp.ok && fp.atomic) {
      const AtomicAccess::Kind kind =
          name == "store" ? AtomicAccess::Kind::kStore
          : name == "load" ? AtomicAccess::Kind::kLoad
                           : AtomicAccess::Kind::kRmw;
      const size_t after = SkipBalancedForward(t, i + 1);
      AddAtomicAccess(kind, fp, i + 2, after > 0 ? after - 1 : i + 2,
                      t[i].line, i);
    }
  }

  // Mutating container calls on a member (counts as a field write for the
  // shared-write pass).
  static const std::set<std::string> kMutatorNames = {
      "push_back", "pop_back", "emplace_back", "emplace", "clear",
      "insert",    "erase",    "resize",       "reserve", "assign",
  };
  if (kMutatorNames.count(name) && !chain.qualified && !chain.elems.empty()) {
    const FieldPath fp = ResolveFieldPath(chain.elems);
    if (fp.ok && !fp.atomic) {
      FieldWrite fw;
      fw.field = fp.path;
      fw.via_mutator = true;
      fw.line = t[i].line;
      fw.pos = i;
      f.field_writes.push_back(fw);
    }
  }

  // Stream pending-work tracking for the device-span pass.
  if (!chain.elems.empty()) {
    const std::string& base = chain.elems[0].name;
    if (TypeOf(base) == "Stream") {
      if (name == "EnqueueH2D" || name == "EnqueueD2H" ||
          name == "MoveKernelToStream" || name == "UploadAsync") {
        pending_streams.insert(base);
      } else if (name == "Synchronize") {
        pending_streams.erase(base);
      }
    }
    // Buffer invalidation: buf.Release() kills spans bound to buf.
    if (name == "Release") {
      for (SpanLocal& sv : spans) {
        if (sv.buffer == base) sv.invalid = true;
      }
    }
  }

  // Statement-position discard of a Status/Result value.
  const size_t base_pos = chain.base_pos;
  const bool stmt_pos =
      base_pos == f.body_begin ||
      (base_pos > 0 && (t[base_pos - 1].IsPunct(";") ||
                        t[base_pos - 1].IsPunct("{") ||
                        t[base_pos - 1].IsPunct("}")));
  if (stmt_pos) {
    const size_t after = SkipBalancedForward(t, i + 1);
    if (after < f.body_end && t[after].IsPunct(";")) {
      bool drop = false;
      if (sig.known && sig.status) {
        drop = true;
      } else if (!sig.known && program.status_names.count(name) &&
                 !program.nonstatus_names.count(name)) {
        drop = true;
      }
      if (drop) {
        AddFinding("status-drop", t[i].line,
                   "result of '" + name +
                       "' (returns Status/Result) is discarded; check it or "
                       "cast through a named variable",
                   "error");
      }
    }
  }

  f.calls.push_back(ev);
}

void BodyWalker::Walk() {
  for (size_t i = f.body_begin; i < f.body_end; ++i) {
    const Token& tk = t[i];
    if (tk.IsPunct("{")) {
      open_braces.push_back(i);
      continue;
    }
    if (tk.IsPunct("}")) {
      if (!open_braces.empty()) open_braces.pop_back();
      continue;
    }
    if (tk.kind != TokenKind::kIdent) continue;

    // Guard declaration: [util::lockdep::] MutexLock name(expr);
    if (IsGuardName(tk.text) && i + 2 < f.body_end &&
        t[i + 1].kind == TokenKind::kIdent &&
        (t[i + 2].IsPunct("(") || t[i + 2].IsPunct("{"))) {
      const size_t open = i + 2;
      const size_t after = SkipBalancedForward(t, open);
      bool shared_mutex = false;
      const std::string symbol =
          ResolveMutexExpr(open + 1, after > 0 ? after - 1 : open + 1,
                           &shared_mutex);
      if (!symbol.empty()) {
        AcquireEvent acq;
        acq.class_symbol = symbol;
        acq.shared = tk.text == "SharedLock";
        acq.multi = tk.text == "MultiLock";
        acq.line = tk.line;
        acq.begin_pos = i;
        acq.end_pos = ScopeClose();
        f.acquires.push_back(acq);
      }
      i = open;  // args are scanned naturally; the guard var makes no call
      continue;
    }

    // Striped member direct indexing: clean_stripes_[i] is an acquisition
    // point for the striped class (the MultiLock holds it later).
    if (cls != nullptr && cls->striped_lock_members.count(tk.text) &&
        i + 1 < f.body_end && t[i + 1].IsPunct("[")) {
      AcquireEvent acq;
      acq.class_symbol = cls->lock_members.at(tk.text);
      acq.multi = true;
      acq.line = tk.line;
      acq.begin_pos = i;
      acq.end_pos = i;  // degenerate: the hold belongs to the MultiLock
      f.acquires.push_back(acq);
      continue;
    }

    // GKNN_ASSIGN_OR_RETURN(lhs, rexpr): type the lhs from the rexpr.
    if (tk.text == "GKNN_ASSIGN_OR_RETURN" && i + 1 < f.body_end &&
        t[i + 1].IsPunct("(")) {
      const size_t after = SkipBalancedForward(t, i + 1);
      // lhs = tokens up to the first top-level comma.
      size_t comma = kNpos;
      int pd = 0, ad = 0;
      for (size_t k = i + 2; k < after - 1; ++k) {
        if (t[k].IsPunct("(")) ++pd;
        else if (t[k].IsPunct(")")) --pd;
        else if (t[k].IsPunct("<") && CanOpenAngle(t, k)) ++ad;
        else if (t[k].IsPunct(">") && ad > 0) --ad;
        else if (t[k].IsPunct(",") && pd == 0 && ad == 0) {
          comma = k;
          break;
        }
      }
      if (comma != kNpos) {
        std::string lhs_name;
        for (size_t k = i + 2; k < comma; ++k) {
          if (t[k].kind == TokenKind::kIdent && !IsSpecifier(t[k].text) &&
              t[k].text != "auto" && t[k].text != "const") {
            lhs_name = t[k].text;  // last identifier wins
          }
        }
        if (!lhs_name.empty()) {
          bool is_span = false;
          std::string buffer;
          bool buffer_local = false;
          const RetSig sig = FirstCallSig(comma + 1, after - 1, &is_span,
                                          &buffer, &buffer_local);
          if (is_span) {
            SpanLocal sv;
            sv.name = lhs_name;
            sv.buffer = buffer;
            sv.buffer_local = buffer_local;
            sv.line = tk.line;
            sv.pos = i;
            spans.push_back(sv);
          } else if (!sig.type_key.empty()) {
            locals[lhs_name] = sig.type_key;
          }
        }
      }
      // Fall through: the rexpr's calls are scanned by the main loop.
      continue;
    }

    // auto name = expr;  (span binds, status binds, receiver typing)
    if (tk.text == "auto" && StatementStart(i)) {
      size_t j = i + 1;
      while (j < f.body_end && (t[j].IsPunct("&") || t[j].IsPunct("*"))) ++j;
      if (j < f.body_end && t[j].kind == TokenKind::kIdent &&
          j + 1 < f.body_end && t[j + 1].IsPunct("=")) {
        const std::string name = t[j].text;
        const size_t stmt_end = SkipToSemi(t, j + 1);
        bool is_span = false;
        std::string buffer;
        bool buffer_local = false;
        const RetSig sig = FirstCallSig(j + 2, stmt_end - 1, &is_span,
                                        &buffer, &buffer_local);
        if (is_span) {
          SpanLocal sv;
          sv.name = name;
          sv.buffer = buffer;
          sv.buffer_local = buffer_local;
          sv.line = t[j].line;
          sv.pos = j;
          spans.push_back(sv);
        } else if (sig.known) {
          if (!sig.type_key.empty()) locals[name] = sig.type_key;
          if (sig.status) {
            StatusLocal sv;
            sv.name = name;
            sv.line = t[j].line;
            sv.decl_end = stmt_end;
            statuses.push_back(sv);
          }
          if (sig.type_key == "Lease") NoteLeaseLocal(name, t[j].line, j);
        }
      }
      continue;
    }

    // Typed local declarations (records types; does not consume).
    if (TryTypedDecl(i)) {
      // no continue: the same token cannot also start a call (next token
      // is an identifier), so falling through is safe but pointless.
      continue;
    }

    // return <span>; — a raw device span escaping the function.
    if (tk.text == "return" && i + 2 < f.body_end &&
        t[i + 1].kind == TokenKind::kIdent && t[i + 2].IsPunct(";")) {
      for (const SpanLocal& sv : spans) {
        if (sv.name == t[i + 1].text) {
          AddFinding("device-span", tk.line,
                     "device span '" + sv.name + "' (over buffer '" +
                         sv.buffer +
                         "') is returned from the function; raw spans must "
                         "not outlive their scope",
                     "error");
        }
      }
      // return lease; — a stream lease escaping its acquiring scope.
      if (FindLease(t[i + 1].text) != nullptr) {
        LeaseEscape esc;
        esc.kind = LeaseEscape::Kind::kReturn;
        esc.name = t[i + 1].text;
        esc.line = tk.line;
        f.lease_escapes.push_back(esc);
      }
      continue;
    }

    // Lease lifecycle: std::move transfers, uses, return-by-move escapes.
    if (const LeaseVar* lv = FindLease(tk.text);
        lv != nullptr && i != lv->pos) {
      const bool is_move = i >= f.body_begin + 2 && t[i - 1].IsPunct("(") &&
                           t[i - 2].IsIdent("move");
      if (is_move) {
        if (t[StmtBegin(i)].IsIdent("return")) {
          LeaseEscape esc;
          esc.kind = LeaseEscape::Kind::kReturn;
          esc.name = tk.text;
          esc.line = tk.line;
          f.lease_escapes.push_back(esc);
        } else {
          LeaseMove mv;
          mv.name = tk.text;
          mv.line = tk.line;
          mv.pos = i;
          f.lease_moves.push_back(mv);
        }
      } else {
        LeaseUse use;
        use.name = tk.text;
        use.line = tk.line;
        use.pos = i;
        if (i + 2 < f.body_end && t[i + 1].IsPunct(".") &&
            t[i + 2].kind == TokenKind::kIdent) {
          use.member = t[i + 2].text;
        }
        f.lease_uses.push_back(use);
      }
    }

    // Member writes and operator-form atomic accesses. Only the leaf of a
    // member path is inspected — intermediates (next token . -> ::) are
    // reached later in the walk.
    if (cls != nullptr && !IsKeyword(tk.text) && !IsSpecifier(tk.text) &&
        i + 1 < f.body_end && !t[i + 1].IsPunct(".") &&
        !t[i + 1].IsPunct("->") && !t[i + 1].IsPunct("::")) {
      static const std::set<std::string> kAssignOps = {
          "=",  "+=", "-=", "*=",  "/=",  "%=",
          "&=", "|=", "^=", "<<=", ">>=",
      };
      size_t wend = i + 1;
      bool indexed = false;
      if (t[i + 1].IsPunct("[")) {
        wend = SkipBalancedForward(t, i + 1);
        indexed = true;
      }
      const Chain wchain = WalkReceiver(t, i);
      bool write = false, rmw = false;
      if (wend < f.body_end && t[wend].kind == TokenKind::kPunct &&
          kAssignOps.count(t[wend].text)) {
        write = true;
        rmw = !t[wend].IsPunct("=");
      } else if (wend < f.body_end &&
                 (t[wend].IsPunct("++") || t[wend].IsPunct("--"))) {
        write = true;
        rmw = true;
      } else if (wchain.base_pos > f.body_begin &&
                 (t[wchain.base_pos - 1].IsPunct("++") ||
                  t[wchain.base_pos - 1].IsPunct("--"))) {
        write = true;
        rmw = true;
      }
      const bool value_read = !write && !indexed && !t[i + 1].IsPunct("(");
      if (write || value_read) {
        std::vector<ChainElem> full = wchain.elems;
        ChainElem leaf;
        leaf.name = tk.text;
        full.push_back(leaf);
        const FieldPath fp = ResolveFieldPath(full);
        if (fp.ok && write && fp.atomic) {
          // Plain assignment / ++ on an atomic member: a store or RMW at
          // the default order with nothing spelled out.
          AddAtomicAccess(rmw ? AtomicAccess::Kind::kRmw
                              : AtomicAccess::Kind::kStore,
                          fp, 0, 0, tk.line, i);
        } else if (fp.ok && write) {
          FieldWrite fw;
          fw.field = fp.path;
          fw.atomic = false;
          fw.line = tk.line;
          fw.pos = i;
          f.field_writes.push_back(fw);
        }
        if (fp.ok && write && !rmw) {
          // member_ = std::move(lease); — the lease outlives its scope.
          const size_t stmt_end = SkipToSemi(t, wend);
          for (size_t k = wend + 1; k < stmt_end; ++k) {
            if (t[k].kind == TokenKind::kIdent &&
                FindLease(t[k].text) != nullptr) {
              LeaseEscape esc;
              esc.kind = LeaseEscape::Kind::kMemberStore;
              esc.name = t[k].text;
              esc.detail = fp.path;
              esc.line = tk.line;
              f.lease_escapes.push_back(esc);
            }
          }
        }
        if (fp.ok && !write && fp.atomic && value_read) {
          // Implicit value read of an atomic member (default seq_cst).
          AddAtomicAccess(AtomicAccess::Kind::kLoad, fp, 0, 0, tk.line, i);
        }
      }
    }

    // Span variable uses.
    for (SpanLocal& sv : spans) {
      if (tk.text != sv.name || i <= sv.pos + 1) continue;
      if (sv.invalid) {
        AddFinding("device-span", tk.line,
                   "device span '" + sv.name + "' used after buffer '" +
                       sv.buffer + "' was released",
                   "error");
        sv.invalid = false;  // report once
      }
      if (!pending_streams.empty() && !sv.reported_pending) {
        AddFinding(
            "device-span", sv.line,
            "device span '" + sv.name + "' (buffer '" + sv.buffer +
                "') is dereferenced at line " + std::to_string(tk.line) +
                " while a stream has pending asynchronous work; "
                "synchronize first or route through checked accessors",
            "warning");
        sv.reported_pending = true;
      }
    }

    // Member-store escape: member_ = span;
    if (cls != nullptr && cls->members.count(tk.text) && i + 2 < f.body_end &&
        t[i + 1].IsPunct("=") && t[i + 2].kind == TokenKind::kIdent) {
      for (const SpanLocal& sv : spans) {
        if (sv.name == t[i + 2].text) {
          AddFinding("device-span", tk.line,
                     "device span '" + sv.name +
                         "' is stored into member '" + tk.text +
                         "'; raw spans must not outlive their scope",
                     "error");
        }
      }
    }

    // Calls.
    if (i + 1 < f.body_end && t[i + 1].IsPunct("(") && !IsKeyword(tk.text) &&
        !IsGuardName(tk.text)) {
      HandleCall(i);
    }
  }
  FinishStatuses();
}

void BodyWalker::FinishStatuses() {
  for (const StatusLocal& sv : statuses) {
    bool consumed = false;
    for (size_t j = sv.decl_end; j < f.body_end; ++j) {
      if (t[j].kind == TokenKind::kIdent && t[j].text == sv.name) {
        consumed = true;
        break;
      }
    }
    if (!consumed) {
      AddFinding("status-drop", sv.line,
                 "Status/Result value '" + sv.name +
                     "' is assigned but never examined",
                 "warning");
    }
  }
}

}  // namespace

void ExtractEvents(const LexedFile& file, Program* program,
                   std::vector<Finding>* findings) {
  for (FunctionInfo& f : program->functions) {
    if (f.file != file.path || !f.is_definition) continue;
    if (f.body_end <= f.body_begin) continue;
    BodyWalker walker(file, f, *program, *findings);
    walker.Walk();
    f.cfg = BuildCfg(file.tokens, f.body_begin, f.body_end);
  }
}

namespace {

/// True when the tokens from `j` open a parameter list whose first
/// parameter is a kernel context: `( [const] [ns::]* ThreadCtx|WarpCtx &`.
bool OpensKernelParams(const Tokens& t, size_t j) {
  if (j >= t.size() || !t[j].IsPunct("(")) return false;
  if (++j < t.size() && t[j].IsIdent("const")) ++j;
  while (j + 1 < t.size() && t[j].kind == TokenKind::kIdent &&
         t[j + 1].IsPunct("::")) {
    j += 2;
  }
  return j + 1 < t.size() &&
         (t[j].IsIdent("ThreadCtx") || t[j].IsIdent("WarpCtx")) &&
         (t[j + 1].IsPunct("&") || t[j + 1].IsPunct("&&"));
}

}  // namespace

void StyleScan(const LexedFile& file, bool flag_raw_mutex,
               bool flag_device_span, bool flag_kernel_capture,
               std::vector<Finding>* findings) {
  static const std::set<std::string> kRawMutexNames = {
      "mutex",         "shared_mutex", "recursive_mutex",
      "timed_mutex",   "lock_guard",   "unique_lock",
      "shared_lock",   "scoped_lock",  "condition_variable",
  };
  const Tokens& t = file.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (flag_raw_mutex && t[i].IsIdent("std") && t[i + 1].IsPunct("::") &&
        t[i + 2].kind == TokenKind::kIdent &&
        kRawMutexNames.count(t[i + 2].text)) {
      Finding fd;
      fd.rule = "raw-mutex";
      fd.file = file.path;
      fd.line = t[i].line;
      fd.message = "raw std::" + t[i + 2].text +
                   "; use the util::lockdep wrappers so lock ordering is "
                   "validated";
      fd.level = "error";
      findings->push_back(fd);
    }
    if (flag_device_span && t[i + 2].IsIdent("device_span") &&
        (t[i + 1].IsPunct(".") || t[i + 1].IsPunct("->")) &&
        i + 3 < t.size() && t[i + 3].IsPunct("(")) {
      Finding fd;
      fd.rule = "device-span";
      fd.file = file.path;
      fd.line = t[i + 2].line;
      fd.message =
          "raw device_span() access outside src/gpusim/; prefer the checked "
          "Load/Store accessors or justify with a suppression";
      fd.level = "error";
      findings->push_back(fd);
    }
    if (flag_kernel_capture && t[i].IsPunct("[") &&
        (t[i + 1].IsPunct("&") || t[i + 1].IsPunct("=")) &&
        t[i + 2].IsPunct("]") && OpensKernelParams(t, i + 3)) {
      Finding fd;
      fd.rule = "kernel-capture";
      fd.file = file.path;
      fd.line = t[i].line;
      fd.message =
          "kernel lambda with default capture; enumerate the captures "
          "explicitly";
      fd.level = "error";
      findings->push_back(fd);
    }
  }
}

}  // namespace gknn::check
