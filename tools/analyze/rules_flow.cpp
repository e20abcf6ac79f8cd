// The flow-sensitive rule families, built on the flow layer (flow.hpp):
// lifetime-escape, fd-lifecycle, retry-idempotence, deadline-propagation
// and eager-check-message. Each one encodes an invariant that a shipped bug
// actually violated (the PR 9 Cursor-over-temporary bugs, the call_host
// fd double-close, RemoteShard's retry/deadline contracts, the CSR
// validator formatting a message per nonzero), as a
// branch/merge-approximating walk over each function body:
//
//  * lifetime-escape     a view type (string_view / span / wire::Cursor)
//                        must not be bound to the buffer of a temporary
//                        materialised at a call site, and a view over a
//                        local owner must not be returned or stored
//                        beyond the owner's scope.
//  * fd-lifecycle        an fd from socket()/open()/connect_unix() is an
//                        abstract value in {open, closed, sentinel};
//                        states merge at joins, catch handlers enter with
//                        the merge of states at every may-throw point in
//                        the try body. Close-on-closed, use-after-close
//                        and open-at-exit are findings.
//  * retry-idempotence   a retry loop (fall-through catch + backoff
//                        signal) may only wrap calls that are idempotent
//                        per the annotation table below; apply/persist/
//                        restore/publish stay single-attempt.
//  * deadline-propagation a function taking a Deadline/timeout parameter
//                        must thread it (or a value derived from it) into
//                        every blocking leg, and no blocking call may run
//                        while a MutexLock/WriterLock/SharedLock guard is
//                        live.
//  * eager-check-message a require/enforce/BFC_CHECK_MSG inside a loop
//                        must not build its message string before the
//                        condition is known, and a span tag value must
//                        not be a std::to_string(...) — both are paid on
//                        the passing path.
//
// All are may-analyses over the region tree: evaluating both arms of
// every branch and merging errs on the loud side, and anything deliberate
// is silenced with a suppress-with-rationale marker at the call site.
#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "flow.hpp"
#include "rules.hpp"

namespace bfc::analyze {
namespace {

using Tokens = std::vector<Token>;

[[nodiscard]] bool is_call_at(const Tokens& t, std::size_t i) {
  return i + 1 < t.size() && t[i].kind == Tok::kIdent && t[i + 1].punct("(");
}

[[nodiscard]] bool range_mentions(const Tokens& t, std::size_t a,
                                  std::size_t b, const std::string& name) {
  for (std::size_t i = a; i < b && i < t.size(); ++i)
    if (t[i].kind == Tok::kIdent && t[i].text == name) return true;
  return false;
}

[[nodiscard]] std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

[[nodiscard]] bool mentions_any(const std::string& type,
                                const std::set<std::string>& names) {
  std::size_t start = 0;
  while (start <= type.size()) {
    const std::size_t sp = type.find(' ', start);
    const std::string word =
        type.substr(start, sp == std::string::npos ? sp : sp - start);
    if (names.count(word) != 0) return true;
    if (sp == std::string::npos) break;
    start = sp + 1;
  }
  return false;
}

// ============================ lifetime-escape ============================

const std::set<std::string>& view_type_names() {
  static const std::set<std::string> k = {"string_view", "span", "Cursor"};
  return k;
}

const std::set<std::string>& owner_type_names() {
  static const std::set<std::string> k = {
      "string", "vector", "deque", "ostringstream", "stringstream",
      "istringstream", "Payload", "Frame"};
  return k;
}

/// Calls that return an OWNING object by value: binding a view straight to
/// one leaves the view pointing into a temporary that dies at the end of
/// the statement. The dominant idiom in this codebase is the opposite —
/// span-returning accessors over long-lived graph buffers (neighbors_*,
/// row, ...) — so the deny-list names the known owner-returners: the
/// std::string builders plus the wire/RPC entry points the shipped Cursor
/// bugs went through. Calls not listed are assumed view-safe.
const std::set<std::string>& owner_returning_calls() {
  static const std::set<std::string> k = {
      "rpc",       "call_host", "substr", "str",    "to_string",
      "serialize", "dump",      "render", "format", "join",
      "concat",    "string"};
  return k;
}

struct LifetimeScan {
  const SourceFile& f;
  const Tokens& t;
  std::vector<Finding>& out;
  std::map<std::string, std::string> local_type;  // locals + params
  std::set<std::string> owners;  // locals / by-value params with owning type
  std::map<std::string, std::string> view_over;  // view local -> owner local
  bool ret_view = false;

  [[nodiscard]] bool is_view_typed(const std::string& name) const {
    const auto it = local_type.find(name);
    return it != local_type.end() &&
           mentions_any(it->second, view_type_names());
  }

  /// Token index of a call materialising an owning temporary in [a, b),
  /// or t.size() when no owner-returning call occurs there.
  [[nodiscard]] std::size_t temp_call(std::size_t a, std::size_t b) const {
    for (std::size_t i = a; i < b; ++i) {
      if (!is_call_at(t, i)) continue;
      const std::string& callee = t[i].text;
      if (owner_returning_calls().count(callee) == 0) continue;
      const bool member =
          i >= 2 && (t[i - 1].punct(".") || t[i - 1].punct("->"));
      if (member) {
        const std::string recv =
            t[i - 2].kind == Tok::kIdent ? t[i - 2].text : "";
        // string_view::substr returns another view — only owner-typed (or
        // unknown) receivers materialise an owning temporary.
        if (!recv.empty() && is_view_typed(recv)) continue;
      }
      return i;
    }
    return t.size();
  }

  void handle_decl(const DeclInfo& d) {
    local_type[d.name] = d.type;
    const bool by_ref = d.type.find('&') != std::string::npos ||
                        d.type.find('*') != std::string::npos;
    if (!mentions_any(d.type, view_type_names())) {
      if (!by_ref && mentions_any(d.type, owner_type_names()))
        owners.insert(d.name);
      return;
    }
    if (d.init_begin >= d.init_end) return;
    const std::size_t bad = temp_call(d.init_begin, d.init_end);
    if (bad != t.size()) {
      emit(f, "lifetime-escape", t[bad],
           "view '" + d.name + "' is bound to the buffer of a temporary "
           "returned by '" + t[bad].text + "(...)'; the temporary dies at "
           "the end of this statement and the view dangles — bind the "
           "owning result to a named local first "
           "(docs/static-analysis.md#lifetime-escape)",
           out);
      return;
    }
    // No temporary: remember which local owner the view looks into, for
    // the return/store checks below.
    for (std::size_t i = d.init_begin; i < d.init_end; ++i) {
      if (t[i].kind != Tok::kIdent) continue;
      if (owners.count(t[i].text) != 0) {
        view_over[d.name] = t[i].text;
        break;
      }
      const auto it = view_over.find(t[i].text);
      if (it != view_over.end()) {
        view_over[d.name] = it->second;
        break;
      }
    }
  }

  void handle_assign(const Stmt& s) {
    // Exact shape `LHS = V ;` with V a view over a local: storing it into
    // anything that is not itself a local outlives the owner.
    if (s.end - s.begin != 4 || t[s.begin].kind != Tok::kIdent ||
        !t[s.begin + 1].punct("=") || t[s.begin + 2].kind != Tok::kIdent)
      return;
    const std::string& lhs = t[s.begin].text;
    const std::string& rhs = t[s.begin + 2].text;
    const auto it = view_over.find(rhs);
    if (it == view_over.end() || local_type.count(lhs) != 0) return;
    emit(f, "lifetime-escape", t[s.begin],
         "view '" + rhs + "' over local '" + it->second + "' is stored "
         "into '" + lhs + "', which outlives this scope — the view "
         "dangles once '" + it->second + "' is destroyed "
         "(docs/static-analysis.md#lifetime-escape)",
         out);
  }

  void handle_return(const Stmt& s) {
    if (!ret_view) return;
    std::size_t a = s.begin + 1;
    std::size_t b = s.end;
    if (b > a && t[b - 1].punct(";")) --b;
    if (b <= a) return;
    if (b - a == 1 && t[a].kind == Tok::kIdent) {
      const std::string& x = t[a].text;
      if (owners.count(x) != 0) {
        emit(f, "lifetime-escape", t[a],
             "returning a view implicitly constructed from local owner '" +
                 x + "'; its buffer is destroyed when the function returns "
                 "(docs/static-analysis.md#lifetime-escape)",
             out);
      } else if (view_over.count(x) != 0) {
        emit(f, "lifetime-escape", t[a],
             "returning view '" + x + "', which is bound to local '" +
                 view_over[x] + "'; the owner is destroyed when the "
                 "function returns (docs/static-analysis.md#lifetime-escape)",
             out);
      }
      return;
    }
    // `return owner.method(...)` — any method on a dying local owner.
    if (t[a].kind == Tok::kIdent && owners.count(t[a].text) != 0 &&
        a + 2 < b && (t[a + 1].punct(".") || t[a + 1].punct("->")) &&
        is_call_at(t, a + 2)) {
      emit(f, "lifetime-escape", t[a],
           "returning a view derived from local owner '" + t[a].text +
               "' via '" + t[a + 2].text + "(...)'; the owner is destroyed "
               "when the function returns "
               "(docs/static-analysis.md#lifetime-escape)",
           out);
    }
  }

  void walk(const std::vector<Stmt>& ss) {
    for (const Stmt& s : ss) {
      switch (s.kind) {
        case Stmt::Kind::kSimple:
          if (const auto d = parse_decl(t, s.begin, s.end)) handle_decl(*d);
          else handle_assign(s);
          break;
        case Stmt::Kind::kReturn:
          handle_return(s);
          break;
        default:
          walk(s.blocks);
          break;
      }
    }
  }
};

void run_lifetime_escape(const SourceFile& f, const RuleContext&,
                         std::vector<Finding>& out) {
  for (const FuncInfo& fn : extract_functions(f)) {
    LifetimeScan scan{f, f.lex.tokens, out, {}, {}, {}, false};
    scan.ret_view = fn.ret_type_mentions("string_view") ||
                    fn.ret_type_mentions("span") ||
                    fn.ret_type_mentions("Cursor");
    for (const Param& p : fn.params) {
      if (p.name.empty()) continue;
      scan.local_type[p.name] = p.type;
      const bool by_value = p.type.find('&') == std::string::npos &&
                            p.type.find('*') == std::string::npos;
      if (by_value && mentions_any(p.type, owner_type_names()))
        scan.owners.insert(p.name);
    }
    scan.walk(fn.body);
  }
}

// ============================= fd-lifecycle ==============================

enum : unsigned { kOpen = 1u, kClosed = 2u, kNull = 4u };

struct FdVar {
  unsigned mask = 0;
  std::size_t origin = 0;  // token index of the creating call / sentinel
};

struct FdState {
  std::map<std::string, FdVar> vars;
  bool live = true;
};

[[nodiscard]] FdState dead_state() {
  FdState s;
  s.live = false;
  return s;
}

void join_into(FdState& a, const FdState& b) {
  if (!b.live) return;
  if (!a.live) {
    a = b;
    return;
  }
  for (const auto& [name, v] : b.vars) {
    auto it = a.vars.find(name);
    if (it == a.vars.end()) {
      a.vars[name] = v;
    } else {
      it->second.mask |= v.mask;
      if (it->second.origin == 0) it->second.origin = v.origin;
    }
  }
}

const std::set<std::string>& fd_creators() {
  static const std::set<std::string> k = {
      "socket",        "open",         "openat",       "creat",
      "accept",        "accept4",      "dup",          "eventfd",
      "epoll_create",  "epoll_create1", "memfd_create", "timerfd_create",
      "signalfd",      "inotify_init", "inotify_init1", "connect_unix",
      "listen_unix"};
  return k;
}

/// Calls that cannot throw — everything else inside a try body is a
/// may-throw point whose pre-state feeds the catch-entry merge.
const std::set<std::string>& nothrow_calls() {
  static const std::set<std::string> k = {
      "close",     "strerror", "memcpy",   "memmove",  "memset",
      "strncpy",   "strlen",   "snprintf", "unlink",   "kill",
      "waitpid",   "read",     "write",    "send",     "recv",
      "poll",      "fcntl",    "setsockopt", "getsockopt", "shutdown",
      "listen",    "bind",     "htons",    "htonl",    "ntohs",
      "ntohl",     "_exit",    "abort",    "exit",     "perror",
      "signal",    "sigaction", "free",    "move",     "data",
      "c_str",     "size",     "empty",    "begin",    "end",
      "count",     "fires",    "sizeof"};
  return k;
}

struct GuardTest {
  std::string var;
  bool null_if_true = false;
  bool ok = false;
};

struct FdMachine {
  const SourceFile& f;
  const Tokens& t;
  std::vector<Finding>& out;
  std::set<std::string> reported;

  std::vector<FdState*> break_tgt;
  std::vector<FdState*> continue_tgt;
  std::vector<FdState*> try_tgt;

  void report(const Token& tok, const std::string& key, std::string msg) {
    if (!reported
             .insert(key + "@" + std::to_string(tok.line) + ":" +
                     std::to_string(tok.col))
             .second)
      return;
    emit(f, "fd-lifecycle", tok, std::move(msg), out);
  }

  [[nodiscard]] bool may_throw(std::size_t a, std::size_t b) const {
    for (std::size_t i = a; i < b && i + 1 < t.size(); ++i)
      if (is_call_at(t, i) && nothrow_calls().count(t[i].text) == 0)
        return true;
    return false;
  }

  void merge_throw_if(std::size_t a, std::size_t b, const FdState& st) {
    if (!try_tgt.empty() && may_throw(a, b)) join_into(*try_tgt.back(), st);
  }

  /// `require(false, ...)`, `unavailable(...)`, `timed_out(...)`, _exit...
  [[nodiscard]] bool noreturn_stmt(std::size_t a, std::size_t b) const {
    std::size_t i = a;
    while (i < b) {
      if (t[i].punct("::")) {
        ++i;
        continue;
      }
      if (t[i].kind == Tok::kIdent && i + 1 < b && t[i + 1].punct("::")) {
        i += 2;
        continue;
      }
      break;
    }
    if (i >= b || !is_call_at(t, i)) return false;
    const std::string& s = t[i].text;
    if (s == "_exit" || s == "exit" || s == "abort" || s == "quick_exit" ||
        s == "terminate" || s == "unavailable" || s == "timed_out")
      return true;
    return s == "require" && i + 2 < b && t[i + 2].ident("false");
  }

  [[nodiscard]] std::size_t find_creator(std::size_t a, std::size_t b) const {
    for (std::size_t i = a; i < b && i + 1 < t.size(); ++i)
      if (is_call_at(t, i) && fd_creators().count(t[i].text) != 0) return i;
    return t.size();
  }

  [[nodiscard]] bool neg_literal(std::size_t a, std::size_t b) const {
    return b - a == 2 && t[a].punct("-") && t[a + 1].kind == Tok::kNumber;
  }

  [[nodiscard]] GuardTest parse_guard(std::size_t a, std::size_t b,
                                      const FdState& st) const {
    for (std::size_t i = a; i + 2 < b && i + 2 < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent || st.vars.count(t[i].text) == 0) continue;
      if (t[i + 1].kind != Tok::kPunct) continue;
      const std::string& op = t[i + 1].text;
      long val = 0;
      bool have = false;
      if (t[i + 2].kind == Tok::kNumber) {
        val = std::stol(t[i + 2].text);
        have = true;
      } else if (i + 3 < b && t[i + 2].punct("-") &&
                 t[i + 3].kind == Tok::kNumber) {
        val = -std::stol(t[i + 3].text);
        have = true;
      }
      if (!have) continue;
      GuardTest g;
      g.var = t[i].text;
      g.ok = true;
      if ((op == "<" && val == 0) || (op == "<=" && val <= 0) ||
          (op == "==" && val == -1))
        g.null_if_true = true;
      else if ((op == ">=" && val == 0) || (op == "!=" && val == -1) ||
               (op == ">" && val <= 0))
        g.null_if_true = false;
      else
        continue;
      return g;
    }
    return {};
  }

  static void apply_guard(FdState& st, const GuardTest& g, bool branch) {
    const auto it = st.vars.find(g.var);
    if (it == st.vars.end()) return;
    if (g.null_if_true == branch)
      it->second.mask &= kNull;
    else
      it->second.mask &= ~kNull;
  }

  /// Mentioning a must-closed fd (outside the close itself, guards, and
  /// assignment targets) is a use-after-close.
  void use_check(std::size_t a, std::size_t b, FdState& st,
                 const std::set<std::string>& skip) {
    for (auto& [name, v] : st.vars) {
      if (v.mask != kClosed || skip.count(name) != 0) continue;
      for (std::size_t i = a; i < b && i < t.size(); ++i) {
        if (t[i].kind != Tok::kIdent || t[i].text != name) continue;
        report(t[i], "uaf|" + name,
               "fd '" + name + "' is used here but was closed on every "
               "path reaching this line (use after close) "
               "(docs/static-analysis.md#fd-lifecycle)");
        break;
      }
    }
  }

  void leak_check(const FdState& st, const Token& at, const char* why) {
    for (const auto& [name, v] : st.vars) {
      if ((v.mask & kOpen) == 0) continue;
      const int oline = v.origin < t.size() ? t[v.origin].line : at.line;
      report(at, "leak|" + name,
             "fd '" + name + "' (opened at line " + std::to_string(oline) +
                 ") is still open when this " + why + " executes — close "
                 "it on every path or transfer ownership explicitly "
                 "(docs/static-analysis.md#fd-lifecycle)");
    }
  }

  [[nodiscard]] bool infinite_loop(const Stmt& s) const {
    if (s.begin >= t.size()) return false;
    if (t[s.begin].ident("while"))
      return s.cond_end - s.cond_begin == 1 && t[s.cond_begin].ident("true");
    if (!t[s.begin].ident("for")) return false;
    // for(;;) or `for (init;; step)`: an empty middle section.
    int depth = 0;
    std::size_t first_semi = 0;
    for (std::size_t i = s.cond_begin; i < s.cond_end; ++i) {
      if (t[i].kind != Tok::kPunct) continue;
      const std::string& p = t[i].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      else if (p == ")" || p == "]" || p == "}") --depth;
      else if (p == ";" && depth == 0) {
        if (first_semi == 0) {
          first_semi = i;
        } else {
          return i == first_semi + 1;
        }
      }
    }
    return false;
  }

  void eval_simple(const Stmt& s, FdState& st) {
    const std::size_t a = s.begin;
    const std::size_t b = std::min(s.end, t.size());
    merge_throw_if(a, b, st);
    const bool noret = noreturn_stmt(a, b);

    if (const auto d = parse_decl(t, a, b)) {
      use_check(a, b, st, {d->name});
      const std::size_t cr = find_creator(d->init_begin, d->init_end);
      if (cr != t.size())
        st.vars[d->name] = FdVar{kOpen, cr};
      else if (neg_literal(d->init_begin, d->init_end))
        st.vars[d->name] = FdVar{kNull, d->name_at};
      else
        st.vars.erase(d->name);
      if (noret) st.live = false;
      return;
    }

    // Assignment to a tracked fd variable.
    if (b - a >= 3 && t[a].kind == Tok::kIdent && t[a + 1].punct("=") &&
        st.vars.count(t[a].text) != 0) {
      const std::string name = t[a].text;
      use_check(a + 2, b, st, {name});
      FdVar& v = st.vars[name];
      const std::size_t cr = find_creator(a + 2, b);
      if (cr != t.size()) {
        if ((v.mask & kOpen) != 0)
          report(t[cr], "overwrite|" + name,
                 "fd '" + name + "' may still be open when it is "
                 "overwritten with a new descriptor — the old fd leaks "
                 "(docs/static-analysis.md#fd-lifecycle)");
        v = FdVar{kOpen, cr};
      } else if (neg_literal(a + 2, b)) {
        v.mask = kNull;
      } else {
        st.vars.erase(name);
      }
      if (noret) st.live = false;
      return;
    }

    // Ownership transfer: `member_ = fd;` hands the descriptor off.
    if (b - a >= 4 && t[a].kind == Tok::kIdent && t[a + 1].punct("=") &&
        t[a + 2].kind == Tok::kIdent && t[a + 3].punct(";") &&
        st.vars.count(t[a + 2].text) != 0) {
      st.vars.erase(t[a + 2].text);
      if (noret) st.live = false;
      return;
    }

    std::set<std::string> closed_here;
    for (std::size_t i = a; i + 1 < b; ++i) {
      if (!is_call_at(t, i)) continue;
      if (t[i].text == "close" && i + 3 < b &&
          t[i + 2].kind == Tok::kIdent && t[i + 3].punct(")")) {
        const auto it = st.vars.find(t[i + 2].text);
        if (it == st.vars.end()) continue;
        if ((it->second.mask & kClosed) != 0)
          report(t[i], "double|" + it->first,
                 "fd '" + it->first + "' may already be closed on a path "
                 "reaching this ::close (double close) — after the first "
                 "close, set it to -1 and guard re-closes with `" +
                     it->first + " >= 0` "
                     "(docs/static-analysis.md#fd-lifecycle)");
        it->second.mask = kClosed;
        closed_here.insert(it->first);
      } else if (t[i].text == "require") {
        const std::size_t close_p = match_bracket(t, i + 1);
        const GuardTest g = parse_guard(i + 2, std::min(close_p, b), st);
        if (g.ok) apply_guard(st, g, true);
      }
    }
    use_check(a, b, st, closed_here);
    if (noret) st.live = false;
  }

  void eval_one(const Stmt& s, FdState& st) {
    switch (s.kind) {
      case Stmt::Kind::kBlock:
        eval_seq(s.blocks, st);
        return;
      case Stmt::Kind::kSimple:
        eval_simple(s, st);
        return;
      case Stmt::Kind::kReturn: {
        merge_throw_if(s.begin, s.end, st);
        for (auto it = st.vars.begin(); it != st.vars.end();) {
          if (range_mentions(t, s.begin + 1, s.end, it->first))
            it = st.vars.erase(it);  // ownership transferred to the caller
          else
            ++it;
        }
        if (s.begin < t.size()) leak_check(st, t[s.begin], "return");
        st.live = false;
        return;
      }
      case Stmt::Kind::kThrow: {
        if (!try_tgt.empty())
          join_into(*try_tgt.back(), st);
        else if (s.begin < t.size())
          leak_check(st, t[s.begin], "throw");
        st.live = false;
        return;
      }
      case Stmt::Kind::kBreak:
        if (!break_tgt.empty()) join_into(*break_tgt.back(), st);
        st.live = false;
        return;
      case Stmt::Kind::kContinue:
        if (!continue_tgt.empty()) join_into(*continue_tgt.back(), st);
        st.live = false;
        return;
      case Stmt::Kind::kIf: {
        merge_throw_if(s.cond_begin, s.cond_end, st);
        const GuardTest g = parse_guard(s.cond_begin, s.cond_end, st);
        FdState then_st = st;
        FdState else_st = st;
        if (g.ok) {
          apply_guard(then_st, g, true);
          apply_guard(else_st, g, false);
        }
        if (!s.blocks.empty()) eval_one(s.blocks[0], then_st);
        if (s.blocks.size() > 1) eval_one(s.blocks[1], else_st);
        st = dead_state();
        join_into(st, then_st);
        join_into(st, else_st);
        return;
      }
      case Stmt::Kind::kLoop: {
        merge_throw_if(s.cond_begin, s.cond_end, st);
        if (s.blocks.empty()) return;
        FdState brk = dead_state();
        FdState cont = dead_state();
        break_tgt.push_back(&brk);
        continue_tgt.push_back(&cont);
        FdState s1 = st;
        eval_one(s.blocks[0], s1);
        FdState entry2 = st;
        join_into(entry2, s1);
        join_into(entry2, cont);
        FdState s2 = entry2;
        eval_one(s.blocks[0], s2);
        break_tgt.pop_back();
        continue_tgt.pop_back();
        FdState exit_st = dead_state();
        if (!infinite_loop(s)) {
          join_into(exit_st, st);  // zero iterations
          join_into(exit_st, s2);
          join_into(exit_st, cont);
        }
        join_into(exit_st, brk);
        st = exit_st;
        return;
      }
      case Stmt::Kind::kSwitch: {
        merge_throw_if(s.cond_begin, s.cond_end, st);
        FdState brk = dead_state();
        break_tgt.push_back(&brk);
        FdState body = st;
        if (!s.blocks.empty()) eval_one(s.blocks[0], body);
        break_tgt.pop_back();
        FdState exit_st = st;  // no case may match
        join_into(exit_st, body);
        join_into(exit_st, brk);
        st = exit_st;
        return;
      }
      case Stmt::Kind::kTry: {
        if (s.blocks.empty()) return;
        FdState centry = dead_state();
        try_tgt.push_back(&centry);
        FdState body = st;
        eval_one(s.blocks[0], body);
        try_tgt.pop_back();
        FdState exit_st = dead_state();
        join_into(exit_st, body);
        for (std::size_t h = 1; h < s.blocks.size(); ++h) {
          if (!centry.live) break;
          FdState hs = centry;
          eval_one(s.blocks[h], hs);
          join_into(exit_st, hs);
        }
        st = exit_st;
        return;
      }
    }
  }

  void eval_seq(const std::vector<Stmt>& ss, FdState& st) {
    for (const Stmt& s : ss) {
      if (!st.live) return;
      eval_one(s, st);
    }
  }
};

void run_fd_lifecycle(const SourceFile& f, const RuleContext&,
                      std::vector<Finding>& out) {
  const Tokens& t = f.lex.tokens;
  for (const FuncInfo& fn : extract_functions(f)) {
    FdMachine m{f, t, out, {}, {}, {}, {}};
    FdState st;
    m.eval_seq(fn.body, st);
    if (!st.live) continue;
    for (const auto& [name, v] : st.vars) {
      if ((v.mask & kOpen) == 0) continue;
      const std::size_t at = v.origin < t.size() ? v.origin : fn.body_open;
      m.report(t[at], "leak|" + name,
               "fd '" + name + "' opened here is still open when '" +
                   fn.name + "' falls off the end — close it on every "
                   "path or transfer ownership explicitly "
                   "(docs/static-analysis.md#fd-lifecycle)");
    }
  }
}

// =========================== retry-idempotence ===========================

/// The RPC idempotence annotation table (mirrored in
/// docs/static-analysis.md#retry-idempotence). Everything NOT listed here
/// is fair game inside a retry loop; these calls mutate remote state
/// non-idempotently and must stay single-attempt.
const std::set<std::string>& single_attempt_calls() {
  static const std::set<std::string> k = {"apply", "apply_batch", "persist",
                                          "restore", "publish"};
  return k;
}

/// Idents whose presence marks a loop as a RETRY loop (as opposed to a
/// for-each over hosts/batches that merely tolerates per-item failure).
const std::set<std::string>& retry_signals() {
  static const std::set<std::string> k = {
      "sleep_for",  "sleep_until", "backoff",     "backoff_ms",
      "backoff_base_ms", "retry",  "retries",     "attempt",
      "attempts",   "max_attempts"};
  return k;
}

[[nodiscard]] bool seq_terminates(const std::vector<Stmt>& ss);

[[nodiscard]] bool stmt_terminates(const Stmt& s) {
  switch (s.kind) {
    case Stmt::Kind::kThrow:
    case Stmt::Kind::kReturn:
    case Stmt::Kind::kBreak:
      return true;  // leaves the loop (or the function): no retry
    case Stmt::Kind::kBlock:
      return seq_terminates(s.blocks);
    case Stmt::Kind::kIf:
      return s.blocks.size() > 1 && stmt_terminates(s.blocks[0]) &&
             stmt_terminates(s.blocks[1]);
    default:
      return false;  // kContinue falls through to the next attempt
  }
}

[[nodiscard]] bool seq_terminates(const std::vector<Stmt>& ss) {
  return !ss.empty() && stmt_terminates(ss.back());
}

void collect_tries(const Stmt& s, std::vector<const Stmt*>& out) {
  if (s.kind == Stmt::Kind::kLoop) return;  // a nested loop owns its tries
  if (s.kind == Stmt::Kind::kTry) out.push_back(&s);
  for (const Stmt& c : s.blocks) collect_tries(c, out);
}

struct RetryScan {
  const SourceFile& f;
  const Tokens& t;
  std::vector<Finding>& out;

  [[nodiscard]] bool has_retry_signal(const Stmt& loop) const {
    for (std::size_t i = loop.begin;
         i < loop.end && i < t.size(); ++i)
      if (t[i].kind == Tok::kIdent && retry_signals().count(t[i].text) != 0)
        return true;
    return false;
  }

  [[nodiscard]] bool is_retry_loop(const Stmt& loop) const {
    if (loop.blocks.empty() || !has_retry_signal(loop)) return false;
    std::vector<const Stmt*> tries;
    collect_tries(loop.blocks[0], tries);
    for (const Stmt* tr : tries)
      for (std::size_t h = 1; h < tr->blocks.size(); ++h)
        if (!stmt_terminates(tr->blocks[h])) return true;
    return false;
  }

  void walk(const std::vector<Stmt>& ss) {
    for (const Stmt& s : ss) {
      if (s.kind == Stmt::Kind::kLoop && is_retry_loop(s)) {
        for (std::size_t i = s.begin; i + 1 < s.end && i + 1 < t.size();
             ++i) {
          if (!is_call_at(t, i) ||
              single_attempt_calls().count(t[i].text) == 0)
            continue;
          if (i > s.begin && t[i - 1].kind == Tok::kIdent)
            continue;  // a declaration like `void apply(`, not a call
          emit(f, "retry-idempotence", t[i],
               "'" + t[i].text + "' is tagged single-attempt in the RPC "
               "idempotence table but runs inside a retry loop; a retried "
               "publish double-applies its batch when the first reply was "
               "lost — hoist the call out of the loop or split the "
               "retryable probe from the side effect "
               "(docs/static-analysis.md#retry-idempotence)",
               out);
        }
      }
      walk(s.blocks);
    }
  }
};

void run_retry_idempotence(const SourceFile& f, const RuleContext&,
                           std::vector<Finding>& out) {
  for (const FuncInfo& fn : extract_functions(f)) {
    RetryScan scan{f, f.lex.tokens, out};
    scan.walk(fn.body);
  }
}

// ========================= deadline-propagation ==========================

/// Blocking legs that need a deadline-derived argument when the enclosing
/// function received one.
const std::set<std::string>& blocking_calls() {
  static const std::set<std::string> k = {
      "poll",       "ppoll",     "select",        "epoll_wait",
      "connect",    "recv",      "recvfrom",      "recvmsg",
      "accept",     "accept4",   "waitpid",       "read_all",
      "recv_frame", "recv_frame_or_eof", "call_host", "connect_unix"};
  return k;
}

const std::set<std::string>& pacing_calls() {
  static const std::set<std::string> k = {"poll", "ppoll", "select",
                                          "epoll_wait"};
  return k;
}

/// Calls that a prior deadline-bounded poll may pace (the poll-then-recv
/// idiom in wire::read_all).
const std::set<std::string>& paced_ok_calls() {
  static const std::set<std::string> k = {"recv", "recvfrom", "recvmsg",
                                          "accept", "accept4"};
  return k;
}

/// Superset for the under-lock check: these must never run while a
/// MutexLock / WriterLock / SharedLock guard is live.
const std::set<std::string>& blocking_under_guard() {
  static const std::set<std::string> k = [] {
    std::set<std::string> s = blocking_calls();
    s.insert({"sleep_for", "sleep_until", "join", "rpc", "ping",
              "wait_ready", "probe"});
    return s;
  }();
  return k;
}

const std::set<std::string>& guard_type_names() {
  static const std::set<std::string> k = {
      "MutexLock",  "WriterLock", "SharedLock", "lock_guard",
      "unique_lock", "scoped_lock", "shared_lock"};
  return k;
}

[[nodiscard]] bool deadline_word(const std::string& name) {
  const std::string n = lower(name);
  return n.find("timeout") != std::string::npos ||
         n.find("deadline") != std::string::npos ||
         n.find("budget") != std::string::npos;
}

struct DeadlineArgScan {
  const SourceFile& f;
  const Tokens& t;
  std::vector<Finding>& out;
  const FuncInfo& fn;
  std::set<std::string> tainted;
  std::string dl_param;
  bool paced = false;

  [[nodiscard]] bool satisfies(const Token& tok) const {
    if (tok.kind != Tok::kIdent) return false;
    return tainted.count(tok.text) != 0 || deadline_word(tok.text) ||
           tok.text == "WNOHANG" || tok.text == "MSG_DONTWAIT" ||
           tok.text == "SOCK_NONBLOCK" || tok.text == "O_NONBLOCK";
  }

  void on_range(std::size_t a, std::size_t b, bool allow_decl) {
    b = std::min(b, t.size());
    if (allow_decl) {
      if (const auto d = parse_decl(t, a, b)) {
        for (std::size_t i = d->init_begin; i < d->init_end; ++i)
          if (satisfies(t[i])) {
            tainted.insert(d->name);
            break;
          }
      } else if (b - a >= 3 && t[a].kind == Tok::kIdent &&
                 t[a + 1].kind == Tok::kPunct &&
                 (t[a + 1].text == "=" || t[a + 1].text == "-=" ||
                  t[a + 1].text == "+=")) {
        for (std::size_t i = a + 2; i < b; ++i)
          if (satisfies(t[i])) {
            tainted.insert(t[a].text);
            break;
          }
      }
    }
    for (std::size_t i = a; i + 1 < b; ++i) {
      if (!is_call_at(t, i) || blocking_calls().count(t[i].text) == 0)
        continue;
      const std::size_t close_p = match_bracket(t, i + 1);
      bool satisfied = false;
      for (std::size_t j = i + 2; j < close_p && j < t.size(); ++j)
        if (satisfies(t[j])) {
          satisfied = true;
          break;
        }
      if (satisfied) {
        if (pacing_calls().count(t[i].text) != 0) paced = true;
        continue;
      }
      if (paced && paced_ok_calls().count(t[i].text) != 0) continue;
      emit(f, "deadline-propagation", t[i],
           "function '" + fn.name + "' takes deadline parameter '" +
               dl_param + "' but this call to '" + t[i].text + "' does "
               "not thread it — an unbounded blocking leg can stretch the "
               "call past its deadline; pass the remaining budget or pace "
               "it with a deadline-bounded poll "
               "(docs/static-analysis.md#deadline-propagation)",
           out);
    }
  }

  void walk(const std::vector<Stmt>& ss) {
    for (const Stmt& s : ss) {
      switch (s.kind) {
        case Stmt::Kind::kSimple:
        case Stmt::Kind::kReturn:
        case Stmt::Kind::kThrow:
          on_range(s.begin, s.end, s.kind == Stmt::Kind::kSimple);
          break;
        case Stmt::Kind::kIf:
        case Stmt::Kind::kSwitch:
          on_range(s.cond_begin, s.cond_end, false);
          walk(s.blocks);
          break;
        case Stmt::Kind::kLoop:
          on_range(s.cond_begin, s.cond_end, true);
          walk(s.blocks);
          break;
        case Stmt::Kind::kTry:
        case Stmt::Kind::kBlock:
          walk(s.blocks);
          break;
        default:
          break;
      }
    }
  }
};

struct LiveGuard {
  std::string name;
  bool active = true;
};

struct GuardScan {
  const SourceFile& f;
  const Tokens& t;
  std::vector<Finding>& out;

  void scan_range(std::size_t a, std::size_t b,
                  std::vector<LiveGuard>& guards) {
    b = std::min(b, t.size());
    for (std::size_t i = a; i < b; ++i) {
      if (t[i].kind != Tok::kIdent) continue;
      // guard.unlock() / guard.lock() toggles (Executor::worker_loop).
      if (i + 2 < b && t[i + 1].punct(".") && is_call_at(t, i + 2)) {
        for (LiveGuard& g : guards) {
          if (g.name != t[i].text) continue;
          if (t[i + 2].ident("unlock")) g.active = false;
          if (t[i + 2].ident("lock")) g.active = true;
        }
      }
      if (!is_call_at(t, i) ||
          blocking_under_guard().count(t[i].text) == 0)
        continue;
      for (const LiveGuard& g : guards) {
        if (!g.active) continue;
        emit(f, "deadline-propagation", t[i],
             "blocking call '" + t[i].text + "' executes while lock "
             "guard '" + g.name + "' is held — a blocked syscall under a "
             "bfc::Mutex/SharedMutex guard stalls every thread contending "
             "that lock; release the guard around the blocking leg "
             "(docs/static-analysis.md#deadline-propagation)",
             out);
        break;
      }
    }
  }

  void walk_stmt(const Stmt& s, std::vector<LiveGuard>& guards) {
    switch (s.kind) {
      case Stmt::Kind::kBlock: {
        const std::size_t n = guards.size();
        for (const Stmt& c : s.blocks) walk_stmt(c, guards);
        guards.resize(n);
        return;
      }
      case Stmt::Kind::kIf:
      case Stmt::Kind::kLoop:
      case Stmt::Kind::kSwitch:
      case Stmt::Kind::kTry:
        if (s.kind != Stmt::Kind::kTry)
          scan_range(s.cond_begin, s.cond_end, guards);
        for (const Stmt& c : s.blocks) {
          const std::size_t n = guards.size();
          walk_stmt(c, guards);
          guards.resize(n);
        }
        return;
      default: {
        scan_range(s.begin, s.end, guards);
        if (s.kind == Stmt::Kind::kSimple) {
          if (const auto d = parse_decl(t, s.begin, s.end))
            if (mentions_any(d->type, guard_type_names()))
              guards.push_back(LiveGuard{d->name, true});
        }
        return;
      }
    }
  }
};

void run_deadline_propagation(const SourceFile& f, const RuleContext&,
                              std::vector<Finding>& out) {
  for (const FuncInfo& fn : extract_functions(f)) {
    // (a) deadline threading through blocking legs.
    DeadlineArgScan scan{f, f.lex.tokens, out, fn, {}, {}, false};
    for (const Param& p : fn.params) {
      if (p.name.empty()) continue;
      if (type_mentions(p.type, "Deadline") || deadline_word(p.name)) {
        scan.tainted.insert(p.name);
        if (scan.dl_param.empty()) scan.dl_param = p.name;
      }
    }
    if (!scan.tainted.empty()) scan.walk(fn.body);

    // (b) no blocking call while a lock guard is live.
    GuardScan gs{f, f.lex.tokens, out};
    std::vector<LiveGuard> guards;
    for (const Stmt& s : fn.body) gs.walk_stmt(s, guards);
  }
}

// ========================= eager-check-message ==========================

/// Checks whose message argument is evaluated before the condition is
/// looked at: a formatted message is paid for on every passing call.
const std::set<std::string>& check_calls() {
  static const std::set<std::string> k = {"require", "enforce",
                                          "BFC_CHECK_MSG"};
  return k;
}

/// First token of the last top-level argument of the call whose '(' is at
/// `open`, or `close` when the call has fewer than two arguments.
[[nodiscard]] std::size_t last_arg_begin(const Tokens& t, std::size_t open,
                                         std::size_t close) {
  std::size_t begin = close;
  for (std::size_t j = open + 1; j < close; ++j) {
    if (t[j].punct("(") || t[j].punct("[") || t[j].punct("{"))
      j = match_bracket(t, j);
    else if (t[j].punct(","))
      begin = j + 1;
  }
  return begin;
}

/// True when [b, e) builds a std::string: concatenation, to_string,
/// an explicit std::string(...) or a row-message helper at_row(...).
[[nodiscard]] bool builds_string(const Tokens& t, std::size_t b,
                                 std::size_t e) {
  for (std::size_t j = b; j < e; ++j) {
    if (t[j].punct("+") || t[j].ident("to_string")) return true;
    if (j + 1 < e && t[j].ident("at_row") && t[j + 1].punct("(")) return true;
    if (j + 3 < e && t[j].ident("std") && t[j + 1].punct("::") &&
        t[j + 2].ident("string") && t[j + 3].punct("("))
      return true;
  }
  return false;
}

struct EagerCheckScan {
  const SourceFile& f;
  const Tokens& t;
  std::vector<Finding>& out;

  void scan_loop_body(std::size_t from, std::size_t to) {
    for (std::size_t i = from; i + 1 < to && i + 1 < t.size(); ++i) {
      if (!is_call_at(t, i) || check_calls().count(t[i].text) == 0) continue;
      if (i > from && t[i - 1].kind == Tok::kIdent)
        continue;  // a declaration like `void require(`, not a call
      const std::size_t close = match_bracket(t, i + 1);
      if (close >= t.size()) continue;
      if (!builds_string(t, last_arg_begin(t, i + 1, close), close)) continue;
      emit(f, "eager-check-message", t[i],
           "'" + t[i].text + "' inside a loop formats its message on every "
           "iteration, even when the check passes; pass a literal, or test "
           "the condition and build the message in a cold helper that runs "
           "only on failure (docs/static-analysis.md#eager-check-message)",
           out);
    }
  }

  void walk(const std::vector<Stmt>& ss) {
    for (const Stmt& s : ss) {
      if (s.kind == Stmt::Kind::kLoop) {
        // The whole body, nested loops included, is scanned once here.
        if (!s.blocks.empty())
          scan_loop_body(s.blocks[0].begin, s.blocks[0].end);
        continue;
      }
      walk(s.blocks);
    }
  }
};

/// `.tag(k, std::to_string(x))` / `span_tag(s, k, std::to_string(x))`:
/// the value is formatted even when the span is inert.
void scan_eager_tags(const SourceFile& f, std::vector<Finding>& out) {
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const bool member_tag = t[i].ident("tag") && i > 0 &&
                            (t[i - 1].punct(".") || t[i - 1].punct("->"));
    const bool helper_tag = t[i].ident("span_tag") &&
                            !(i > 0 && t[i - 1].kind == Tok::kIdent);
    if (!(member_tag || helper_tag) || !t[i + 1].punct("(")) continue;
    const std::size_t close = match_bracket(t, i + 1);
    if (close >= t.size()) continue;
    std::size_t v = last_arg_begin(t, i + 1, close);
    if (v + 1 < close && t[v].ident("std") && t[v + 1].punct("::")) v += 2;
    if (!(v + 1 < close && t[v].ident("to_string") && t[v + 1].punct("(")))
      continue;
    emit(f, "eager-check-message", t[i],
         "span tag value built with std::to_string formats on every call, "
         "even when tracing is off; pass the integer to the "
         "tag(key, std::uint64_t) overload, which formats only when the "
         "span is armed (docs/static-analysis.md#eager-check-message)",
         out);
  }
}

void run_eager_check_message(const SourceFile& f, const RuleContext&,
                             std::vector<Finding>& out) {
  for (const FuncInfo& fn : extract_functions(f)) {
    EagerCheckScan scan{f, f.lex.tokens, out};
    scan.walk(fn.body);
  }
  scan_eager_tags(f, out);
}

}  // namespace

std::vector<Rule> flow_rules() {
  return {
      Rule{"lifetime-escape",
           "views (string_view/span/Cursor) must not outlive the buffer "
           "they borrow: no binding to call-site temporaries, no "
           "returning/storing views over locals",
           run_lifetime_escape},
      Rule{"fd-lifecycle",
           "every fd from socket()/open()/connect_unix() is closed exactly "
           "once on every path: no double close, no use-after-close, no "
           "leak on the throw path",
           run_fd_lifecycle},
      Rule{"retry-idempotence",
           "retry/backoff loops may only wrap idempotent calls; "
           "apply/persist/restore/publish stay single-attempt",
           run_retry_idempotence},
      Rule{"deadline-propagation",
           "functions taking a Deadline/timeout must thread it into every "
           "blocking leg, and no blocking call may run under a live "
           "MutexLock/WriterLock/SharedLock guard",
           run_deadline_propagation},
      Rule{"eager-check-message",
           "passing checks and inert span tags must not format: no string "
           "building in a require/enforce/BFC_CHECK_MSG message inside a "
           "loop, no std::to_string span tag values",
           run_eager_check_message},
  };
}

}  // namespace bfc::analyze
