#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <set>

namespace bfc::analyze {
namespace {

using Tokens = std::vector<Token>;

[[nodiscard]] std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

[[nodiscard]] bool is_countish_name(const std::string& ident) {
  const std::string l = lower(ident);
  return l.find("butterfl") != std::string::npos ||
         l.find("wedge") != std::string::npos;
}

[[nodiscard]] bool starts_with(const std::string& s, const char* prefix) {
  return s.compare(0, std::string(prefix).size(), prefix) == 0;
}

[[nodiscard]] bool is_metric_ns(const std::string& s) {
  return starts_with(s, "svc.") || starts_with(s, "obs.") ||
         starts_with(s, "chk.");
}

/// Skips a chain of subscripts after the token at `i` (which indexes the
/// identifier); returns the index of the first token past the chain.
[[nodiscard]] std::size_t skip_subscripts(const Tokens& t, std::size_t i) {
  std::size_t j = i + 1;
  while (j < t.size() && t[j].punct("[")) {
    const std::size_t close = match_bracket(t, j);
    if (close >= t.size()) return t.size();
    j = close + 1;
  }
  return j;
}

// ---------------------------------------------------------------- raw-sync

/// std:: synchronisation primitives outside the annotated wrapper layer.
/// Promotes lint.sh rule C from grep to tokens: matches the real qualified
/// name, so comments, strings, and bfc::Mutex never fire.
void rule_raw_sync(const SourceFile& f, const RuleContext&,
                   std::vector<Finding>& out) {
  if (!f.under({"src/"})) return;
  if (f.path == "src/util/sync.hpp") return;  // the wrapper layer itself
  static const std::set<std::string> kPrimitives = {
      "mutex",          "shared_mutex",     "recursive_mutex",
      "timed_mutex",    "condition_variable",
      "condition_variable_any",             "scoped_lock",
      "lock_guard",     "unique_lock",      "shared_lock",
  };
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].ident("std") || !t[i + 1].punct("::")) continue;
    if (t[i + 2].kind != Tok::kIdent || kPrimitives.count(t[i + 2].text) == 0)
      continue;
    emit(f, "raw-sync", t[i],
         "raw std::" + t[i + 2].text +
             "; use the annotated wrappers in util/sync.hpp (bfc::Mutex, "
             "bfc::MutexLock, ...) so clang TSA sees the lock graph",
         out);
  }
}

// ----------------------------------------------------------------- seq-cst

/// Atomic operations on hot-path files must spell the memory order.
/// Promotes lint.sh rule D: instead of grepping lines, walk the argument
/// list of each atomic member call and look for a memory_order argument.
void rule_seq_cst(const SourceFile& f, const RuleContext&,
                  std::vector<Finding>& out) {
  if (!f.under({"src/obs/", "src/svc/", "src/shard/", "bench/serving.cpp"}))
    return;
  static const std::set<std::string> kOps = {
      "load",      "store",     "exchange",
      "fetch_add", "fetch_sub", "fetch_and",
      "fetch_or",  "fetch_xor", "compare_exchange_weak",
      "compare_exchange_strong",
  };
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(t[i].punct(".") || t[i].punct("->"))) continue;
    if (t[i + 1].kind != Tok::kIdent || kOps.count(t[i + 1].text) == 0)
      continue;
    if (!t[i + 2].punct("(")) continue;
    const std::size_t close = match_bracket(t, i + 2);
    if (close >= t.size()) continue;
    // Every atomic op except load() takes at least one argument; an empty
    // call like `handle->store()` is some other class's accessor.
    if (close == i + 3 && t[i + 1].text != "load") continue;
    bool has_order = false;
    for (std::size_t j = i + 3; j < close; ++j) {
      if (t[j].kind == Tok::kIdent &&
          (starts_with(t[j].text, "memory_order") || t[j].text == "order")) {
        has_order = true;
        break;
      }
    }
    if (has_order) continue;
    // The justification comment may sit on the line of the call OR on the
    // line of the closing paren of a multi-line call.
    if (f.suppressed("seq-cst", t[i + 1].line) ||
        f.suppressed("seq-cst", t[close].line))
      continue;
    emit(f, "seq-cst", t[i + 1],
         "atomic ." + t[i + 1].text +
             "() without an explicit memory order on a hot path; spell the "
             "order (or justify seq_cst in a suppression)",
         out);
  }
}

// ------------------------------------------------------ checked-accumulation

/// Butterfly/wedge count accumulation must run through chk::checked_* so the
/// BFC_CHECKED build traps overflow. Targets: identifiers declared count_t
/// in this file, plus anything whose name says butterfly/wedge. ++/-- stay
/// legal (steps of 1 cannot overflow a count that fit memory).
void rule_checked_accumulation(const SourceFile& f, const RuleContext&,
                               std::vector<Finding>& out) {
  if (f.under({"src/obs/", "src/util/", "src/chk/"})) return;
  const Tokens& t = f.lex.tokens;

  std::set<std::string> declared;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident("count_t")) continue;
    std::size_t j = i + 1;
    if (t[j].punct("&") || t[j].punct("*")) continue;  // alias/pointer decl
    if (t[j].kind != Tok::kIdent) continue;
    if (j + 1 < t.size() && t[j + 1].punct("(")) continue;  // function decl
    declared.insert(t[j].text);
  }

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    const bool by_name = is_countish_name(t[i].text);
    const bool by_decl = declared.count(t[i].text) != 0;
    if (!by_name && !by_decl) continue;
    // A declared-set match must be a plain local use, not a member of some
    // other object; name-based matches fire through member access too.
    if (!by_name && i > 0 &&
        (t[i - 1].punct(".") || t[i - 1].punct("->") || t[i - 1].punct("::")))
      continue;
    const std::size_t op_at = skip_subscripts(t, i);
    if (op_at >= t.size() || t[op_at].kind != Tok::kPunct) continue;
    const std::string& op = t[op_at].text;

    if (op == "+=" || op == "-=" || op == "*=") {
      emit(f, "checked-accumulation", t[i],
           "raw " + op + " on count accumulator '" + t[i].text +
               "'; use chk::checked_add/checked_mul so BFC_CHECKED traps "
               "overflow (see chk/checked_math.hpp)",
           out);
      continue;
    }
    if (op != "=") continue;
    // `x = <expr>`: fine when the RHS goes through chk::; flagged when it
    // re-accumulates x itself with raw +/-/* at expression depth 0.
    std::size_t j = op_at + 1;
    if (j + 1 < t.size() && t[j].ident("chk") && t[j + 1].punct("::")) continue;
    if (j < t.size() && t[j].kind == Tok::kIdent &&
        starts_with(t[j].text, "checked_"))
      continue;
    bool rhs_self = false;
    bool rhs_raw_op = false;
    int depth = 0;
    for (; j < t.size(); ++j) {
      if (t[j].kind == Tok::kPunct) {
        const std::string& p = t[j].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        else if (p == ")" || p == "]" || p == "}") {
          if (--depth < 0) break;
        } else if (depth == 0 && (p == ";" || p == ",")) {
          break;
        } else if (depth == 0 && (p == "+" || p == "-" || p == "*")) {
          rhs_raw_op = true;
        }
      } else if (t[j].kind == Tok::kIdent && t[j].text == t[i].text) {
        rhs_self = true;
      }
    }
    if (rhs_self && rhs_raw_op) {
      emit(f, "checked-accumulation", t[i],
           "raw arithmetic re-accumulates count '" + t[i].text +
               "'; route through chk::checked_* (chk/checked_math.hpp)",
           out);
    }
  }
}

// ---------------------------------------------------------- epoch-discipline

/// Snapshot/shard-view lifetime and cache-keying. Two shapes:
///  (a) `.get()` on a SnapshotPtr/ShardViewPtr-typed name — the raw pointer
///      outlives nothing; keep the shared_ptr (PR 7's restore bug).
///  (b) a CacheKey aggregate-init whose FIRST field carries no epoch /
///      signature / version component — such entries survive publishes and
///      serve stale counts.
void rule_epoch_discipline(const SourceFile& f, const RuleContext&,
                           std::vector<Finding>& out) {
  if (!f.under({"src/svc/", "src/shard/", "bench/", "examples/"})) return;
  const Tokens& t = f.lex.tokens;

  std::set<std::string> ptr_names;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(t[i].ident("SnapshotPtr") || t[i].ident("ShardViewPtr"))) continue;
    std::size_t j = i + 1;
    while (j < t.size() && (t[j].punct("&") || t[j].punct("*"))) ++j;
    if (j >= t.size() || t[j].kind != Tok::kIdent) continue;
    if (j + 1 < t.size() && t[j + 1].punct("(")) continue;  // function decl
    ptr_names.insert(t[j].text);
  }
  for (std::size_t i = 0; i + 4 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent || ptr_names.count(t[i].text) == 0) continue;
    if (!(t[i + 1].punct(".") || t[i + 1].punct("->"))) continue;
    if (!t[i + 2].ident("get")) continue;
    if (!t[i + 3].punct("(") || !t[i + 4].punct(")")) continue;
    emit(f, "epoch-discipline", t[i],
         "raw .get() escapes the lifetime of snapshot/view '" + t[i].text +
             "'; pass the shared_ptr (or a reference whose owner is pinned "
             "on this stack frame)",
         out);
  }

  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident("CacheKey")) continue;
    if (i > 0 && (t[i - 1].ident("struct") || t[i - 1].ident("class")))
      continue;  // the definition itself
    std::size_t open = i + 1;
    if (open < t.size() && t[open].kind == Tok::kIdent) ++open;  // `CacheKey k{`
    if (open >= t.size() || !t[open].punct("{")) continue;
    const std::size_t close = match_bracket(t, open);
    if (close >= t.size()) continue;
    bool keyed = false;
    bool empty = true;
    int depth = 0;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (t[j].kind == Tok::kPunct) {
        const std::string& p = t[j].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        else if (p == ")" || p == "]" || p == "}") --depth;
        else if (p == "," && depth == 0) break;  // end of first field
        continue;
      }
      empty = false;
      if (t[j].kind == Tok::kIdent) {
        const std::string l = lower(t[j].text);
        if (l.find("epoch") != std::string::npos ||
            l.find("sig") != std::string::npos ||
            l.find("version") != std::string::npos)
          keyed = true;
      }
    }
    if (empty || !keyed) {
      emit(f, "epoch-discipline", t[i],
           "CacheKey built without an epoch/signature/version in its leading "
           "field; entries would survive snapshot publishes and serve stale "
           "counts",
           out);
    }
  }
}

// ---------------------------------------------------- cancellation-checkpoint

/// A kernel that accepts a CancelToken and then never mentions it again can
/// neither checkpoint nor forward cancellation — long scans become
/// uncancellable exactly where the ROADMAP needs them cooperative.
void rule_cancellation_checkpoint(const SourceFile& f, const RuleContext&,
                                  std::vector<Finding>& out) {
  if (!f.under({"src/la/", "src/count/", "src/shard/", "src/svc/"})) return;
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident("CancelToken")) continue;
    std::size_t j = i + 1;
    while (j < t.size() && (t[j].punct("&") || t[j].punct("*"))) ++j;
    if (j >= t.size() || t[j].kind != Tok::kIdent) continue;
    const std::string param = t[j].text;
    // Make sure this is a parameter: the next structural token at depth 0
    // must be the `)` that closes a parameter list (a `;`/`{`/`}` first
    // means it was a local or member declaration instead).
    std::size_t k = j + 1;
    int depth = 0;
    bool is_param = false;
    for (; k < t.size(); ++k) {
      if (t[k].kind != Tok::kPunct) continue;
      const std::string& p = t[k].text;
      if (p == "(" || p == "[" || p == "{") {
        if (p == "{" && depth == 0) break;
        ++depth;
      } else if (p == "]" || p == "}") {
        --depth;
      } else if (p == ")") {
        if (depth == 0) {
          is_param = true;
          break;
        }
        --depth;
      } else if (depth == 0 && p == ";") {
        break;
      }
    }
    if (!is_param) continue;
    // Walk from the `)` to either `;` (pure declaration — fine) or the `{`
    // that opens the body.
    std::size_t body_open = t.size();
    for (std::size_t m = k + 1; m < t.size(); ++m) {
      if (t[m].punct(";")) break;
      if (t[m].punct("{")) {
        body_open = m;
        break;
      }
    }
    if (body_open >= t.size()) continue;
    const std::size_t body_close = match_bracket(t, body_open);
    bool consulted = false;
    for (std::size_t m = body_open + 1; m < body_close && m < t.size(); ++m) {
      if (t[m].kind == Tok::kIdent && t[m].text == param) {
        consulted = true;
        break;
      }
    }
    if (!consulted) {
      emit(f, "cancellation-checkpoint", t[j],
           "kernel accepts CancelToken '" + param +
               "' but the body never checkpoints or forwards it; call " +
               param + ".checkpoint(row, \"where\") inside the long loop",
           out);
    }
  }
}

// ------------------------------------------------------------ metric-registry

/// Every svc./obs./chk. metric literal handed to the metrics facade must
/// exist in tools/analyze/metrics.registry — the same file report_lint
/// checks OpenMetrics dumps against, so code, lint, and docs cannot drift
/// apart silently. Absorbs lint.sh rule E.
void rule_metric_registry(const SourceFile& f, const RuleContext& ctx,
                          std::vector<Finding>& out) {
  if (ctx.registry == nullptr) return;
  static const std::set<std::string> kMacros = {
      "BFC_COUNT_ADD", "BFC_GAUGE_SET", "BFC_HIST_OBSERVE"};
  static const std::set<std::string> kMethods = {"counter", "gauge",
                                                 "histogram"};
  const Tokens& t = f.lex.tokens;
  const auto check_first_arg = [&](std::size_t open) {
    const std::size_t close = match_bracket(t, open);
    if (close >= t.size()) return;
    int depth = 0;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (t[j].kind == Tok::kPunct) {
        const std::string& p = t[j].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        else if (p == ")" || p == "]" || p == "}") --depth;
        else if (p == "," && depth == 0) break;  // first argument only
        continue;
      }
      if (t[j].kind != Tok::kString || !is_metric_ns(t[j].text)) continue;
      if (!ctx.registry->matches("metric", t[j].text)) {
        emit(f, "metric-registry", t[j],
             "metric literal \"" + t[j].text +
                 "\" is not declared in tools/analyze/metrics.registry; add "
                 "it there and document it in docs/telemetry.md",
             out);
      }
    }
  };
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind == Tok::kIdent && kMacros.count(t[i].text) != 0 &&
        t[i + 1].punct("(")) {
      check_first_arg(i + 1);
    } else if ((t[i].punct(".") || t[i].punct("->")) && i + 2 < t.size() &&
               t[i + 1].kind == Tok::kIdent &&
               kMethods.count(t[i + 1].text) != 0 && t[i + 2].punct("(")) {
      check_first_arg(i + 2);
    }
  }
}

// --------------------------------------------------------------- span-pairing

/// obs::Span stores the name POINTER (literal-lifetime contract) and tag
/// keys feed dashboards — both must be string literals, and namespaced
/// names must exist in the registry so span queries in report_lint keep
/// matching what the code emits.
void rule_span_pairing(const SourceFile& f, const RuleContext& ctx,
                       std::vector<Finding>& out) {
  if (f.path == "src/obs/spans.hpp" || f.path == "src/obs/spans.cpp") return;
  const Tokens& t = f.lex.tokens;

  /// Collects args [open+1, close); returns false when unbalanced.
  const auto span_args = [&](std::size_t open, std::size_t& close) {
    close = match_bracket(t, open);
    return close < t.size();
  };
  const auto args_have_ident = [&](std::size_t open, std::size_t close,
                                   std::initializer_list<const char*> names) {
    for (std::size_t j = open + 1; j < close; ++j) {
      if (t[j].kind != Tok::kIdent) continue;
      for (const char* n : names)
        if (t[j].text == n) return true;
    }
    return false;
  };
  const auto check_name_args = [&](std::size_t open, std::size_t close,
                                   const Token& at) {
    bool literal = false;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (t[j].kind != Tok::kString) continue;
      literal = true;
      if (ctx.registry != nullptr && is_metric_ns(t[j].text) &&
          !ctx.registry->matches("span", t[j].text)) {
        emit(f, "span-pairing", t[j],
             "span name \"" + t[j].text +
                 "\" is not declared as a span in "
                 "tools/analyze/metrics.registry",
             out);
      }
    }
    if (!literal) {
      emit(f, "span-pairing", at,
           "span name must be a string literal: SpanRecord keeps the "
           "pointer, so a temporary name dangles after the call",
           out);
    }
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    // `Span sp(ctx, "name")`, `obs::Span(ctx, "name")`, `open_span(...)`.
    if (t[i].ident("Span") || t[i].ident("open_span")) {
      if (i > 0 && (t[i - 1].ident("class") || t[i - 1].ident("struct") ||
                    t[i - 1].punct("~") || t[i - 1].ident("explicit")))
        continue;
      std::size_t open = i + 1;
      if (t[i].text == "Span" && open < t.size() &&
          t[open].kind == Tok::kIdent)
        ++open;  // variable name between type and paren
      if (open >= t.size() || !t[open].punct("(")) continue;
      std::size_t close = 0;
      if (!span_args(open, close)) continue;
      // Declarations/definitions of span helpers mention parameter types.
      if (args_have_ident(open, close,
                          {"TraceContext", "string_view", "char"}))
        continue;
      check_name_args(open, close, t[i]);
      continue;
    }
    // `sp.tag("key", v)` / `sp->add_tag(...)` / free `span_tag(sp, "key", v)`.
    const bool member_tag =
        (t[i].punct(".") || t[i].punct("->")) && i + 2 < t.size() &&
        (t[i + 1].ident("tag") || t[i + 1].ident("add_tag")) &&
        t[i + 2].punct("(");
    const bool free_tag =
        t[i].ident("span_tag") && i + 1 < t.size() && t[i + 1].punct("(") &&
        (i == 0 || !t[i - 1].punct("."));
    if (!member_tag && !free_tag) continue;
    const std::size_t open = member_tag ? i + 2 : i + 1;
    std::size_t close = 0;
    if (!span_args(open, close)) continue;
    if (args_have_ident(open, close, {"TraceContext", "string_view", "char",
                                      "SpanPtr", "Span"}))
      continue;  // declaration, not a call
    const Token* key = nullptr;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (t[j].kind == Tok::kString) {
        key = &t[j];
        break;
      }
    }
    if (key == nullptr) continue;  // dynamic key: allowed, values vary
    if (ctx.registry != nullptr && !ctx.registry->matches("tag", key->text)) {
      emit(f, "span-pairing", *key,
           "span tag key \"" + key->text +
               "\" is not declared as a tag in "
               "tools/analyze/metrics.registry",
           out);
    }
    i = close;
  }
}

// ---------------------------------------------------------------- suppression

/// The meta-rule: a suppression that cannot work (no rationale, unknown rule
/// name, mangled spelling) must be a finding, not a silent no-op — otherwise
/// an author believes a violation is waived when it is not.
void rule_suppression(const SourceFile& f, const RuleContext& ctx,
                      std::vector<Finding>& out) {
  for (const auto& s : f.suppressions) {
    Token at;
    at.line = s.line;
    at.col = 1;
    if (s.rule.empty()) {
      out.push_back(Finding{"suppression", f.path, s.line, 1,
                            "empty bfc-analyze suppression marker",
                            f.snippet(s.line), ""});
      continue;
    }
    const bool known =
        std::find(ctx.rule_names.begin(), ctx.rule_names.end(), s.rule) !=
        ctx.rule_names.end();
    if (!known) {
      out.push_back(Finding{
          "suppression", f.path, s.line, 1,
          "suppression names unknown rule '" + s.rule +
              "' (run bfc-analyze --list-rules for the catalog)",
          f.snippet(s.line), ""});
    } else if (s.why.empty()) {
      out.push_back(Finding{
          "suppression", f.path, s.line, 1,
          "suppression for '" + s.rule +
              "' has no rationale; write WHY the violation is acceptable "
              "(// bfc-analyze: " +
              s.rule + "-ok <why>)",
          f.snippet(s.line), ""});
    }
  }
}

}  // namespace

void emit(const SourceFile& f, const char* rule, const Token& tok,
          std::string message, std::vector<Finding>& out) {
  if (f.suppressed(rule, tok.line)) return;
  out.push_back(Finding{rule, f.path, tok.line, tok.col, std::move(message),
                        f.snippet(tok.line), ""});
}

const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> kRules = [] {
    std::vector<Rule> rules = {
      {"epoch-discipline",
       "snapshot/shard-view lifetime escapes and epoch-less cache keys",
       rule_epoch_discipline},
      {"checked-accumulation",
       "butterfly/wedge count math outside chk::checked_*",
       rule_checked_accumulation},
      {"raw-sync", "std sync primitives outside util/sync.hpp",
       rule_raw_sync},
      {"seq-cst", "atomic ops without explicit memory orders on hot paths",
       rule_seq_cst},
      {"cancellation-checkpoint",
       "kernels that accept a CancelToken and never consult it",
       rule_cancellation_checkpoint},
      {"metric-registry",
       "metric literals missing from tools/analyze/metrics.registry",
       rule_metric_registry},
      {"span-pairing",
       "span/tag literal lifetime and registry consistency",
       rule_span_pairing},
      {"suppression", "malformed or unknown suppression markers",
       rule_suppression},
    };
    // The flow-sensitive families (rules_flow.cpp) ride on the same
    // engine; keeping them in one registry means baselines, suppressions
    // and the suppression meta-rule see them like any other rule.
    for (Rule& r : flow_rules()) rules.push_back(std::move(r));
    return rules;
  }();
  return kRules;
}

}  // namespace bfc::analyze
