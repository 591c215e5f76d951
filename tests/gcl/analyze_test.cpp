#include "gcl/analyze.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "gcl/diag.hpp"
#include "gcl/parser.hpp"

namespace cref::gcl {
namespace {

// --- helpers ---------------------------------------------------------

/// 1-based column of the first occurrence of `needle` on the
/// 1-based `line` of `src`; 0 if absent.
int col_of(const std::string& src, int line, const std::string& needle) {
  std::istringstream ss(src);
  std::string text;
  for (int i = 0; i < line && std::getline(ss, text); ++i) {}
  auto at = text.find(needle);
  return at == std::string::npos ? 0 : static_cast<int>(at) + 1;
}

const Diagnostic* find_rule(const std::vector<Diagnostic>& diags, Rule r) {
  for (const Diagnostic& d : diags)
    if (d.rule == r) return &d;
  return nullptr;
}

std::size_t count_rule(const std::vector<Diagnostic>& diags, Rule r) {
  std::size_t n = 0;
  for (const Diagnostic& d : diags) n += d.rule == r;
  return n;
}

// Minimal JSON well-formedness checker (objects, arrays, strings,
// numbers, true/false/null) — enough to pin --format=json output.
struct JsonChecker {
  const std::string& s;
  std::size_t i = 0;
  bool ok = true;

  explicit JsonChecker(const std::string& text) : s(text) {}
  void skip_ws() {
    while (i < s.size() && std::strchr(" \t\n\r", s[i])) ++i;
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return ok = false;
  }
  bool value() {
    skip_ws();
    if (i >= s.size()) return ok = false;
    char c = s[i];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == '-' || (c >= '0' && c <= '9')) return number();
    for (const char* lit : {"true", "false", "null"})
      if (s.compare(i, std::strlen(lit), lit) == 0) {
        i += std::strlen(lit);
        return true;
      }
    return ok = false;
  }
  bool object() {
    if (!eat('{')) return false;
    skip_ws();
    if (i < s.size() && s[i] == '}') return ++i, true;
    do {
      skip_ws();
      if (!string() || !eat(':') || !value()) return false;
      skip_ws();
    } while (i < s.size() && s[i] == ',' && ++i);
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    skip_ws();
    if (i < s.size() && s[i] == ']') return ++i, true;
    do {
      if (!value()) return false;
      skip_ws();
    } while (i < s.size() && s[i] == ',' && ++i);
    return eat(']');
  }
  bool string() {
    skip_ws();
    if (i >= s.size() || s[i] != '"') return ok = false;
    for (++i; i < s.size(); ++i) {
      if (s[i] == '\\') ++i;
      else if (s[i] == '"') return ++i, true;
    }
    return ok = false;
  }
  bool number() {
    std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() && ((s[i] >= '0' && s[i] <= '9') ||
                            std::strchr(".eE+-", s[i]) != nullptr))
      ++i;
    return i > start || (ok = false);
  }
  bool document() {
    bool v = value();
    skip_ws();
    return v && i == s.size();
  }
};

bool valid_json(const std::string& text) { return JsonChecker(text).document(); }

// --- pass 1: guard satisfiability ------------------------------------

TEST(AnalyzeGuards, AlwaysFalseGuardIsDeadAction) {
  const std::string src =
      "system p {\n"
      "  var x : 0..2;\n"
      "  action a @0 : x > 5 -> x := 0;\n"
      "}\n";
  auto diags = check_guards(parse(src));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, Rule::GuardAlwaysFalse);
  EXPECT_EQ(diags[0].severity, Severity::Warning);
  EXPECT_EQ(diags[0].loc.line, 3);
  EXPECT_EQ(diags[0].loc.column, col_of(src, 3, "a @0"));
  EXPECT_NE(diags[0].message.find("dead action"), std::string::npos);
}

TEST(AnalyzeGuards, AlwaysTrueGuardIsNoted) {
  auto diags = check_guards(
      parse("system p {\n  var x : 0..2;\n  action a @0 : x >= 0 -> x := 0;\n}"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, Rule::GuardAlwaysTrue);
  EXPECT_EQ(diags[0].severity, Severity::Note);
  EXPECT_EQ(diags[0].loc.line, 3);
}

TEST(AnalyzeGuards, SatisfiableNonTrivialGuardIsClean) {
  auto diags = check_guards(
      parse("system p { var x : 0..2; action a @0 : x == 1 -> x := 0; }"));
  EXPECT_TRUE(diags.empty());
}

TEST(AnalyzeGuards, IntervalFallbackStillCatchesProvablyFalse) {
  AnalyzeOptions tiny;
  tiny.exact_budget = 1;  // force the interval path
  auto diags = check_guards(
      parse("system p { var x : 0..2; action a @0 : x > 5 -> x := 0; }"), tiny);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, Rule::GuardAlwaysFalse);
}

TEST(AnalyzeGuards, IntervalFallbackIsSoundUnderInt64Wrap) {
  // Six 0..15 variables put each guard's footprint at 2^24 valuations,
  // above the exact budget, so the interval fallback decides. The sum
  // plus the constant overflows int64 once it reaches 8, and eval wraps
  // it negative: each guard holds in some states and fails in others.
  const std::string src =
      "system wrap6 {\n"
      "  var a : 0..15;\n"
      "  var b : 0..15;\n"
      "  var c : 0..15;\n"
      "  var d : 0..15;\n"
      "  var e : 0..15;\n"
      "  var f : 0..15;\n"
      "  action lo : a + b + c + d + e + f + 9223372036854775800 < 0 -> a := a + 1;\n"
      "  action hi : a + b + c + d + e + f + 9223372036854775800 > 0 -> b := b + 1;\n"
      "}\n";
  auto diags = analyze(parse(src));
  EXPECT_EQ(count_rule(diags, Rule::GuardAlwaysTrue), 0u);
  EXPECT_EQ(count_rule(diags, Rule::GuardAlwaysFalse), 0u);
  EXPECT_EQ(count_rule(diags, Rule::AssignWraps), 2u);
}

// --- pass 2: domain flow ---------------------------------------------

TEST(AnalyzeDomainFlow, OutOfDomainAssignmentWarns) {
  const std::string src =
      "system p {\n"
      "  var x : 0..2;\n"
      "  action a @0 : x == 0 -> x := x + 5;\n"
      "}\n";
  auto diags = check_domain_flow(parse(src));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, Rule::AssignWraps);
  EXPECT_EQ(diags[0].loc.line, 3);
  EXPECT_EQ(diags[0].loc.column, col_of(src, 3, "x := x + 5"));
  EXPECT_NE(diags[0].message.find("[5..5]"), std::string::npos)
      << diags[0].message;  // guard-aware exact range: x is 0 when enabled
}

TEST(AnalyzeDomainFlow, ExplicitModSuppressesTheWarning) {
  auto diags = check_domain_flow(parse(
      "system p { var x : 0..2; action a @0 : true -> x := (x + 1) % 3; }"));
  EXPECT_TRUE(diags.empty());
}

TEST(AnalyzeDomainFlow, GuardBoundSuppressesTheWarning) {
  // x + 1 can reach 3, but never in a state where the guard holds.
  auto diags = check_domain_flow(
      parse("system p { var x : 0..2; action a @0 : x < 2 -> x := x + 1; }"));
  EXPECT_TRUE(diags.empty());
}

TEST(AnalyzeDomainFlow, NegativeValuesAlsoWrap) {
  auto diags = check_domain_flow(
      parse("system p { var x : 0..2; action a @0 : x == 0 -> x := x - 1; }"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("[-1..-1]"), std::string::npos);
}

// --- pass 3: divisors ------------------------------------------------

TEST(AnalyzeDivisors, AlwaysZeroDivisorIsAnError) {
  const std::string src =
      "system p {\n"
      "  var x : 0..2;\n"
      "  action a @0 : x / (x - x) == 0 -> x := 0;\n"
      "}\n";
  auto diags = check_divisors(parse(src));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, Rule::DivByZero);
  EXPECT_EQ(diags[0].severity, Severity::Error);
  EXPECT_EQ(diags[0].loc.line, 3);
  EXPECT_EQ(diags[0].loc.column, col_of(src, 3, "/ (x - x)"));
}

TEST(AnalyzeDivisors, PossiblyZeroDivisorWarnsWithWitness) {
  auto diags = check_divisors(
      parse("system p { var x : 0..2; var y : 0..2;"
            "  action a @0 : x == 0 -> x := 2 % y; }"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, Rule::DivMaybeZero);
  EXPECT_EQ(diags[0].severity, Severity::Warning);
  EXPECT_NE(diags[0].message.find("y=0"), std::string::npos) << diags[0].message;
}

TEST(AnalyzeDivisors, GuardProtectedDivisionIsClean) {
  auto diags = check_divisors(
      parse("system p { var x : 0..2; var y : 0..2;"
            "  action a @0 : y != 0 -> x := 2 / y; }"));
  EXPECT_TRUE(diags.empty());
}

TEST(AnalyzeDivisors, InitDivisorsAreChecked) {
  auto diags = check_divisors(
      parse("system p { var x : 0..2; init : 4 / x == 2; }"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, Rule::DivMaybeZero);
}

// --- pass 4: liveness ------------------------------------------------

TEST(AnalyzeLiveness, FlagsUnusedWriteOnlyAndNeverWritten) {
  const std::string src =
      "system p {\n"
      "  var unused : 0..2;\n"
      "  var wonly : 0..2;\n"
      "  var frozen : 0..2;\n"
      "  var live : 0..2;\n"
      "  action a @0 : frozen == 1 && live == 0 -> wonly := 1, live := 1;\n"
      "}\n";
  auto diags = check_liveness(parse(src));
  ASSERT_EQ(diags.size(), 3u);
  const Diagnostic* unused = find_rule(diags, Rule::VarUnused);
  ASSERT_NE(unused, nullptr);
  EXPECT_EQ(unused->severity, Severity::Warning);
  EXPECT_EQ(unused->loc.line, 2);
  EXPECT_EQ(unused->loc.column, col_of(src, 2, "unused"));
  const Diagnostic* wonly = find_rule(diags, Rule::VarWriteOnly);
  ASSERT_NE(wonly, nullptr);
  EXPECT_EQ(wonly->loc.line, 3);
  const Diagnostic* frozen = find_rule(diags, Rule::VarNeverWritten);
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(frozen->severity, Severity::Note);
  EXPECT_EQ(frozen->loc.line, 4);
}

TEST(AnalyzeLiveness, InitReadsCount) {
  auto diags = check_liveness(
      parse("system p { var x : 0..2; action a @0 : true -> x := 1; init : x == 0; }"));
  EXPECT_TRUE(diags.empty());
}

TEST(AnalyzeLiveness, ReadsUnderUnsatisfiableGuardsAreNotUses) {
  // `ghost` is only ever read inside a guard that is statically
  // unsatisfiable (live > 2 over 0..2), so the read can never execute.
  // Regression: the pass used to credit it and miss the dead variable.
  const std::string src =
      "system p {\n"
      "  var ghost : 0..2;\n"
      "  var live : 0..2;\n"
      "  action a @0 : live > 2 && ghost == 1 -> live := 0;\n"
      "  action b @0 : live < 2 -> live := live + 1;\n"
      "}\n";
  auto diags = check_liveness(parse(src));
  const Diagnostic* d = find_rule(diags, Rule::VarUnused);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->loc.line, 2);
}

TEST(AnalyzeLiveness, WritesUnderUnsatisfiableGuardsAreNotWrites) {
  // x's only writer can never fire, so reading it elsewhere must still
  // report the missing (reachable) writer.
  const std::string src =
      "system p {\n"
      "  var x : 0..2;\n"
      "  var y : 0..2;\n"
      "  action deadwr @0 : y > 2  -> x := 1;\n"
      "  action use    @0 : x == 1 -> y := 1;\n"
      "}\n";
  auto diags = check_liveness(parse(src));
  const Diagnostic* d = find_rule(diags, Rule::VarNeverWritten);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->loc.line, 2);
}

// --- pass 5: action hygiene ------------------------------------------

TEST(AnalyzeActions, DuplicateNamesWarnAtTheSecondDeclaration) {
  const std::string src =
      "system p {\n"
      "  var x : 0..2;\n"
      "  action a @0 : x == 0 -> x := 1;\n"
      "  action a @1 : x == 1 -> x := 2;\n"
      "}\n";
  auto diags = check_actions(parse(src));
  const Diagnostic* dup = find_rule(diags, Rule::ActionDuplicateName);
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->loc.line, 4);
  EXPECT_NE(dup->message.find("line 3"), std::string::npos);
}

TEST(AnalyzeActions, StutterActionIsFlagged) {
  const std::string src =
      "system p {\n"
      "  var x : 0..2;\n"
      "  action a @0 : x == 1 -> x := 1;\n"
      "}\n";
  auto diags = check_actions(parse(src));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, Rule::ActionStutter);
  EXPECT_EQ(diags[0].loc.line, 3);
  EXPECT_EQ(diags[0].loc.column, col_of(src, 3, "a @0"));
}

TEST(AnalyzeActions, ModuloIdentityStutterIsCaught) {
  // x := (x + 3) % 3 is the identity on 0..2 — provable only because
  // the analyzer applies the compiler's modular reduction.
  auto diags = check_actions(
      parse("system p { var x : 0..2; action a @0 : x >= 0 -> x := (x + 3) % 3; }"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, Rule::ActionStutter);
}

TEST(AnalyzeActions, NonSelfDisablingActionIsFlaggedWithWitness) {
  auto diags = check_actions(
      parse("system p { var x : 0..4; var y : 0..4;"
            "  action a @0 : x < 4 -> y := x; }"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, Rule::ActionNotSelfDisabling);
  EXPECT_NE(diags[0].message.find("e.g. from"), std::string::npos);
}

TEST(AnalyzeActions, SelfDisablingDijkstraMoveIsClean) {
  // The shape of every move in the 3-state ring: firing falsifies the guard.
  auto diags = check_actions(
      parse("system p { var c0 : 0..2; var c1 : 0..2;"
            "  action up @1 : c0 == (c1 + 1) % 3 -> c1 := c0; }"));
  EXPECT_TRUE(diags.empty());
}

TEST(AnalyzeActions, CrossProcessWriteInterferenceIsFlagged) {
  const std::string src =
      "system p {\n"
      "  var x : 0..2;\n"
      "  var y : 0..2;\n"
      "  action a @0 : x == 0 && y == 0 -> x := 1;\n"
      "  action b @1 : x == 1 -> x := 2, y := 1;\n"
      "}\n";
  auto diags = check_actions(parse(src));
  const Diagnostic* mw = find_rule(diags, Rule::VarMultiWriter);
  ASSERT_NE(mw, nullptr);
  EXPECT_EQ(mw->loc.line, 2);  // at the declaration of x
  EXPECT_NE(mw->message.find("{0, 1}"), std::string::npos);
  EXPECT_EQ(count_rule(diags, Rule::VarMultiWriter), 1u);  // y has one writer
}

TEST(AnalyzeActions, UnannotatedActionsDoNotCountAsWriters) {
  auto diags = check_actions(
      parse("system p { var x : 0..2;"
            "  action a : x == 0 -> x := 1;"
            "  action b : x == 1 -> x := 0; }"));
  EXPECT_EQ(count_rule(diags, Rule::VarMultiWriter), 0u);
}

// --- pass 6: init satisfiability -------------------------------------

TEST(AnalyzeInit, UnsatisfiableInitIsAnError) {
  const std::string src =
      "system p {\n"
      "  var x : 0..2;\n"
      "  action a @0 : x == 0 -> x := 1;\n"
      "  init : x == 1 && x == 2;\n"
      "}\n";
  auto diags = check_init(parse(src));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, Rule::InitUnsatisfiable);
  EXPECT_EQ(diags[0].severity, Severity::Error);
  EXPECT_EQ(diags[0].loc.line, 4);
  EXPECT_EQ(diags[0].loc.column, col_of(src, 4, "init"));
}

TEST(AnalyzeInit, SatisfiableInitAndMissingInitAreClean) {
  EXPECT_TRUE(check_init(parse("system p { var x : 0..2; init : x == 2; }")).empty());
  EXPECT_TRUE(
      check_init(parse("system w { var x : 0..2; action a @0 : x == 0 -> x := 1; }"))
          .empty());
}

// --- analyze(): merge, ordering, exit policy -------------------------

TEST(AnalyzeAll, FindingsComeBackInSourceOrderWithErrorsFirstAtATie) {
  auto diags = analyze(parse(
      "system p {\n"
      "  var x : 0..2;\n"
      "  action a @0 : x > 5 -> x := 0;\n"
      "  init : x == 1 && x == 2;\n"
      "}\n"));
  ASSERT_GE(diags.size(), 2u);
  for (std::size_t i = 1; i < diags.size(); ++i) {
    EXPECT_LE(diags[i - 1].loc.line, diags[i].loc.line);
  }
  EXPECT_TRUE(find_rule(diags, Rule::GuardAlwaysFalse) != nullptr);
  EXPECT_TRUE(find_rule(diags, Rule::InitUnsatisfiable) != nullptr);
}

TEST(AnalyzeAll, ShouldFailPolicy) {
  Diagnostic note{Rule::GuardAlwaysTrue, Severity::Note, {1, 1}, "m", ""};
  Diagnostic warning{Rule::AssignWraps, Severity::Warning, {1, 1}, "m", ""};
  Diagnostic error{Rule::InitUnsatisfiable, Severity::Error, {1, 1}, "m", ""};
  EXPECT_FALSE(should_fail({note}, false));
  EXPECT_FALSE(should_fail({note}, true));  // notes never fail, even --werror
  EXPECT_FALSE(should_fail({warning}, false));
  EXPECT_TRUE(should_fail({warning}, true));
  EXPECT_TRUE(should_fail({error}, false));
}

// --- renderers -------------------------------------------------------

TEST(DiagRender, TextFormatCarriesPositionSeverityAndRuleId) {
  Diagnostic d{Rule::AssignWraps, Severity::Warning, {7, 12}, "wraps", "use % 3"};
  std::string text = render_text({d}, "file.gcl");
  EXPECT_NE(text.find("file.gcl:7:12: warning: wraps [assign-wraps]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hint: use % 3"), std::string::npos);
  EXPECT_NE(text.find("1 warning(s)"), std::string::npos);
}

TEST(DiagRender, JsonIsWellFormedAndEscaped) {
  Diagnostic d{Rule::DivMaybeZero, Severity::Warning, {3, 9},
               "divisor \"y\"\ncan be 0", "guard it"};
  std::string json = render_json({d}, "a\\b.gcl");
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"rule\": \"div-maybe-zero\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("a\\\\b.gcl"), std::string::npos);
}

TEST(DiagRender, JsonOfRealFindingsIsWellFormed) {
  auto diags = analyze(parse(
      "system p { var x : 0..2; var u : 0..2;"
      "  action a @0 : x > 5 -> x := x + 7; init : x == 9; }"));
  EXPECT_FALSE(diags.empty());
  EXPECT_TRUE(valid_json(render_json(diags, "bad.gcl")));
}

TEST(DiagRender, ParseErrorDiagnosticRecoversThePosition) {
  Diagnostic d = parse_error_diagnostic("gcl: line 12:34: unexpected character '$'");
  EXPECT_EQ(d.rule, Rule::ParseError);
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.loc.line, 12);
  EXPECT_EQ(d.loc.column, 34);
  EXPECT_EQ(d.message, "unexpected character '$'");
  Diagnostic np = parse_error_diagnostic("cannot open foo.gcl");
  EXPECT_EQ(np.loc.line, 0);
  EXPECT_EQ(np.message, "cannot open foo.gcl");
}

// --- read/write sets -------------------------------------------------

TEST(ReadWriteSets, PerActionSetsAndInterferenceKeyOnProcesses) {
  ReadWriteReport rw = read_write_report(parse(
      "system p { var x : 0..2; var y : 0..2;"
      "  action a @0 : x == 0 -> y := x + 1;"
      "  action b @1 : y == 1 -> y := 0; }"));
  ASSERT_EQ(rw.actions.size(), 2u);
  EXPECT_EQ(rw.actions[0].reads, (std::vector<std::size_t>{0}));
  EXPECT_EQ(rw.actions[0].writes, (std::vector<std::size_t>{1}));
  EXPECT_EQ(rw.actions[1].reads, (std::vector<std::size_t>{1}));
  ASSERT_EQ(rw.vars.size(), 2u);
  EXPECT_EQ(rw.vars[1].writer_processes, (std::vector<int>{0, 1}));
  EXPECT_EQ(rw.vars[0].reader_processes, (std::vector<int>{0}));
}

TEST(ReadWriteSets, JsonRenderingIsWellFormedAndSpliceable) {
  SystemAst ast = parse(
      "system p { var x : 0..2; var y : 0..2;"
      "  action a @0 : x == 0 -> y := x + 1;"
      "  action b : y == 1 -> y := 0; }");
  const std::string sets = render_read_write_report_json(ast);
  // The member itself embeds in a document and the spliced document
  // (the gcl_lint --format=json --sets output) stays valid JSON.
  EXPECT_TRUE(valid_json("{" + sets + "}")) << sets;
  const std::string doc = render_json(analyze(ast), "p.gcl", sets);
  EXPECT_TRUE(valid_json(doc)) << doc;
  EXPECT_NE(doc.find("\"sets\": {"), std::string::npos);
  EXPECT_NE(doc.find("\"diagnostics\": ["), std::string::npos);
  // Names, not indices; unannotated process is -1.
  EXPECT_NE(sets.find("\"writes\": [\"y\"]"), std::string::npos) << sets;
  EXPECT_NE(sets.find("\"process\": -1"), std::string::npos) << sets;
  EXPECT_NE(sets.find("\"cross_process_write_interference\": false"),
            std::string::npos)
      << sets;
  // An empty extra member degrades to the plain two-argument document.
  EXPECT_EQ(render_json(analyze(ast), "p.gcl", ""), render_json(analyze(ast), "p.gcl"));
}

// --- golden: every shipped example is lint-clean ---------------------

TEST(AnalyzeGolden, ShippedExamplesAreLintClean) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(CREF_SOURCE_DIR) / "examples" / "gcl";
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".gcl") continue;
    std::ifstream in(entry.path());
    std::ostringstream ss;
    ss << in.rdbuf();
    auto diags = analyze(parse(ss.str()));
    EXPECT_TRUE(diags.empty()) << render_text(diags, entry.path().string());
    ++checked;
  }
  EXPECT_GE(checked, 2);
}

}  // namespace
}  // namespace cref::gcl
