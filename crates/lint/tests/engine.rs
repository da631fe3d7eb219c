//! Engine behavior tests: every guarantee of the old `xtask lint` scanner
//! (ported from its unit suite when the scanner was replaced by cm-lint),
//! plus the semantics only the new engine has — waiver auditing, path
//! scoping inside `lint_source`, and the deterministic JSON report.

use std::path::Path;

use cm_lint::report::report_json;
use cm_lint::{all_rules, is_exempt_path, lint_source, LintConfig, STALE_WAIVER_RULE};

/// Rules reported for `source` under the given workspace-relative path.
fn rules_at(source: &str, path: &str) -> Vec<&'static str> {
    lint_source(source, Path::new(path), &LintConfig::repo_default())
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

/// Rules reported under a neutral (non-hot-path, non-par) library path.
fn rules_hit(source: &str) -> Vec<&'static str> {
    rules_at(source, "crates/demo/src/lib.rs")
}

#[test]
fn flags_each_banned_token() {
    assert_eq!(rules_hit("let x = y.unwrap();"), vec!["unwrap"]);
    assert_eq!(rules_hit("let x = y.expect(\"boom\");"), vec!["expect"]);
    assert_eq!(rules_hit("panic!(\"no\");"), vec!["panic"]);
    assert_eq!(rules_hit("todo!()"), vec!["todo"]);
    assert_eq!(rules_hit("unimplemented!()"), vec!["unimplemented"]);
    assert_eq!(rules_hit("unsafe { *p }"), vec!["unsafe"]);
    assert_eq!(rules_hit("dbg!(x);"), vec!["dbg"]);
    assert_eq!(rules_hit("println!(\"hi\");"), vec!["println"]);
    assert_eq!(rules_hit("std::thread::spawn(move || work());"), vec!["thread-spawn"]);
    assert_eq!(rules_hit("thread::scope(|s| { s.spawn(f); });"), vec!["thread-scope"]);
    assert_eq!(rules_hit("let t = std::time::Instant::now();"), vec!["instant-now"]);
    assert_eq!(rules_hit("let t = Instant::now();"), vec!["instant-now"]);
    assert_eq!(rules_hit("let t = SystemTime::now();"), vec!["systemtime-now"]);
    assert_eq!(rules_hit("let p = ParConfig::from_env();"), vec!["par-from-env"]);
    assert_eq!(rules_hit("let p = cm_par::ParConfig::from_env();"), vec!["par-from-env"]);
}

#[test]
fn fallible_siblings_do_not_match() {
    assert!(rules_hit("let x = y.unwrap_or(0);").is_empty());
    assert!(rules_hit("let x = y.unwrap_or_else(|| 0);").is_empty());
    assert!(rules_hit("let x = y.unwrap_or_default();").is_empty());
    assert!(rules_hit("let e = y.unwrap_err();").is_empty());
    assert!(rules_hit("let e = y.expect_err(\"want err\");").is_empty());
    assert!(rules_hit("eprintln!(\"diagnostic\");").is_empty());
    assert!(rules_hit("core::panicking();").is_empty());
    assert!(rules_hit("my_thread::spawn(f);").is_empty());
    assert!(rules_hit("let spawned = pool.spawn(f);").is_empty());
    assert!(rules_hit("let t = MyInstant::now_ish();").is_empty());
}

#[test]
fn strings_and_comments_do_not_match() {
    assert!(rules_hit("let s = \"call .unwrap() later\";").is_empty());
    assert!(rules_hit("// the docs mention panic!(...) here").is_empty());
    assert!(rules_hit("let url = \"https://x\"; // .expect( nothing").is_empty());
}

#[test]
fn allow_pragma_waives_same_line_and_next_line() {
    assert!(rules_hit("let x = y.unwrap(); // lint: allow(unwrap)").is_empty());
    assert!(rules_hit("// lint: allow(panic)\npanic!(\"invariant\");").is_empty());
    assert!(rules_hit("let t = Instant::now(); // lint: allow(instant-now)").is_empty());
    assert!(rules_hit("// lint: allow(systemtime-now)\nlet t = SystemTime::now();").is_empty());
    assert!(rules_hit("std::thread::spawn(f); // lint: allow(thread-spawn)").is_empty());
    // The waiver only covers one line: the second unwrap still reports.
    assert_eq!(
        rules_hit("// lint: allow(unwrap)\nlet a = b.unwrap();\nlet c = d.unwrap();"),
        vec!["unwrap"]
    );
}

#[test]
fn waiver_is_rule_specific_and_audited() {
    // A pragma for the wrong rule waives nothing: the real finding stays
    // AND the useless waiver is reported stale.
    let findings = lint_source(
        "let x = y.unwrap(); // lint: allow(expect)",
        Path::new("crates/demo/src/lib.rs"),
        &LintConfig::repo_default(),
    );
    let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"unwrap"));
    assert!(rules.contains(&STALE_WAIVER_RULE));
}

#[test]
fn stale_waiver_shapes() {
    // Suppresses nothing on its target line → stale.
    assert_eq!(rules_hit("// lint: allow(panic)\nlet x = 1;"), vec![STALE_WAIVER_RULE]);
    // Trailing pragma with no code after it waives nothing → stale.
    assert_eq!(rules_hit("let x = 1;\n// lint: allow(unwrap)"), vec![STALE_WAIVER_RULE]);
    // Multi-rule pragma: each listed rule is audited independently.
    let findings = lint_source(
        "// lint: allow(unwrap, panic)\nlet x = y.unwrap();",
        Path::new("crates/demo/src/lib.rs"),
        &LintConfig::repo_default(),
    );
    let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![STALE_WAIVER_RULE], "the panic half is stale, the unwrap half earns");
}

#[test]
fn pragmas_inside_test_regions_are_not_audited() {
    let source = "\
pub fn lib() {}

#[cfg(test)]
mod tests {
    // lint: allow(unwrap)
    fn helper() {}
}
";
    assert!(rules_hit(source).is_empty());
}

#[test]
fn cfg_test_blocks_are_exempt() {
    let source = "\
pub fn lib_code() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = Some(1).unwrap();
        panic!(\"fine in tests\");
    }
}

pub fn after_tests(v: Option<u32>) -> u32 {
    v.unwrap()
}
";
    let findings =
        lint_source(source, Path::new("crates/demo/src/lib.rs"), &LintConfig::repo_default());
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "unwrap");
    assert_eq!(findings[0].line, 13);
}

#[test]
fn table_row_access_is_flagged_and_waivable() {
    let hot = "crates/mining/src/apriori.rs";
    assert_eq!(rules_at("let r = table.row(i);", hot), vec!["table-row"]);
    assert_eq!(rules_at("let v = table.value(r, c);", hot), vec!["table-value"]);
    assert_eq!(rules_at("let r = self.table.row(i);", hot), vec!["table-row"]);
    // Boundary checks: different receiver, different method, or a
    // call-producing receiver never match.
    assert!(rules_at("let r = ftable.row(i);", hot).is_empty());
    assert!(rules_at("let r = table.rows();", hot).is_empty());
    assert!(rules_at("let r = frozen.table().row(i);", hot).is_empty());
    assert!(rules_at("let r = table.row_count;", hot).is_empty());
    // And the pragma waives it in place.
    assert!(rules_at("let r = table.row(i); // lint: allow(table-row)", hot).is_empty());
}

#[test]
fn path_scoping_inside_lint_source() {
    // table-* rules are off outside the hot-path crates.
    assert!(rules_at("let r = table.row(i);", "crates/orgsim/src/dataset.rs").is_empty());
    // The threading bans are off inside crates/par.
    assert!(rules_at("std::thread::spawn(f);", "crates/par/src/lib.rs").is_empty());
    assert!(rules_at("std::thread::scope(|s| {});", "crates/par/src/lib.rs").is_empty());
    // …but everything else still applies there.
    assert_eq!(rules_at("let x = y.unwrap();", "crates/par/src/lib.rs"), vec!["unwrap"]);
}

#[test]
fn exempt_paths() {
    assert!(is_exempt_path(Path::new("crates/foo/tests/properties.rs")));
    assert!(is_exempt_path(Path::new("crates/foo/benches/b.rs")));
    assert!(is_exempt_path(Path::new("crates/foo/src/bin/tool.rs")));
    assert!(is_exempt_path(Path::new("examples/quickstart.rs")));
    assert!(!is_exempt_path(Path::new("crates/foo/src/lib.rs")));
    assert!(!is_exempt_path(Path::new("crates/foo/src/inner/mod.rs")));
}

#[test]
fn seeded_violation_fixture_is_fully_caught() {
    let source = "\
pub fn f(v: Option<u32>) -> u32 {
    println!(\"starting\");
    dbg!(&v);
    let w = v.unwrap();
    let x = v.expect(\"must exist\");
    if w != x { panic!(\"mismatch\") }
    unsafe { std::hint::unreachable_unchecked() }
    todo!();
    unimplemented!()
}
";
    let mut rules = rules_hit(source);
    rules.sort_unstable();
    assert_eq!(
        rules,
        vec!["dbg", "expect", "panic", "println", "todo", "unimplemented", "unsafe", "unwrap"]
    );
}

#[test]
fn nondet_iteration_positive_and_negative() {
    let pos = "\
use std::collections::HashMap;
pub fn f(m: &HashMap<u32, u32>) -> u32 {
    m.values().sum()
}
";
    assert_eq!(rules_hit(pos), vec!["nondet-iteration"]);
    // Lookups and len are order-free; BTreeMap is ordered; a Vec of maps
    // iterates the Vec.
    let neg = "\
use std::collections::{BTreeMap, HashMap};
pub fn g(m: &HashMap<u32, u32>, b: &BTreeMap<u32, u32>, v: &[HashMap<u32, u32>]) -> u32 {
    let x = m.get(&1).copied().unwrap_or(0) + m.len() as u32;
    let y: u32 = b.values().sum();
    let z = v.iter().count() as u32;
    x + y + z
}
";
    assert!(rules_hit(neg).is_empty());
}

#[test]
fn float_ordering_positive_and_negative() {
    assert_eq!(
        rules_hit("v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Equal));"),
        vec!["float-ordering"]
    );
    assert_eq!(
        rules_hit("let m = xs.iter().copied().fold(0.0, f64::max);"),
        vec!["float-ordering"]
    );
    assert!(rules_hit("v.sort_by(|a, b| a.total_cmp(b));").is_empty());
    assert!(rules_hit("let m = f64::max(a, b);").is_empty(), "direct two-arg max is total");
    assert!(rules_hit("let m = xs.iter().copied().fold(0, i64::max);").is_empty());
}

#[test]
fn findings_and_json_report_are_deterministic() {
    let source = "let a = b.unwrap();\nlet c = d.expect(\"x\"); dbg!(c);";
    let path = Path::new("crates/demo/src/lib.rs");
    let cfg = LintConfig::repo_default();
    let findings = lint_source(source, path, &cfg);
    let positions: Vec<_> = findings.iter().map(|f| (f.line, f.col)).collect();
    let mut sorted = positions.clone();
    sorted.sort_unstable();
    assert_eq!(positions, sorted, "findings are ordered by position");
    // The report is byte-identical across runs and carries the counts.
    let a = report_json(&findings, 1).to_string_pretty();
    let b = report_json(&findings, 1).to_string_pretty();
    assert_eq!(a, b);
    assert!(a.contains("\"finding_count\": 3"));
    assert!(a.contains("\"files_scanned\": 1"));
    assert!(a.contains("\"tool\": \"cm-lint\""));
}

#[test]
fn all_rules_is_complete_and_stable() {
    let rules = all_rules();
    for r in ["unwrap", "thread-spawn", "table-row", "nondet-iteration", "float-ordering"] {
        assert!(rules.contains(&r), "missing {r}");
    }
    assert!(rules.contains(&STALE_WAIVER_RULE));
    let mut dedup = rules.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), rules.len(), "no duplicate rule names");
}
