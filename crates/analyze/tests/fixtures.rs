//! Self-test of the analyzer against its committed fixture tree (every
//! rule must fire, the waiver must be honored) and against the real
//! workspace (which must be clean — this is the same gate CI's
//! `static-analysis` job enforces via `cargo run -p cm_analyze`).

use std::path::PathBuf;

use cm_analyze::{
    analyze_root, Report, RULES, RULE_CT_SECRECY, RULE_EXEC_THREADS, RULE_LOCK_ACROSS_SUBMIT,
    RULE_METRIC_NAMES, RULE_NO_PANIC, RULE_SHIM_HYGIENE, RULE_SOCKET_STALL, RULE_UNSAFE_SITES,
    RULE_WIRE_TAGS,
};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn unwaived_rules(report: &Report) -> Vec<&'static str> {
    report.unwaived().iter().map(|v| v.rule).collect()
}

#[test]
fn every_rule_fires_on_the_fixture_tree() {
    let report = analyze_root(&fixtures_root()).expect("fixture tree is readable");
    let fired = unwaived_rules(&report);
    for rule in RULES {
        assert!(
            fired.contains(rule),
            "rule {rule} found nothing in the fixture tree; fired: {fired:?}"
        );
    }
}

#[test]
fn fixture_violations_carry_file_and_line() {
    let report = analyze_root(&fixtures_root()).expect("fixture tree is readable");
    for v in report.unwaived() {
        assert!(v.line >= 1, "{v} has no line");
        assert!(!v.file.is_empty(), "violation without a file");
        assert!(
            v.file.contains('/') && !v.file.contains('\\'),
            "{} is not a unix-style relative path",
            v.file
        );
    }
    // The known fixture sites, by rule.
    let has = |rule: &str, file: &str| {
        report
            .unwaived()
            .iter()
            .any(|v| v.rule == rule && v.file == file)
    };
    assert!(has(RULE_EXEC_THREADS, "crates/core/src/threads.rs"));
    assert!(has(RULE_NO_PANIC, "crates/server/src/panics.rs"));
    // The reactor crate is a serving path too…
    assert!(has(RULE_NO_PANIC, "crates/reactor/src/panics.rs"));
    // …but its event loop is the blessed non-exec thread: the raw
    // `thread::Builder` spawn in the fixture must NOT fire.
    assert!(!has(RULE_EXEC_THREADS, "crates/reactor/src/reactor.rs"));
    assert!(has(RULE_CT_SECRECY, "crates/server/src/secrecy_cmp.rs"));
    assert!(has(RULE_WIRE_TAGS, "crates/server/src/wire.rs"));
    // The raw tag pushed in an `impl Wire` body fires as well as the one
    // matched on in `decode`.
    assert!(report.unwaived().iter().any(|v| v.rule == RULE_WIRE_TAGS
        && v.message
            .contains("raw integer `9` used as a wire tag in `put`")));
    assert!(has(
        RULE_LOCK_ACROSS_SUBMIT,
        "crates/core/src/lock_submit.rs"
    ));
    assert!(has(RULE_SHIM_HYGIENE, "crates/server/Cargo.toml"));
    // A shim without a user fires; the one that manifest names does not.
    assert!(has(RULE_SHIM_HYGIENE, "shims/orphan/Cargo.toml"));
    assert!(!has(RULE_SHIM_HYGIENE, "shims/rand/Cargo.toml"));
    // Both halves of the metric-names rule: the duplicate in the table…
    assert!(has(
        RULE_METRIC_NAMES,
        "crates/telemetry/src/metric_names.rs"
    ));
    // …and the ad-hoc string literal outside it.
    assert!(has(RULE_METRIC_NAMES, "crates/server/src/metrics_adhoc.rs"));
    // All three stalls — the untuned dial, the untuned accept, the
    // header-then-payload writer — and none in the clean twin.
    let stalls = report
        .unwaived()
        .iter()
        .filter(|v| v.rule == RULE_SOCKET_STALL && v.file == "crates/server/src/stall.rs")
        .count();
    assert_eq!(stalls, 3);
    assert!(!report
        .violations
        .iter()
        .any(|v| v.file == "crates/server/src/no_stall.rs"));
    // `unsafe` in a file not allowed it fires though argued; in an
    // allowed file only the use without its `// SAFETY:` comment does.
    assert!(has(RULE_UNSAFE_SITES, "crates/core/src/unsafe_site.rs"));
    let unsafe_lines: Vec<usize> = report
        .unwaived()
        .iter()
        .filter(|v| v.rule == RULE_UNSAFE_SITES && v.file == "crates/hemath/src/ntt.rs")
        .map(|v| v.line)
        .collect();
    assert_eq!(unsafe_lines, [10]);
}

#[test]
fn fixture_waiver_is_counted_not_failed() {
    let report = analyze_root(&fixtures_root()).expect("fixture tree is readable");
    assert!(
        report.waived_count() >= 1,
        "the waived fixture spawn should be reported as waived"
    );
    let waived: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.waived.is_some())
        .collect();
    assert!(
        waived
            .iter()
            .any(|v| v.rule == RULE_EXEC_THREADS && v.file == "crates/core/src/threads.rs"),
        "expected the waived spawn in threads.rs, got {waived:?}"
    );
    // The same file still has its unwaived twin.
    assert!(report
        .unwaived()
        .iter()
        .any(|v| v.rule == RULE_EXEC_THREADS && v.file == "crates/core/src/threads.rs"));
}

#[test]
fn the_real_workspace_is_clean() {
    let report = analyze_root(&workspace_root()).expect("workspace tree is readable");
    let offending: Vec<String> = report.unwaived().iter().map(|v| v.to_string()).collect();
    assert!(
        offending.is_empty(),
        "workspace has unwaived violations:\n{}",
        offending.join("\n")
    );
    // A new waiver must edit this line and say why here.
    assert_eq!(report.waived_count(), 0, "the workspace carries no waiver");
}

#[test]
fn the_real_metric_name_table_parses_and_is_consistent() {
    let src =
        std::fs::read_to_string(workspace_root().join("crates/telemetry/src/metric_names.rs"))
            .expect("metric_names.rs is readable");
    let table = cm_analyze::metric_name_table(&src);
    assert!(
        table.len() >= 20,
        "expected the full metric catalog, parsed {} constants",
        table.len()
    );
    for c in &table {
        assert!(
            c.value.starts_with("cm_"),
            "metric `{}` = \"{}\" breaks the `cm_<layer>_<what>` convention",
            c.name,
            c.value
        );
        assert_eq!(
            table.iter().filter(|o| o.value == c.value).count(),
            1,
            "metric name \"{}\" appears more than once",
            c.value
        );
    }
}

#[test]
fn the_real_wire_registry_parses_and_is_consistent() {
    let wire = std::fs::read_to_string(workspace_root().join("crates/server/src/wire.rs"))
        .expect("wire.rs is readable");
    let table = cm_analyze::wire_tag_table(&wire);
    assert!(
        table.len() >= 30,
        "expected the full tag registry, parsed {} constants",
        table.len()
    );
    for family in ["REQ", "RESP", "ERR", "QUERY", "PHASE", "DECODE"] {
        assert!(
            table.iter().any(|c| c.family == family),
            "family {family} missing from the parsed registry"
        );
    }
    // Families are dense from zero: values 0..n with no gaps, which is
    // what keeps `_ => unknown tag` decode arms honest. The one exception
    // is a tag retired with its variant: it stays unknown and is never
    // declared again (error tags 4 and 17, the unserved baselines' window
    // and wire-database errors; 0, no index generator, and 3, a query
    // too long for a sharded search).
    let retired = [("ERR", 0), ("ERR", 3), ("ERR", 4), ("ERR", 17)];
    for family in ["REQ", "RESP", "ERR", "QUERY", "PHASE", "DECODE"] {
        let mut values: Vec<u64> = table
            .iter()
            .filter(|c| c.family == family)
            .map(|c| c.value)
            .chain(retired.iter().filter(|r| r.0 == family).map(|r| r.1))
            .collect();
        values.sort_unstable();
        let expected: Vec<u64> = (0..values.len() as u64).collect();
        assert_eq!(values, expected, "family {family} has gaps or duplicates");
    }
}
