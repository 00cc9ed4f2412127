//! The `ysmart` binary as a user runs it: a bad flag is a usage error with
//! exit status 1, never an abort, and a query that fails is its error
//! alone, with the same status.

use std::process::Command;

/// A worker count outside `1..=10000` is refused before any cluster state
/// is built: zero would run a one-slot cluster, and a huge count used to
/// abort allocating per-node state.
#[test]
fn out_of_range_ec2_worker_counts_are_usage_errors() {
    for n in ["0", "10001", "100000000000"] {
        let out = Command::new(env!("CARGO_BIN_EXE_ysmart"))
            .args(["--demo", "--cluster", &format!("ec2:{n}"), "--explain"])
            .arg("SELECT uid FROM clicks")
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "ec2:{n}: {stderr}");
        assert!(
            stderr.contains(&format!("bad ec2 worker count `{n}`")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: ysmart"), "{stderr}");
        assert!(out.stdout.is_empty(), "ec2:{n} ran");
    }
}

/// A data volume past `MAX_TARGET_GB` is refused: scaled up from the demo
/// tables, `1e300` GB once overflowed the size multiplier and printed
/// `simulated infs`.
#[test]
fn an_overflowing_target_volume_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_ysmart"))
        .args(["--demo", "--target-gb", "1e300"])
        .arg("SELECT cid, count(*) FROM clicks GROUP BY cid")
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("bad --target-gb value"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A float product past `f64`'s range fails the query with a typed overflow
/// error and exit status 1, not as ``cannot decode `inf` as FLOAT`` in the
/// result decoder.
#[test]
fn a_float_overflow_names_the_overflow() {
    let product = format!("ts{}", " * 1000000000.0".repeat(36));
    let out = Command::new(env!("CARGO_BIN_EXE_ysmart"))
        .arg("--demo")
        .arg(format!(
            "SELECT cid, sum({product}) FROM clicks GROUP BY cid"
        ))
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("overflow"), "{stderr}");
    assert!(!stderr.contains("decode"), "{stderr}");
}

/// A query that fails at run time is no usage error: its message alone,
/// exit status 1 — the usage text is for a command line that does not
/// parse.
#[test]
fn a_failing_query_prints_its_error_without_the_usage_text() {
    let out = Command::new(env!("CARGO_BIN_EXE_ysmart"))
        .args(["--demo", "SELECT cid, ts / 0 FROM clicks"])
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("division by zero"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

fn demo_query(sql: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ysmart"))
        .args(["--demo", sql])
        .output()
        .expect("runs")
}

/// The result rows a demo query printed, sorted: header and summary dropped.
fn sorted_rows(out: &std::process::Output) -> Vec<String> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut rows: Vec<String> = stdout
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with("--"))
        .map(str::to_string)
        .collect();
    rows.sort();
    rows
}

/// SQL nested past the parser's budget is a typed parse error with exit
/// status 1; each of these once overflowed the stack and aborted.
#[test]
fn sql_nested_past_the_budget_is_a_parse_error() {
    for sql in [
        format!(
            "SELECT cid FROM clicks WHERE {}cid = 1{}",
            "(".repeat(10_000),
            ")".repeat(10_000)
        ),
        format!(
            "SELECT cid FROM clicks WHERE {}cid = 1",
            "NOT ".repeat(30_000)
        ),
    ] {
        let out = demo_query(&sql);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("parse error"), "{stderr}");
        assert!(stderr.contains("deeper than 256 levels"), "{stderr}");
    }
}

/// `IN` desugars to a balanced `OR` tree, 16 levels deep for 20 000 items
/// (a list that once aborted as a 20 000-deep chain): it answers what the
/// equivalent range answers, and so does `NOT IN`.
#[test]
fn long_in_lists_answer_like_the_range_they_hold() {
    for n in [2_000, 20_000] {
        // uid 0..25 in reverse among values no click has.
        let list: Vec<String> = (0..25)
            .rev()
            .chain(1_000..1_000 + n - 25)
            .map(|v| v.to_string())
            .collect();
        let list = list.join(",");
        for (member, range) in [("IN", "uid < 25"), ("NOT IN", "uid >= 25")] {
            let got = demo_query(&format!(
                "SELECT uid, ts FROM clicks WHERE uid {member} ({list})"
            ));
            let want = demo_query(&format!("SELECT uid, ts FROM clicks WHERE {range}"));
            assert_eq!(got.status.code(), Some(0), "{n} {member}");
            assert!(!sorted_rows(&want).is_empty());
            assert_eq!(sorted_rows(&got), sorted_rows(&want), "{n} {member}");
        }
    }
}

/// `ysmart serve` rejects a too-deep line alone and answers the rest of
/// its batch: a derived table nested 8 000 deep and a 100 000-term `+`
/// chain each once aborted the service and every tenant's work with it.
#[test]
fn serve_rejects_too_deep_lines_and_answers_the_rest() {
    use std::io::Write;
    let derived = format!(
        "SELECT cid FROM {}clicks{}",
        "(SELECT cid FROM ".repeat(8_000),
        ") AS s".repeat(8_000)
    );
    let chain = format!("SELECT cid{} FROM clicks", " + cid".repeat(100_000));
    let mut child = Command::new(env!("CARGO_BIN_EXE_ysmart"))
        .args(["serve", "--demo"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("runs");
    let input = format!(
        "SELECT cid, count(*) AS n FROM clicks GROUP BY cid\n{derived}\n{chain}\n!run\n!quit\n"
    );
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(
        stdout.matches("deeper than 256 levels").count(),
        2,
        "{stdout}"
    );
    assert!(stdout.contains("ok q0 default/q0: 10 row(s)"), "{stdout}");
}

/// `(a AND b) AND (c AND ...)` over `n` copies of `cid >= 0`.
fn balanced_conjunction(n: usize) -> String {
    if n == 1 {
        return "cid >= 0".to_string();
    }
    format!(
        "({} AND {})",
        balanced_conjunction(n / 2),
        balanced_conjunction(n - n / 2)
    )
}

/// Feeds one query and `!run` to `ysmart serve --demo` on stdin (a line
/// this long does not fit in one argument) and returns its result rows,
/// sorted.
fn served_rows(sql: &str) -> Vec<String> {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ysmart"))
        .args(["serve", "--demo"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("runs");
    let input = format!("{sql}\n!run\n!quit\n");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let mut lines = stdout.lines().skip_while(|l| !l.starts_with("ok q0 "));
    assert!(lines.next().is_some(), "no answer: {stdout}");
    let mut rows: Vec<String> = lines
        .skip(1)
        .take_while(|l| !l.starts_with("stopped:"))
        .map(str::to_string)
        .collect();
    rows.sort();
    rows
}

/// A `WHERE` of 40 000 terms ANDed as a balanced tree parses shallow, and
/// the planner keeps it shallow: `ysmart serve` answers it like the one
/// term. Past ≈ 30 000 terms in a debug build, this once overflowed the
/// stack at admission and aborted the service.
#[test]
fn serve_answers_a_long_balanced_where_like_its_one_term() {
    let want = served_rows("SELECT cid FROM clicks WHERE cid >= 0");
    assert!(!want.is_empty());
    let got = served_rows(&format!(
        "SELECT cid FROM clicks WHERE {}",
        balanced_conjunction(40_000)
    ));
    assert!(got == want, "{} row(s), want {}", got.len(), want.len());
}

/// The same `WHERE` over a derived table, where each conjunct is a
/// `Filter` of its own that translation folds into one predicate: this
/// was admitted, then aborted the service at `!run`.
#[test]
fn serve_answers_a_long_balanced_where_over_a_derived_table() {
    let want = served_rows("SELECT cid FROM clicks WHERE cid >= 0");
    let got = served_rows(&format!(
        "SELECT cid FROM (SELECT cid FROM clicks) AS s WHERE {}",
        balanced_conjunction(40_000)
    ));
    assert!(!want.is_empty());
    assert!(got == want, "{} row(s), want {}", got.len(), want.len());
}

/// A fresh directory holding `schema.sql` and `data/<table>.tbl` files.
struct Fixture(std::path::PathBuf);

impl Fixture {
    fn new(name: &str, ddl: &str, tables: &[(&str, &str)]) -> Fixture {
        let dir = std::env::temp_dir().join(format!("ysmart-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("data")).unwrap();
        std::fs::write(dir.join("schema.sql"), ddl).unwrap();
        for (table, rows) in tables {
            std::fs::write(dir.join("data").join(format!("{table}.tbl")), rows).unwrap();
        }
        Fixture(dir)
    }

    fn query(&self, sql: &str) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_ysmart"))
            .arg("--catalog")
            .arg(self.0.join("schema.sql"))
            .arg("--data")
            .arg(self.0.join("data"))
            .arg(sql)
            .output()
            .expect("runs")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `--data` row with a field too many, a field too few, or a value its
/// column's type cannot hold fails the query with the count of skipped
/// records, against the CLI's bad-record budget of 0.
#[test]
fn malformed_data_rows_fail_the_query_with_their_count() {
    for (case, rows) in [
        ("extra", "1|x\n2|y|extra\n"),
        ("missing", "1|x\n3\n"),
        ("notanint", "1|x\nnotanint|z\n"),
    ] {
        let fx = Fixture::new(case, "CREATE TABLE t (a INT, b STRING);", &[("t", rows)]);
        let out = fx.query("SELECT a, b FROM t");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
        assert!(
            stderr.contains("skipped 1 malformed records, budget 0"),
            "{case}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{case} answered");
    }
}

/// A field is parsed only when the query reads its column, so a value its
/// type cannot hold fails the query only there. `c` is carried by no job of
/// the first query: it answers. The second sums `c`: it fails as above.
#[test]
fn a_malformed_field_fails_only_a_query_that_reads_its_column() {
    let fx = Fixture::new(
        "lazy",
        "CREATE TABLE t (a INT, b STRING, c INT);\nCREATE TABLE u (a INT, b INT);",
        &[
            ("t", "1|x|5\n2|y|notanint\n1|z|7\n"),
            ("u", "notanint|1\n2|3\n"),
        ],
    );
    let out = fx.query("SELECT a, count(*) AS n FROM t GROUP BY a ORDER BY a");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1|2\n2|1\n"), "{stdout}");

    let out = fx.query("SELECT a, sum(c) AS s FROM t GROUP BY a");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("skipped 1 malformed records, budget 0"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "answered");

    // A query that reads no column still carries a table's first one, so
    // its field is parsed: `count(*)` answers over `t` and fails over `u`.
    let out = fx.query("SELECT count(*) AS n FROM t");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let out = fx.query("SELECT count(*) AS n FROM u");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("skipped 1 malformed records, budget 0"),
        "{stderr}"
    );
}

/// `--explain` names the columns each job input carries.
#[test]
fn explain_lists_the_columns_each_input_carries() {
    let out = Command::new(env!("CARGO_BIN_EXE_ysmart"))
        .args(["--demo", "--explain"])
        .arg("SELECT cid, count(*) FROM clicks WHERE ts > 3 GROUP BY cid")
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    // `ts` is read by the scan's predicate alone, `uid` and `page_id` by
    // nothing.
    assert!(
        stdout.contains("    carries data/clicks: cid\n"),
        "{stdout}"
    );
}

/// A schema file that stops inside `DECIMAL(` is a syntax error reported
/// against the file, with the line and column where it was found.
#[test]
fn an_unterminated_catalog_is_a_positioned_syntax_error() {
    let fx = Fixture::new(
        "unterminated",
        "CREATE TABLE t (\n  a INT,\n  b DECIMAL(15,\n",
        &[("t", "1|2.5\n")],
    );
    let out = fx.query("SELECT a FROM t");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let schema = fx.0.join("schema.sql");
    assert_eq!(
        stderr,
        format!(
            "ysmart: {}: parse error at line 4, column 1: expected `)`, found <eof>\n",
            schema.display()
        )
    );
}

/// A table of 200 000 columns parses and answers: nothing in the schema
/// path recurses per column or compares every column with every other.
#[test]
fn a_200_000_column_table_parses_and_answers() {
    let n = 200_000;
    let columns: Vec<String> = (0..n).map(|i| format!("c{i} INT")).collect();
    let row: Vec<String> = (0..n).map(|i| i.to_string()).collect();
    let fx = Fixture::new(
        "wide",
        &format!("CREATE TABLE w ({});", columns.join(", ")),
        &[("w", &format!("{}\n", row.join("|")))],
    );
    let out = fx.query("SELECT c0, c199999 FROM w");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("c0|c199999\n0|199999\n"), "{stdout}");
}

/// Malformed `@tenant` lines and an unknown tenant's megabyte name are each
/// refused at admission, echoed no longer than a short prefix, and the rest
/// of the stream is answered.
#[test]
fn serve_refuses_malformed_tenant_lines_and_answers_the_rest() {
    use std::io::Write;
    let long = "x".repeat(1_000_000);
    let input = format!(
        "@\n@ SELECT cid FROM clicks\n@default\n@{long} SELECT cid FROM clicks\n@{long}\n\
         SELECT cid, count(*) AS n FROM clicks GROUP BY cid\n!run\n!quit\n"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_ysmart"))
        .args(["serve", "--demo"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    let refused: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("err admission: "))
        .collect();
    assert_eq!(refused.len(), 5, "{refused:?}");
    for (line, what) in refused.iter().zip([
        "malformed @tenant prefix in \"@\"",
        "malformed @tenant prefix in \"@ SELECT cid FROM clicks\"",
        "malformed @tenant prefix in \"@default\"",
        "unknown tenant \"xxxx",
        "malformed @tenant prefix in \"@xxxx",
    ]) {
        assert!(line.contains(what), "{line:.200}");
        assert!(line.len() < 200, "{} bytes echoed: {line:.200}", line.len());
    }
    assert!(refused[3].contains(&format!("\"{}…\"", "x".repeat(64))));
    assert!(
        stdout.contains("ok q0 default/q0: 10 row(s)"),
        "{stdout:.2000}"
    );
}
