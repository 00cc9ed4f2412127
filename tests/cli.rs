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
