//! The expression grammar, pinned by table: every pair of binary operators,
//! `NOT` and unary minus in each operand position, and every predicate tail
//! after every operator parse with the grouping this file's own precedence
//! table predicts. `Display` parenthesises every node, so a rendering shows
//! the grouping the parser chose.

use ysmart_sql::parse;

/// Binding strength: `OR` 1, `AND` 2, prefix `NOT` 3, comparisons 4,
/// `+ -` 5, `* /` 6, prefix `-` 7. Equal strengths group to the left;
/// comparisons do not chain.
const BINARY: [(&str, u8); 12] = [
    ("OR", 1),
    ("AND", 2),
    ("=", 4),
    ("<>", 4),
    ("<", 4),
    ("<=", 4),
    (">", 4),
    (">=", 4),
    ("+", 5),
    ("-", 5),
    ("*", 6),
    ("/", 6),
];
const NOT: u8 = 3;
const CMP: u8 = 4;

/// The rendered `WHERE` predicate, or the parse error's message.
fn predicate(sql: &str) -> Result<String, String> {
    parse(&format!("SELECT x FROM t WHERE {sql}"))
        .map(|q| q.where_clause.expect("has a WHERE").to_string())
        .map_err(|e| e.message)
}

fn bin(lhs: &str, op: &str, rhs: &str) -> String {
    format!("({lhs} {op} {rhs})")
}

fn check(sql: &str, want: Option<String>) {
    let got = predicate(sql);
    match want {
        Some(want) => assert_eq!(got, Ok(want), "{sql}"),
        None => assert!(got.is_err(), "{sql} parsed as {got:?}"),
    }
}

#[test]
fn every_pair_of_binary_operators_groups_by_the_table() {
    for (op1, p1) in BINARY {
        for (op2, p2) in BINARY {
            let want = if p1 == CMP && p2 == CMP {
                None
            } else if p1 >= p2 {
                Some(bin(&bin("a", op1, "b"), op2, "c"))
            } else {
                Some(bin("a", op1, &bin("b", op2, "c")))
            };
            check(&format!("a {op1} b {op2} c"), want);
        }
    }
}

#[test]
fn chained_comparisons_are_errors() {
    assert_eq!(
        predicate("a = b = c"),
        Err("expected end of input, found =".to_string())
    );
    assert_eq!(
        predicate("a < b >= c"),
        Err("expected end of input, found >=".to_string())
    );
}

#[test]
fn not_and_minus_in_each_operand_position() {
    for (op, p) in BINARY {
        // A leading NOT takes in everything that binds tighter than it.
        let want = if p > NOT {
            format!("(NOT {})", bin("a", op, "b"))
        } else {
            bin("(NOT a)", op, "b")
        };
        check(&format!("NOT a {op} b"), Some(want));
        // After an operator that binds tighter than NOT, `NOT` is no
        // prefix, and no column name either: an error.
        let want = (p < NOT).then(|| bin("a", op, "(NOT b)"));
        check(&format!("a {op} NOT b"), want);
        check(&format!("-a {op} b"), Some(bin("(-a)", op, "b")));
        check(&format!("a {op} -b"), Some(bin("a", op, "(-b)")));
        check(
            &format!("NOT -a {op} b"),
            Some(if p > NOT {
                format!("(NOT {})", bin("(-a)", op, "b"))
            } else {
                bin("(NOT (-a))", op, "b")
            }),
        );
    }
}

/// After an operator that binds tighter than `NOT`, `NOT` can neither start
/// a prefix nor be a column: the parse fails at it, in the select list and
/// in `WHERE` alike.
#[test]
fn a_not_after_a_tight_operator_parses_as_at_the_start() {
    let e = parse("SELECT a + NOT b FROM t").unwrap_err();
    assert_eq!(
        e.to_string(),
        "parse error at line 1, column 12: expected an expression, found `not`"
    );
    let e = parse("SELECT x FROM t WHERE a + NOT b").unwrap_err();
    assert_eq!(
        e.to_string(),
        "parse error at line 1, column 27: expected an expression, found `not`"
    );
}

/// How a predicate tail renders over its operand.
type Render = fn(&str) -> String;

/// Each predicate tail and how it renders over its operand `x`.
const TAILS: [(&str, Render); 6] = [
    ("IS NULL", |x| format!("({x} IS NULL)")),
    ("IS NOT NULL", |x| format!("({x} IS NOT NULL)")),
    ("BETWEEN c AND d", |x| {
        format!("(({x} >= c) AND ({x} <= d))")
    }),
    ("NOT BETWEEN c AND d", |x| {
        format!("(NOT (({x} >= c) AND ({x} <= d)))")
    }),
    ("IN (c, d)", |x| format!("(({x} = c) OR ({x} = d))")),
    ("NOT IN (c, d)", |x| {
        format!("(NOT (({x} = c) OR ({x} = d)))")
    }),
];

#[test]
fn every_tail_after_every_operator_groups_at_comparison_strength() {
    for (tail, render) in TAILS {
        check(&format!("a {tail}"), Some(render("a")));
        for (op, p) in BINARY {
            let want = if p > CMP {
                Some(render(&bin("a", op, "b")))
            } else if p == CMP {
                None
            } else {
                Some(bin("a", op, &render("b")))
            };
            check(&format!("a {op} b {tail}"), want);
            // A tail is a comparison: no second one follows it, even where
            // the first sits below a looser operator.
            check(&format!("a {op} b {tail} IS NULL"), None);
            check(&format!("a {op} b {tail} NOT IN (e)"), None);
            // Only AND and OR may follow a tail; BETWEEN's bound reads on.
            let want = if p < CMP {
                Some(bin(&render("a"), op, "b"))
            } else {
                None
            };
            if !tail.contains("BETWEEN") || p <= CMP {
                check(&format!("a {tail} {op} b"), want);
            }
        }
    }
}

#[test]
fn between_bounds_read_as_sums() {
    let between = |lo: &str, hi: &str| format!("((a >= {lo}) AND (a <= {hi}))");
    for (op, p) in BINARY {
        let want = if p > CMP {
            Some(between("b", &bin("c", op, "d")))
        } else if p == CMP {
            None
        } else {
            Some(bin(&between("b", "c"), op, "d"))
        };
        check(&format!("a BETWEEN b AND c {op} d"), want);
        let want = if p > CMP {
            Some(between(&bin("b", op, "c"), "d"))
        } else if op == "AND" {
            Some(bin(&between("b", "c"), "AND", "d"))
        } else {
            None
        };
        check(&format!("a BETWEEN b {op} c AND d"), want);
    }
}
