//! Correctness, outside every timed region: each answer the program gave is
//! compared with `queries::oracle_execute` on the same generated tables.

use std::collections::BTreeMap;

use ysmart::core::{self, Strategy};
use ysmart::plan::build_plan;
use ysmart::queries::{oracle_execute, rows_approx_equal};
use ysmart::rel::codec::decode_line;
use ysmart::rel::{Row, Schema};

use crate::cycle::{Answer, Rows};
use crate::translate::{same_translation, Catalogs, Reference, TAG};
use crate::workloads::{QueryText, Spec};

/// The oracle's rows for one SQL text, with the plan's output schema.
struct Expected {
    rows: Vec<Row>,
    schema: Schema,
}

pub struct Verifier<'a> {
    queries: &'a [QueryText],
    catalogs: Catalogs,
    tables: BTreeMap<String, Vec<Row>>,
    /// Per query, the oracle's answer — computed once per distinct text.
    expected: Vec<Option<Expected>>,
}

impl<'a> Verifier<'a> {
    /// Regenerates the workload's tables from the seed (the generators are
    /// deterministic, so these are the rows the program was given).
    pub fn new(spec: &Spec, seed: u64, queries: &'a [QueryText]) -> Self {
        let mut tables = BTreeMap::new();
        if spec.tpch_scale > 0.0 {
            let db = spec.tpch(seed);
            for (name, rows) in db.tables() {
                tables.insert(name.to_string(), rows.to_vec());
            }
        }
        if spec.click_users > 0 {
            tables.insert("clicks".to_string(), spec.clicks(seed));
        }
        Verifier {
            queries,
            catalogs: Catalogs::new(),
            tables,
            expected: queries.iter().map(|_| None).collect(),
        }
    }

    fn expected(&mut self, query: usize) -> Result<&Expected, String> {
        if self.expected[query].is_none() {
            let q = &self.queries[query];
            let parsed = ysmart::sql::parse(&q.sql).map_err(|e| e.to_string())?;
            let plan = build_plan(self.catalogs.of(q.db), &parsed).map_err(|e| e.to_string())?;
            let out = oracle_execute(&plan, &self.tables).map_err(|e| e.to_string())?;
            self.expected[query] = Some(Expected {
                rows: out.rows,
                schema: plan.node(plan.root()).schema.clone(),
            });
        }
        Ok(self.expected[query].as_ref().expect("just filled"))
    }

    /// `Err` says why the answer is wrong.
    pub fn check(&mut self, answer: &Answer) -> Result<(), String> {
        let q = &self.queries[answer.query];
        let (name, ordered) = (q.name, q.ordered);
        let expected = self.expected(answer.query)?;
        let decoded;
        let rows = match &answer.rows {
            Rows::Typed(rows) => rows,
            Rows::Lines(lines) => {
                decoded = lines
                    .iter()
                    .map(|l| decode_line(l, &expected.schema))
                    .collect::<Result<Vec<Row>, _>>()
                    .map_err(|e| format!("{name}: undecodable result line: {e}"))?;
                &decoded
            }
        };
        if rows_approx_equal(rows, &expected.rows, ordered) {
            Ok(())
        } else {
            Err(format!(
                "{name}: {} row(s) returned, oracle has {}; rows differ",
                rows.len(),
                expected.rows.len()
            ))
        }
    }
}

/// Verifies the `translate` workload. A translation is correct when running
/// it gives the oracle's rows, so each (query, strategy) pair is translated
/// and run once on the small database the first cycle set up; the run's
/// reference sweep — which every timed sweep was compared with — must then
/// equal those verified translations, blueprint for blueprint. Returns what
/// failed.
pub fn check_translations(mut verifier: Verifier<'_>, reference: &mut Reference) -> Vec<String> {
    let Reference {
        sweep,
        engines: Some(engines),
    } = reference
    else {
        return vec!["no cycle set up the engines to verify on".to_string()];
    };
    let queries = verifier.queries;

    let mut failures = Vec::new();
    let mut slot = 0;
    for (qi, q) in queries.iter().enumerate() {
        for strategy in Strategy::all() {
            let what = format!("{} under {strategy}", q.name);
            let engine = engines.of(q.db);
            let verdict = core::translate(engine.catalog(), &q.sql, strategy, TAG)
                .and_then(|t| Ok((engine.execute_translation(&t)?, t)))
                .map_err(|e| e.to_string())
                .and_then(|(out, t)| {
                    verifier.check(&Answer {
                        query: qi,
                        rows: Rows::Typed(out.rows),
                    })?;
                    Ok(t)
                });
            match verdict {
                Ok(verified) => {
                    if !sweep
                        .get(slot)
                        .is_some_and(|t| same_translation(t, &verified))
                    {
                        failures.push(format!(
                            "{what}: the timed sweeps compiled something else than what was verified"
                        ));
                    }
                }
                Err(e) => failures.push(format!("{what}: {e}")),
            }
            slot += 1;
        }
    }
    failures
}
