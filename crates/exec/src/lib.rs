//! # ysmart-exec — primitive job types and the Common MapReduce Framework
//!
//! This crate turns *physical job blueprints* into executable
//! [`ysmart_mapred::JobSpec`]s. It implements both:
//!
//! * the four **primitive job types** of §V-A — SELECTION-PROJECTION
//!   (map-only), AGGREGATION (with optional map-side combiner, Hive's
//!   footnote-2 optimisation), JOIN (including the self-join single-scan
//!   optimisation: two instances of the same table share one scan, with an
//!   instance tag in each map-output pair) and SORT (single-reducer total
//!   order, as Hive's `ORDER BY`);
//! * the **Common MapReduce Framework** of §VI — a [`CommonMapper`] that
//!   evaluates every merged job's selection on each raw record and emits
//!   *one* tagged pair carrying the union of the merged jobs' projections
//!   (the tag is the *inverted* visibility set: the streams that must NOT
//!   see the pair), and a [`CommonReducer`] that makes one pass over the
//!   values of a key, dispatches each value to the merged reducers
//!   (Algorithm 1), and then runs *post-job computations* — the per-key
//!   operator DAG that job-flow-correlation merging creates.
//!
//! The unit of composition is the [`JobBlueprint`]: a pure-data description
//! (expressions, schemas, operator specs) that is cheap to clone into the
//! per-task mapper/reducer factories the simulator requires.

mod aggregate;
mod batch;
pub mod blueprint;
pub mod colexpr;
pub mod combiner;
pub mod error;
pub mod mapper;
pub mod reducer;
pub mod rowop;

pub use blueprint::{
    EmitSpec, InputSpec, JobBlueprint, MapBranch, OpKind, ROp, RSource, StreamSpec,
};
pub use combiner::AggCombiner;
pub use error::ExecError;
pub use mapper::CommonMapper;
pub use reducer::CommonReducer;
pub use rowop::RowOp;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, ExecError>;
