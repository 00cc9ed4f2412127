//! # ysmart-plan — logical plans, partition keys and correlations
//!
//! This crate turns a parsed [`ysmart_sql::Query`] into a logical *query
//! plan tree* (§III of the paper) and computes the properties YSmart's
//! translation is built on:
//!
//! * **Partition keys** (§IV-A): for every shuffle-requiring node (join,
//!   aggregation, sort), the set of columns by which its MapReduce job
//!   partitions map output. Columns are tracked by *provenance* — the set of
//!   base-table columns a plan column is derived from — and equi-join
//!   predicates merge provenances, so `l_partkey` and `p_partkey` compare
//!   equal after `p_partkey = l_partkey` (paper footnote 3).
//! * **Correlations** (§IV): Input Correlation (two nodes read overlapping
//!   input relations), Transit Correlation (input correlation plus the same
//!   partition key) and Job Flow Correlation (a node shares its partition
//!   key with a child).
//! * **PK-candidate selection**: an aggregation with a multi-column `GROUP
//!   BY` may choose any non-empty subset as its partition key; YSmart picks
//!   the candidate that connects the maximal number of correlated nodes
//!   (§IV-A), implemented in [`correlation`].
//! * **Dead-column pruning**: [`prune()`] narrows every node to the columns
//!   some ancestor reads, moving no partition key; the translator compiles
//!   the pruned plan.
//!
//! The plan is an arena ([`Plan`]) of [`NodeData`] so that nodes have stable
//! [`NodeId`]s — the correlation report and the job generator in
//! `ysmart-core` refer to nodes by id.

pub mod builder;
pub mod catalog;
pub mod correlation;
pub mod ddl;
pub mod error;
pub mod node;
pub mod pk;
pub mod prune;
pub mod stats;

pub use builder::build_plan;
pub use catalog::Catalog;
pub use correlation::{analyze, analyze_with_stats, CorrelationReport};
pub use error::PlanError;
pub use node::{AggCall, JoinKind, NodeData, NodeId, Operator, Plan};
pub use pk::{InputRel, PartitionKey, PkColumn};
pub use prune::prune;
pub use stats::{Statistics, TableStats};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PlanError>;
