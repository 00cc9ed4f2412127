//! # ysmart-rel — relational base layer
//!
//! This crate provides the data model shared by every other crate in the
//! YSmart workspace:
//!
//! * [`Value`] / [`DataType`] — the dynamically-typed scalar values that flow
//!   through plans, MapReduce jobs and result sets;
//! * [`Row`] / [`Schema`] — tuples and their named, typed descriptions;
//! * [`Expr`] — a *resolved* scalar expression IR (columns are positional
//!   indexes, not names) together with its evaluator;
//! * [`AggFunc`] / [`AggState`] — the aggregate functions of the paper's SQL
//!   subset (`count`, `count(distinct)`, `sum`, `avg`, `min`, `max`) as
//!   incremental accumulators;
//! * [`codec`] — the pipe-delimited text codec used for "raw data files" in
//!   the simulated HDFS, mirroring TPC-H `.tbl` files;
//! * [`colbatch`] — typed columnar batches with a checksummed binary frame
//!   codec, the wire format of the columnar data path;
//! * [`sort`] — sort-key comparators.
//!
//! The crate is dependency-free and purely computational; everything here is
//! deterministic.

pub mod agg;
pub mod codec;
pub mod colbatch;
pub mod error;
pub mod expr;
pub mod row;
pub mod schema;
pub mod sort;
pub mod value;

pub use agg::{AggFunc, AggState};
pub use colbatch::{Column, ColumnBatch};
pub use error::RelError;
pub use expr::{BinOp, Columns, Expr, UnOp};
pub use row::Row;
pub use schema::{Field, Schema};
pub use sort::{SortKey, SortOrder};
pub use value::{DataType, Value};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, RelError>;
