//! # dlb-storage
//!
//! Relation storage for the hierdb workspace: relation definitions,
//! horizontal hash partitioning of relations across SM-nodes and disks, data
//! placement (relation *homes*) and the re-homing of displaced work after a
//! node failure.
//!
//! The paper's evaluation does not depend on relation *content*: partition
//! sizes (possibly skewed) are what drive execution, so relations are
//! described **statistically** — cardinalities split into per-node
//! partitions, with optional Zipf skew.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod partition;
pub mod rehome;
pub mod relation;

pub use partition::{PartitionLayout, RelationHome};
pub use rehome::{RehomeOutcome, RehomePolicy};
pub use relation::{RelationDef, SizeClass};
