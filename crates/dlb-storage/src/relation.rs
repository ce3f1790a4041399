//! Relation definitions.
//!
//! The workload generator of the paper (§5.1.2) draws relation cardinalities
//! from three size classes: small (10 K–20 K tuples), medium (100 K–200 K) and
//! large (1 M–2 M). A [`RelationDef`] records the logical description of a
//! base relation: its name, cardinality, size class and the skew of its join
//! attribute, from which partition and bucket layouts are derived.

use dlb_common::config::CostConstants;
use dlb_common::RelationId;
use serde::{Deserialize, Serialize};

/// The three cardinality classes of the paper's workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SizeClass {
    /// 10 000 – 20 000 tuples.
    Small,
    /// 100 000 – 200 000 tuples.
    Medium,
    /// 1 000 000 – 2 000 000 tuples.
    Large,
}

impl SizeClass {
    /// Inclusive cardinality range of this class at full (paper) scale.
    pub fn range(self) -> (u64, u64) {
        match self {
            SizeClass::Small => (10_000, 20_000),
            SizeClass::Medium => (100_000, 200_000),
            SizeClass::Large => (1_000_000, 2_000_000),
        }
    }

    /// All classes, in increasing size order.
    pub fn all() -> [SizeClass; 3] {
        [SizeClass::Small, SizeClass::Medium, SizeClass::Large]
    }
}

/// Logical definition of a base relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationDef {
    /// Identifier of the relation.
    pub id: RelationId,
    /// Human-readable name ("R0", "R1", ... in generated workloads).
    pub name: String,
    /// Number of tuples.
    pub cardinality: u64,
    /// Size class the cardinality was drawn from.
    pub size_class: SizeClass,
    /// Skew factor (Zipf theta) of the join-attribute value distribution.
    /// Zero means uniform. This drives attribute-value and redistribution
    /// skew downstream.
    pub attribute_skew: f64,
}

impl RelationDef {
    /// Creates a relation definition with a uniform join attribute.
    pub fn new(
        id: RelationId,
        name: impl Into<String>,
        cardinality: u64,
        class: SizeClass,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            cardinality,
            size_class: class,
            attribute_skew: 0.0,
        }
    }

    /// Sets the attribute skew factor (builder style).
    pub fn with_skew(mut self, theta: f64) -> Self {
        self.attribute_skew = theta;
        self
    }

    /// Size of the relation in bytes, under the given cost constants.
    pub fn bytes(&self, costs: &CostConstants) -> u64 {
        costs.bytes_for_tuples(self.cardinality)
    }

    /// Size of the relation in 8 KB pages, under the given cost constants.
    pub fn pages(&self, costs: &CostConstants) -> u64 {
        costs.pages_for_tuples(self.cardinality)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_ranges_match_paper() {
        assert_eq!(SizeClass::Small.range(), (10_000, 20_000));
        assert_eq!(SizeClass::Medium.range(), (100_000, 200_000));
        assert_eq!(SizeClass::Large.range(), (1_000_000, 2_000_000));
        assert_eq!(SizeClass::all().len(), 3);
    }

    #[test]
    fn relation_def_sizes() {
        let costs = CostConstants::default();
        let r = RelationDef::new(RelationId::new(0), "R", 81 * 10, SizeClass::Small);
        assert_eq!(r.bytes(&costs), 81_000);
        assert_eq!(r.pages(&costs), 10);
        assert_eq!(r.attribute_skew, 0.0);
        let skewed = r.with_skew(0.8);
        assert_eq!(skewed.attribute_skew, 0.8);
    }
}
