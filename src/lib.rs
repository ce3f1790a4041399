//! # hierdb
//!
//! A Rust reproduction of *Bouganim, Florescu, Valduriez — "Dynamic Load
//! Balancing in Hierarchical Parallel Database Systems"* (VLDB 1996 / INRIA
//! RR-2815).
//!
//! The paper proposes **Dynamic Processing (DP)**: an execution model for
//! multi-join queries on hierarchical parallel database systems — a
//! shared-nothing cluster of shared-memory multiprocessor nodes (SM-nodes).
//! Query work is decomposed into self-contained *activations* placed in
//! per-(operator, thread) queues; any thread of a node can execute any
//! unblocked activation of that node, which maximizes intra- and
//! inter-operator load balancing locally and minimizes expensive inter-node
//! load sharing.
//!
//! This crate is the user-facing entry point and simply re-exports the
//! [`dlb_core`] facade; the implementation lives in the workspace crates:
//!
//! | crate | contents |
//! |---|---|
//! | `dlb-common` | identifiers, virtual time, configuration, Zipf skew |
//! | `dlb-sim` | discrete-event substrate (calendar, disks, network, CPU accounting) |
//! | `dlb-storage` | relation definitions, partitioning, re-homing after node failures |
//! | `dlb-query` | workload generator, cost model, bushy-tree optimizer, parallel plans |
//! | `dlb-exec` | the DP / FP / SP execution engines and global load balancing |
//! | `dlb-core` | high-level API: systems, workloads, experiments, summaries |
//! | `dlb-bench` | harnesses regenerating every figure of the paper |
//!
//! ## Quick start
//!
//! ```
//! use hierdb::{AdHocQuery, HierarchicalSystem, Strategy};
//!
//! let system = HierarchicalSystem::hierarchical(2, 4);
//! let plans = AdHocQuery::new("demo")
//!     .relation("orders", 30_000)
//!     .relation("customers", 5_000)
//!     .join("orders", "customers")
//!     .compile(&system)
//!     .unwrap();
//! let report = system.run(&plans[0], Strategy::dynamic()).unwrap();
//! println!("response time: {}", report.response_time);
//! ```
//!
//! ## Scenarios
//!
//! The paper's whole evaluation grid is driven by declarative, serializable
//! scenario specs (see [`scenario`]): every figure is a bundled spec, and new
//! sweeps are a builder call — or a JSON file for the `scenario` binary —
//! away:
//!
//! ```
//! use hierdb::scenario::{self, Axis};
//!
//! let spec = scenario::ScenarioSpec::builder("skew-mini")
//!     .machine(1, 2)
//!     .rows(Axis::Skew, [0.0, 0.5])
//!     .build()
//!     .unwrap()
//!     .with_generated_workload(1, 3, 0.005, 7);
//! let report = scenario::run_scenario(&spec).unwrap();
//! assert_eq!(report.points.len(), 2);
//! println!("{}", scenario::render_text(&report));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use dlb_core::*;

/// The workspace crates, re-exported for users who need lower-level access
/// (e.g. driving the simulator directly or building custom plans).
pub mod raw {
    pub use dlb_common as common;
    pub use dlb_exec as exec;
    pub use dlb_query as query;
    pub use dlb_sim as sim;
    pub use dlb_storage as storage;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_are_usable() {
        let system = HierarchicalSystem::shared_memory(2);
        assert_eq!(system.total_processors(), 2);
        let options = ExecOptions::builder().skew(0.2).min_steal_tuples(8).build();
        assert_eq!(options.steal.min_tuples, 8);
        let _params: WorkloadParams = WorkloadParams::default();
        assert!(scenario::find("fig6").is_some());
    }

    #[test]
    fn raw_module_exposes_workspace_crates() {
        let zipf = raw::common::ZipfDistribution::new(4, 0.5);
        assert_eq!(zipf.len(), 4);
        let q = raw::exec::ActivationQueue::new(2);
        assert!(q.is_empty());
    }
}
