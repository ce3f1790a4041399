//! # dlb-core
//!
//! Public facade of the hierdb workspace: everything a downstream user needs
//! to set up a simulated hierarchical parallel database system, generate or
//! describe multi-join workloads, execute them under the three load-balancing
//! strategies of the paper (DP, FP, SP) and aggregate the results with the
//! paper's methodology.
//!
//! ```
//! use dlb_core::{AdHocQuery, HierarchicalSystem, Strategy};
//!
//! // A 2-node x 4-processor hierarchical system with the paper's hardware
//! // parameters.
//! let system = HierarchicalSystem::builder().nodes(2).processors_per_node(4).build();
//!
//! // An ad-hoc 3-relation join query.
//! let query = AdHocQuery::new("triangle")
//!     .relation("customers", 20_000)
//!     .relation("orders", 60_000)
//!     .relation("lineitems", 90_000)
//!     .join("customers", "orders")
//!     .join("orders", "lineitems");
//!
//! let report = system.run(&query.compile(&system).unwrap()[0], Strategy::dynamic()).unwrap();
//! assert!(report.response_time.as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adhoc;
pub mod experiment;
pub mod scenario;
pub mod summary;
pub mod system;
pub mod workload;

pub use adhoc::AdHocQuery;
pub use dlb_common::config::{CostConstants, CpuParams, DiskParams, NetworkParams, SystemConfig};
pub use dlb_common::{Duration, SimTime};
pub use dlb_exec::mix::{MixJob, MixMode, MixPolicy, MixSchedule, QueryOutcome};
pub use dlb_exec::{
    policies, CoSimQuery, CoSimReport, ContentionModel, ExecOptions, ExecOptionsBuilder,
    ExecutionReport, FaultStats, FlowControl, FrontendConfig, FrontendStats, OpenReport, ParamSpec,
    Policy, QueryExecReport, RecoveryOptions, RecoveryPolicy, RehomePolicy, StealPolicy, Strategy,
    TopologyChange, TopologyEvent,
};
pub use dlb_query::plan::{ChainScheduling, ParallelPlan};
pub use dlb_query::{Query, WorkloadParams};
pub use dlb_traffic::{ArrivalKind, ArrivalSpec, LatencyHistogram, LatencySummary};
pub use experiment::{
    init_threads_from_env, set_threads, Experiment, ExperimentBuilder, Memo, MixRun, OpenRun,
    PlanRun, RunCache, RunKey,
};
pub use scenario::{run_scenario, ScenarioReport, ScenarioSpec};
pub use summary::{relative_performance, speedup, Summary};
pub use system::{HierarchicalSystem, SystemBuilder};
pub use workload::{CompiledWorkload, MixEntry, QueryMix, WorkloadFingerprint};
