//! # dlb-exec
//!
//! The parallel execution models of *Bouganim, Florescu, Valduriez —
//! "Dynamic Load Balancing in Hierarchical Parallel Database Systems"*
//! (VLDB 1996), implemented over the discrete-event substrate of `dlb-sim`.
//!
//! Strategies are pluggable [`strategy::Policy`] implementations selected
//! with a [`Strategy`] handle; the paper's three plus two related-work
//! policies ship registered (see [`strategy::policies`]):
//!
//! * **Dynamic Processing (DP)** — the paper's contribution ([`engine`]):
//!   query work is decomposed into self-contained [`activation`]s placed in
//!   per-(operator, thread) queues; any thread of an SM-node can execute any
//!   unblocked activation of its node; global load sharing is used only when
//!   an entire node starves, shipping probe activations and the matching
//!   hash-table partition from the most loaded node.
//! * **Fixed Processing (FP)** — shared-nothing style static allocation of
//!   processors to operators, proportional to estimated cost, optionally with
//!   cost-model errors ([`fp`]).
//! * **Synchronous Pipelining (SP)** — the shared-memory reference model
//!   ([`sp`]).
//! * **Diffusion** — nearest-neighbour pull balancing from the related work
//!   (Demirel & Sbalzarini): steals only reach ring neighbours.
//! * **Threshold** — sender-initiated push balancing (Mandal & Pal):
//!   overloaded nodes push work to under-loaded neighbours.
//!
//! The main entry point is [`execute`], which takes a
//! [`dlb_query::plan::ParallelPlan`], a [`dlb_common::config::SystemConfig`],
//! a [`Strategy`] and [`ExecOptions`], and returns an [`ExecutionReport`].
//!
//! On top of the intra-query engines, the [`mix`] module adds *inter-query*
//! scheduling: admission, placement ([`MixPolicy`]) and priority-weighted
//! processor sharing of N concurrent queries on the SM-nodes of one machine
//! (see [`schedule_mix`]). Two fidelities exist ([`MixMode`]): the analytic
//! composition of solo runs, and a **co-simulated** mode
//! ([`execute_cosimulated`]) that interleaves all queries' activations in
//! one engine event loop.
//!
//! The co-simulated loop additionally supports **fault injection**: a
//! deterministic [`topology`] event stream (node failures, drains, re-joins
//! at fixed simulated times) consumed alongside query events by
//! [`execute_cosimulated_faulted`], with recovery behaviour selected through
//! [`RecoveryOptions`] and degradation accounting surfaced as
//! [`FaultStats`].
//!
//! Finally, [`execute_open`] runs the same loop as an **open system**:
//! queries arrive over a seeded stochastic process (`dlb-traffic`), are
//! admitted from a FCFS waiting room into a bounded pool of lane slots, and
//! retire on completion — live state is O(concurrency), latencies stream
//! into constant-size sketches, and the [`OpenReport`] carries
//! p50/p95/p99 response, wait and slowdown percentiles per strategy and
//! priority class.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activation;
pub mod engine;
pub mod fp;
pub mod mix;
pub mod options;
pub mod report;
pub mod router;
pub mod sp;
pub mod strategy;
pub mod topology;

pub use activation::{Activation, ActivationKind, ActivationQueue, DrainOutcome};
pub use dlb_frontend::{FrontendConfig, FrontendStats};
pub use dlb_storage::RehomePolicy;
pub use engine::{
    execute, execute_cosimulated, execute_cosimulated_faulted, execute_open, CoSimQuery,
    OpenTemplate, OpenTraffic,
};
pub use mix::{schedule_mix, MixJob, MixMode, MixPolicy, MixSchedule, QueryOutcome};
pub use options::{
    ContentionModel, ExecOptions, ExecOptionsBuilder, FlowControl, RecoveryOptions, RecoveryPolicy,
    StealPolicy,
};
pub use report::{CoSimReport, ExecutionReport, FaultStats, OpenReport, QueryExecReport};
pub use router::OutputRouter;
pub use strategy::{policies, ParamSpec, Policy, PushConfig, StealScope, Strategy};
pub use topology::{validate_topology, TopologyChange, TopologyEvent};
