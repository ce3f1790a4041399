//! The three benchmark workloads: how each builds its inputs from a seed
//! (set-up) and which engine calls one round of its timed section makes.
//!
//! Every input is a pure function of the seed (see [`GENERATOR_SEED`] for
//! which inputs it drives). The benchmark drives the
//! layers' public functions directly, on the calling thread, so no thread
//! pool fans work out behind the timings.

use crate::clock;
use crate::digest::{self, Digest};
use crate::trace::Tracer;
use dlb_common::config::SystemConfig;
use dlb_common::Result;
use dlb_exec::{
    execute, execute_cosimulated_faulted, execute_open, CoSimQuery, CoSimReport, ExecOptions,
    ExecutionReport, FrontendConfig, OpenReport, OpenTemplate, OpenTraffic, Strategy,
    TopologyEvent,
};
use dlb_query::cost::CostModel;
use dlb_query::generator::{WorkloadGenerator, WorkloadParams};
use dlb_query::optimizer::{Optimizer, OptimizerParams};
use dlb_query::optree::OperatorTree;
use dlb_query::plan::{ChainScheduling, OperatorHomes, ParallelPlan};
use dlb_traffic::{ArrivalKind, ArrivalSpec};

/// The workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, one client: every plan of a 12-relation workload run one
    /// at a time under DP, FP and Threshold at redistribution skew 0.6.
    ClosedSkew,
    /// 24 co-simulated queries, some waiting for memory admission, while
    /// node 3 fails.
    MixFailover,
    /// Open Poisson stream behind a result cache and coalescing front end.
    OpenFrontend,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ClosedSkew, Kind::MixFailover, Kind::OpenFrontend];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ClosedSkew => "closed-skew",
            Kind::MixFailover => "mix-failover",
            Kind::OpenFrontend => "open-frontend",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn strategies(self) -> &'static [Strategy] {
        const CLOSED: [Strategy; 3] = [
            Strategy::dynamic(),
            Strategy::fixed(0.0),
            Strategy::threshold(2048.0, 256.0),
        ];
        const MIX: [Strategy; 2] = [Strategy::dynamic(), Strategy::fixed(0.0)];
        const OPEN: [Strategy; 1] = [Strategy::dynamic()];
        match self {
            Kind::ClosedSkew => &CLOSED,
            Kind::MixFailover => &MIX,
            Kind::OpenFrontend => &OPEN,
        }
    }

    /// Name of the span around this workload's engine calls.
    pub fn engine_span(self) -> &'static str {
        match self {
            Kind::ClosedSkew => "dlb-exec.execute",
            Kind::MixFailover => "dlb-exec.execute_cosimulated_faulted",
            Kind::OpenFrontend => "dlb-exec.execute_open",
        }
    }
}

/// Seed of the query generator, the same for every run: the paper
/// workload's relation cardinalities are heavy-tailed, so drawing a new query
/// set per run would swing a round's simulated work by 15-30% from seed to
/// seed. The run's seed instead drives the optimizer's randomized plan
/// enumeration (which bushy trees each query gets) and the open arrival
/// stream.
const GENERATOR_SEED: u64 = 0xD1B_1996;
/// Mix-failover: queries arrive this far apart in virtual time.
const MIX_ARRIVAL_GAP_SECS: f64 = 0.05;
const MIX_SKEWS: [f64; 4] = [0.0, 0.3, 0.6, 0.9];
const MIX_PRIORITIES: [u32; 2] = [2, 1];
/// Mix-failover: node 3 fails at this virtual instant.
const MIX_FAILURE_SECS: f64 = 5.0;
/// Mix-failover: memory of each node. The 24 plans' hash tables need about
/// 12 MiB per node when all are live, so 6-8 queries wait for admission; the
/// largest (about 5.5 MB) still fits on the 3 nodes left after the failure.
const MIX_MEMORY_PER_NODE_BYTES: u64 = 8 << 20;
/// Open-frontend: lane slots of the engine's admission pool.
const OPEN_CONCURRENCY: usize = 4;
const OPEN_FRONTEND: FrontendConfig = FrontendConfig {
    cache_capacity: 2,
    cache_ttl_secs: 5.0,
    coalesce: true,
    fanout_cost_secs: 0.002,
};

/// Everything a workload's engine calls take, built by [`setup`].
#[derive(Debug)]
pub struct Inputs {
    pub kind: Kind,
    config: SystemConfig,
    options: ExecOptions,
    pub plans: Vec<ParallelPlan>,
    /// Hash-table bytes of each plan (mix and open admission).
    demands: Vec<u64>,
    /// Solo DP response time of each plan (open slowdown baseline).
    solo_secs: Vec<f64>,
    /// The open workload's arrival stream.
    pub arrivals: ArrivalSpec,
}

/// Derives an independent seed for one input stream from the run's seed.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates `params.queries` queries and compiles the best plans of each
/// (all the optimizer keeps, or only the first), with a span per layer call.
fn compile(
    params: WorkloadParams,
    optimizer_seed: u64,
    config: &SystemConfig,
    first_only: bool,
    t: &mut Tracer,
) -> Result<Vec<ParallelPlan>> {
    let span = t.begin("dlb-query.generate", None);
    let queries = WorkloadGenerator::new(params).generate();
    t.end(span);
    let cost = CostModel::new(config.costs, config.disk, config.cpu);
    let optimizer = Optimizer::new(
        OptimizerParams {
            seed: optimizer_seed,
            ..OptimizerParams::default()
        },
        cost,
    );
    let mut plans = Vec::new();
    for query in &queries {
        let span = t.begin("dlb-query.optimize", None);
        let trees = optimizer.optimize(query);
        t.end(span);
        let trees = trees?;
        let keep = if first_only { 1 } else { trees.len() };
        for tree in &trees[..keep] {
            let span = t.begin("dlb-query.plan_build", None);
            let optree = OperatorTree::from_join_tree(tree);
            let homes = OperatorHomes::all_nodes(&optree, config.machine.nodes);
            let plan = ParallelPlan::build(query.id, optree, homes, ChainScheduling::OneAtATime);
            t.end(span);
            plans.push(plan?);
        }
    }
    Ok(plans)
}

/// Builds the workload's inputs from `seed`. `skew_delta` shifts every
/// redistribution skew (0 in measurement runs; the self-test perturbs it).
pub fn setup(kind: Kind, seed: u64, skew_delta: f64, t: &mut Tracer) -> Result<Inputs> {
    let (nodes, processors, queries, relations, scale) = match kind {
        Kind::ClosedSkew => (4, 8, 20, 12, 0.5),
        Kind::MixFailover => (4, 8, 24, 10, 0.5),
        Kind::OpenFrontend => (2, 4, 6, 8, 0.05),
    };
    let mut config = SystemConfig::hierarchical(nodes, processors);
    if kind == Kind::MixFailover {
        config.machine.memory_per_node_bytes = MIX_MEMORY_PER_NODE_BYTES;
    }
    let options =
        ExecOptions::with_skew(if kind == Kind::ClosedSkew { 0.6 } else { 0.0 } + skew_delta);
    let params = WorkloadParams {
        queries,
        relations_per_query: relations,
        scale,
        skew: 0.0,
        seed: GENERATOR_SEED,
    };
    let plans = compile(
        params,
        derive(seed, 2),
        &config,
        kind != Kind::ClosedSkew,
        t,
    )?;
    let cost = CostModel::new(config.costs, config.disk, config.cpu);
    let demands = plans
        .iter()
        .map(|plan| {
            plan.tree
                .operators()
                .iter()
                .filter(|op| op.kind.is_build())
                .map(|op| cost.hash_table_bytes(op.input_tuples))
                .sum()
        })
        .collect();
    let mut solo_secs = Vec::new();
    if kind == Kind::OpenFrontend {
        for plan in &plans {
            let span = t.begin("dlb-exec.solo", Some(&Strategy::dynamic()));
            let report = execute(plan, &config, Strategy::dynamic(), &options);
            t.end(span);
            solo_secs.push(report?.response_secs());
        }
    }
    let arrivals = ArrivalSpec {
        kind: ArrivalKind::Poisson,
        rate_qps: 0.8,
        burstiness: 0.0,
        queries: 4000,
        templates: plans.len(),
        template_skew: 0.5,
        priority_classes: 2,
        seed: derive(seed, 4),
    };
    Ok(Inputs {
        kind,
        config,
        options,
        plans,
        demands,
        solo_secs,
        arrivals,
    })
}

/// Counters an engine call reports, summed over calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub events: u64,
    pub activations: u64,
    pub lb_requests: u64,
    pub lb_acquisitions: u64,
    pub lb_bytes: u64,
    pub messages: u64,
    pub network_bytes: u64,
    /// Sum of per-call utilization and node imbalance (divide by `reports`).
    pub utilization: f64,
    pub node_imbalance: f64,
    pub reports: u64,
    pub activations_rehomed: u64,
    pub rebalance_bytes: u64,
    /// Sum of co-simulated queries' admission waits (divide by
    /// `cosim_queries`).
    pub admission_wait_s: f64,
    pub cosim_queries: u64,
    pub completed: u64,
    pub cache_hits: u64,
    pub coalesced: u64,
    pub engine_queries: u64,
    /// Samples the open run recorded into its latency histograms.
    pub histogram_samples: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.events += o.events;
        self.activations += o.activations;
        self.lb_requests += o.lb_requests;
        self.lb_acquisitions += o.lb_acquisitions;
        self.lb_bytes += o.lb_bytes;
        self.messages += o.messages;
        self.network_bytes += o.network_bytes;
        self.utilization += o.utilization;
        self.node_imbalance += o.node_imbalance;
        self.reports += o.reports;
        self.activations_rehomed += o.activations_rehomed;
        self.rebalance_bytes += o.rebalance_bytes;
        self.admission_wait_s += o.admission_wait_s;
        self.cosim_queries += o.cosim_queries;
        self.completed += o.completed;
        self.cache_hits += o.cache_hits;
        self.coalesced += o.coalesced;
        self.engine_queries += o.engine_queries;
        self.histogram_samples += o.histogram_samples;
    }

    fn of_exec(r: &ExecutionReport) -> Counters {
        Counters {
            events: r.events,
            activations: r.activations,
            lb_requests: r.lb_requests,
            lb_acquisitions: r.lb_acquisitions,
            lb_bytes: r.lb_bytes,
            messages: r.messages,
            network_bytes: r.network_bytes,
            utilization: r.utilization,
            node_imbalance: r.node_imbalance(),
            reports: 1,
            ..Counters::default()
        }
    }
}

/// One engine call of a timed round.
#[derive(Debug, Clone)]
pub struct Call {
    /// Host CPU seconds the call took.
    pub host_s: f64,
    /// Simulated queries the call finished.
    pub queries: u64,
    /// Digest of every simulated output, or why the call failed.
    pub outcome: std::result::Result<u64, String>,
    pub counters: Counters,
}

impl Call {
    /// A call whose report passed (or failed) its output check.
    fn checked(
        host_s: f64,
        queries: u64,
        valid: bool,
        invariant: &str,
        digest: Digest,
        counters: Counters,
    ) -> Call {
        Call {
            host_s,
            queries: if valid { queries } else { 0 },
            outcome: if valid {
                Ok(digest.finish())
            } else {
                Err(format!("output check failed: {invariant}"))
            },
            counters,
        }
    }

    /// A call the engine returned an error for.
    fn failed(host_s: f64, e: &dlb_common::DlbError) -> Call {
        Call {
            host_s,
            queries: 0,
            outcome: Err(format!("engine error: {e}")),
            counters: Counters::default(),
        }
    }
}

fn exec_call(host_s: f64, r: &ExecutionReport) -> Call {
    let mut d = Digest::new();
    digest::exec(&mut d, r);
    Call::checked(
        host_s,
        1,
        r.events > 0 && r.activations > 0 && r.response_secs() > 0.0,
        "a plan execution processes events and takes simulated time",
        d,
        Counters::of_exec(r),
    )
}

fn cosim_call(host_s: f64, r: &CoSimReport, expected_queries: usize) -> Call {
    let mut d = Digest::new();
    digest::cosim(&mut d, r);
    let mut c = Counters::of_exec(&r.aggregate);
    c.activations_rehomed = r.faults.activations_rehomed;
    c.rebalance_bytes = r.faults.rebalance_bytes;
    c.admission_wait_s = r.queries.iter().map(|q| q.wait_secs).sum();
    c.cosim_queries = r.queries.len() as u64;
    Call::checked(
        host_s,
        r.queries.len() as u64,
        r.queries.len() == expected_queries
            && r.queries
                .iter()
                .all(|q| q.response_secs.is_finite() && q.response_secs > 0.0)
            && r.faults.failures == 1,
        "every co-simulated query completes and the one failure is applied",
        d,
        c,
    )
}

fn open_call(host_s: f64, r: &OpenReport, arrivals: usize) -> Call {
    let f = &r.frontend;
    let mut d = Digest::new();
    digest::open(&mut d, r);
    let mut c = Counters::of_exec(&r.aggregate);
    c.completed = r.completed;
    c.cache_hits = f.cache_hits;
    c.coalesced = f.coalesced;
    c.engine_queries = f.engine_queries;
    c.histogram_samples = [
        &r.response,
        &r.wait,
        &r.slowdown,
        &r.response_engine,
        &r.response_cache_hit,
        &r.response_coalesced,
    ]
    .into_iter()
    .chain(&r.response_by_class)
    .map(|h| h.count())
    .sum();
    Call::checked(
        host_s,
        r.completed,
        r.completed == arrivals as u64
            && f.cache_hits + f.coalesced + f.engine_queries == r.completed
            && r.peak_live <= OPEN_CONCURRENCY,
        "every arrival retires exactly once through cache, coalescing or the engine",
        d,
        c,
    )
}

/// Runs one engine call inside a span and returns its host CPU seconds.
fn timed<T>(t: &mut Tracer, kind: Kind, strategy: &Strategy, call: impl FnOnce() -> T) -> (f64, T) {
    let span = t.begin(kind.engine_span(), Some(strategy));
    let start = clock::thread_cpu_ns();
    let out = call();
    let host_s = clock::secs_since(start);
    t.end(span);
    (host_s, out)
}

/// Runs one round of the workload's timed section: every engine call once,
/// each timed on its own and wrapped in a span.
pub fn round(inputs: &Inputs, t: &mut Tracer) -> Vec<Call> {
    let (kind, config, options) = (inputs.kind, &inputs.config, &inputs.options);
    let mut calls = Vec::new();
    for &strategy in kind.strategies() {
        match kind {
            Kind::ClosedSkew => {
                for plan in &inputs.plans {
                    let (host_s, report) = timed(t, kind, &strategy, || {
                        execute(plan, config, strategy, options)
                    });
                    calls.push(match report {
                        Ok(r) => exec_call(host_s, &r),
                        Err(e) => Call::failed(host_s, &e),
                    });
                }
            }
            Kind::MixFailover => {
                let queries: Vec<CoSimQuery<'_>> = inputs
                    .plans
                    .iter()
                    .enumerate()
                    .map(|(q, plan)| CoSimQuery {
                        plan,
                        arrival_secs: q as f64 * MIX_ARRIVAL_GAP_SECS,
                        priority: MIX_PRIORITIES[q % MIX_PRIORITIES.len()],
                        skew: MIX_SKEWS[q % MIX_SKEWS.len()] + options.skew,
                        mask: None,
                        memory_bytes: inputs.demands[q],
                    })
                    .collect();
                let topology = [TopologyEvent::fail(MIX_FAILURE_SECS, 3)];
                let (host_s, report) = timed(t, kind, &strategy, || {
                    execute_cosimulated_faulted(&queries, config, strategy, options, &topology)
                });
                calls.push(match report {
                    Ok(r) => cosim_call(host_s, &r, queries.len()),
                    Err(e) => Call::failed(host_s, &e),
                });
            }
            Kind::OpenFrontend => {
                let traffic = OpenTraffic {
                    templates: inputs
                        .plans
                        .iter()
                        .enumerate()
                        .map(|(i, plan)| OpenTemplate {
                            plan,
                            memory_bytes: inputs.demands[i],
                            solo_secs: inputs.solo_secs[i],
                        })
                        .collect(),
                    arrivals: inputs.arrivals,
                    concurrency: OPEN_CONCURRENCY,
                    frontend: OPEN_FRONTEND,
                };
                let (host_s, report) = timed(t, kind, &strategy, || {
                    execute_open(&traffic, config, strategy, options)
                });
                calls.push(match report {
                    Ok(r) => open_call(host_s, &r, inputs.arrivals.queries),
                    Err(e) => Call::failed(host_s, &e),
                });
            }
        }
    }
    calls
}
