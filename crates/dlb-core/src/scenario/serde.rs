//! Hand-rolled JSON (de)serialization of [`ScenarioSpec`]s.
//!
//! The workspace's `serde` is an offline no-op shim, so the spec file format
//! is implemented directly over [`dlb_common::json`]. Every field except
//! `name` is optional on input — a minimal user spec is just a name plus the
//! parts that differ from the defaults; see `EXPERIMENTS.md` for the full
//! format and a runnable example. Unknown keys are rejected so that typos
//! fail loudly instead of silently running the default.

use super::spec::{
    Axis, MachineSpec, Metric, MixSpec, OpenSpec, Presentation, Reference, RowFmt, ScenarioSpec,
    Sweep, TableStyle, WorkloadSpec,
};
use dlb_common::json::{object, Json};
use dlb_common::{DlbError, Result};
use dlb_exec::{
    ContentionModel, ExecOptions, FlowControl, MixMode, MixPolicy, RecoveryOptions, RecoveryPolicy,
    RehomePolicy, StealPolicy, Strategy, TopologyChange, TopologyEvent,
};
use dlb_traffic::ArrivalKind;

impl ScenarioSpec {
    /// Serializes the spec as pretty-printed JSON (the on-disk spec-file
    /// format).
    pub fn to_json(&self) -> String {
        spec_to_json(self).pretty()
    }

    /// Parses a spec from its JSON text form and validates it.
    pub fn from_json(text: &str) -> Result<ScenarioSpec> {
        let doc = Json::parse(text)?;
        let spec = spec_from_json(&doc)?;
        spec.validate()?;
        Ok(spec)
    }
}

pub(super) fn axis_name(axis: Axis) -> &'static str {
    match axis {
        Axis::Skew => "skew",
        Axis::Nodes => "nodes",
        Axis::ProcessorsPerNode => "processors_per_node",
        Axis::ErrorRate => "error_rate",
        Axis::ConcurrentQueries => "concurrent_queries",
        Axis::MemoryPerNode => "memory_per_node_mb",
        Axis::FailureTime => "failure_time",
        Axis::FailedNodes => "failed_nodes",
        Axis::ArrivalRate => "arrival_rate_qps",
        Axis::Burstiness => "burstiness",
        Axis::TemplateSkew => "template_skew",
    }
}

fn axis_from_name(name: &str) -> Result<Axis> {
    match name {
        "skew" => Ok(Axis::Skew),
        "nodes" => Ok(Axis::Nodes),
        "processors_per_node" => Ok(Axis::ProcessorsPerNode),
        "error_rate" => Ok(Axis::ErrorRate),
        "concurrent_queries" => Ok(Axis::ConcurrentQueries),
        "memory_per_node_mb" => Ok(Axis::MemoryPerNode),
        "failure_time" => Ok(Axis::FailureTime),
        "failed_nodes" => Ok(Axis::FailedNodes),
        "arrival_rate_qps" => Ok(Axis::ArrivalRate),
        "burstiness" => Ok(Axis::Burstiness),
        "template_skew" => Ok(Axis::TemplateSkew),
        other => Err(parse_err(format!(
            "unknown axis {other:?} (expected skew | nodes | processors_per_node | error_rate \
             | concurrent_queries | memory_per_node_mb | failure_time | failed_nodes \
             | arrival_rate_qps | burstiness | template_skew)"
        ))),
    }
}

fn parse_err(msg: impl Into<String>) -> DlbError {
    DlbError::Parse(format!("scenario spec: {}", msg.into()))
}

pub(super) fn machine_to_json(machine: &MachineSpec) -> Json {
    let mut members = vec![
        ("nodes", Json::from(machine.nodes)),
        (
            "processors_per_node",
            Json::from(machine.processors_per_node),
        ),
    ];
    if let Some(mb) = machine.memory_per_node_mb {
        members.push(("memory_per_node_mb", Json::from(mb)));
    }
    object(members)
}

pub(super) fn workload_to_json(workload: &WorkloadSpec) -> Json {
    match workload {
        WorkloadSpec::Generated {
            queries,
            relations,
            scale,
            seed,
        } => object(vec![
            ("queries", Json::from(*queries)),
            ("relations", Json::from(*relations)),
            ("scale", Json::Float(*scale)),
            ("seed", Json::from(*seed)),
        ]),
        WorkloadSpec::Chain {
            relations,
            build_rows,
            probe_rows,
        } => object(vec![(
            "chain",
            object(vec![
                ("relations", Json::from(*relations)),
                ("build_rows", Json::from(*build_rows)),
                ("probe_rows", Json::from(*probe_rows)),
            ]),
        )]),
        WorkloadSpec::Mix(mix) => {
            let mut members = vec![
                ("queries", Json::from(mix.queries)),
                ("relations", Json::from(mix.relations)),
                ("scale", Json::Float(mix.scale)),
                ("seed", Json::from(mix.seed)),
                ("arrival_gap_secs", Json::Float(mix.arrival_gap_secs)),
                ("policy", Json::from(mix.policy.label())),
                ("mode", Json::from(mix.mode.label())),
                (
                    "priorities",
                    Json::Array(mix.priorities.iter().map(|&p| Json::from(p)).collect()),
                ),
                (
                    "skews",
                    Json::Array(mix.skews.iter().map(|&s| Json::Float(s)).collect()),
                ),
            ];
            // Emitted only when the mix carries events, so pre-existing
            // fault-free spec exports stay byte-identical.
            if !mix.topology.is_empty() {
                members.push(("topology", topology_to_json(&mix.topology)));
            }
            object(vec![("mix", object(members))])
        }
        WorkloadSpec::Open(open) => {
            let mut members = vec![
                ("kind", Json::from(open.kind.label())),
                ("rate_qps", Json::Float(open.rate_qps)),
                ("burstiness", Json::Float(open.burstiness)),
                ("queries", Json::from(open.queries)),
                ("concurrency", Json::from(open.concurrency)),
                ("priority_classes", Json::from(open.priority_classes)),
                ("templates", Json::from(open.templates)),
                ("relations", Json::from(open.relations)),
                ("scale", Json::Float(open.scale)),
                ("seed", Json::from(open.seed)),
            ];
            // Front-end / skew knobs are emitted only when they differ from
            // their inert defaults, so pre-existing spec exports stay
            // byte-identical.
            if open.template_skew != 0.0 {
                members.push(("template_skew", Json::Float(open.template_skew)));
            }
            if open.cache_capacity != 0 {
                members.push(("cache_capacity", Json::from(open.cache_capacity)));
            }
            if open.cache_ttl_secs.is_finite() {
                members.push(("cache_ttl_secs", Json::Float(open.cache_ttl_secs)));
            }
            if open.coalesce {
                members.push(("coalesce", Json::Bool(true)));
            }
            if open.fanout_cost_secs != 0.0 {
                members.push(("fanout_cost_secs", Json::Float(open.fanout_cost_secs)));
            }
            object(vec![("open", object(members))])
        }
    }
}

/// Policies serialize as named specs: a bare name for parameterless
/// policies (`"DP"`), `{name: value}` for single-parameter ones
/// (`{"FP": 0.3}` — always emitted, so pre-existing exports stay
/// byte-identical), and `{name: {param: value, ...}}` for multi-parameter
/// ones (`{"Threshold": {"hi": 4096, "lo": 512}}`).
fn strategy_to_json(strategy: &Strategy) -> Json {
    let specs = strategy.policy().params();
    match specs.len() {
        0 => Json::from(strategy.name()),
        1 => object(vec![(strategy.name(), Json::Float(strategy.params().0[0]))]),
        _ => {
            let params = specs
                .iter()
                .enumerate()
                .map(|(i, spec)| (spec.name, Json::Float(strategy.params().0[i])))
                .collect();
            object(vec![(strategy.name(), object(params))])
        }
    }
}

/// The spelling of every registered policy, for parse errors.
fn known_policy_names() -> String {
    dlb_exec::policies()
        .iter()
        .map(|p| p.name())
        .collect::<Vec<_>>()
        .join(" | ")
}

fn strategy_from_json(v: &Json) -> Result<Strategy> {
    match v {
        // A bare name selects the policy with every parameter at its
        // default — this keeps the historical `"FP"` spelling parsing
        // (error_rate defaults to 0.0).
        Json::Str(s) => Strategy::from_name(s).ok_or_else(|| {
            parse_err(format!(
                "unknown strategy {s:?} (expected {})",
                known_policy_names()
            ))
        }),
        Json::Object(members) => {
            let [(name, value)] = members.as_slice() else {
                return Err(parse_err(
                    "strategy objects must have exactly one member: \
                     {name: value} or {name: {param: value}}",
                ));
            };
            let strategy = Strategy::from_name(name).ok_or_else(|| {
                parse_err(format!(
                    "unknown strategy {name:?} (expected {})",
                    known_policy_names()
                ))
            })?;
            let specs = strategy.policy().params();
            match value {
                Json::Object(params) => {
                    let mut out = strategy;
                    for (pname, pvalue) in params {
                        if !specs.iter().any(|s| s.name == pname.as_str()) {
                            return Err(parse_err(format!(
                                "strategy {name:?} has no parameter {pname:?} (expected {})",
                                specs.iter().map(|s| s.name).collect::<Vec<_>>().join(" | ")
                            )));
                        }
                        let pvalue = pvalue.as_f64().ok_or_else(|| {
                            parse_err(format!("strategy parameter {pname:?} must be a number"))
                        })?;
                        out = out.with_param(pname, pvalue);
                    }
                    Ok(out)
                }
                scalar => {
                    if specs.len() != 1 {
                        return Err(parse_err(format!(
                            "strategy {name:?} takes {} parameters; use {{{name:?}: \
                             {{param: value}}}}",
                            specs.len()
                        )));
                    }
                    let pvalue = scalar.as_f64().ok_or_else(|| {
                        parse_err(format!(
                            "strategy objects must be {{{name:?}: <{}>}}",
                            specs[0].name
                        ))
                    })?;
                    Ok(strategy.with_param(specs[0].name, pvalue))
                }
            }
        }
        _ => Err(parse_err(
            "strategies must be strings or single-member objects",
        )),
    }
}

pub(super) fn metric_to_json(metric: Metric) -> Json {
    Json::from(match metric {
        Metric::Relative => "relative",
        Metric::Speedup => "speedup",
    })
}

pub(super) fn reference_to_json(reference: &Reference) -> Json {
    match reference {
        Reference::SamePoint(s) => object(vec![("same_point", strategy_to_json(s))]),
        Reference::FirstRow => Json::from("first_row"),
    }
}

fn sweep_to_json(sweep: &Sweep) -> Json {
    object(vec![
        ("axis", Json::from(axis_name(sweep.axis))),
        (
            "values",
            Json::Array(sweep.values.iter().map(|&v| Json::Float(v)).collect()),
        ),
    ])
}

fn sweep_from_json(v: &Json) -> Result<Sweep> {
    let axis = axis_from_name(
        v.get("axis")
            .and_then(Json::as_str)
            .ok_or_else(|| parse_err("sweeps need an \"axis\" string"))?,
    )?;
    let values = v
        .get("values")
        .and_then(Json::as_array)
        .ok_or_else(|| parse_err("sweeps need a \"values\" array"))?
        .iter()
        .map(|j| {
            j.as_f64()
                .ok_or_else(|| parse_err("sweep values must be numbers"))
        })
        .collect::<Result<Vec<f64>>>()?;
    Ok(Sweep { axis, values })
}

fn row_fmt_name(fmt: RowFmt) -> &'static str {
    match fmt {
        RowFmt::Int => "int",
        RowFmt::Fixed1 => "fixed1",
        RowFmt::Fixed2 => "fixed2",
        RowFmt::Percent => "percent",
        RowFmt::NodesByProcs => "nodes_x_procs",
    }
}

fn row_fmt_from_name(name: &str) -> Result<RowFmt> {
    match name {
        "int" => Ok(RowFmt::Int),
        "fixed1" => Ok(RowFmt::Fixed1),
        "fixed2" => Ok(RowFmt::Fixed2),
        "percent" => Ok(RowFmt::Percent),
        "nodes_x_procs" => Ok(RowFmt::NodesByProcs),
        other => Err(parse_err(format!(
            "unknown row format {other:?} \
             (expected int | fixed1 | fixed2 | percent | nodes_x_procs)"
        ))),
    }
}

fn style_to_json(style: &TableStyle) -> Json {
    object(vec![
        ("row_header", Json::from(style.row_header.as_str())),
        ("row_format", Json::from(row_fmt_name(style.row_fmt))),
        ("row_width", Json::from(style.row_width)),
        ("cell_width", Json::from(style.cell_width)),
        (
            "headers",
            Json::Array(
                style
                    .headers
                    .iter()
                    .map(|h| Json::from(h.as_str()))
                    .collect(),
            ),
        ),
    ])
}

fn style_from_json(v: &Json, default_axis: Axis) -> Result<TableStyle> {
    let defaults = TableStyle::for_axis(default_axis);
    expect_keys(
        v,
        &[
            "row_header",
            "row_format",
            "row_width",
            "cell_width",
            "headers",
        ],
        "table style",
    )?;
    Ok(TableStyle {
        row_header: v
            .get("row_header")
            .and_then(Json::as_str)
            .map_or(defaults.row_header, str::to_string),
        row_fmt: match v.get("row_format").and_then(Json::as_str) {
            Some(name) => row_fmt_from_name(name)?,
            None => defaults.row_fmt,
        },
        row_width: v
            .get("row_width")
            .and_then(Json::as_u64)
            .map_or(defaults.row_width, |w| w as usize),
        cell_width: v
            .get("cell_width")
            .and_then(Json::as_u64)
            .map_or(defaults.cell_width, |w| w as usize),
        headers: match v.get("headers").and_then(Json::as_array) {
            Some(items) => items
                .iter()
                .map(|h| {
                    h.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| parse_err("headers must be strings"))
                })
                .collect::<Result<_>>()?,
            None => defaults.headers,
        },
    })
}

fn presentation_to_json(p: &Presentation) -> Json {
    match p {
        Presentation::Table(style) => object(vec![("table", style_to_json(style))]),
        Presentation::Grid(style) => object(vec![("grid", style_to_json(style))]),
        Presentation::Balance(style) => object(vec![("balance", style_to_json(style))]),
        Presentation::Mix(style) => object(vec![("mix", style_to_json(style))]),
        Presentation::Open(style) => object(vec![("open", style_to_json(style))]),
        Presentation::Chain => Json::from("chain"),
    }
}

fn presentation_from_json(v: &Json, default_axis: Axis) -> Result<Presentation> {
    match v {
        Json::Str(s) if s == "chain" => Ok(Presentation::Chain),
        Json::Object(members) if members.len() == 1 => {
            let (kind, style) = &members[0];
            let style = style_from_json(style, default_axis)?;
            match kind.as_str() {
                "table" => Ok(Presentation::Table(style)),
                "grid" => Ok(Presentation::Grid(style)),
                "balance" => Ok(Presentation::Balance(style)),
                "mix" => Ok(Presentation::Mix(style)),
                "open" => Ok(Presentation::Open(style)),
                other => Err(parse_err(format!(
                    "unknown presentation {other:?} \
                     (expected table | grid | balance | mix | open | \"chain\")"
                ))),
            }
        }
        _ => Err(parse_err(
            "presentation must be \"chain\" or \
             {\"table\"|\"grid\"|\"balance\"|\"mix\"|\"open\": {..}}",
        )),
    }
}

fn options_to_json(o: &ExecOptions) -> Json {
    let mut members = vec![
        ("skew", Json::Float(o.skew)),
        ("seed", Json::from(o.seed)),
        (
            "flow",
            object(vec![
                ("queue_capacity", Json::from(o.flow.queue_capacity)),
                ("trigger_pages", Json::from(o.flow.trigger_pages)),
            ]),
        ),
        (
            "contention",
            object(vec![
                ("threshold", Json::from(o.contention.threshold)),
                ("degradation", Json::Float(o.contention.degradation)),
            ]),
        ),
        (
            "steal",
            object(vec![
                ("min_tuples", Json::from(o.steal.min_tuples)),
                ("fraction", Json::Float(o.steal.fraction)),
            ]),
        ),
    ];
    // Emitted only when it differs from the default, so pre-existing spec
    // exports stay byte-identical.
    if o.recovery != RecoveryOptions::default() {
        members.push((
            "recovery",
            object(vec![
                ("policy", Json::from(o.recovery.policy.label())),
                ("rehome", Json::from(o.recovery.rehome.label())),
            ]),
        ));
    }
    object(members)
}

fn options_from_json(v: &Json) -> Result<ExecOptions> {
    expect_keys(
        v,
        &[
            "skew",
            "seed",
            "fp_realization",
            "flow",
            "contention",
            "steal",
            "recovery",
        ],
        "options",
    )?;
    let d = ExecOptions::default();
    let flow = v.get("flow");
    let contention = v.get("contention");
    let steal = v.get("steal");
    if let Some(flow) = flow {
        expect_keys(flow, &["queue_capacity", "trigger_pages"], "options.flow")?;
    }
    if let Some(c) = contention {
        expect_keys(c, &["threshold", "degradation"], "options.contention")?;
    }
    if let Some(s) = steal {
        expect_keys(s, &["min_tuples", "fraction"], "options.steal")?;
    }
    let opt_f64 = |v: Option<&Json>, key: &str, default: f64| -> Result<f64> {
        match v.and_then(|o| o.get(key)) {
            None => Ok(default),
            Some(j) => j
                .as_f64()
                .ok_or_else(|| parse_err(format!("{key} must be a number"))),
        }
    };
    let opt_u64 = |v: Option<&Json>, key: &str, default: u64| -> Result<u64> {
        match v.and_then(|o| o.get(key)) {
            None => Ok(default),
            Some(j) => j
                .as_u64()
                .ok_or_else(|| parse_err(format!("{key} must be a non-negative integer"))),
        }
    };
    // A removed option: FP always draws one distorted estimate per query,
    // reused on every node. Old specs that spell out that behaviour
    // ("shared") still parse.
    if let Some(j) = v.get("fp_realization") {
        if j.as_str() != Some("shared") {
            return Err(parse_err(
                "option \"fp_realization\" was removed: FP always shares one error \
                 realization across nodes, so only \"shared\" is accepted",
            ));
        }
    }
    let recovery = match v.get("recovery") {
        None => d.recovery,
        Some(r) => {
            expect_keys(r, &["policy", "rehome"], "options.recovery")?;
            let rd = RecoveryOptions::default();
            let policy = match r.get("policy") {
                None => rd.policy,
                Some(j) => {
                    let label = j
                        .as_str()
                        .ok_or_else(|| parse_err("recovery \"policy\" must be a string"))?;
                    RecoveryPolicy::from_label(label).map_err(parse_err)?
                }
            };
            let rehome = match r.get("rehome") {
                None => rd.rehome,
                Some(j) => {
                    let label = j
                        .as_str()
                        .ok_or_else(|| parse_err("recovery \"rehome\" must be a string"))?;
                    RehomePolicy::from_label(label).ok_or_else(|| {
                        parse_err(format!(
                            "unknown rehome policy {label:?} \
                             (expected consistent-hash | range)"
                        ))
                    })?
                }
            };
            RecoveryOptions { policy, rehome }
        }
    };
    Ok(ExecOptions {
        skew: opt_f64(Some(v), "skew", d.skew)?,
        seed: opt_u64(Some(v), "seed", d.seed)?,
        flow: FlowControl {
            queue_capacity: opt_u64(flow, "queue_capacity", d.flow.queue_capacity as u64)? as usize,
            trigger_pages: opt_u64(flow, "trigger_pages", d.flow.trigger_pages)?,
        },
        contention: ContentionModel {
            threshold: opt_u64(contention, "threshold", d.contention.threshold as u64)? as u32,
            degradation: opt_f64(contention, "degradation", d.contention.degradation)?,
        },
        steal: StealPolicy {
            min_tuples: opt_u64(steal, "min_tuples", d.steal.min_tuples)?,
            fraction: opt_f64(steal, "fraction", d.steal.fraction)?,
        },
        recovery,
    })
}

fn topology_to_json(events: &[TopologyEvent]) -> Json {
    Json::Array(
        events
            .iter()
            .map(|e| {
                object(vec![
                    ("at_secs", Json::Float(e.at_secs)),
                    ("node", Json::from(e.node.index())),
                    ("change", Json::from(e.change.label())),
                ])
            })
            .collect(),
    )
}

fn topology_from_json(v: &Json) -> Result<Vec<TopologyEvent>> {
    let items = v
        .as_array()
        .ok_or_else(|| parse_err("mix \"topology\" must be an array of event objects"))?;
    items
        .iter()
        .map(|e| {
            expect_keys(e, &["at_secs", "node", "change"], "topology event")?;
            let at_secs = e
                .get("at_secs")
                .and_then(Json::as_f64)
                .ok_or_else(|| parse_err("topology events need a numeric \"at_secs\""))?;
            let node = e
                .get("node")
                .and_then(Json::as_u64)
                .ok_or_else(|| parse_err("topology events need an integer \"node\""))?;
            let label = e
                .get("change")
                .and_then(Json::as_str)
                .ok_or_else(|| parse_err("topology events need a \"change\" string"))?;
            let change = TopologyChange::from_label(label).ok_or_else(|| {
                parse_err(format!(
                    "unknown topology change {label:?} (expected fail | drain | join)"
                ))
            })?;
            Ok(TopologyEvent {
                at_secs,
                node: dlb_common::NodeId::from(node as usize),
                change,
            })
        })
        .collect()
}

fn workload_from_json(v: &Json) -> Result<WorkloadSpec> {
    if let Some(mix) = v.get("mix") {
        expect_keys(v, &["mix"], "workload")?;
        expect_keys(
            mix,
            &[
                "queries",
                "relations",
                "scale",
                "seed",
                "arrival_gap_secs",
                "policy",
                "mode",
                "priorities",
                "skews",
                "topology",
            ],
            "workload.mix",
        )?;
        let d = MixSpec::default();
        let opt_u64 = |key: &str, default: u64| -> Result<u64> {
            match mix.get(key) {
                None => Ok(default),
                Some(j) => j.as_u64().ok_or_else(|| {
                    parse_err(format!("mix {key:?} must be a non-negative integer"))
                }),
            }
        };
        let opt_f64 = |key: &str, default: f64| -> Result<f64> {
            match mix.get(key) {
                None => Ok(default),
                Some(j) => j
                    .as_f64()
                    .ok_or_else(|| parse_err(format!("mix {key:?} must be a number"))),
            }
        };
        let policy = match mix.get("policy") {
            None => d.policy,
            Some(j) => {
                let label = j
                    .as_str()
                    .ok_or_else(|| parse_err("mix \"policy\" must be a string"))?;
                MixPolicy::from_label(label)?
            }
        };
        let mode = match mix.get("mode") {
            None => d.mode,
            Some(j) => {
                let label = j
                    .as_str()
                    .ok_or_else(|| parse_err("mix \"mode\" must be a string"))?;
                MixMode::from_label(label)?
            }
        };
        let priorities = match mix.get("priorities").and_then(Json::as_array) {
            None => d.priorities.clone(),
            Some(items) => items
                .iter()
                .map(|j| {
                    j.as_u64()
                        .map(|p| p as u32)
                        .ok_or_else(|| parse_err("mix priorities must be integers"))
                })
                .collect::<Result<_>>()?,
        };
        let skews = match mix.get("skews").and_then(Json::as_array) {
            None => d.skews.clone(),
            Some(items) => items
                .iter()
                .map(|j| {
                    j.as_f64()
                        .ok_or_else(|| parse_err("mix skews must be numbers"))
                })
                .collect::<Result<_>>()?,
        };
        let topology = match mix.get("topology") {
            None => d.topology.clone(),
            Some(t) => topology_from_json(t)?,
        };
        return Ok(WorkloadSpec::Mix(MixSpec {
            queries: opt_u64("queries", d.queries as u64)? as usize,
            relations: opt_u64("relations", d.relations as u64)? as usize,
            scale: opt_f64("scale", d.scale)?,
            seed: opt_u64("seed", d.seed)?,
            arrival_gap_secs: opt_f64("arrival_gap_secs", d.arrival_gap_secs)?,
            policy,
            mode,
            priorities,
            skews,
            topology,
        }));
    }
    if let Some(open) = v.get("open") {
        expect_keys(v, &["open"], "workload")?;
        expect_keys(
            open,
            &[
                "kind",
                "rate_qps",
                "burstiness",
                "queries",
                "concurrency",
                "priority_classes",
                "templates",
                "relations",
                "scale",
                "seed",
                "template_skew",
                "cache_capacity",
                "cache_ttl_secs",
                "coalesce",
                "fanout_cost_secs",
            ],
            "workload.open",
        )?;
        let d = OpenSpec::default();
        let opt_u64 = |key: &str, default: u64| -> Result<u64> {
            match open.get(key) {
                None => Ok(default),
                Some(j) => j.as_u64().ok_or_else(|| {
                    parse_err(format!("open {key:?} must be a non-negative integer"))
                }),
            }
        };
        let opt_f64 = |key: &str, default: f64| -> Result<f64> {
            match open.get(key) {
                None => Ok(default),
                Some(j) => j
                    .as_f64()
                    .ok_or_else(|| parse_err(format!("open {key:?} must be a number"))),
            }
        };
        let kind = match open.get("kind") {
            None => d.kind,
            Some(j) => {
                let label = j
                    .as_str()
                    .ok_or_else(|| parse_err("open \"kind\" must be a string"))?;
                ArrivalKind::from_label(label).ok_or_else(|| {
                    parse_err(format!(
                        "unknown arrival kind {label:?} (expected poisson | bursty | diurnal)"
                    ))
                })?
            }
        };
        return Ok(WorkloadSpec::Open(OpenSpec {
            kind,
            rate_qps: opt_f64("rate_qps", d.rate_qps)?,
            burstiness: opt_f64("burstiness", d.burstiness)?,
            queries: opt_u64("queries", d.queries as u64)? as usize,
            concurrency: opt_u64("concurrency", d.concurrency as u64)? as usize,
            priority_classes: opt_u64("priority_classes", d.priority_classes as u64)? as u32,
            templates: opt_u64("templates", d.templates as u64)? as usize,
            relations: opt_u64("relations", d.relations as u64)? as usize,
            scale: opt_f64("scale", d.scale)?,
            seed: opt_u64("seed", d.seed)?,
            template_skew: opt_f64("template_skew", d.template_skew)?,
            cache_capacity: opt_u64("cache_capacity", d.cache_capacity as u64)? as usize,
            // An absent TTL means "never expires"; the emit side only writes
            // the key for finite values.
            cache_ttl_secs: opt_f64("cache_ttl_secs", d.cache_ttl_secs)?,
            coalesce: match open.get("coalesce") {
                None => d.coalesce,
                Some(j) => j
                    .as_bool()
                    .ok_or_else(|| parse_err("open \"coalesce\" must be a boolean"))?,
            },
            fanout_cost_secs: opt_f64("fanout_cost_secs", d.fanout_cost_secs)?,
        }));
    }
    if let Some(chain) = v.get("chain") {
        expect_keys(v, &["chain"], "workload")?;
        expect_keys(
            chain,
            &["relations", "build_rows", "probe_rows"],
            "workload.chain",
        )?;
        return Ok(WorkloadSpec::Chain {
            relations: chain
                .get("relations")
                .and_then(Json::as_u64)
                .ok_or_else(|| parse_err("chain workloads need integer \"relations\""))?
                as usize,
            build_rows: chain
                .get("build_rows")
                .and_then(Json::as_u64)
                .ok_or_else(|| parse_err("chain workloads need integer \"build_rows\""))?,
            probe_rows: chain
                .get("probe_rows")
                .and_then(Json::as_u64)
                .ok_or_else(|| parse_err("chain workloads need integer \"probe_rows\""))?,
        });
    }
    expect_keys(v, &["queries", "relations", "scale", "seed"], "workload")?;
    let WorkloadSpec::Generated {
        queries,
        relations,
        scale,
        seed,
    } = WorkloadSpec::default()
    else {
        unreachable!("default workload is generated");
    };
    Ok(WorkloadSpec::Generated {
        queries: v
            .get("queries")
            .map(|j| {
                j.as_u64()
                    .ok_or_else(|| parse_err("\"queries\" must be an integer"))
            })
            .transpose()?
            .map_or(queries, |q| q as usize),
        relations: v
            .get("relations")
            .map(|j| {
                j.as_u64()
                    .ok_or_else(|| parse_err("\"relations\" must be an integer"))
            })
            .transpose()?
            .map_or(relations, |r| r as usize),
        scale: v
            .get("scale")
            .map(|j| {
                j.as_f64()
                    .ok_or_else(|| parse_err("\"scale\" must be a number"))
            })
            .transpose()?
            .unwrap_or(scale),
        seed: v
            .get("seed")
            .map(|j| {
                j.as_u64()
                    .ok_or_else(|| parse_err("\"seed\" must be an integer"))
            })
            .transpose()?
            .unwrap_or(seed),
    })
}

/// Rejects unknown object keys, so misspelled spec fields fail loudly.
fn expect_keys(v: &Json, allowed: &[&str], what: &str) -> Result<()> {
    let Some(members) = v.as_object() else {
        return Err(parse_err(format!("{what} must be an object")));
    };
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(parse_err(format!(
                "unknown {what} field {key:?} (expected one of {allowed:?})"
            )));
        }
    }
    Ok(())
}

fn spec_to_json(spec: &ScenarioSpec) -> Json {
    let mut members = vec![
        ("name", Json::from(spec.name.as_str())),
        ("title", Json::from(spec.title.as_str())),
        ("description", Json::from(spec.description.as_str())),
        ("machine", machine_to_json(&spec.machine)),
        ("workload", workload_to_json(&spec.workload)),
        ("options", options_to_json(&spec.options)),
        (
            "strategies",
            Json::Array(spec.strategies.iter().map(strategy_to_json).collect()),
        ),
        ("sweep", sweep_to_json(&spec.rows)),
    ];
    if let Some(cols) = &spec.columns {
        members.push(("columns", sweep_to_json(cols)));
    }
    members.extend([
        ("reference", reference_to_json(&spec.reference)),
        ("metric", metric_to_json(spec.metric)),
        ("presentation", presentation_to_json(&spec.presentation)),
        ("notes", Json::from(spec.notes.as_str())),
    ]);
    object(members)
}

fn spec_from_json(doc: &Json) -> Result<ScenarioSpec> {
    expect_keys(
        doc,
        &[
            "name",
            "title",
            "description",
            "machine",
            "workload",
            "options",
            "strategies",
            "sweep",
            "columns",
            "reference",
            "metric",
            "presentation",
            "notes",
        ],
        "top-level",
    )?;
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| parse_err("specs need a \"name\" string"))?
        .to_string();
    let machine = match doc.get("machine") {
        None => MachineSpec::default(),
        Some(m) => {
            expect_keys(
                m,
                &["nodes", "processors_per_node", "memory_per_node_mb"],
                "machine",
            )?;
            let d = MachineSpec::default();
            MachineSpec {
                nodes: m
                    .get("nodes")
                    .map(|j| {
                        j.as_u64()
                            .ok_or_else(|| parse_err("\"nodes\" must be an integer"))
                    })
                    .transpose()?
                    .map_or(d.nodes, |n| n as u32),
                processors_per_node: m
                    .get("processors_per_node")
                    .map(|j| {
                        j.as_u64()
                            .ok_or_else(|| parse_err("\"processors_per_node\" must be an integer"))
                    })
                    .transpose()?
                    .map_or(d.processors_per_node, |n| n as u32),
                memory_per_node_mb: m
                    .get("memory_per_node_mb")
                    .map(|j| {
                        j.as_u64()
                            .ok_or_else(|| parse_err("\"memory_per_node_mb\" must be an integer"))
                    })
                    .transpose()?,
            }
        }
    };
    let workload = match doc.get("workload") {
        None => WorkloadSpec::default(),
        Some(w) => workload_from_json(w)?,
    };
    let options = match doc.get("options") {
        None => ExecOptions::default(),
        Some(o) => options_from_json(o)?,
    };
    let strategies = match doc.get("strategies") {
        None => vec![Strategy::dynamic(), Strategy::fixed(0.0)],
        Some(Json::Array(items)) => items
            .iter()
            .map(strategy_from_json)
            .collect::<Result<Vec<_>>>()?,
        Some(_) => return Err(parse_err("\"strategies\" must be an array")),
    };
    let rows = match doc.get("sweep") {
        None => Sweep::new(Axis::Skew, [0.0]),
        Some(s) => sweep_from_json(s)?,
    };
    let columns = doc.get("columns").map(sweep_from_json).transpose()?;
    let reference = match doc.get("reference") {
        // An empty strategy set is rejected by validate(); error here too so
        // the default-reference lookup cannot panic first.
        None => Reference::SamePoint(*strategies.first().ok_or_else(|| {
            parse_err("specs need at least one strategy to default the reference")
        })?),
        Some(Json::Str(s)) if s == "first_row" => Reference::FirstRow,
        Some(v) => match v.get("same_point") {
            Some(s) => Reference::SamePoint(strategy_from_json(s)?),
            None => {
                return Err(parse_err(
                    "reference must be \"first_row\" or {\"same_point\": <strategy>}",
                ))
            }
        },
    };
    let metric = match doc.get("metric").and_then(Json::as_str) {
        None => Metric::Relative,
        Some("relative") => Metric::Relative,
        Some("speedup") => Metric::Speedup,
        Some(other) => {
            return Err(parse_err(format!(
                "unknown metric {other:?} (expected relative | speedup)"
            )))
        }
    };
    let presentation = match doc.get("presentation") {
        None if columns.is_some() => Presentation::Grid(TableStyle::for_axis(rows.axis)),
        None if workload.is_mix() => Presentation::Mix(TableStyle::for_axis(rows.axis)),
        None if workload.is_open() => Presentation::Open(TableStyle::for_axis(rows.axis)),
        None => Presentation::Table(TableStyle::for_axis(rows.axis)),
        Some(p) => presentation_from_json(p, rows.axis)?,
    };
    Ok(ScenarioSpec {
        title: doc
            .get("title")
            .and_then(Json::as_str)
            .unwrap_or(&name)
            .to_string(),
        name,
        description: doc
            .get("description")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        machine,
        options,
        workload,
        strategies,
        rows,
        columns,
        reference,
        metric,
        presentation,
        notes: doc
            .get("notes")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::super::registry;
    use super::*;

    #[test]
    fn every_bundled_spec_round_trips_through_json() {
        for spec in registry::registry() {
            let text = spec.to_json();
            let back = ScenarioSpec::from_json(&text)
                .unwrap_or_else(|e| panic!("{} failed to reparse: {e}", spec.name));
            assert_eq!(back, spec, "{} did not round-trip", spec.name);
        }
    }

    #[test]
    fn minimal_spec_fills_in_defaults() {
        let spec = ScenarioSpec::from_json(r#"{"name": "mini"}"#).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.title, "mini");
        assert_eq!(spec.machine, MachineSpec::default());
        assert_eq!(spec.workload, WorkloadSpec::default());
        assert_eq!(spec.strategies.len(), 2);
        assert_eq!(spec.reference, Reference::SamePoint(Strategy::dynamic()));
        assert!(matches!(spec.presentation, Presentation::Table(_)));
    }

    #[test]
    fn partial_option_groups_inherit_defaults() {
        let spec = ScenarioSpec::from_json(
            r#"{"name": "tuned", "options": {"skew": 0.4, "steal": {"min_tuples": 16}}}"#,
        )
        .unwrap();
        assert_eq!(spec.options.skew, 0.4);
        assert_eq!(spec.options.steal.min_tuples, 16);
        let d = ExecOptions::default();
        assert_eq!(spec.options.steal.fraction, d.steal.fraction);
        assert_eq!(spec.options.flow, d.flow);
        assert_eq!(spec.options.seed, d.seed);
    }

    #[test]
    fn removed_fp_realization_key_accepts_only_the_shared_spelling() {
        let shared =
            ScenarioSpec::from_json(r#"{"name": "x", "options": {"fp_realization": "shared"}}"#)
                .unwrap();
        let defaulted = ScenarioSpec::from_json(r#"{"name": "x"}"#).unwrap();
        assert_eq!(shared, defaulted);
        assert!(!shared.to_json().contains("fp_realization"));
        for bad in [r#""per-node""#, r#""per-operator""#, "1"] {
            let json = format!(r#"{{"name": "x", "options": {{"fp_realization": {bad}}}}}"#);
            let err = ScenarioSpec::from_json(&json).unwrap_err().to_string();
            assert!(
                err.contains("fp_realization") && err.contains("removed"),
                "{err}"
            );
        }
    }

    #[test]
    fn unknown_fields_are_rejected() {
        for bad in [
            r#"{"name": "x", "nodes": 4}"#,
            r#"{"name": "x", "options": {"skw": 0.1}}"#,
            r#"{"name": "x", "workload": {"queries": 2, "sale": 0.1}}"#,
            r#"{"name": "x", "strategies": ["XP"]}"#,
            r#"{"name": "x", "strategies": [{"FP": 0.1, "error_rate": 0.3}]}"#,
            r#"{"name": "x", "metric": "fastness"}"#,
            r#"{"name": "x", "sweep": {"axis": "speed", "values": [1]}}"#,
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "accepted {bad}");
        }
        assert!(ScenarioSpec::from_json(r#"{"title": "no name"}"#).is_err());
    }

    #[test]
    fn mix_workloads_parse_with_defaults_and_round_trip() {
        let spec = ScenarioSpec::from_json(
            r#"{"name": "mini-mix", "workload": {"mix": {"queries": 3, "policy": "fcfs",
                "arrival_gap_secs": 0.25, "priorities": [2, 1], "skews": [0.1, 0.9]}}}"#,
        )
        .unwrap();
        let WorkloadSpec::Mix(mix) = &spec.workload else {
            panic!("expected a mix workload");
        };
        assert_eq!(mix.queries, 3);
        assert_eq!(mix.policy, MixPolicy::Fcfs);
        assert_eq!(mix.arrival_gap_secs, 0.25);
        assert_eq!(mix.priorities, vec![2, 1]);
        assert_eq!(mix.skews, vec![0.1, 0.9]);
        // Unset generation knobs inherit the defaults.
        assert_eq!(mix.relations, MixSpec::default().relations);
        // Mix workloads derive the mix presentation.
        assert!(matches!(spec.presentation, Presentation::Mix(_)));
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn open_workloads_parse_with_defaults_and_round_trip() {
        let spec = ScenarioSpec::from_json(
            r#"{"name": "mini-open", "workload": {"open": {"kind": "bursty",
                "rate_qps": 32.5, "burstiness": 0.6, "queries": 200,
                "concurrency": 8, "priority_classes": 2}}}"#,
        )
        .unwrap();
        let WorkloadSpec::Open(open) = &spec.workload else {
            panic!("expected an open workload");
        };
        assert_eq!(open.kind, ArrivalKind::Bursty);
        assert_eq!(open.rate_qps, 32.5);
        assert_eq!(open.burstiness, 0.6);
        assert_eq!(open.queries, 200);
        assert_eq!(open.concurrency, 8);
        assert_eq!(open.priority_classes, 2);
        // Unset generation knobs inherit the defaults.
        assert_eq!(open.templates, OpenSpec::default().templates);
        assert_eq!(open.relations, OpenSpec::default().relations);
        // Open workloads derive the open presentation.
        assert!(matches!(spec.presentation, Presentation::Open(_)));
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
        // Front-end knobs stay off their inert defaults' keys: a spec that
        // never set them serializes without them.
        let text = spec.to_json();
        for absent in [
            "template_skew",
            "cache_capacity",
            "cache_ttl_secs",
            "coalesce",
            "fanout_cost_secs",
        ] {
            assert!(!text.contains(absent), "inert spec emitted {absent:?}");
        }
    }

    #[test]
    fn open_frontend_knobs_parse_and_round_trip() {
        let spec = ScenarioSpec::from_json(
            r#"{"name": "fe", "workload": {"open": {"template_skew": 0.7,
                "cache_capacity": 4, "cache_ttl_secs": 0.25, "coalesce": true,
                "fanout_cost_secs": 0.002}}}"#,
        )
        .unwrap();
        let WorkloadSpec::Open(open) = &spec.workload else {
            panic!("expected an open workload");
        };
        assert_eq!(open.template_skew, 0.7);
        assert_eq!(open.cache_capacity, 4);
        assert_eq!(open.cache_ttl_secs, 0.25);
        assert!(open.coalesce);
        assert_eq!(open.fanout_cost_secs, 0.002);
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
        // An absent TTL means "never expires" — and an infinite TTL (the
        // default) round-trips by omitting the key again.
        let cache_only = ScenarioSpec::from_json(
            r#"{"name": "fe2", "workload": {"open": {"cache_capacity": 2}}}"#,
        )
        .unwrap();
        let WorkloadSpec::Open(open) = &cache_only.workload else {
            panic!("expected an open workload");
        };
        assert_eq!(open.cache_ttl_secs, f64::INFINITY);
        assert!(!cache_only.to_json().contains("cache_ttl_secs"));
        assert_eq!(
            ScenarioSpec::from_json(&cache_only.to_json()).unwrap(),
            cache_only
        );
    }

    #[test]
    fn bad_open_fields_are_rejected() {
        for bad in [
            r#"{"name": "x", "workload": {"open": {"knd": "poisson"}}}"#,
            r#"{"name": "x", "workload": {"open": {"kind": "uniform"}}}"#,
            r#"{"name": "x", "workload": {"open": {"rate_qps": -3}}}"#,
            r#"{"name": "x", "workload": {"open": {"burstiness": 1.5}}}"#,
            r#"{"name": "x", "workload": {"open": {"concurrency": 0}}}"#,
            r#"{"name": "x", "workload": {"open": {"template_skew": 1.5}}}"#,
            r#"{"name": "x", "workload": {"open": {"cache_ttl_secs": 0}}}"#,
            r#"{"name": "x", "workload": {"open": {"coalesce": "yes"}}}"#,
            r#"{"name": "x", "workload": {"open": {"fanout_cost_secs": -1}}}"#,
            r#"{"name": "x", "workload": {"open": {}, "queries": 2}}"#,
            r#"{"name": "x", "workload": {"open": {}}, "strategies": ["SP"],
                "machine": {"nodes": 1}}"#,
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "accepted {bad}");
        }
        // The arrival axes parse but need an open workload to act on.
        let err = ScenarioSpec::from_json(
            r#"{"name": "x", "sweep": {"axis": "arrival_rate_qps", "values": [10]}}"#,
        )
        .unwrap_err();
        assert!(
            matches!(err, DlbError::InvalidConfig(ref m) if m.contains("open workload")),
            "{err}"
        );
    }

    #[test]
    fn machine_memory_and_new_axes_round_trip() {
        let spec = ScenarioSpec::from_json(
            r#"{"name": "mem", "machine": {"nodes": 2, "memory_per_node_mb": 128},
                "sweep": {"axis": "memory_per_node_mb", "values": [64, 8]}}"#,
        )
        .unwrap();
        assert_eq!(spec.machine.memory_per_node_mb, Some(128));
        assert_eq!(spec.rows.axis, Axis::MemoryPerNode);
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
        // A spec without the memory field keeps serializing without it.
        let plain = ScenarioSpec::from_json(r#"{"name": "plain"}"#).unwrap();
        assert!(!plain.to_json().contains("memory_per_node_mb"));
    }

    #[test]
    fn unsupported_axis_combinations_error_via_dlb_error() {
        // Regression (scenario --export / --spec): an unknown axis is a
        // parse error, and a known axis on a workload that cannot support it
        // is a validation error — never a panic deeper in the driver.
        let unknown = ScenarioSpec::from_json(
            r#"{"name": "x", "sweep": {"axis": "speed_of_light", "values": [1]}}"#,
        )
        .unwrap_err();
        assert!(matches!(unknown, DlbError::Parse(_)), "{unknown}");
        let unsupported = ScenarioSpec::from_json(
            r#"{"name": "x", "sweep": {"axis": "concurrent_queries", "values": [2, 4]}}"#,
        )
        .unwrap_err();
        assert!(
            matches!(unsupported, DlbError::InvalidConfig(ref m) if m.contains("mix workload")),
            "{unsupported}"
        );
    }

    #[test]
    fn bad_mix_fields_are_rejected() {
        for bad in [
            r#"{"name": "x", "workload": {"mix": {"polcy": "fcfs"}}}"#,
            r#"{"name": "x", "workload": {"mix": {"policy": "shortest-job"}}}"#,
            r#"{"name": "x", "workload": {"mix": {"priorities": [0]}}}"#,
            r#"{"name": "x", "workload": {"mix": {"skews": [3.0]}}}"#,
            r#"{"name": "x", "workload": {"mix": {"arrival_gap_secs": -2}}}"#,
            r#"{"name": "x", "workload": {"mix": {}, "queries": 2}}"#,
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn empty_strategy_sets_error_instead_of_panicking() {
        // No explicit reference: the default would look up strategies[0].
        let err = ScenarioSpec::from_json(r#"{"name": "x", "strategies": []}"#);
        assert!(err.is_err());
        // With an explicit reference the spec parses but validation rejects.
        let err =
            ScenarioSpec::from_json(r#"{"name": "x", "strategies": [], "reference": "first_row"}"#);
        assert!(err.is_err());
    }

    #[test]
    fn parsed_specs_are_validated() {
        // Structurally well-formed JSON, semantically invalid: SP on a
        // multi-node machine.
        let bad = r#"{"name": "x", "machine": {"nodes": 4}, "strategies": ["SP"]}"#;
        assert!(ScenarioSpec::from_json(bad).is_err());
    }

    #[test]
    fn fp_strategies_carry_their_error_rate() {
        let spec =
            ScenarioSpec::from_json(r#"{"name": "x", "strategies": ["DP", {"FP": 0.25}, "FP"]}"#)
                .unwrap();
        assert_eq!(
            spec.strategies,
            vec![
                Strategy::dynamic(),
                Strategy::fixed(0.25),
                Strategy::fixed(0.0)
            ]
        );
    }
}
