//! perfbench: end-to-end and per-layer benchmark of the hierdb simulator.
//!
//! One process runs one workload (so its memory high-water mark is its own):
//!
//! ```text
//! perfbench --workload <closed-skew|mix-failover|open-frontend> --seed <n>
//!           --seconds <s> --trace <0|1> [--skew-delta <d>]
//! ```
//!
//! It builds the workload's inputs from the seed (set-up), then repeats
//! rounds of the workload's engine calls, with more set-ups after each
//! round, until about `--seconds` of wall time have passed. It checks every
//! simulated output against pinned digests and against the first round, and
//! prints the metrics as the last line of standard output. Host times are
//! thread CPU time (see `clock`). `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced rounds and reports per-layer
//! metrics derived from the spans, which it also writes as JSON lines under
//! `.bench_out/`.

mod clock;
mod digest;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use trace::Tracer;
use workloads::{Call, Counters, Inputs, Kind};

/// Set-ups before the first round; `setup_s` is the median of all set-ups.
const FIRST_SETUPS: usize = 15;
/// After each round, set-ups repeat for this share of the round's wall time.
/// Host speed drifts in phases of a fraction of a second to several seconds,
/// so the median of set-ups made in one burst lands in one phase; set-ups
/// spread over the whole run sample the same host as the rounds.
const SETUP_SHARE: f64 = 0.1;
/// Timed rounds per run at least: later rounds are checked against the
/// first, per-call medians need three repeats, and a traced run needs an
/// untraced round to compare with.
const MIN_ROUNDS: usize = 3;
/// Passes of the outside `dlb-traffic` replays in a traced run.
const REPLAYS: usize = 64;

/// Digest of the first round's simulated outputs, per workload and seed.
/// Seed 1 is the default seed; seed 7 was held out while the benchmark was
/// written. Other seeds are checked round against round.
const PINNED: &[(&str, u64, u64)] = &[
    ("closed-skew", 1, 0xdc6c_e0ff_9fff_381e),
    ("closed-skew", 7, 0x3af5_e0dd_40f7_27f2),
    ("mix-failover", 1, 0x23f0_af3d_e4a3_3994),
    ("mix-failover", 7, 0x3285_14b6_6ed5_0ad5),
    ("open-frontend", 1, 0x41cf_3d46_2fc3_12fc),
    ("open-frontend", 7, 0x60f3_0c2a_d3c3_1764),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    skew_delta: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut skew_delta = 0.0;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--skew-delta" => skew_delta = value.parse().map_err(|_| bad("expected a number"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        skew_delta,
    })
}

struct Round {
    /// Host CPU seconds of the round.
    cpu_s: f64,
    traced: bool,
    calls: Vec<Call>,
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host memory high-water mark of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn round_digest(calls: &[Call]) -> u64 {
    let mut d = digest::Digest::new();
    for call in calls {
        d.word(*call.outcome.as_ref().unwrap_or(&0));
    }
    d.finish()
}

/// Counts failed calls: engine errors, failed output checks, calls whose
/// digest differs from the same call in the first round, and every call of
/// a round whose digest differs from the pinned one (the pin covers a whole
/// round, so it cannot tell which of the round's calls went wrong).
fn failures(rounds: &[Round], pinned: Option<u64>) -> u64 {
    let first = &rounds[0].calls;
    let mut failed = 0;
    for (r, round) in rounds.iter().enumerate() {
        let digest = round_digest(&round.calls);
        let pin_ok = pinned.is_none_or(|p| p == digest);
        if !pin_ok {
            eprintln!(
                "perfbench: round {r} digest {digest:#018x} differs from the pinned {:#018x}",
                pinned.unwrap_or(0)
            );
        }
        for (i, call) in round.calls.iter().enumerate() {
            let ok = match &call.outcome {
                Err(msg) => {
                    eprintln!("perfbench: round {r} call {i}: {msg}");
                    false
                }
                Ok(d) => pin_ok && first[i].outcome.as_ref().ok() == Some(d),
            };
            failed += u64::from(!ok);
        }
    }
    failed
}

/// Builds the workload's inputs once, in a span, and times it.
fn set_up(args: &Args, t: &mut Tracer) -> Result<(f64, Inputs), String> {
    let span = t.begin("bench.setup", None);
    let start = clock::thread_cpu_ns();
    let built = workloads::setup(args.kind, args.seed, args.skew_delta, t)
        .map_err(|e| format!("set-up failed: {e}"))?;
    let secs = clock::secs_since(start);
    t.end(span);
    Ok((secs, built))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let kind = args.kind;
    let mut t = Tracer::new();

    // Every set-up is traced in a traced run, so per-set-up layer times
    // divide by all of them. The rounds use the first set-up's inputs.
    let begun = Instant::now();
    let mut setup_s = Vec::new();
    let mut inputs: Option<Inputs> = None;
    t.on = args.trace;
    for _ in 0..FIRST_SETUPS {
        let (secs, built) = set_up(&args, &mut t)?;
        setup_s.push(secs);
        inputs.get_or_insert(built);
    }
    let inputs = inputs.expect("at least one set-up ran");

    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let traced = args.trace && rounds.len() % 2 == 1;
        t.on = traced;
        let round_begun = Instant::now();
        let span = t.begin("bench.round", None);
        let start = clock::thread_cpu_ns();
        let calls = workloads::round(&inputs, &mut t);
        let cpu_s = clock::secs_since(start);
        t.end(span);
        rounds.push(Round {
            cpu_s,
            traced,
            calls,
        });
        let setups_until = Instant::now() + round_begun.elapsed().mul_f64(SETUP_SHARE);
        t.on = args.trace;
        while Instant::now() < setups_until {
            setup_s.push(set_up(&args, &mut t)?.0);
        }
        let elapsed = begun.elapsed().as_secs_f64();
        let per_round = elapsed / rounds.len() as f64;
        if rounds.len() >= MIN_ROUNDS && elapsed + per_round > args.seconds {
            break;
        }
    }

    let pinned = PINNED
        .iter()
        .find(|(w, s, _)| *w == kind.name() && *s == args.seed)
        .map(|p| p.2);
    let failed = failures(&rounds, pinned);
    let attempted: u64 = rounds.iter().map(|r| r.calls.len() as u64).sum();

    // Each call repeats the same simulated work in every round, so its
    // median over the untraced rounds filters out host noise that hits
    // single rounds; the round's cost is the sum of those medians.
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let call_ms: Vec<f64> = (0..rounds[0].calls.len())
        .map(|i| {
            let repeats: Vec<f64> = untraced.iter().map(|r| r.calls[i].host_s).collect();
            median(&repeats) * 1e3
        })
        .collect();
    let round_queries: u64 = rounds[0].calls.iter().map(|c| c.queries).sum();
    let round_s = call_ms.iter().sum::<f64>() / 1e3;
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("sim_queries_per_s", round_queries as f64 / round_s, "1/s"),
        ("plan_ms_p50", quantile(&call_ms, 0.5), "ms"),
        ("plan_ms_p90", quantile(&call_ms, 0.9), "ms"),
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];

    println!(
        "perfbench {} seed={} set-ups={} rounds={} ({} untraced) calls={} \
         engine-call samples={} x {} first-round digest={:#018x}",
        kind.name(),
        args.seed,
        setup_s.len(),
        rounds.len(),
        untraced.len(),
        attempted,
        call_ms.len(),
        untraced.len(),
        round_digest(&rounds[0].calls),
    );
    let round_secs: Vec<String> = rounds.iter().map(|r| format!("{:.3}", r.cpu_s)).collect();
    println!("  round CPU seconds: {}", round_secs.join(" "));
    println!(
        "  {:<40} {} ({failed}/{attempted})",
        "failed_frac",
        failed as f64 / attempted as f64
    );

    let metrics = if args.trace {
        for (name, value, unit) in &e2e {
            println!("  {name:<40} {value:.6} {unit}");
        }
        let layer = per_layer(&args, &inputs, setup_s.len(), &rounds, &mut t)?;
        let path = std::path::PathBuf::from(".bench_out").join(format!(
            "trace-{}-seed{}.jsonl",
            kind.name(),
            args.seed
        ));
        t.write_jsonl(&path, kind.name())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
        layer
    } else {
        e2e
    };
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:.6} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0
    );
    Ok(())
}

/// Per-layer metrics of a traced run: set-up layers per set-up, engine
/// counters and self times per traced round, and the outside replays of the
/// `dlb-traffic` calls the open engine makes.
fn per_layer(
    args: &Args,
    inputs: &Inputs,
    setups: usize,
    rounds: &[Round],
    t: &mut Tracer,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let n = traced.len() as f64;
    let mut c = Counters::default();
    for call in traced.iter().flat_map(|r| &r.calls) {
        c.add(&call.counters);
    }

    let (mut arrivals, mut samples) = (0, 0);
    if args.kind == Kind::OpenFrontend {
        t.on = true;
        let spec = inputs.arrivals;
        let values: Vec<f64> = dlb_traffic::ArrivalStream::new(spec)?
            .map(|a| a.offset_secs)
            .collect();
        arrivals = values.len();
        samples = (c.histogram_samples as f64 / n) as usize;
        let span = t.begin("bench.replay", None);
        for _ in 0..REPLAYS {
            let s = t.begin("dlb-traffic.arrivals", None);
            let stream = dlb_traffic::ArrivalStream::new(spec)?;
            black_box(stream.fold(0usize, |acc, a| acc ^ a.template));
            t.end(s);
        }
        for _ in 0..REPLAYS {
            let s = t.begin("dlb-traffic.record", None);
            let mut h = dlb_traffic::LatencyHistogram::new();
            for v in values.iter().cycle().take(samples) {
                h.record(black_box(*v));
            }
            black_box(h.count());
            t.end(s);
        }
        t.end(span);
    }

    let own: BTreeMap<&str, f64> = t.self_secs();
    let own = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let setups = setups as f64;
    let engine_s = own(args.kind.engine_span()) / n;
    let events = c.events as f64 / n;
    let activations = c.activations as f64 / n;
    let round_cpu = |traced: bool| {
        let secs: Vec<f64> = rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.cpu_s)
            .collect();
        median(&secs)
    };
    let completed = c.completed as f64;
    Ok(vec![
        (
            "dlb-query.generate_s",
            own("dlb-query.generate") / setups,
            "s",
        ),
        (
            "dlb-query.optimize_s",
            own("dlb-query.optimize") / setups,
            "s",
        ),
        (
            "dlb-query.plan_build_s",
            own("dlb-query.plan_build") / setups,
            "s",
        ),
        ("dlb-query.plans", inputs.plans.len() as f64, "count"),
        ("dlb-exec.engine_s", engine_s, "s"),
        ("dlb-exec.events", events, "count"),
        ("dlb-exec.ns_per_event", ratio(engine_s * 1e9, events), "ns"),
        ("dlb-exec.activations", activations, "count"),
        (
            "dlb-exec.ns_per_activation",
            ratio(engine_s * 1e9, activations),
            "ns",
        ),
        ("dlb-exec.lb_requests", c.lb_requests as f64 / n, "count"),
        (
            "dlb-exec.lb_acquisitions",
            c.lb_acquisitions as f64 / n,
            "count",
        ),
        (
            "dlb-exec.lb_yield",
            ratio(c.lb_acquisitions as f64, c.lb_requests as f64),
            "ratio",
        ),
        ("dlb-exec.lb_bytes", c.lb_bytes as f64 / n, "bytes"),
        (
            "dlb-exec.fault.activations_rehomed",
            c.activations_rehomed as f64 / n,
            "count",
        ),
        (
            "dlb-exec.fault.rebalance_bytes",
            c.rebalance_bytes as f64 / n,
            "bytes",
        ),
        (
            "dlb-exec.admission_wait_s",
            ratio(c.admission_wait_s, c.cosim_queries as f64),
            "s",
        ),
        (
            "dlb-sim.utilization",
            ratio(c.utilization, c.reports as f64),
            "ratio",
        ),
        (
            "dlb-sim.node_imbalance",
            ratio(c.node_imbalance, c.reports as f64),
            "ratio",
        ),
        ("dlb-sim.messages", c.messages as f64 / n, "count"),
        ("dlb-sim.network_bytes", c.network_bytes as f64 / n, "bytes"),
        (
            "dlb-traffic.arrival_ns",
            ratio(
                own("dlb-traffic.arrivals") * 1e9,
                (REPLAYS * arrivals) as f64,
            ),
            "ns",
        ),
        (
            "dlb-traffic.record_ns",
            ratio(own("dlb-traffic.record") * 1e9, (REPLAYS * samples) as f64),
            "ns",
        ),
        (
            "dlb-frontend.hit_ratio",
            ratio(c.cache_hits as f64, completed),
            "ratio",
        ),
        (
            "dlb-frontend.coalesced_ratio",
            ratio(c.coalesced as f64, completed),
            "ratio",
        ),
        (
            "dlb-frontend.engine_share",
            ratio(c.engine_queries as f64, completed),
            "ratio",
        ),
        (
            "bench.trace_overhead",
            round_cpu(true) / round_cpu(false) - 1.0,
            "ratio",
        ),
        ("bench.unattributed_s", own("bench.round") / n, "s"),
    ])
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
