//! Digests of every simulated output an engine call returns.
//!
//! A digest folds each simulated quantity of a report — response times,
//! makespans, event and activation counts, load-balancing counters, fault
//! statistics, latency quantiles and front-end statistics — bit for bit into
//! a 64-bit FNV-1a hash. A speed-only change leaves every digest unchanged.

use dlb_exec::{CoSimReport, ExecutionReport, OpenReport};
use dlb_traffic::LatencyHistogram;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn exec(d: &mut Digest, r: &ExecutionReport) {
    for b in r.strategy.label().bytes() {
        d.word(u64::from(b));
    }
    for w in [
        u64::from(r.nodes),
        u64::from(r.processors_per_node),
        r.response_time.as_nanos(),
        r.activations,
        r.tuples_processed,
        r.result_tuples,
        r.total_busy.as_nanos(),
        r.total_idle.as_nanos(),
        r.utilization.to_bits(),
        r.messages,
        r.network_bytes,
        r.lb_requests,
        r.lb_acquisitions,
        r.lb_bytes,
        r.events,
    ] {
        d.word(w);
    }
    for busy in &r.per_node_busy {
        d.word(busy.as_nanos());
    }
}

pub fn cosim(d: &mut Digest, r: &CoSimReport) {
    exec(d, &r.aggregate);
    for q in &r.queries {
        d.word(q.query as u64);
        d.word(u64::from(q.priority));
        for f in [
            q.arrival_secs,
            q.admitted_secs,
            q.wait_secs,
            q.completion_secs,
            q.response_secs,
        ] {
            d.float(f);
        }
        d.word(q.activations);
        d.word(q.tuples_processed);
        d.word(q.result_tuples);
    }
    let f = &r.faults;
    for w in [
        f.failures,
        f.drains,
        f.joins,
        f.rebalance_bytes,
        f.activations_rehomed,
        f.tuples_rehomed,
        f.tuples_lost,
        f.tuples_redone,
        f.operators_restarted,
    ] {
        d.word(w);
    }
}

fn histogram(d: &mut Digest, h: &LatencyHistogram) {
    d.word(h.count());
    d.float(h.mean());
    d.float(h.max());
    for q in [0.5, 0.9, 0.95, 0.99] {
        d.float(h.quantile(q).unwrap_or(-1.0));
    }
}

pub fn open(d: &mut Digest, r: &OpenReport) {
    exec(d, &r.aggregate);
    d.word(r.completed);
    d.word(r.peak_live as u64);
    d.float(r.throughput_qps);
    for h in [
        &r.response,
        &r.wait,
        &r.slowdown,
        &r.response_engine,
        &r.response_cache_hit,
        &r.response_coalesced,
    ]
    .into_iter()
    .chain(&r.response_by_class)
    {
        histogram(d, h);
    }
    let f = &r.frontend;
    for w in [
        f.cache_hits,
        f.cache_stale,
        f.cache_evictions,
        f.cache_misses,
        f.cache_bypass,
        f.coalesced,
        f.engine_queries,
    ] {
        d.word(w);
    }
    for &n in &r.engine_by_template {
        d.word(n);
    }
}
