//! Micro-benchmarks of the discrete-event substrate: calendar throughput,
//! disk timelines and network accounting.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dlb_common::config::{CpuParams, DiskParams, NetworkParams};
use dlb_common::{DiskId, NodeId, SimTime};
use dlb_sim::{DiskFarm, EventCalendar, Network};
use std::hint::black_box;

fn bench_calendar(c: &mut Criterion) {
    c.bench_function("calendar_schedule_pop_10k", |b| {
        b.iter_batched(
            EventCalendar::<u64>::new,
            |mut cal| {
                for i in 0..10_000u64 {
                    // Pseudo-random but deterministic times.
                    let t = (i.wrapping_mul(2_654_435_761)) % 1_000_000;
                    cal.schedule_at(SimTime::from_nanos(t), i);
                }
                while let Some(e) = cal.pop() {
                    black_box(e);
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_disks(c: &mut Criterion) {
    c.bench_function("disk_farm_10k_reads", |b| {
        b.iter_batched(
            || DiskFarm::new(DiskParams::default(), 4, 8),
            |mut farm| {
                for i in 0..10_000u32 {
                    let disk = DiskId::new(NodeId::new(i % 4), (i / 4) % 8);
                    black_box(farm.read_streaming(disk, SimTime::from_nanos(i as u64), 8));
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_network(c: &mut Criterion) {
    c.bench_function("network_10k_sends", |b| {
        b.iter_batched(
            || Network::new(NetworkParams::default(), CpuParams::default(), 4),
            |mut net| {
                for i in 0..10_000u32 {
                    let from = NodeId::new(i % 4);
                    let to = NodeId::new((i + 1) % 4);
                    black_box(net.send(from, to, 12_800, SimTime::from_nanos(i as u64)));
                }
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_calendar, bench_disks, bench_network);
criterion_main!(benches);
