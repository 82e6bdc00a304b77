//! Micro-benchmarks of the individual hardware structures: the per-access
//! cost of the AGT, PHT, prediction registers, GHB and the cache model, plus
//! the end-to-end simulation throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ghb::{GhbConfig, GhbPredictor};
use memsim::{CacheConfig, HierarchyConfig, MultiCpuSystem, NullPrefetcher, SetAssocCache};
use sms::{
    ActiveGenerationTable, AgtConfig, IndexScheme, PatternHistoryTable, PhtCapacity, RegionConfig,
    SmsConfig, SmsPredictor, SmsPrefetcher, SpatialPattern,
};
use std::hint::black_box;
use trace::{AccessKind, Application, GeneratorConfig};

const OPS: u64 = 10_000;

fn bench_structures(c: &mut Criterion) {
    let mut group = c.benchmark_group("structures");
    group.throughput(Throughput::Elements(OPS));

    group.bench_function("cache_access", |b| {
        let mut cache = SetAssocCache::new(CacheConfig::l1_table1());
        b.iter(|| {
            for i in 0..OPS {
                black_box(cache.access((i * 192) % (1 << 20), AccessKind::Read));
            }
        })
    });

    group.bench_function("agt_record_access", |b| {
        let mut agt =
            ActiveGenerationTable::new(RegionConfig::paper_default(), AgtConfig::paper_default());
        b.iter(|| {
            for i in 0..OPS {
                let addr = (i * 7 * 64) % (1 << 22);
                black_box(agt.record_access(addr, 0x4000 + (i % 64) * 4));
            }
        })
    });

    group.bench_function("pht_insert_lookup", |b| {
        let mut pht = PatternHistoryTable::new(PhtCapacity::paper_default());
        let pattern = SpatialPattern::from_offsets(32, &[0, 3, 7, 12, 31]);
        b.iter(|| {
            for i in 0..OPS {
                pht.insert(i % 50_000, pattern);
                black_box(pht.lookup((i * 13) % 50_000));
            }
        })
    });

    group.bench_function("ghb_on_miss", |b| {
        let mut ghb = GhbPredictor::new(&GhbConfig::paper_large());
        b.iter(|| {
            for i in 0..OPS {
                let pc = 0x4000 + (i % 128) * 4;
                black_box(ghb.on_miss(pc, (i * 320) % (1 << 24)));
            }
        })
    });

    // The call the simulator makes: `on_access_into` with one reused
    // buffer, cleared before every access (as `SmsPrefetcher` does), so no
    // access pays for an allocation.
    group.bench_function("sms_predictor_on_access_into", |b| {
        let mut predictor = SmsPredictor::new(&SmsConfig::paper_default());
        let mut blocks = Vec::new();
        b.iter(|| {
            for i in 0..OPS {
                let addr = (i * 96) % (1 << 22);
                blocks.clear();
                predictor.on_access_into(addr, 0x4000 + (i % 256) * 4, &mut blocks);
                black_box(&blocks);
                if i % 37 == 0 {
                    predictor.on_block_removed(addr);
                }
            }
        })
    });

    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    let accesses = 20_000usize;
    group.throughput(Throughput::Elements(accesses as u64));
    let generator = GeneratorConfig::default().with_cpus(2);

    group.bench_function("baseline_oltp_20k", |b| {
        b.iter(|| {
            let mut system = MultiCpuSystem::new(2, &HierarchyConfig::scaled());
            let mut stream = Application::OltpDb2.stream(1, &generator);
            black_box(memsim::run(
                &mut system,
                &mut NullPrefetcher::new(),
                &mut stream,
                accesses,
            ))
        })
    });

    group.bench_function("sms_oltp_20k", |b| {
        b.iter(|| {
            let mut system = MultiCpuSystem::new(2, &HierarchyConfig::scaled());
            let mut sms = SmsPrefetcher::new(2, &SmsConfig::paper_default());
            let mut stream = Application::OltpDb2.stream(1, &generator);
            black_box(memsim::run(&mut system, &mut sms, &mut stream, accesses))
        })
    });

    group.bench_function("sms_idealized_dss_20k", |b| {
        b.iter(|| {
            let mut system = MultiCpuSystem::new(2, &HierarchyConfig::scaled());
            let config = SmsConfig::idealized(IndexScheme::PcOffset, RegionConfig::paper_default());
            let mut sms = SmsPrefetcher::new(2, &config);
            let mut stream = Application::DssQry1.stream(1, &generator);
            black_box(memsim::run(&mut system, &mut sms, &mut stream, accesses))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_structures, bench_end_to_end);
criterion_main!(benches);
