//! Micro-benchmarks of the individual hardware structures: the per-access
//! cost of the AGT, PHT, prediction registers, GHB, the cache model and
//! 16-CPU write-invalidate coherence, the SMS layer replaying a real run's
//! prefetcher calls, plus the end-to-end simulation throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ghb::{GhbConfig, GhbPredictor};
use memsim::{
    CacheConfig, HierarchyConfig, MultiCpuSystem, NullPrefetcher, PrefetchLevel, Prefetcher,
    SetAssocCache, SystemOutcome,
};
use sms::{
    ActiveGenerationTable, AgtConfig, IndexScheme, PatternHistoryTable, PhtCapacity,
    PredictionRegisterFile, RegionConfig, SmsConfig, SmsPredictor, SmsPrefetcher, SpatialPattern,
    StreamerConfig,
};
use std::hint::black_box;
use trace::{AccessKind, Application, GeneratorConfig, MemAccess};

const OPS: u64 = 10_000;

/// Accesses of the recorded run `sms_prefetcher_oltp_calls` replays.
const RECORDED_ACCESSES: usize = 20_000;

/// One call a prefetcher received during a recorded run.
enum PrefetcherCall {
    Access(MemAccess, SystemOutcome),
    StreamEviction(u8, u64),
}

/// Runs the first `accesses` accesses of `app` on a 2-CPU scaled system with
/// the paper's SMS attached, applying its fills through `cpu_mut` as
/// `memsim::run` does, and returns every call the prefetcher received.
fn record_sms_calls(app: Application, accesses: usize) -> Vec<PrefetcherCall> {
    let mut system = MultiCpuSystem::new(2, &HierarchyConfig::scaled());
    let mut sms = SmsPrefetcher::new(2, &SmsConfig::paper_default());
    let mut requests = Vec::new();
    let mut calls = Vec::new();
    let generator = GeneratorConfig::default().with_cpus(2);
    for access in app.stream(1, &generator).take(accesses) {
        let outcome = system.access(&access);
        sms.on_access_into(&access, &outcome, &mut requests);
        calls.push(PrefetcherCall::Access(access, outcome));
        for request in requests.drain(..) {
            let mut cpu = system.cpu_mut(request.cpu);
            match request.level {
                PrefetchLevel::L1 => {
                    if let Some(victim) = cpu.stream_fill(request.addr) {
                        sms.on_stream_eviction(request.cpu, victim.block_addr);
                        calls.push(PrefetcherCall::StreamEviction(
                            request.cpu,
                            victim.block_addr,
                        ));
                    }
                }
                PrefetchLevel::L2 => {
                    cpu.l2_prefetch_fill(request.addr);
                }
            }
        }
    }
    calls
}

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
        let mut pht = PatternHistoryTable::new(PhtCapacity::paper_default(), 32);
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

    // A file of 16 registers holding about three live ones, drained one
    // request per access, with an allocation of three 5-block patterns every
    // 16 accesses: the round-robin walk and its stop when no register is live.
    group.bench_function("prediction_registers_drain_into", |b| {
        let mut file = PredictionRegisterFile::new(
            RegionConfig::paper_default(),
            StreamerConfig::paper_default(),
        );
        let pattern = SpatialPattern::from_offsets(32, &[1, 4, 9, 17, 30]);
        let mut blocks = Vec::new();
        b.iter(|| {
            for i in 0..OPS {
                if i % 16 == 0 {
                    for region in 0..3 {
                        file.allocate(((i + region) % 1024) * 2048, pattern);
                    }
                }
                blocks.clear();
                file.drain_into(1, &mut blocks);
                black_box(&blocks);
            }
        })
    });

    // The SMS layer alone on a real call stream: the `on_access_into` and
    // `on_stream_eviction` calls of a 2-CPU scaled OltpDb2 run, recorded
    // once, replayed into a fresh `SmsPrefetcher` per iteration.  Compare
    // AGT, PHT and streamer variants with this row.
    let calls = record_sms_calls(Application::OltpDb2, RECORDED_ACCESSES);
    group.throughput(Throughput::Elements(RECORDED_ACCESSES as u64));
    group.bench_function("sms_prefetcher_oltp_calls", |b| {
        b.iter(|| {
            let mut sms = SmsPrefetcher::new(2, &SmsConfig::paper_default());
            let mut requests = Vec::new();
            for call in &calls {
                match call {
                    PrefetcherCall::Access(access, outcome) => {
                        requests.clear();
                        sms.on_access_into(access, outcome, &mut requests);
                    }
                    PrefetcherCall::StreamEviction(cpu, block_addr) => {
                        sms.on_stream_eviction(*cpu, *block_addr);
                    }
                }
            }
            black_box(sms.total_stats())
        })
    });
    group.throughput(Throughput::Elements(OPS));

    // The paper's 16 CPUs and Table-1 hierarchy under a write-heavy stream
    // (nearly half of DSS Qry1's accesses are writes):
    // `MultiCpuSystem::access`, coherence included, replayed on one warm
    // system.  Compare coherence variants with this row; the benchmark
    // package measures end-to-end gains.
    group.bench_function("coherence_16cpu_table1_dss_access", |b| {
        let accesses: Vec<MemAccess> = Application::DssQry1
            .stream(1, &GeneratorConfig::default().with_cpus(16))
            .take(OPS as usize)
            .collect();
        let mut system = MultiCpuSystem::new(16, &HierarchyConfig::table1());
        b.iter(|| {
            for access in &accesses {
                black_box(system.access(access));
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
