//! Benchmarks of Algorithm 1 through the Engine facade: belief propagation
//! in both modes, plus the threshold-sweep ablation (how `T_s` changes work
//! done per day), and one enterprise day at churn scale, where the labeled
//! set and the candidate pool are both large.

use criterion::{criterion_group, criterion_main, Criterion};
use earlybird_core::LabelReason;
use earlybird_engine::{DayBatch, EngineBuilder, Investigation};
use earlybird_eval::lanl::LanlRun;
use earlybird_synthgen::ac::{AcConfig, AcGenerator};
use earlybird_synthgen::lanl::ChallengeCase;

fn bench_bp_modes(c: &mut Criterion) {
    let challenge = earlybird_bench::lanl_world();
    let run = LanlRun::new(&challenge);
    let case3 = challenge
        .campaigns
        .iter()
        .find(|k| k.case == ChallengeCase::Three)
        .expect("schedule has case 3");
    let case4 = challenge
        .campaigns
        .iter()
        .find(|k| k.case == ChallengeCase::Four)
        .expect("schedule has case 4");
    let engine = run.engine();

    let mut group = c.benchmark_group("belief_propagation");
    group.bench_function("soc_hints_case3_day", |b| {
        b.iter(|| {
            engine
                .investigate(
                    case3.day,
                    Investigation::from_hint_hosts(case3.hint_hosts.iter().copied()),
                )
                .expect("retained day")
        })
    });
    group.bench_function("no_hint_case4_day_incl_cc_pass", |b| {
        b.iter(|| engine.investigate(case4.day, Investigation::no_hint()).expect("retained day"))
    });
    group.finish();
}

fn bench_bp_threshold_sweep(c: &mut Criterion) {
    // Ablation: lower T_s admits more expansion iterations per run.
    let challenge = earlybird_bench::lanl_world();
    let run = LanlRun::new(&challenge);
    let case3 = challenge
        .campaigns
        .iter()
        .find(|k| k.case == ChallengeCase::Three)
        .expect("schedule has case 3");
    let engine = run.engine();

    let mut group = c.benchmark_group("bp_threshold_sweep");
    for ts in [0.15f64, 0.25, 0.5] {
        group.bench_function(format!("ts_{ts}"), |b| {
            b.iter(|| {
                engine
                    .investigate(
                        case3.day,
                        Investigation::from_hint_hosts(case3.hint_hosts.iter().copied())
                            .sim_threshold(ts),
                    )
                    .expect("retained day")
            })
        });
    }
    group.finish();
}

fn bench_bp_churn_day(c: &mut Criterion) {
    // The first operation day of a high-churn proxy world with untrained
    // models: the auto-investigation seeds BP with every C&C detection of
    // the day (~150), whose hosts reach a pool of ~1.3k rare candidates.
    // Relating each candidate to the labeled set by scanning it would
    // cost O(pool x labeled) per iteration.
    let world = AcGenerator::new(AcConfig {
        new_benign_per_day: 3_000,
        benign_auto_per_day: 300,
        ..AcConfig::new(11)
    })
    .generate();
    let data = &world.dataset;
    let mut engine = EngineBuilder::enterprise()
        .whois(world.intel.whois.clone())
        .proxy_interners(std::sync::Arc::clone(&data.uas), std::sync::Arc::clone(&data.paths))
        .build(std::sync::Arc::clone(&data.domains), data.meta.clone())
        .expect("valid config");
    let day = &data.days[data.meta.bootstrap_days as usize];
    for log in &data.days[..=data.meta.bootstrap_days as usize] {
        engine.ingest_day(DayBatch::Proxy { day: log, dhcp: &data.dhcp });
    }
    let seeds: Vec<_> = engine
        .investigate(day.day, Investigation::no_hint())
        .expect("retained day")
        .outcome
        .labeled
        .iter()
        .filter(|d| d.reason == LabelReason::Seed)
        .map(|d| d.domain)
        .collect();
    assert!(seeds.len() >= 100, "churn day seeds BP with its C&C detections: {}", seeds.len());

    c.bench_function("bp_churn_day_cc_seeds", |b| {
        b.iter(|| {
            engine
                .investigate(day.day, Investigation::from_seed_domains(seeds.iter().copied()))
                .expect("retained day")
        })
    });
}

fn bench_cc_daily_pass(c: &mut Criterion) {
    // The daily C&C sweep over all rare domains (step 3 of operation).
    let challenge = earlybird_bench::lanl_world();
    let run = LanlRun::new(&challenge);
    let case4 = challenge
        .campaigns
        .iter()
        .find(|k| k.case == ChallengeCase::Four)
        .expect("schedule has case 4");
    let engine = run.engine();
    c.bench_function("cc_score_all_rare_domains", |b| {
        b.iter(|| engine.cc_scores(case4.day).expect("retained day"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_bp_modes, bench_bp_threshold_sweep, bench_bp_churn_day, bench_cc_daily_pass
}
criterion_main!(benches);
