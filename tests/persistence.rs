//! The [`Persistence`] facade's always-on contract, run as a backend
//! matrix (ISSUE 9):
//!
//! * a **background** commit freezes the engine's persistable state at
//!   the commit cursor — spans of *later* days pushed while the frozen
//!   view serializes (in any chunk split, streaming or batch) never leak
//!   into the committed chain, so the restore is bit-identical to a
//!   quiescent sync checkpoint taken at the same cursor;
//! * a **tiered** compaction pass replays at most `1 + K` chain blocks,
//!   and publishes that bound through the `compaction_replay_segments`
//!   gauge; every freeze records a `checkpoint_stall_micros` sample;
//! * models fitted after the chain's last full block reach the chain: the
//!   next commit is promoted to a full block, so a restore scores with the
//!   trained models.

// Each integration-test crate uses a subset of the harness; the unused
// remainder is not a defect.
#[path = "support/backends.rs"]
#[allow(dead_code)]
mod support;

use earlybird::core::{CcModel, SimScorer};
use earlybird::engine::{
    CompactionTrigger, DayBatch, Engine, EngineBuilder, IngestSource, LifecycleConfig,
    MetricsRegistry, Persistence, RetentionPolicy, SnapshotPolicy,
};
use earlybird::logmodel::Day;
use earlybird::store::BlockKind;
use earlybird::synthgen::ac::{AcConfig, AcGenerator};
use earlybird::synthgen::lanl::{LanlChallenge, LanlConfig, LanlGenerator};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use support::Backend;

/// One deterministic world shared by every case (generation dominates the
/// per-case cost, and the property quantifies over ingest schedules, not
/// datasets).
fn challenge() -> &'static LanlChallenge {
    static WORLD: OnceLock<LanlChallenge> = OnceLock::new();
    WORLD.get_or_init(|| LanlGenerator::new(LanlConfig::tiny()).generate())
}

fn lanl_engine(challenge: &LanlChallenge) -> Engine {
    EngineBuilder::lanl()
        .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
        .expect("valid config")
}

/// The full-snapshot bytes an engine restored from `store` would freeze —
/// the strongest state-equality probe we have (every counter, profile,
/// retained index, and cursor is in there).
fn restored_snapshot_bytes(store: &Persistence) -> Vec<u8> {
    let engine = store.restore(EngineBuilder::lanl()).expect("chain restores");
    let mut bytes = Vec::new();
    engine.freeze().write_to(&mut bytes).expect("frozen view serializes");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any number of later days and any chunk split (streamed
    /// `push_dns_records` or whole-day `ingest_day`) fed to the engine
    /// while a background [`CommitHandle`] is still in flight, the chain
    /// that commit produced restores bit-identically to a quiescent
    /// *sync* checkpoint of the same days — on every backend.
    #[test]
    fn background_commit_is_isolated_from_concurrent_ingest(
        extra_days in 1usize..=2,
        chunks in 1usize..=4,
        stream_later_days in proptest::bool::ANY,
    ) {
        let challenge = challenge();
        let boot = challenge.dataset.meta.bootstrap_days as usize;
        // The cursor under test: the first post-bootstrap operation day.
        let cut = boot + 1;
        let cfg = LifecycleConfig {
            compaction: CompactionTrigger::disabled(),
            retention: RetentionPolicy::default(),
        };

        for template in Backend::matrix("persist-bg") {
            // ---- Reference: quiescent sync commits of days[..=cut]. ----
            let backend = template.fresh();
            let store =
                Persistence::new(backend.create(cfg).expect("create store"), SnapshotPolicy::default());
            let mut engine = lanl_engine(challenge);
            for day in &challenge.dataset.days[..=cut] {
                engine.ingest_day(DayBatch::Dns(day));
                store.commit(&engine).expect("freeze").wait().expect("sync commit");
            }
            let reference_bytes = restored_snapshot_bytes(&store);
            drop(store);

            // ---- Under test: day `cut` committed in the background, ----
            // ---- later days ingested while the handle is in flight. ----
            let backend = backend.fresh();
            let store = Persistence::new(
                backend.create(cfg).expect("create store"),
                SnapshotPolicy::default().background(),
            );
            let mut engine = lanl_engine(challenge);
            for day in &challenge.dataset.days[..cut] {
                engine.ingest_day(DayBatch::Dns(day));
                store.commit(&engine).expect("freeze").wait().expect("background commit");
            }
            engine.ingest_day(DayBatch::Dns(&challenge.dataset.days[cut]));
            let inflight = store.commit(&engine).expect("freeze is immediate");

            // The freeze has happened; everything ingested from here on
            // must be invisible to the commit racing underneath it.
            for day in &challenge.dataset.days[cut + 1..cut + 1 + extra_days] {
                if stream_later_days {
                    let chunk_len = (day.queries.len() / chunks).max(1);
                    let mut ingest = engine.begin_day(day.day, IngestSource::Dns);
                    for chunk in day.queries.chunks(chunk_len) {
                        ingest.push_dns_records(chunk);
                    }
                    ingest.finish();
                } else {
                    engine.ingest_day(DayBatch::Dns(day));
                }
            }
            let outcome = inflight.wait().expect("in-flight commit lands");
            prop_assert_eq!(outcome.block.kind, BlockKind::DaySegment, "{}", backend.name());
            prop_assert_eq!(outcome.block.days, 1, "{}: a segment carries one day", backend.name());
            store.drain().expect("queue drains clean");
            drop(store); // worker joins; only the backend survives

            let store = Persistence::new(
                backend.open(cfg).expect("reopen store"),
                SnapshotPolicy::default(),
            );
            let restored = store.restore(EngineBuilder::lanl()).expect("chain restores");
            prop_assert_eq!(
                restored.reports().count(),
                cut + 1,
                "{}: later days must not leak into the chain",
                backend.name()
            );
            drop(restored);
            let background_bytes = restored_snapshot_bytes(&store);
            prop_assert_eq!(
                &background_bytes,
                &reference_bytes,
                "{}: background commit under concurrent ingest must be \
                 bit-identical to the quiescent checkpoint at the same cursor",
                backend.name()
            );
            drop(store);
            backend.cleanup();
        }
    }
}

/// A daily cycle under `SnapshotPolicy::tier(K)`: every compaction pass
/// the trigger fires folds at most `K` segments and replays at most
/// `1 + K` chain blocks — published through `compaction_replay_segments`
/// — and every freeze records a `checkpoint_stall_micros` sample.
#[test]
fn tiered_cycle_bounds_replay_and_publishes_the_gauge() {
    const FOLD: usize = 2;
    let challenge = challenge();
    let boot = challenge.dataset.meta.bootstrap_days as usize;
    let total = boot + 6;
    let cfg = LifecycleConfig {
        compaction: CompactionTrigger {
            max_segments: Some(3),
            max_segment_bytes: None,
            fold_segments: None, // the policy tier must override this
        },
        retention: RetentionPolicy::default(),
    };

    for template in Backend::matrix("persist-tier") {
        let backend = template.fresh();
        let registry = Arc::new(MetricsRegistry::new());
        let store = Persistence::new(
            backend.create(cfg).expect("create store"),
            SnapshotPolicy::default().tier(FOLD),
        );
        let mut engine = EngineBuilder::lanl()
            .metrics(Arc::clone(&registry))
            .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
            .expect("valid config");
        let replay_gauge = registry.gauge(
            "compaction_replay_segments",
            "Chain blocks replayed by the most recent compaction pass",
            &[],
        );

        let mut passes = 0usize;
        for day in &challenge.dataset.days[..total] {
            engine.ingest_day(DayBatch::Dns(day));
            let outcome = store.commit(&engine).expect("freeze").wait().expect("daily persist");
            if let Some(report) = outcome.compaction {
                passes += 1;
                assert!(
                    report.segments_folded <= FOLD,
                    "{}: folded {} > tier {FOLD}",
                    backend.name(),
                    report.segments_folded
                );
                assert!(
                    report.segments_replayed <= 1 + FOLD,
                    "{}: replayed {} blocks, tier bounds it at {}",
                    backend.name(),
                    report.segments_replayed,
                    1 + FOLD
                );
                assert_eq!(
                    replay_gauge.get(),
                    report.segments_replayed as i64,
                    "{}: gauge must mirror the last pass",
                    backend.name()
                );
            }
        }
        assert!(passes >= 2, "{}: trigger fired {passes} times; cycle too short", backend.name());
        let stalls = registry.latency_histogram("checkpoint_stall_micros", "", &[]).count();
        assert!(
            stalls >= total as u64,
            "{}: {total} freezes must each record a stall sample, got {stalls}",
            backend.name()
        );

        // The bounded-replay chain still restores the full history.
        let restored = store.restore(EngineBuilder::lanl()).expect("compacted chain restores");
        assert_eq!(restored.reports().count(), total, "{}", backend.name());
        drop(store);
        backend.cleanup();
    }
}

/// Training changes the engine configuration, which only full blocks
/// carry. A day segment committed after `train_enterprise` on a chain whose
/// full block predates training must not lose the models: the commit is
/// promoted to a full block, the restored engine scores with the trained
/// regressions and re-freezes byte-identical to the live one, and the
/// commit after that is a plain day segment again.
#[test]
fn trained_models_survive_a_day_segment_commit() {
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let data = &world.dataset;
    let train_end = world.config.feb_day(14);
    let builder = || {
        EngineBuilder::enterprise()
            .whois(world.intel.whois.clone())
            .proxy_interners(Arc::clone(&data.uas), Arc::clone(&data.paths))
    };
    let mut engine =
        builder().build(Arc::clone(&data.domains), data.meta.clone()).expect("valid config");
    let store = Persistence::new(
        Backend::Mem(earlybird::engine::MemBackend::new())
            .create(LifecycleConfig {
                compaction: CompactionTrigger::disabled(),
                retention: RetentionPolicy::default(),
            })
            .expect("create store"),
        SnapshotPolicy::default(),
    );
    let mut days = data.days.iter().peekable();
    let mut ingest_and_commit = |engine: &mut Engine, last: Day| {
        let mut kinds = Vec::new();
        while let Some(day) = days.next_if(|d| d.day <= last) {
            engine.ingest_day(DayBatch::Proxy { day, dhcp: &data.dhcp });
            kinds.push(store.commit(engine).expect("freeze").wait().expect("commit").block.kind);
        }
        kinds
    };

    let before = ingest_and_commit(&mut engine, train_end);
    assert_eq!(before[0], BlockKind::Full, "the chain opens with a full block");
    assert!(before[1..].iter().all(|&k| k == BlockKind::DaySegment));
    engine.train_enterprise(train_end, &world.intel.vt, 0.4, 0.4).expect("tiny world trains");
    let after = ingest_and_commit(&mut engine, Day::new(train_end.index() + 2));
    assert_eq!(after, [BlockKind::Full, BlockKind::DaySegment], "promoted once, then segments");

    let restored =
        store.restore_with_domains(Arc::clone(&data.domains), builder()).expect("chain restores");
    assert!(matches!(restored.config().cc_model, CcModel::Regression { .. }));
    assert!(matches!(restored.config().sim, SimScorer::Regression { .. }));
    assert_eq!(restored.whois_defaults(), engine.whois_defaults());
    let frozen = |engine: &Engine| {
        let mut bytes = Vec::new();
        engine.freeze().write_to(&mut bytes).expect("frozen view serializes");
        bytes
    };
    assert_eq!(frozen(&restored), frozen(&engine), "restored engine re-freezes identically");
}
