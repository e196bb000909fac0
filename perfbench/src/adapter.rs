//! The one place the benchmark calls into the system under test: the
//! engine, its store and the serve daemon. A change to their public API
//! touches this module and nothing else of the benchmark.
//!
//! The benchmark's own timers sit here too, each around exactly one public
//! call, so the per-layer breakdown can subtract the program's exported
//! stage series from them.

use crate::world::{DayText, World};
use earlybird_engine::{
    AlertLog, AlertLogSink, BlockKind, DayIngest, DayReport, Engine, EngineBuilder, EngineError,
    IngestSource, Investigation, LifecycleConfig, LocalFsBackend, MemBackend, MetricsRegistry,
    Persistence, ShardedDayIngest, ShardedEngine, SnapshotPolicy, StoreDir,
};
use earlybird_logmodel::{DatasetMeta, Day, DomainInterner, HostKind};
use earlybird_serve::{
    InvestigateRequest, ServeClient, Server, ServerConfig, ServerHandle, TenantSpec,
};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Result of one operation; the message names the call that failed.
pub type Op<T> = Result<T, String>;

/// A metrics registry: enabled for the traced pass, disabled (no clock
/// reads in spans) for the untraced one.
pub fn registry(traced: bool) -> Arc<MetricsRegistry> {
    Arc::new(if traced { MetricsRegistry::new() } else { MetricsRegistry::disabled() })
}

/// The read mix issued after each sealed steady-state operation day.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Read {
    /// The day's stored report.
    Report,
    /// Alerts from the day's first sequence number on.
    Alerts,
    /// Every stored report.
    Reports,
    /// A no-hint belief-propagation investigation of the day.
    Investigate,
}

impl Read {
    pub const ALL: [Read; 4] = [Read::Report, Read::Alerts, Read::Reports, Read::Investigate];

    pub fn name(self) -> &'static str {
        match self {
            Read::Report => "report",
            Read::Alerts => "alerts",
            Read::Reports => "reports",
            Read::Investigate => "investigate",
        }
    }
}

/// Benchmark-side timings of one library day.
pub struct DayTimes {
    /// Summed wall time inside `push_lines` calls.
    pub push_s: f64,
    /// When the last `push_lines` returned.
    pub pushed_at: Instant,
    /// Wall time of `finish`.
    pub finish_s: f64,
    /// When the commit became durable.
    pub sealed_at: Instant,
    pub report: DayReport,
    /// Parse errors `push_lines` returned for the day's blocks.
    pub push_errors: u64,
}

enum Lane {
    Plain(Engine),
    Sharded(ShardedEngine),
}

/// The library path: an engine (plain or host-sharded) committing every
/// sealed day synchronously to an in-memory store.
pub struct Library<'w> {
    lane: Lane,
    alerts: AlertLog,
    backend: MemBackend,
    persistence: Persistence,
    world: &'w World,
}

fn builder(world: &World, registry: &Arc<MetricsRegistry>, sink: AlertLogSink) -> EngineBuilder {
    let base = match &world.enterprise {
        None => EngineBuilder::lanl(),
        Some(e) => EngineBuilder::enterprise()
            .whois(e.whois.clone())
            .soc_seeds(e.ioc_seeds.iter().cloned())
            .auto_investigate(true),
    };
    base.metrics(Arc::clone(registry)).sink(sink)
}

fn store_dir(backend: &MemBackend, registry: &MetricsRegistry, create: bool) -> Op<StoreDir> {
    let mut dir = if create {
        StoreDir::create_with(backend.clone(), LifecycleConfig::default())
    } else {
        StoreDir::open_with(backend.clone(), LifecycleConfig::default())
    }
    .map_err(|e| format!("open store: {e}"))?;
    dir.attach_metrics(registry, &[]);
    Ok(dir)
}

/// The push/seal surface shared by [`DayIngest`] and [`ShardedDayIngest`].
trait PushDay {
    fn push(&mut self, text: &str) -> usize;
    fn seal(self) -> Result<DayReport, EngineError>;
}

impl PushDay for DayIngest<'_, '_> {
    fn push(&mut self, text: &str) -> usize {
        self.push_lines(text).len()
    }
    fn seal(self) -> Result<DayReport, EngineError> {
        self.try_finish()
    }
}

impl PushDay for ShardedDayIngest<'_, '_> {
    fn push(&mut self, text: &str) -> usize {
        self.push_lines(text).len()
    }
    fn seal(self) -> Result<DayReport, EngineError> {
        self.try_finish()
    }
}

fn drive(mut ingest: impl PushDay, day: &DayText) -> Op<(f64, Instant, f64, DayReport, u64)> {
    let mut push_s = 0.0;
    let mut errors = 0u64;
    for i in 0..day.blocks.len() {
        let start = Instant::now();
        errors += ingest.push(day.block(i)) as u64;
        push_s += start.elapsed().as_secs_f64();
    }
    let pushed_at = Instant::now();
    let report = ingest.seal().map_err(|e| format!("finish day {}: {e}", day.day.index()))?;
    Ok((push_s, pushed_at, pushed_at.elapsed().as_secs_f64(), report, errors))
}

impl<'w> Library<'w> {
    /// A fresh engine over `world`; `shards` > 1 partitions each day by
    /// internal host across that many lanes.
    pub fn new(world: &'w World, shards: usize, registry: &Arc<MetricsRegistry>) -> Op<Self> {
        let sink = AlertLogSink::new();
        let alerts = sink.log();
        let b = builder(world, registry, sink);
        let raw = Arc::new(DomainInterner::new());
        let lane = if shards > 1 {
            Lane::Sharded(
                b.build_sharded(raw, world.meta.clone(), shards).map_err(|e| e.to_string())?,
            )
        } else {
            Lane::Plain(b.build(raw, world.meta.clone()).map_err(|e| e.to_string())?)
        };
        let backend = MemBackend::new();
        let dir = store_dir(&backend, registry, true)?;
        let persistence = Persistence::new(dir, SnapshotPolicy::default().sync());
        Ok(Library { lane, alerts, backend, persistence, world })
    }

    pub fn engine(&self) -> &Engine {
        match &self.lane {
            Lane::Plain(e) => e,
            Lane::Sharded(s) => s.engine(),
        }
    }

    /// Pushes a day's blocks, seals it and commits it durably.
    pub fn run_day(&mut self, day: &DayText) -> Op<DayTimes> {
        let source = match &self.world.enterprise {
            None => IngestSource::Dns,
            Some(e) => IngestSource::Proxy { dhcp: &e.dhcp },
        };
        let (push_s, pushed_at, finish_s, report, push_errors) = match &mut self.lane {
            Lane::Plain(e) => drive(e.begin_day(day.day, source), day)?,
            Lane::Sharded(s) => drive(s.begin_day(day.day, source), day)?,
        };
        self.persistence
            .commit(self.engine())
            .and_then(|handle| handle.wait())
            .map_err(|e| format!("commit day {}: {e}", day.day.index()))?;
        let sealed_at = Instant::now();
        Ok(DayTimes { push_s, pushed_at, finish_s, sealed_at, report, push_errors })
    }

    /// Fits the enterprise models over the days ingested so far.
    pub fn train(&mut self) -> Op<()> {
        let e = self.world.enterprise.as_ref().ok_or("training needs the proxy source")?;
        let engine = match &mut self.lane {
            Lane::Plain(engine) => engine,
            Lane::Sharded(s) => s.engine_mut(),
        };
        engine.train_enterprise(e.train_end, &e.vt, 0.4, 0.4).map_err(|e| format!("train: {e}"))?;
        Ok(())
    }

    /// Commits a full snapshot. The trained models live in the engine
    /// configuration, which only full blocks carry: without this commit
    /// after training, a restore from the day segments that follow comes
    /// back untrained.
    pub fn commit_full(&self) -> Op<()> {
        let snapshot = self.engine().freeze();
        let mut dir = self.persistence.store();
        let mut pending = dir.begin(BlockKind::Full).map_err(|e| format!("begin full: {e}"))?;
        let block = snapshot.write_to(&mut pending).map_err(|e| format!("write full: {e}"))?;
        dir.commit_full(pending, &block).map_err(|e| format!("commit full: {e}"))
    }

    /// One read; returns the number of items it produced.
    pub fn read(&self, read: Read, day: Day, since: u64) -> Op<usize> {
        let engine = self.engine();
        match read {
            Read::Report => engine
                .report(day)
                .cloned()
                .map(|r| r.alerts.len())
                .ok_or("report: no such day".into()),
            Read::Alerts => Ok(self.alerts.since(since).len()),
            Read::Reports => Ok(engine.reports().cloned().collect::<Vec<_>>().len()),
            Read::Investigate => engine
                .investigate(day, Investigation::no_hint())
                .map(|r| r.alerts.len())
                .map_err(|e| format!("investigate: {e}")),
        }
    }

    /// Every alert delivered so far, serialized in sequence order.
    pub fn alert_stream(&self) -> Vec<String> {
        self.alerts.since(0).iter().map(|a| serde_json::to_string(a).expect("alert")).collect()
    }

    pub fn chain_bytes(&self) -> u64 {
        self.persistence.store().chain_bytes()
    }

    /// The live engine's full checkpoint bytes.
    pub fn freeze_bytes(&self) -> Op<Vec<u8>> {
        freeze_bytes(self.engine())
    }

    /// Cold start from the store this library wrote: open the store and
    /// restore an engine from its chain. Returns the restored engine's
    /// checkpoint bytes and the seconds the open + restore took.
    pub fn cold_restore(&self, registry: &Arc<MetricsRegistry>) -> Op<(f64, Vec<u8>)> {
        let start = Instant::now();
        let dir = store_dir(&self.backend, registry, false)?;
        let persistence = Persistence::new(dir, SnapshotPolicy::default().sync());
        let engine = persistence
            .restore(builder(self.world, registry, AlertLogSink::new()))
            .map_err(|e| format!("restore: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        Ok((secs, freeze_bytes(&engine)?))
    }
}

fn freeze_bytes(engine: &Engine) -> Op<Vec<u8>> {
    let mut out = Vec::new();
    engine.freeze().write_to(&mut out).map_err(|e| format!("freeze: {e}"))?;
    Ok(out)
}

/// A report serialized for the digest, without its one wall-clock field.
pub fn report_json(report: &DayReport) -> String {
    let mut report = report.clone();
    report.stages.wall_micros = 0;
    serde_json::to_string(&report).expect("report serializes")
}

/// The counters of reports the benchmark checks and sums: records and
/// parse errors, the reduction funnel and the detection counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Funnel {
    pub records_in: u64,
    pub parse_errors: u64,
    pub domains_all: u64,
    pub domains_after_server_filter: u64,
    pub new_destinations: u64,
    pub rare_destinations: u64,
    pub automated_domains: u64,
    pub cc_detections: u64,
    pub bp_iterations: u64,
}

impl Funnel {
    pub fn of(report: &DayReport) -> Self {
        let s = &report.stages;
        Funnel {
            records_in: s.records_in as u64,
            parse_errors: s.parse_errors as u64,
            domains_all: s.domains_all as u64,
            domains_after_server_filter: s.domains_after_server_filter as u64,
            new_destinations: s.new_destinations as u64,
            rare_destinations: s.rare_destinations as u64,
            automated_domains: s.automated_domains as u64,
            cc_detections: s.cc_detections as u64,
            bp_iterations: s.bp_iterations as u64,
        }
    }

    pub fn add(&mut self, o: &Funnel) {
        self.records_in += o.records_in;
        self.parse_errors += o.parse_errors;
        self.domains_all += o.domains_all;
        self.domains_after_server_filter += o.domains_after_server_filter;
        self.new_destinations += o.new_destinations;
        self.rare_destinations += o.rare_destinations;
        self.automated_domains += o.automated_domains;
        self.cc_detections += o.cc_detections;
        self.bp_iterations += o.bp_iterations;
    }
}

/// The program's own series, read back from a registry, in seconds or
/// counts. Names follow the exported metric catalog.
#[derive(Clone, Copy, Debug, Default)]
pub struct Series {
    pub parse_s: f64,
    pub reduce_s: f64,
    pub profile_s: f64,
    pub cc_s: f64,
    pub bp_s: f64,
    pub shard_merge_s: f64,
    pub freeze_stall_s: f64,
    pub encode_s: f64,
    pub compact_s: f64,
    pub restore_s: f64,
    pub store_commit_s: f64,
    pub store_put_s: f64,
    pub store_swap_s: f64,
    pub store_get_s: f64,
    pub store_bytes: u64,
    pub records: u64,
    pub parse_errors: u64,
    pub serve_finish_commit_s: f64,
    pub serve_rejections: u64,
}

pub fn series(registry: &MetricsRegistry) -> Series {
    let snap = registry.snapshot();
    let secs =
        |name: &str, labels: &[(&str, &str)]| snap.histogram_totals(name, labels).sum as f64 / 1e6;
    let stage = |stage: &str| secs("engine_stage_micros", &[("stage", stage)]);
    Series {
        parse_s: stage("parse"),
        reduce_s: stage("reduce"),
        profile_s: stage("profile"),
        cc_s: stage("cc"),
        bp_s: stage("bp"),
        shard_merge_s: stage("shard_merge"),
        freeze_stall_s: secs("checkpoint_stall_micros", &[]),
        encode_s: stage("checkpoint"),
        compact_s: stage("compact"),
        restore_s: stage("restore"),
        store_commit_s: secs("store_commit_micros", &[]),
        store_put_s: secs("store_put_micros", &[]),
        store_swap_s: secs("store_swap_micros", &[]),
        store_get_s: secs("store_get_micros", &[]),
        store_bytes: snap.counter_sum("store_commit_bytes_total", &[]),
        records: snap.counter_sum("engine_records_total", &[]),
        parse_errors: snap.counter_sum("engine_parse_errors_total", &[]),
        serve_finish_commit_s: secs("serve_finish_commit_micros", &[]),
        serve_rejections: snap.counter_sum("serve_admission_rejections_total", &[]),
    }
}

/// A bound daemon over a local-filesystem root (fsync'd commits).
pub struct Bound(Server);

/// Binds a daemon on loopback, restoring every tenant under `root`.
pub fn bind(root: &Path, registry: &Arc<MetricsRegistry>) -> Op<(Bound, usize)> {
    let backend = LocalFsBackend::new(root).map_err(|e| format!("store root: {e}"))?;
    let cfg = ServerConfig { metrics: Arc::clone(registry), ..ServerConfig::default() };
    let server = Server::bind(Box::new(backend), cfg).map_err(|e| format!("bind: {e}"))?;
    let tenants = server.tenant_count();
    Ok((Bound(server), tenants))
}

/// A daemon serving on a background thread.
pub struct Daemon(ServerHandle);

impl Bound {
    pub fn spawn(self) -> Daemon {
        Daemon(self.0.spawn())
    }
}

impl Daemon {
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Asks for a graceful shutdown and waits until the daemon exited.
    pub fn shutdown(self) -> Op<()> {
        let result = ServeClient::new(self.addr()).shutdown();
        self.0.join();
        result.map(|_| ()).map_err(|e| format!("shutdown: {e}"))
    }
}

/// One keep-alive client connection.
pub struct Client(ServeClient);

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client(ServeClient::new(addr))
    }

    pub fn create_tenant(&mut self, name: &str, meta: &DatasetMeta) -> Op<()> {
        let mut spec = TenantSpec::lanl(meta.n_hosts, meta.bootstrap_days, meta.total_days);
        spec.internal_suffixes = meta.internal_suffixes.clone();
        spec.host_kinds = meta
            .host_kinds
            .iter()
            .map(|k| match k {
                HostKind::Server => "server".to_string(),
                HostKind::Workstation => "workstation".to_string(),
            })
            .collect();
        self.0.create_tenant(name, &spec).map_err(|e| format!("create tenant {name}: {e}"))
    }

    /// Pushes one span; returns (records pushed so far today, parse errors
    /// in this span).
    pub fn push_span(&mut self, tenant: &str, day: Day, text: &str) -> Op<(u64, u64)> {
        let ack = self
            .0
            .push_span(tenant, day.index(), text)
            .map_err(|e| format!("push {tenant} day {}: {e}", day.index()))?;
        Ok((ack.records_pushed, ack.span_parse_errors))
    }

    /// Seals a day; the ack is durable by contract.
    pub fn finish_day(&mut self, tenant: &str, day: Day) -> Op<DayReport> {
        let ack = self
            .0
            .finish_day(tenant, day.index())
            .map_err(|e| format!("finish {tenant} day {}: {e}", day.index()))?;
        if ack.durable {
            Ok(ack.report)
        } else {
            Err(format!("finish {tenant} day {}: ack not durable", day.index()))
        }
    }

    pub fn read(&mut self, tenant: &str, read: Read, day: Day, since: u64) -> Op<usize> {
        let d = day.index();
        let result = match read {
            Read::Report => self.0.report(tenant, d).map(|r| r.alerts.len()),
            Read::Alerts => self.0.alerts(tenant, since).map(|p| p.alerts.len()),
            Read::Reports => self.0.reports(tenant).map(|p| p.reports.len()),
            Read::Investigate => {
                self.0.investigate(tenant, &InvestigateRequest::no_hint(d)).map(|r| r.alerts.len())
            }
        };
        result.map_err(|e| format!("{} {tenant} day {d}: {e}", read.name()))
    }

    /// The stored reports, serialized for comparison across a restart.
    pub fn stored_reports(&mut self, tenant: &str) -> Op<Vec<String>> {
        let page = self.0.reports(tenant).map_err(|e| format!("reports {tenant}: {e}"))?;
        Ok(page.reports.iter().map(report_json).collect())
    }

    /// Every alert of a tenant, serialized in sequence order.
    pub fn alert_stream(&mut self, tenant: &str) -> Op<Vec<String>> {
        let page = self.0.alerts(tenant, 0).map_err(|e| format!("alerts {tenant}: {e}"))?;
        Ok(page.alerts.iter().map(|a| serde_json::to_string(a).expect("alert")).collect())
    }
}
