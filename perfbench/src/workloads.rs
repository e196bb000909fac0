//! The three workloads and the passes that measure them.
//!
//! A pass drives one whole observation window from a fresh engine (or a
//! fresh daemon root) and records the benchmark's own timings. An untraced pass
//! runs with a disabled metrics registry and gives the end-to-end
//! metrics; a traced pass runs the same input with an enabled registry
//! and gives the per-layer breakdown.

use crate::adapter::{self, Client, Funnel, Library, Read};
use crate::stats::{Checks, Digest, RssSampler};
use crate::world::{self, World};
use earlybird_engine::MetricsRegistry;
use earlybird_synthgen::{AcConfig, LanlConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DnsBulk,
    ProxyChurn,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::DnsBulk, Workload::ProxyChurn, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DnsBulk => "dns_bulk",
            Workload::ProxyChurn => "proxy_churn",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// World size: the benchmark's own, or the generator's smallest shapes
/// for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Reads issued after each sealed steady-state operation day: one
/// no-hint investigation, 20 `reports`, and 4 `report` and 5 `alerts`
/// spread between them. The listing is the bulk of the mix so that p50
/// falls inside one kind of read rather than on the edge between two,
/// and the investigation (1 in 30) carries p99.
pub const READS_PER_DAY: usize = 30;

fn read_mix() -> impl Iterator<Item = Read> {
    (0..READS_PER_DAY).map(|i| match (i, i % 3, i / 3 % 2) {
        (0, _, _) => Read::Investigate,
        (_, 0, 0) => Read::Report,
        (_, 0, _) => Read::Alerts,
        _ => Read::Reports,
    })
}

/// Times one read of the mix, in seconds. A listing or lookup is issued
/// [`READ_REPEATS`] times back to back, each one checked, and the fastest
/// is taken: it lasts about a millisecond, so a host preemption that
/// lands on one request in a hundred would otherwise set the p99, and the
/// fastest repeat keeps the tail to what the read path itself costs. An
/// investigation is issued once, as it delivers its alerts into the
/// tenant's alert stream.
fn timed_read(
    read: Read,
    mut issue: impl FnMut() -> Result<usize, String>,
    checks: &mut Checks,
) -> Option<f64> {
    let repeats = if read == Read::Investigate { 1 } else { READ_REPEATS };
    let mut fastest = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        checks.op(issue())?;
        fastest = fastest.min(start.elapsed().as_secs_f64());
    }
    Some(fastest)
}

/// Times each listing or lookup of the mix is issued; see [`timed_read`].
const READ_REPEATS: usize = 2;

/// Sharded lanes on `dns_bulk`.
const DNS_SHARDS: usize = 2;

pub struct Inputs {
    pub worlds: Vec<World>,
    pub prep_s: f64,
}

/// Generates and renders the workload's worlds (outside every timer).
pub fn prepare(workload: Workload, scale: Scale, seed: u64) -> Inputs {
    let start = Instant::now();
    let block = |full: usize| if scale == Scale::Full { full } else { 4 << 10 };
    let lanl = |seed: u64, hosts: u32| match scale {
        Scale::Full => LanlConfig {
            seed,
            n_hosts: hosts,
            queries_per_host_day: (20, 40),
            ..LanlConfig::small()
        },
        Scale::Tiny => LanlConfig { seed, ..LanlConfig::tiny() },
    };
    let worlds = match workload {
        Workload::DnsBulk => vec![world::lanl(lanl(seed, 10_000), block(1 << 20))],
        Workload::ProxyChurn => {
            let cfg = match scale {
                Scale::Full => AcConfig {
                    new_benign_per_day: 3_000,
                    benign_auto_per_day: 300,
                    ..AcConfig::new(seed)
                },
                Scale::Tiny => AcConfig { seed, ..AcConfig::tiny() },
            };
            vec![world::enterprise(cfg, block(1 << 20))]
        }
        Workload::ServeMixed => {
            (0..2).map(|t| world::lanl(lanl(seed.wrapping_add(t), 3_000), block(4 << 20))).collect()
        }
    };
    Inputs { worlds, prep_s: start.elapsed().as_secs_f64() }
}

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// First push to last day sealed and committed.
    pub wall_s: f64,
    pub records: u64,
    /// Per steady-state day: last push returned → sealed and durable.
    pub seals_ms: Vec<f64>,
    pub queries_ms: Vec<f64>,
    /// Summed benchmark-side time per read route, in [`Read::ALL`] order.
    pub route_s: [f64; 4],
    pub push_s: f64,
    pub finish_s: f64,
    pub train_s: f64,
    pub digest: u64,
    pub store_bytes: u64,
    pub rss_peak_mb: f64,
    pub funnel: Funnel,
    /// Alerts delivered, investigations included.
    pub alerts: u64,
}

/// Checks a sealed day's report against the text that was pushed.
fn check_day(checks: &mut Checks, report: &earlybird_engine::DayReport, lines: u64, errors: u64) {
    let c = Funnel::of(report);
    checks.check(
        c.records_in == lines && c.parse_errors == 0 && errors == 0,
        format!(
            "day {}: {} records read back of {lines} lines sent, {} parse errors",
            report.day.index(),
            c.records_in,
            c.parse_errors.max(errors)
        ),
    );
}

/// The alert cursor for a day's `alerts` reads: the day's first alert,
/// or the previous cursor when the day raised none.
fn day_since(report: &earlybird_engine::DayReport, previous: u64) -> u64 {
    report.alerts.first().map_or(previous, |a| a.sequence)
}

/// One library pass over `world`. Returns the pass, the library, whose
/// store the set-up measurement restores from, and the live engine's
/// checkpoint bytes right after the last commit (the reads that follow
/// advance the alert sequence past what the store holds).
pub fn library_pass<'w>(
    world: &'w World,
    registry: &Arc<MetricsRegistry>,
    sample_rss: bool,
    checks: &mut Checks,
) -> Option<(Pass, Library<'w>, Vec<u8>)> {
    let shards = if world.enterprise.is_some() { 1 } else { DNS_SHARDS };
    let mut lib = checks.op(Library::new(world, shards, registry))?;
    let rss = sample_rss.then(RssSampler::start);
    let mut pass = Pass::default();
    let mut digest = Digest::default();
    let mut since = 0;
    let mut committed = Vec::new();
    for (i, day) in world.days.iter().enumerate() {
        let start = Instant::now();
        let t = checks.op(lib.run_day(day))?;
        let mut day_s = (t.sealed_at - start).as_secs_f64();
        if i + 1 == world.days.len() {
            committed = checks.op(lib.freeze_bytes())?;
        }
        pass.push_s += t.push_s;
        pass.finish_s += t.finish_s;
        pass.records += day.lines;
        check_day(checks, &t.report, day.lines, t.push_errors);
        pass.funnel.add(&Funnel::of(&t.report));
        digest.add(&adapter::report_json(&t.report));

        if world.enterprise.as_ref().is_some_and(|e| e.train_end == day.day) {
            let start = Instant::now();
            checks.op(lib.train())?;
            pass.train_s += start.elapsed().as_secs_f64();
            checks.op(lib.commit_full())?;
            day_s += start.elapsed().as_secs_f64();
        }
        pass.wall_s += day_s;
        // Latency samples and the read mix come from the steady state:
        // operation days after any training. Before it the proxy engine
        // scores with untrained models and expands far more, and a
        // percentile over both regimes sits on the edge between them.
        let steady =
            !t.report.bootstrap && world.enterprise.as_ref().is_none_or(|e| day.day > e.train_end);
        if steady {
            pass.seals_ms.push((t.sealed_at - t.pushed_at).as_secs_f64() * 1e3);
            since = day_since(&t.report, since);
            for read in read_mix() {
                let secs = timed_read(read, || lib.read(read, day.day, since), checks)?;
                pass.queries_ms.push(secs * 1e3);
                pass.route_s[read as usize] += secs;
            }
        }
    }
    if let Some(rss) = rss {
        pass.rss_peak_mb = rss.stop();
    }
    let alerts = lib.alert_stream();
    pass.alerts = alerts.len() as u64;
    for alert in &alerts {
        digest.add(alert);
    }
    pass.digest = digest.finish();
    pass.store_bytes = lib.chain_bytes();
    Some((pass, lib, committed))
}

/// Restores the library's store `restores` times, reporting into
/// `registry`; checks that the first restored engine re-freezes
/// byte-identical to the live one as of its last commit (`live`).
/// Returns the restore times.
pub fn library_setup(
    lib: &Library<'_>,
    live: &[u8],
    restores: usize,
    registry: &Arc<MetricsRegistry>,
    checks: &mut Checks,
) -> Option<Vec<f64>> {
    let mut times = Vec::new();
    for i in 0..restores {
        let (secs, restored) = checks.op(lib.cold_restore(registry))?;
        times.push(secs);
        if i == 0 {
            checks.check(
                restored == live,
                "restored engine re-freezes byte-identical to the live one",
            );
        }
    }
    Some(times)
}

/// What one serve client measured.
#[derive(Default)]
struct ClientRun {
    records: u64,
    seals_ms: Vec<f64>,
    queries_ms: Vec<f64>,
    route_s: [f64; 4],
    push_s: f64,
    finish_s: f64,
    reports: Vec<String>,
    funnel: Funnel,
}

pub fn tenant_name(i: usize) -> String {
    format!("bench{i}")
}

/// One closed-loop client in lock-step with the others. Each day is one
/// round of `1 + clients` steps: in the first every client pushes its
/// day at once, so the tenants' ingest contends; in step `1 + lane` this
/// client seals the day and issues the read mix while the others wait.
/// Every client waits at `barrier` after every step. On two cores a seal
/// or read that overlapped the other tenant's ingest measured how the
/// scheduler shared the cores (seal p50 spread over five seeds 0.13, and
/// 0.04 to 0.09 alone), so seals and reads run alone. A client whose
/// operation failed stops calling the daemon but keeps meeting the
/// barrier.
fn serve_client(
    addr: std::net::SocketAddr,
    tenant: &str,
    world: &World,
    (lane, clients): (usize, usize),
    barrier: &Barrier,
    checks: &mut Checks,
) -> Option<ClientRun> {
    let mut client = Client::new(addr);
    let mut run = ClientRun::default();
    let (mut since, mut acked) = (0, (0, 0));
    let mut ok = true;
    for day in &world.days {
        for step in 0..=clients {
            if ok && step == 0 {
                match serve_push(&mut client, tenant, day, &mut run, checks) {
                    Some(a) => acked = a,
                    None => ok = false,
                }
            } else if ok && step == 1 + lane {
                ok = serve_seal(&mut client, tenant, day, acked, &mut since, &mut run, checks)
                    .is_some();
            }
            barrier.wait();
        }
    }
    ok.then_some(run)
}

/// Pushes a day in spans; returns the records acked and the span parse
/// errors.
fn serve_push(
    client: &mut Client,
    tenant: &str,
    day: &world::DayText,
    run: &mut ClientRun,
    checks: &mut Checks,
) -> Option<(u64, u64)> {
    let (mut pushed, mut errors) = (0, 0);
    for i in 0..day.blocks.len() {
        let start = Instant::now();
        let (total, span_errors) = checks.op(client.push_span(tenant, day.day, day.block(i)))?;
        run.push_s += start.elapsed().as_secs_f64();
        pushed = total;
        errors += span_errors;
    }
    Some((pushed, errors))
}

/// Seals a pushed day, checks it and, on an operation day, issues the
/// read mix.
fn serve_seal(
    client: &mut Client,
    tenant: &str,
    day: &world::DayText,
    (pushed, errors): (u64, u64),
    since: &mut u64,
    run: &mut ClientRun,
    checks: &mut Checks,
) -> Option<()> {
    let start = Instant::now();
    let report = checks.op(client.finish_day(tenant, day.day))?;
    let secs = start.elapsed().as_secs_f64();
    run.finish_s += secs;
    run.records += day.lines;
    checks.check(
        pushed == day.lines,
        format!(
            "{tenant} day {}: {pushed} records acked of {} lines sent",
            day.day.index(),
            day.lines
        ),
    );
    check_day(checks, &report, day.lines, errors);
    run.funnel.add(&Funnel::of(&report));
    run.reports.push(adapter::report_json(&report));
    if !report.bootstrap {
        run.seals_ms.push(secs * 1e3);
        *since = day_since(&report, *since);
        for read in read_mix() {
            let secs = timed_read(read, || client.read(tenant, read, day.day, *since), checks)?;
            run.queries_ms.push(secs * 1e3);
            run.route_s[read as usize] += secs;
        }
    }
    Some(())
}

/// One serve pass: a fresh daemon root, two tenants driven by one
/// lock-step client each. Leaves the shut-down daemon's store under `root`
/// and returns each tenant's stored reports for the restart check.
pub fn serve_pass(
    worlds: &[World],
    root: &Path,
    registry: &Arc<MetricsRegistry>,
    sample_rss: bool,
    checks: &mut Checks,
) -> Option<(Pass, Vec<Vec<String>>)> {
    let aligned = worlds.iter().all(|w| w.days.len() == worlds[0].days.len());
    checks.check(aligned, "the tenants' worlds have as many days, so their rounds line up");
    if !aligned {
        return None;
    }
    let _ = std::fs::remove_dir_all(root);
    checks
        .op(std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display())))?;
    let (bound, _) = checks.op(adapter::bind(root, registry))?;
    let daemon = bound.spawn();
    let addr = daemon.addr();
    let mut admin = Client::new(addr);
    for (i, world) in worlds.iter().enumerate() {
        checks.op(admin.create_tenant(&tenant_name(i), &world.meta))?;
    }

    let rss = sample_rss.then(RssSampler::start);
    let start = Instant::now();
    let barrier = Barrier::new(worlds.len());
    let runs: Vec<(Option<ClientRun>, Checks)> = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = worlds
            .iter()
            .enumerate()
            .map(|(i, world)| {
                scope.spawn(move || {
                    let mut checks = Checks::default();
                    let lane = (i, worlds.len());
                    let run =
                        serve_client(addr, &tenant_name(i), world, lane, barrier, &mut checks);
                    (run, checks)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let rss_peak_mb = rss.map_or(0.0, RssSampler::stop);

    let mut pass = Pass { wall_s, rss_peak_mb, ..Pass::default() };
    let mut digest = Digest::default();
    let mut stored = Vec::new();
    let mut ok = true;
    for (i, (run, client_checks)) in runs.into_iter().enumerate() {
        checks.merge(client_checks);
        let Some(run) = run else {
            ok = false;
            continue;
        };
        let tenant = tenant_name(i);
        pass.records += run.records;
        pass.seals_ms.extend(run.seals_ms);
        pass.queries_ms.extend(run.queries_ms);
        for (sum, r) in pass.route_s.iter_mut().zip(run.route_s) {
            *sum += r;
        }
        pass.push_s += run.push_s;
        pass.finish_s += run.finish_s;
        pass.funnel.add(&run.funnel);
        for report in &run.reports {
            digest.add(report);
        }
        let alerts = checks.op(admin.alert_stream(&tenant))?;
        pass.alerts += alerts.len() as u64;
        for alert in &alerts {
            digest.add(alert);
        }
        stored.push(checks.op(admin.stored_reports(&tenant))?);
    }
    pass.digest = digest.finish();
    // An idle keep-alive connection holds the daemon open past shutdown.
    drop(admin);
    checks.op(daemon.shutdown())?;
    pass.store_bytes = dir_bytes(root);
    ok.then_some((pass, stored))
}

/// Cold-starts the daemon on `root` `binds` times, reporting into
/// `registry`; the last one serves and must answer `reports` exactly as
/// before the restart.
pub fn serve_setup(
    root: &Path,
    tenants: usize,
    stored: &[Vec<String>],
    binds: usize,
    registry: &Arc<MetricsRegistry>,
    checks: &mut Checks,
) -> Option<Vec<f64>> {
    let mut times = Vec::new();
    for i in 0..binds {
        let start = Instant::now();
        let (bound, restored) = checks.op(adapter::bind(root, registry))?;
        times.push(start.elapsed().as_secs_f64());
        checks.check(restored == tenants, format!("{restored} of {tenants} tenants restored"));
        if i + 1 == binds {
            let daemon = bound.spawn();
            let mut client = Client::new(daemon.addr());
            for (t, before) in stored.iter().enumerate() {
                let after = checks.op(client.stored_reports(&tenant_name(t)))?;
                checks.check(
                    &after == before,
                    format!("{} reports equal across the restart", tenant_name(t)),
                );
            }
            drop(client);
            checks.op(daemon.shutdown())?;
        }
    }
    Some(times)
}

/// Total bytes of the regular files under `root`.
fn dir_bytes(root: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![PathBuf::from(root)];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}
