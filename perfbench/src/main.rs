//! Bytes-to-alert benchmark for earlybird.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dns_bulk|proxy_churn|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's worlds are generated from the seed and rendered to
//! interchange text before any timer starts. With `--trace 0` the run
//! makes untraced passes over the whole window, as many as fit in
//! `--seconds` at the workload's pass budget, and prints the
//! end-to-end metrics; with `--trace 1` it makes half as many pairs of an
//! untraced and a traced pass and prints the per-layer breakdown.
//! Progress goes to standard error; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod adapter;
mod digests;
mod stats;
mod workloads;
mod world;

use adapter::{Read, Series};
use earlybird_engine::MetricsRegistry;
use stats::{median, quantile, Checks};
use std::path::PathBuf;
use workloads::{Inputs, Pass, Scale, Workload};

/// Cold starts timed per run; `setup_s` is their median.
const RESTORES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// A finished run: its checks and its metrics.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload end to end at `scale`, in `work` (a directory the
/// run may write to and removes afterwards).
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
) -> Outcome {
    let mut checks = Checks::default();
    let n = passes(workload, seconds);
    let count = if trace { n.div_ceil(2) } else { n };
    let restores = if scale == Scale::Full { RESTORES } else { 2 };
    let _ = std::fs::create_dir_all(&work);
    let mut runner = Runner { workload, scale, seed, count, trace, restores, prep_s: 0.0 };
    let result = if workload == Workload::ServeMixed {
        runner.serve(&work.join("root"), &mut checks)
    } else {
        runner.library(&mut checks)
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    eprintln!("prep {:.2} s in all (generation and rendering, untimed)", runner.prep_s);
    for why in &checks.failures {
        eprintln!("FAILED: {why}");
    }
    Outcome { checks, metrics: result.unwrap_or_default() }
}

/// Compares a pass's digest with the one recorded for this workload,
/// scale and world seed, when there is one.
fn check_digest(workload: Workload, scale: Scale, seed: u64, digest: u64, checks: &mut Checks) {
    match digests::recorded(workload.name(), scale == Scale::Tiny, seed) {
        Some(want) => checks
            .check(digest == want, format!("digest {digest:016x} equals the recorded {want:016x}")),
        None => eprintln!("digest {digest:016x} (no recorded digest for world seed {seed})"),
    }
}

/// Passes a run makes: `seconds` over the workload's pass budget, at
/// least one. The count depends only on the arguments, never on how fast
/// this machine is, so every run of a workload pools the same number of
/// samples. On a 2-core machine a pass streams for about 8.5 s on
/// dns_bulk, 7 s on proxy_churn and 6.5 s on serve_mixed, so `--seconds
/// 24` makes 3, 4 and 4 passes and measures 25 to 28 s on each.
/// proxy_churn needs four: its 14 steady-state days pool to 56 seal
/// samples, ten of them above p80.
fn passes(workload: Workload, seconds: f64) -> usize {
    let budget_s = match workload {
        Workload::DnsBulk => 8.0,
        Workload::ProxyChurn => 6.0,
        Workload::ServeMixed => 6.0,
    };
    ((seconds / budget_s).round() as usize).max(1)
}

/// The seed of a run's world(s). Every pass of the run reads the same
/// world: generating and rendering one takes about as long as a pass
/// streams it, and the run-to-run spread comes from the host far more
/// than from the world's content, so the time goes into passes instead.
fn world_seed(seed: u64) -> u64 {
    seed.wrapping_mul(64)
}

/// All passes over one world must agree on the digest.
fn same_digest(passes: &[&Pass], checks: &mut Checks) {
    let first = passes[0].digest;
    for p in passes {
        checks
            .check(p.digest == first, format!("pass digest {:016x} equals {first:016x}", p.digest));
    }
}

struct Runner {
    workload: Workload,
    scale: Scale,
    seed: u64,
    /// Untraced passes, or untraced + traced pairs with `trace`.
    count: usize,
    trace: bool,
    restores: usize,
    prep_s: f64,
}

impl Runner {
    fn prepare(&mut self) -> Inputs {
        let seed = world_seed(self.seed);
        let inputs = workloads::prepare(self.workload, self.scale, seed);
        self.prep_s += inputs.prep_s;
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let records: u64 = inputs.worlds.iter().map(world::World::records).sum();
        let bytes: u64 = inputs.worlds.iter().map(world::World::bytes).sum();
        eprintln!(
            "{}: world seed {seed}, {cpus} cpus, {} days, {records} records, {bytes} bytes of \
             text, {} passes, prep {:.2} s",
            self.workload.name(),
            inputs.worlds[0].days.len(),
            self.count,
            inputs.prep_s
        );
        inputs
    }

    /// Checks a pass's digest against the recorded one and, as every pass
    /// reads the same world, against the first pass's.
    fn check_pass(&self, pass: &Pass, first: Option<&Pass>, checks: &mut Checks) {
        check_digest(self.workload, self.scale, world_seed(self.seed), pass.digest, checks);
        if let Some(first) = first {
            same_digest(&[first, pass], checks);
        }
    }

    fn library(&mut self, checks: &mut Checks) -> Option<Vec<Metric>> {
        let (mut passes, mut pairs, mut times) = (Vec::new(), Vec::new(), Vec::new());
        // Traced passes share one registry, so its series sum over them.
        let (traced, restored) = (adapter::registry(true), adapter::registry(self.trace));
        let inputs = self.prepare();
        let world = &inputs.worlds[0];
        for i in 0..self.count {
            let last = i + 1 == self.count;
            let (pass, lib, live) =
                workloads::library_pass(world, &adapter::registry(false), i == 0, checks)?;
            let first = passes.first().or(pairs.first().map(|(p, _)| p));
            self.check_pass(&pass, first, checks);
            let (lib, live) = if self.trace {
                drop(lib);
                let (traced_pass, lib, live) =
                    workloads::library_pass(world, &traced, false, checks)?;
                same_digest(&[&pass, &traced_pass], checks);
                pairs.push((pass, traced_pass));
                (lib, live)
            } else {
                passes.push(pass);
                (lib, live)
            };
            if last {
                let restores = if self.trace { 1 } else { self.restores };
                times = workloads::library_setup(&lib, &live, restores, &restored, checks)?;
            }
        }
        Some(self.metrics(&passes, &pairs, &times, &traced, &restored))
    }

    fn serve(&mut self, root: &std::path::Path, checks: &mut Checks) -> Option<Vec<Metric>> {
        let (mut passes, mut pairs, mut times) = (Vec::new(), Vec::new(), Vec::new());
        let (traced, restored) = (adapter::registry(true), adapter::registry(self.trace));
        let inputs = self.prepare();
        let worlds = &inputs.worlds;
        for i in 0..self.count {
            let last = i + 1 == self.count;
            let untraced = adapter::registry(false);
            let (pass, mut stored) =
                workloads::serve_pass(worlds, root, &untraced, i == 0, checks)?;
            let first = passes.first().or(pairs.first().map(|(p, _)| p));
            self.check_pass(&pass, first, checks);
            if self.trace {
                let (traced_pass, reports) =
                    workloads::serve_pass(worlds, root, &traced, false, checks)?;
                same_digest(&[&pass, &traced_pass], checks);
                stored = reports;
                pairs.push((pass, traced_pass));
            } else {
                passes.push(pass);
            }
            if last {
                let binds = if self.trace { 1 } else { self.restores };
                times =
                    workloads::serve_setup(root, worlds.len(), &stored, binds, &restored, checks)?;
            }
        }
        Some(self.metrics(&passes, &pairs, &times, &traced, &restored))
    }

    fn metrics(
        &self,
        passes: &[Pass],
        pairs: &[(Pass, Pass)],
        setup_times: &[f64],
        traced: &MetricsRegistry,
        restored: &MetricsRegistry,
    ) -> Vec<Metric> {
        if self.trace {
            let serve = self.workload == Workload::ServeMixed;
            per_layer(pairs, &adapter::series(traced), &adapter::series(restored), serve)
        } else {
            end_to_end(passes, setup_times)
        }
    }
}

fn end_to_end(passes: &[Pass], setup_times: &[f64]) -> Vec<Metric> {
    let records: u64 = passes.iter().map(|p| p.records).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let seals: Vec<f64> = passes.iter().flat_map(|p| p.seals_ms.iter().copied()).collect();
    let queries: Vec<f64> = passes.iter().flat_map(|p| p.queries_ms.iter().copied()).collect();
    let last = passes.last().expect("at least one pass");
    for (i, p) in passes.iter().enumerate() {
        eprintln!(
            "pass {i}: {} records in {:.3} s ({:.0} rec/s), {} seal samples, p50 {:.3} ms",
            p.records,
            p.wall_s,
            p.records as f64 / p.wall_s,
            p.seals_ms.len(),
            quantile(&p.seals_ms, 0.5)
        );
    }
    eprintln!(
        "{} passes, {records} records in {wall:.3} s; {} seal samples (p80 has {} above it); \
         {} query samples (p99 has {} above it); {} set-up samples",
        passes.len(),
        seals.len(),
        seals.len() - (0.8 * seals.len() as f64).ceil() as usize,
        queries.len(),
        queries.len() - (0.99 * queries.len() as f64).ceil() as usize,
        setup_times.len()
    );
    vec![
        ("ingest_rec_s".into(), records as f64 / wall, "rec/s"),
        ("seal_ms_p50".into(), quantile(&seals, 0.5), "ms"),
        ("seal_ms_p80".into(), quantile(&seals, 0.8), "ms"),
        ("query_ms_p50".into(), quantile(&queries, 0.5), "ms"),
        ("query_ms_p99".into(), quantile(&queries, 0.99), "ms"),
        ("setup_s".into(), median(setup_times), "s"),
        ("store_bytes_per_rec".into(), last.store_bytes as f64 / last.records as f64, "B/rec"),
        ("rss_peak_mb".into(), passes[0].rss_peak_mb, "MiB"),
    ]
}

/// The per-layer breakdown of the traced passes (per pass: `s` sums
/// the program's series over them), the tracing overhead against the
/// untraced passes over the same worlds, and the coverage: the share of
/// the traced wall the program's own series and the benchmark's single-call
/// timers attribute to a layer.
fn per_layer(pairs: &[(Pass, Pass)], s: &Series, restore: &Series, serve: bool) -> Vec<Metric> {
    let mut t = Pass::default();
    let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
    for (plain, traced) in pairs {
        plain_wall += plain.wall_s;
        traced_wall += traced.wall_s;
        t.push_s += traced.push_s;
        t.finish_s += traced.finish_s;
        t.train_s += traced.train_s;
        t.funnel.add(&traced.funnel);
        t.alerts += traced.alerts;
        for (sum, r) in t.route_s.iter_mut().zip(traced.route_s) {
            *sum += r;
        }
    }
    let n = pairs.len() as f64;
    let f = &t.funnel;
    let engine_stages = s.profile_s + s.cc_s + s.bp_s + s.shard_merge_s;
    let commit_stages = s.freeze_stall_s + s.encode_s + s.store_commit_s + s.compact_s;
    let (busy, attributed) = if serve {
        let busy = t.push_s + t.finish_s;
        (busy, s.parse_s + s.reduce_s + s.serve_finish_commit_s)
    } else {
        (traced_wall, s.parse_s + s.reduce_s + engine_stages + commit_stages + t.train_s)
    };
    let coverage = attributed / busy;
    let lib = |v: f64| if serve { 0.0 } else { v };
    let srv = |v: f64| if serve { v } else { 0.0 };
    let per_pass = |v: f64| v / n;
    let mut m: Vec<Metric> = vec![
        ("logmodel.parse_s".into(), per_pass(s.parse_s), "s"),
        ("logmodel.records".into(), per_pass(s.records as f64), "count"),
        ("logmodel.parse_errors".into(), per_pass(s.parse_errors as f64), "count"),
        ("pipeline.reduce_s".into(), per_pass(s.reduce_s), "s"),
        ("pipeline.profile_s".into(), per_pass(s.profile_s), "s"),
        ("pipeline.domains_all".into(), per_pass(f.domains_all as f64), "count"),
        (
            "pipeline.domains_after_server_filter".into(),
            per_pass(f.domains_after_server_filter as f64),
            "count",
        ),
        ("pipeline.new_destinations".into(), per_pass(f.new_destinations as f64), "count"),
        ("pipeline.rare_destinations".into(), per_pass(f.rare_destinations as f64), "count"),
        ("core.cc_s".into(), per_pass(s.cc_s), "s"),
        ("core.bp_s".into(), per_pass(s.bp_s), "s"),
        ("core.automated_domains".into(), per_pass(f.automated_domains as f64), "count"),
        ("core.cc_detections".into(), per_pass(f.cc_detections as f64), "count"),
        ("core.bp_iterations".into(), per_pass(f.bp_iterations as f64), "count"),
        ("core.alerts".into(), per_pass(t.alerts as f64), "count"),
        ("engine.push_s".into(), per_pass(lib(t.push_s)), "s"),
        ("engine.push_other_s".into(), per_pass(lib(t.push_s - s.parse_s - s.reduce_s)), "s"),
        ("engine.finish_s".into(), per_pass(lib(t.finish_s)), "s"),
        ("engine.finish_other_s".into(), per_pass(lib(t.finish_s - engine_stages)), "s"),
        ("engine.shard_merge_s".into(), per_pass(s.shard_merge_s), "s"),
        ("engine.freeze_stall_s".into(), per_pass(s.freeze_stall_s), "s"),
        ("engine.train_s".into(), per_pass(t.train_s), "s"),
        ("store.encode_s".into(), per_pass(s.encode_s), "s"),
        ("store.put_s".into(), per_pass(s.store_put_s), "s"),
        ("store.swap_s".into(), per_pass(s.store_swap_s), "s"),
        ("store.commit_s".into(), per_pass(s.store_commit_s), "s"),
        ("store.compact_s".into(), per_pass(s.compact_s), "s"),
        ("store.bytes_written".into(), per_pass(s.store_bytes as f64), "B"),
        ("store.restore_s".into(), restore.restore_s, "s"),
        ("store.get_s".into(), restore.store_get_s, "s"),
        ("serve.push_rtt_s".into(), per_pass(srv(t.push_s)), "s"),
        ("serve.push_other_s".into(), per_pass(srv(t.push_s - s.parse_s - s.reduce_s)), "s"),
        ("serve.finish_other_s".into(), per_pass(srv(t.finish_s - s.serve_finish_commit_s)), "s"),
    ];
    for read in Read::ALL {
        m.push((
            format!("serve.query_{}_s", read.name()),
            per_pass(srv(t.route_s[read as usize])),
            "s",
        ));
    }
    m.push(("serve.rejections".into(), per_pass(s.serve_rejections as f64), "count"));
    m.push(("obs.overhead_pct".into(), (traced_wall - plain_wall) / plain_wall * 100.0, "%"));
    m.push(("coverage".into(), coverage, "ratio"));
    eprintln!(
        "traced wall {:.3} s over {} pass(es); coverage {coverage:.3}{}",
        traced_wall / n,
        pairs.len(),
        if coverage < 0.95 {
            " (below 0.95: unattributed time, see perfbench/layers.json)"
        } else {
            ""
        }
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench-work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let outcome = run(args.workload, Scale::Full, args.seed, args.seconds, args.trace, work);
    println!("{}", outcome.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work_dir(tag: &str) -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.perfbench-work"))
            .join(format!("selftest-{tag}-{}", std::process::id()))
    }

    /// Every workload at the generators' tiny shapes, traced and not: all
    /// checks pass, the digest matches the recorded one, and every metric
    /// of the set is printed with a unit.
    #[test]
    fn tiny_scale_selftest() {
        for workload in Workload::ALL {
            assert!(digests::recorded(workload.name(), true, world_seed(3)).is_some());
            for trace in [false, true] {
                let tag = format!("{}-{trace}", workload.name());
                let outcome = run(workload, Scale::Tiny, 3, 0.0, trace, work_dir(&tag));
                assert!(outcome.correct(), "{tag}: {:?}", outcome.checks.failures);
                let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0.as_str()).collect();
                let want: &[&str] = if trace {
                    &[
                        "logmodel.parse_s",
                        "core.bp_s",
                        "store.encode_s",
                        "serve.push_rtt_s",
                        "coverage",
                    ]
                } else {
                    &["ingest_rec_s", "seal_ms_p80", "query_ms_p99", "setup_s", "rss_peak_mb"]
                };
                for name in want {
                    assert!(names.contains(name), "{tag}: {name} missing from {names:?}");
                }
                assert!(outcome.metrics.iter().all(|m| !m.2.is_empty() && m.1.is_finite()));
            }
        }
    }

    /// Each output check fails when its input is wrong.
    #[test]
    fn every_check_catches_a_mismatch() {
        let untraced = adapter::registry(false);
        // Records read back and parse errors: one garbage line.
        let mut inputs = workloads::prepare(Workload::DnsBulk, Scale::Tiny, 3);
        let day = &mut inputs.worlds[0].days[0];
        day.text.push_str("not a dns line\n");
        let end = day.text.len();
        day.blocks.last_mut().expect("a block").end = end;
        let mut checks = Checks::default();
        let (pass, lib, live) =
            workloads::library_pass(&inputs.worlds[0], &untraced, false, &mut checks)
                .expect("pass");
        assert_eq!(checks.failed, 1, "{:?}", checks.failures);
        assert!(checks.failures[0].contains("parse errors"));

        // Restored engine against the wrong live bytes.
        let mut checks = Checks::default();
        workloads::library_setup(&lib, &live[1..], 1, &untraced, &mut checks);
        assert_eq!(checks.failed, 1);

        // Passes that disagree, and a digest that is not the recorded one.
        let other = Pass { digest: pass.digest ^ 1, ..Pass::default() };
        let mut checks = Checks::default();
        same_digest(&[&pass, &other], &mut checks);
        check_digest(Workload::DnsBulk, Scale::Tiny, world_seed(3), pass.digest ^ 1, &mut checks);
        assert_eq!(checks.failed, 2);

        // Reports that changed across a daemon restart.
        let inputs = workloads::prepare(Workload::ServeMixed, Scale::Tiny, 3);
        let root = work_dir("mismatch").join("root");
        let mut checks = Checks::default();
        let (_, mut stored) =
            workloads::serve_pass(&inputs.worlds, &root, &untraced, false, &mut checks)
                .expect("pass");
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
        stored[1].pop();
        workloads::serve_setup(&root, 2, &stored, 1, &untraced, &mut checks);
        let _ = std::fs::remove_dir_all(root.parent().expect("work dir"));
        assert_eq!(checks.failed, 1, "{:?}", checks.failures);
    }
}
