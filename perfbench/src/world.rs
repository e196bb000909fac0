//! Workload inputs: deterministic synthetic worlds rendered to the
//! tab-separated interchange text the engine and the daemon parse.
//!
//! Everything here runs before any timer starts. The renderer writes
//! digits and cached names straight into one buffer per day instead of
//! going through `format!` per line, which keeps the preparation of the
//! largest world to a few seconds.

use earlybird_intel::{VirusTotalOracle, WhoisRegistry};
use earlybird_logmodel::{
    DatasetMeta, Day, DhcpLog, DnsQuery, DomainInterner, Ipv4, PathInterner, ProxyRecord,
    UaInterner,
};
use earlybird_synthgen::{AcConfig, AcGenerator, LanlConfig, LanlGenerator};
use std::fmt::Write as _;
use std::sync::Arc;

/// One day of rendered interchange text, pre-cut into push blocks.
pub struct DayText {
    pub day: Day,
    pub text: String,
    pub lines: u64,
    /// Byte ranges of the push blocks; each ends on a line boundary.
    pub blocks: Vec<std::ops::Range<usize>>,
}

impl DayText {
    pub fn block(&self, i: usize) -> &str {
        &self.text[self.blocks[i].clone()]
    }
}

/// A rendered world: the text per day plus what the engine needs besides
/// the text (metadata, and for the proxy source the lease log, WHOIS,
/// IOC seeds and the VirusTotal oracle used for training).
pub struct World {
    pub days: Vec<DayText>,
    pub meta: DatasetMeta,
    pub enterprise: Option<Enterprise>,
}

pub struct Enterprise {
    pub dhcp: DhcpLog,
    pub whois: WhoisRegistry,
    pub ioc_seeds: Vec<String>,
    pub vt: VirusTotalOracle,
    /// The last day of the training window (the 14th operation day).
    pub train_end: Day,
}

impl World {
    pub fn records(&self) -> u64 {
        self.days.iter().map(|d| d.lines).sum()
    }

    pub fn bytes(&self) -> u64 {
        self.days.iter().map(|d| d.text.len() as u64).sum()
    }
}

/// Renders a LANL DNS world day by day, so only a day of parsed records
/// per thread is alive at a time. `block_bytes` is the push-block size.
pub fn lanl(cfg: LanlConfig, block_bytes: usize) -> World {
    let generator = LanlGenerator::new(cfg);
    let domains = DomainInterner::new();
    let days = per_day(generator.config().total_days as usize, |d, names| {
        let log = generator.generate_day(&domains, Day::new(d as u32));
        let mut text = String::with_capacity(log.queries.len() * 48);
        for q in &log.queries {
            dns_line(&mut text, q, &mut names[0], &domains);
        }
        day_text(log.day, text, log.queries.len() as u64, block_bytes)
    });
    World { days, meta: generator.meta(), enterprise: None }
}

/// Renders an enterprise web-proxy world.
pub fn enterprise(cfg: AcConfig, block_bytes: usize) -> World {
    let world = AcGenerator::new(cfg).generate();
    let data = &world.dataset;
    let days = per_day(data.days.len(), |d, names| {
        let log = &data.days[d];
        let [domain_names, ua_names, path_names] = names;
        let mut text = String::with_capacity(log.records.len() * 120);
        for r in &log.records {
            proxy_line(
                &mut text,
                r,
                (domain_names, &data.domains),
                (ua_names, &data.uas),
                (path_names, &data.paths),
            );
        }
        day_text(log.day, text, log.records.len() as u64, block_bytes)
    });
    let last = Day::new(data.meta.total_days);
    let enterprise = Enterprise {
        dhcp: data.dhcp.clone(),
        whois: world.intel.whois.clone(),
        ioc_seeds: world.intel.ioc.visible(last).map(str::to_string).collect(),
        vt: world.intel.vt.clone(),
        train_end: world.config.feb_day(14),
    };
    World { days, meta: data.meta.clone(), enterprise: Some(enterprise) }
}

/// Builds day `0..n` with `render` on every core, each thread with name
/// caches of its own. A day's text depends only on its records' names,
/// never on which thread interned a name first, so the result does not
/// depend on the thread count.
fn per_day(
    n: usize,
    render: impl Fn(usize, &mut [NameCache; 3]) -> DayText + Sync,
) -> Vec<DayText> {
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get()).min(n.max(1));
    let mut days: Vec<DayText> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|k| {
                let render = &render;
                scope.spawn(move || {
                    let mut names = Default::default();
                    (k..n).step_by(threads).map(|d| render(d, &mut names)).collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("render thread panicked")).collect()
    });
    days.sort_by_key(|d| d.day);
    days
}

fn day_text(day: Day, text: String, lines: u64, block_bytes: usize) -> DayText {
    let blocks = cut_blocks(&text, block_bytes);
    DayText { day, text, lines, blocks }
}

/// Splits `text` into consecutive ranges of about `block_bytes` bytes,
/// each ending just after a newline (the last one at the end of text).
pub fn cut_blocks(text: &str, block_bytes: usize) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let mut blocks = Vec::new();
    let mut start = 0;
    while start < bytes.len() {
        let mut end = (start + block_bytes.max(1)).min(bytes.len());
        while end < bytes.len() && bytes[end - 1] != b'\n' {
            end += 1;
        }
        blocks.push(start..end);
        start = end;
    }
    blocks
}

/// Resolved names by symbol index, so each distinct name is resolved once.
#[derive(Default)]
struct NameCache(Vec<Option<Arc<str>>>);

impl NameCache {
    fn get(&mut self, raw: u32, resolve: impl FnOnce() -> Arc<str>) -> &str {
        let i = raw as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, None);
        }
        self.0[i].get_or_insert_with(resolve)
    }
}

fn dns_line(out: &mut String, q: &DnsQuery, names: &mut NameCache, domains: &DomainInterner) {
    push_u64(out, q.ts.as_secs());
    out.push('\t');
    push_ip(out, q.src_ip);
    out.push('\t');
    out.push_str(names.get(q.qname.raw(), || domains.resolve(q.qname)));
    out.push('\t');
    write!(out, "{}", q.qtype).expect("write to String");
    out.push('\t');
    match q.answer {
        Some(ip) => push_ip(out, ip),
        None => out.push('-'),
    }
    out.push('\n');
}

fn proxy_line(
    out: &mut String,
    r: &ProxyRecord,
    (domain_names, domains): (&mut NameCache, &DomainInterner),
    (ua_names, uas): (&mut NameCache, &UaInterner),
    (path_names, paths): (&mut NameCache, &PathInterner),
) {
    push_u64(out, r.ts_local.as_secs());
    out.push('\t');
    push_i64(out, i64::from(r.tz.minutes()));
    out.push('\t');
    push_ip(out, r.src_ip);
    out.push('\t');
    out.push_str(domain_names.get(r.domain.raw(), || domains.resolve(r.domain)));
    out.push('\t');
    push_ip(out, r.dest_ip);
    out.push('\t');
    write!(out, "{}", r.method).expect("write to String");
    out.push('\t');
    push_u64(out, u64::from(r.status.0));
    out.push('\t');
    out.push_str(path_names.get(r.url_path.raw(), || paths.resolve(r.url_path)));
    out.push('\t');
    match r.user_agent {
        Some(ua) => out.push_str(ua_names.get(ua.raw(), || uas.resolve(ua))),
        None => out.push('-'),
    }
    out.push('\t');
    match r.referer {
        Some(d) => out.push_str(domain_names.get(d.raw(), || domains.resolve(d))),
        None => out.push('-'),
    }
    out.push('\n');
}

fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

fn push_ip(out: &mut String, ip: Ipv4) {
    for (i, octet) in ip.octets().into_iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        push_u64(out, u64::from(octet));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlybird_logmodel::{format_dns_line, format_proxy_line};

    #[test]
    fn fast_renderer_matches_the_codec_formatter() {
        let generator = LanlGenerator::new(LanlConfig::tiny());
        let domains = DomainInterner::new();
        let log = generator.generate_day(&domains, Day::new(30));
        let mut names = NameCache::default();
        for q in log.queries.iter().take(500) {
            let mut line = String::new();
            dns_line(&mut line, q, &mut names, &domains);
            assert_eq!(line, format!("{}\n", format_dns_line(q, &domains)));
        }

        let world = AcGenerator::new(AcConfig::tiny()).generate();
        let data = &world.dataset;
        let mut caches = (NameCache::default(), NameCache::default(), NameCache::default());
        for r in data.days[35].records.iter().take(500) {
            let mut line = String::new();
            proxy_line(
                &mut line,
                r,
                (&mut caches.0, &data.domains),
                (&mut caches.1, &data.uas),
                (&mut caches.2, &data.paths),
            );
            let want = format_proxy_line(r, &data.domains, &data.uas, &data.paths);
            assert_eq!(line, format!("{want}\n"));
        }
    }

    #[test]
    fn blocks_end_on_line_boundaries_and_cover_the_text() {
        let text = "a\tb\nccc\nd\n\neeeee\n";
        for size in 1..=text.len() + 1 {
            let blocks = cut_blocks(text, size);
            assert_eq!(blocks.first().map(|b| b.start), Some(0));
            assert_eq!(blocks.last().map(|b| b.end), Some(text.len()));
            for pair in blocks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            assert!(blocks.iter().all(|b| text[b.clone()].ends_with('\n')));
        }
    }
}
