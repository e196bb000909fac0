//! Brute-force references for the indexed similarity path, and the tests
//! that hold [`LabeledSet`] and [`belief_propagation`] to them.
//!
//! The references relate a candidate to the malicious set by scanning
//! every labeled domain, as §IV-D defines the features, and run
//! Algorithm 1 by rescanning the pool on every iteration. They are slow by
//! construction and exist only as oracles.

use crate::bp::{
    belief_propagation, BpConfig, BpOutcome, IterationTrace, LabelReason, ScoredDomain, Seeds,
};
use crate::cc::{CcDetector, CcModel};
use crate::context::DayContext;
use crate::daily::{DailyPipeline, PipelineConfig};
use crate::extract::{candidate_features, sim_features};
use crate::labeled::LabeledSet;
use crate::similarity::SimScorer;
use crate::train::{train_sim_model, SimSample};
use earlybird_features::SimFeatures;
use earlybird_intel::WhoisRegistry;
use earlybird_logmodel::{Day, DomainInterner, DomainSym, HostId, Ipv4, Timestamp};
use earlybird_pipeline::{Contact, DayIndex, DomainHistory, RareSieve};
use earlybird_synthgen::ac::{AcConfig, AcGenerator};
use earlybird_synthgen::lanl::{LanlConfig, LanlGenerator};
use earlybird_timing::AutomationDetector;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The eight similarity features of `domain`, relating it to `malicious`
/// by scanning every labeled domain.
pub(crate) fn scan_sim_features(
    ctx: &DayContext<'_>,
    domain: DomainSym,
    malicious: &BTreeSet<DomainSym>,
) -> SimFeatures {
    SimFeatures {
        min_interval_secs: scan_min_interval(ctx, domain, malicious),
        ip24: scan_shares_subnet(ctx, domain, malicious, Ipv4::subnet24),
        ip16: scan_shares_subnet(ctx, domain, malicious, Ipv4::subnet16),
        ..candidate_features(ctx, domain)
    }
}

fn scan_min_interval(
    ctx: &DayContext<'_>,
    domain: DomainSym,
    malicious: &BTreeSet<DomainSym>,
) -> Option<f64> {
    let hosts = ctx.index.hosts_of(domain)?;
    let mut best: Option<u64> = None;
    for &host in hosts {
        let Some(t_dom) = ctx.index.first_contact(host, domain) else {
            continue;
        };
        for &m in malicious {
            if m == domain {
                continue;
            }
            if let Some(t_mal) = ctx.index.first_contact(host, m) {
                let gap = t_dom.abs_diff(t_mal);
                best = Some(best.map_or(gap, |b| b.min(gap)));
            }
        }
    }
    best.map(|b| b as f64)
}

fn scan_shares_subnet<S: PartialEq>(
    ctx: &DayContext<'_>,
    domain: DomainSym,
    malicious: &BTreeSet<DomainSym>,
    subnet: impl Fn(Ipv4) -> S,
) -> bool {
    let Some(ips) = ctx.index.ips_of(domain) else {
        return false;
    };
    malicious.iter().filter(|&&m| m != domain).any(|&m| {
        ctx.index
            .ips_of(m)
            .is_some_and(|mips| ips.iter().any(|&a| mips.iter().any(|&b| subnet(a) == subnet(b))))
    })
}

/// Algorithm 1 as a rescan: every iteration re-runs `Detect_C&C` over the
/// whole pool and re-extracts every candidate's features against the
/// malicious set.
pub(crate) fn scan_belief_propagation(
    ctx: &DayContext<'_>,
    cc: Option<&CcDetector>,
    sim: &SimScorer,
    seeds: &Seeds,
    cfg: &BpConfig,
) -> BpOutcome {
    let mut hosts: BTreeSet<HostId> = seeds.hosts.iter().copied().collect();
    let mut malicious: BTreeSet<DomainSym> = seeds.domains.iter().copied().collect();
    let mut labeled: Vec<ScoredDomain> = seeds
        .domains
        .iter()
        .map(|&domain| ScoredDomain { domain, score: 1.0, reason: LabelReason::Seed, iteration: 0 })
        .collect();

    let mut candidates: BTreeSet<DomainSym> = BTreeSet::new();
    for &h in &hosts {
        if let Some(rdoms) = ctx.index.rare_domains_of(h) {
            candidates.extend(rdoms.iter().copied());
        }
    }

    let mut iterations = Vec::new();
    for iteration in 1..=cfg.max_iterations {
        let pool: Vec<DomainSym> =
            candidates.iter().copied().filter(|d| !malicious.contains(d)).collect();
        let mut trace = IterationTrace {
            iteration,
            labeled: Vec::new(),
            new_hosts: Vec::new(),
            candidates: pool.len(),
            best_similarity: None,
        };

        let mut newly: Vec<ScoredDomain> = Vec::new();
        if let Some(cc) = cc {
            for &d in &pool {
                if let Some(det) = cc.evaluate(ctx, d) {
                    newly.push(ScoredDomain {
                        domain: d,
                        score: det.score,
                        reason: LabelReason::CcDetected,
                        iteration,
                    });
                }
            }
        }

        if newly.is_empty() {
            let mut best: Option<(DomainSym, f64)> = None;
            for &d in &pool {
                let s = sim.score_features(&scan_sim_features(ctx, d, &malicious));
                if best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((d, s));
                }
            }
            if let Some((d, s)) = best {
                trace.best_similarity = Some(s);
                if s >= sim.threshold() {
                    newly.push(ScoredDomain {
                        domain: d,
                        score: s,
                        reason: LabelReason::Similarity,
                        iteration,
                    });
                }
            }
        }

        if newly.is_empty() {
            iterations.push(trace);
            break;
        }

        for nd in &newly {
            malicious.insert(nd.domain);
            labeled.push(*nd);
            if let Some(hs) = ctx.index.hosts_of(nd.domain) {
                for &h in hs {
                    if hosts.insert(h) {
                        trace.new_hosts.push(h);
                        if let Some(rdoms) = ctx.index.rare_domains_of(h) {
                            candidates.extend(rdoms.iter().copied());
                        }
                    }
                }
            }
        }
        trace.labeled = newly;
        iterations.push(trace);
    }

    BpOutcome { labeled, compromised_hosts: hosts, iterations }
}

/// Asserts two feature vectors are equal bit for bit.
fn assert_bit_equal(indexed: &SimFeatures, scanned: &SimFeatures, what: &str) {
    assert_eq!(indexed, scanned, "{what}");
    let bits = |f: &SimFeatures| f.to_row().into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(indexed), bits(scanned), "{what}");
}

/// Domains `d0..d9` appear in the traffic; `d10..d13` never do.
const DOMAINS: usize = 14;
const CONTACTED: u8 = 10;

/// Destination IPs with /24 ⊂ /16 overlaps: 10.0.0.{1,2} share a /24,
/// 10.0.1.1 shares only their /16, 10.1.* and 11.* are other /16s.
/// The last two slots are contacts without an IP.
const IPS: [Option<[u8; 4]>; 8] = [
    Some([10, 0, 0, 1]),
    Some([10, 0, 0, 2]),
    Some([10, 0, 1, 1]),
    Some([10, 1, 0, 1]),
    Some([10, 1, 1, 1]),
    Some([11, 0, 0, 1]),
    None,
    None,
];

fn name(i: usize) -> String {
    format!("d{i}.c3")
}

/// A day over hosts 0..6 and domains d0..d9, with every name interned.
fn world(raw: &[(u64, u32, u8, u8)]) -> (DomainInterner, DayIndex) {
    let folded = DomainInterner::new();
    for i in 0..DOMAINS {
        folded.intern(&name(i));
    }
    let mut contacts: Vec<Contact> = raw
        .iter()
        .map(|&(ts, host, dom, ip)| Contact {
            ts: Timestamp::from_secs(ts),
            host: HostId::new(host),
            domain: folded.intern(&name(dom as usize)),
            dest_ip: IPS[ip as usize].map(|[a, b, c, d]| Ipv4::new(a, b, c, d)),
            http: None,
        })
        .collect();
    contacts.sort_by_key(|c| c.ts);
    let rare = RareSieve::paper_default().extract(&contacts, &DomainHistory::new());
    let index = DayIndex::build(Day::new(0), &contacts, rare, None);
    (folded, index)
}

fn context<'a>(index: &'a DayIndex, folded: &'a DomainInterner) -> DayContext<'a> {
    DayContext { day: Day::new(0), index, folded, whois: None, whois_defaults: (0.0, 0.0) }
}

/// Labels `seeds` one at a time; before the first and after every
/// insertion, every unlabeled domain's features must equal the scan's.
fn assert_index_matches_scan(folded: &DomainInterner, index: &DayIndex, seeds: &[usize]) {
    let ctx = context(index, folded);
    let syms: Vec<DomainSym> = (0..DOMAINS).map(|i| folded.get(&name(i)).unwrap()).collect();
    let mut set = LabeledSet::default();
    let mut scan = BTreeSet::new();
    for step in 0..=seeds.len() {
        if step > 0 {
            let m = syms[seeds[step - 1]];
            assert_eq!(set.insert(index, m), scan.insert(m), "insert reports novelty");
        }
        assert_eq!(set.len(), scan.len());
        for &d in syms.iter().filter(|d| !scan.contains(d)) {
            assert_bit_equal(
                &sim_features(&ctx, d, &set),
                &scan_sim_features(&ctx, d, &scan),
                &format!("{} after {:?}", folded.resolve(d), &seeds[..step]),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random small worlds: the index agrees with the scan for every
    /// candidate as the labeled set grows from empty, including seeds
    /// absent from the day (d10..d13) and repeated seeds.
    #[test]
    fn labeled_set_matches_scan(
        raw in proptest::collection::vec((0u64..3_600, 0u32..6, 0u8..CONTACTED, 0u8..8), 0..60),
        seeds in proptest::collection::vec(0usize..DOMAINS, 0..8),
    ) {
        let (folded, index) = world(&raw);
        assert_index_matches_scan(&folded, &index, &seeds);
    }
}

/// The shapes the property test reaches only by chance, fixed: a seed
/// with no contacts today, a repeated seed, candidates whose hosts never
/// contacted a labeled domain, and /24 ⊂ /16 overlaps.
#[test]
fn labeled_set_matches_scan_on_edge_shapes() {
    let raw = [
        // d0 (labeled) and d1 on host 0, both in 10.0.0.0/24.
        (100, 0, 0, 0),
        (160, 0, 1, 1),
        // d2 on host 1 only, in the /16 but not the /24.
        (200, 1, 2, 2),
        // d3 on host 0 (shared) and host 2 (never visits a label).
        (5_000, 0, 3, 6),
        (5_001, 2, 3, 3),
        // d4 on host 2 only, another /16.
        (9_000, 2, 4, 4),
        // d0 again later: the first contact stays at t=100.
        (10_000, 0, 0, 5),
    ];
    let (folded, index) = world(&raw);
    assert_index_matches_scan(&folded, &index, &[]);
    assert_index_matches_scan(&folded, &index, &[12, 0, 0, 12]);
    assert_index_matches_scan(&folded, &index, &[4, 2, 12, 0]);

    let ctx = context(&index, &folded);
    let sym = |i: usize| folded.get(&name(i)).unwrap();
    let set = LabeledSet::from_domains(&index, [sym(0), sym(12), sym(0)]);
    assert_eq!(set.len(), 2);
    let f1 = sim_features(&ctx, sym(1), &set);
    assert_eq!((f1.min_interval_secs, f1.ip24, f1.ip16), (Some(60.0), true, true));
    let f2 = sim_features(&ctx, sym(2), &set);
    assert_eq!((f2.min_interval_secs, f2.ip24, f2.ip16), (None, false, true));
    let f4 = sim_features(&ctx, sym(4), &set);
    assert_eq!((f4.min_interval_secs, f4.ip24, f4.ip16), (None, false, false));
    assert_eq!(sim_features(&ctx, sym(3), &set).min_interval_secs, Some(4_900.0));
}

/// A trained similarity regression: fitted on a synthetic population
/// in which reported domains are co-visited, co-hosted and young.
fn regression_scorer() -> SimScorer {
    let samples: Vec<SimSample> = (0..40)
        .map(|k| {
            let reported = k % 2 == 0;
            SimSample {
                features: SimFeatures {
                    no_hosts: 1.0 + (k % 3) as f64,
                    min_interval_secs: Some(if reported { 30.0 } else { 20_000.0 + k as f64 }),
                    ip24: reported && k % 4 == 0,
                    ip16: reported,
                    no_ref: if reported { 0.8 } else { 0.3 },
                    rare_ua: if reported { 0.7 } else { 0.1 },
                    dom_age: if reported { 12.0 } else { 900.0 + k as f64 },
                    dom_validity: if reported { 90.0 } else { 1_000.0 },
                },
                reported,
            }
        })
        .collect();
    let (model, scaler) = train_sim_model(&samples, 0.4).expect("separable population");
    SimScorer::Regression { model, scaler }
}

/// Runs every seeding mode on one day under both scorers and asserts
/// the indexed run equals the rescan. Returns the similarity labels
/// seen, so callers can check the comparison was not vacuous.
fn assert_bp_matches_scan(ctx: &DayContext<'_>, cc: &CcDetector, bp: &BpConfig) -> usize {
    let mut rare: Vec<DomainSym> = ctx.index.rare_domains().collect();
    rare.sort_unstable();
    let hint_hosts: Vec<HostId> = rare
        .iter()
        .take(2)
        .flat_map(|&d| ctx.index.hosts_of(d).into_iter().flatten().copied())
        .collect();
    let absent = ctx.folded.intern("absent-today.example");
    let mut ioc: Vec<DomainSym> = rare.iter().copied().step_by(7).take(3).collect();
    ioc.extend(ioc.first().copied());
    ioc.push(absent);
    let detected: Vec<DomainSym> = cc.detect_all(ctx).iter().map(|d| d.domain).collect();
    let modes = [
        ("host seeds", Seeds::from_hosts(hint_hosts.iter().copied())),
        ("domain seeds", Seeds::from_domains_with_hosts(ctx, ioc)),
        ("no hint", Seeds::from_domains_with_hosts(ctx, detected)),
    ];

    let mut similarity_labels = 0;
    for base in [SimScorer::lanl_default(), regression_scorer()] {
        let mut lowered = base.clone();
        lowered.set_threshold(base.threshold() / 2.0);
        for (mode, seeds) in &modes {
            for (sim, threshold) in [(&base, "default T_s"), (&lowered, "lowered T_s")] {
                for cc in [Some(cc), None] {
                    let indexed = belief_propagation(ctx, cc, sim, seeds, bp);
                    let scanned = scan_belief_propagation(ctx, cc, sim, seeds, bp);
                    assert_eq!(
                        indexed,
                        scanned,
                        "day {}: {mode}, {threshold}, C&C sweep {}",
                        ctx.day.index(),
                        cc.is_some()
                    );
                    similarity_labels += indexed
                        .labeled
                        .iter()
                        .filter(|d| d.reason == LabelReason::Similarity)
                        .count();
                }
            }
        }
    }
    similarity_labels
}

#[test]
fn bp_matches_scan_on_lanl_tiny() {
    let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
    let meta = &challenge.dataset.meta;
    let mut pipeline =
        DailyPipeline::new(Arc::clone(&challenge.dataset.domains), PipelineConfig::lanl());
    let cc = CcDetector::lanl_default();
    let mut similarity_labels = 0;
    for day in &challenge.dataset.days {
        if day.day.index() < meta.bootstrap_days {
            pipeline.bootstrap_dns_day(day, meta);
            continue;
        }
        let product = pipeline.process_dns_day(day, meta);
        let ctx = product.context(None, (0.0, 0.0));
        similarity_labels += assert_bp_matches_scan(&ctx, &cc, &BpConfig::lanl_default());
    }
    assert!(similarity_labels > 0, "the comparison exercised similarity expansion");
}

#[test]
fn bp_matches_scan_on_ac_tiny() {
    let world = AcGenerator::new(AcConfig::tiny()).generate();
    let data = &world.dataset;
    let whois: &WhoisRegistry = &world.intel.whois;
    let mut pipeline = DailyPipeline::new(Arc::clone(&data.domains), PipelineConfig::enterprise());
    let cc = CcDetector::new(
        AutomationDetector::paper_default(),
        CcModel::LanlHeuristic { min_hosts: 2, period_tolerance_secs: 10 },
    );
    let mut similarity_labels = 0;
    for day in &data.days {
        if day.day.index() < data.meta.bootstrap_days {
            pipeline.bootstrap_proxy_day(day, &data.dhcp, &data.meta);
            continue;
        }
        let product = pipeline.process_proxy_day(day, &data.dhcp, &data.meta);
        let ctx = product.context(Some(whois), (400.0, 500.0));
        similarity_labels += assert_bp_matches_scan(&ctx, &cc, &BpConfig::enterprise_default());
    }
    assert!(similarity_labels > 0, "the comparison exercised similarity expansion");
}
