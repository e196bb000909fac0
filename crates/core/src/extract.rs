//! Feature extraction against a [`DayContext`]: the six C&C features of
//! §IV-C and the eight domain-similarity features of §IV-D.

use crate::context::DayContext;
use crate::labeled::LabeledSet;
use earlybird_features::{CcFeatures, SimFeatures};
use earlybird_logmodel::DomainSym;

/// Extracts the C&C feature vector of a rare automated `domain`.
///
/// `auto_hosts` is the number of hosts with automated connections to the
/// domain, as established by the caller's automation pass.
pub fn cc_features(ctx: &DayContext<'_>, domain: DomainSym, auto_hosts: usize) -> CcFeatures {
    let (dom_age, dom_validity) = ctx.whois_features(domain);
    CcFeatures {
        no_hosts: ctx.index.connectivity(domain) as f64,
        auto_hosts: auto_hosts as f64,
        no_ref: ctx.index.no_ref_fraction(domain).unwrap_or(0.0),
        rare_ua: ctx.index.rare_ua_fraction(domain).unwrap_or(0.0),
        dom_age,
        dom_validity,
    }
}

/// Extracts the similarity feature vector of candidate `domain` relative to
/// the labeled set of the current belief-propagation state. `domain` must
/// not itself be labeled.
pub fn sim_features(ctx: &DayContext<'_>, domain: DomainSym, labeled: &LabeledSet) -> SimFeatures {
    relate(candidate_features(ctx, domain), ctx, domain, labeled)
}

/// The similarity features of `domain` that do not depend on the labeled
/// set (`MinInterval`, `IP24` and `IP16` are left unset). Belief
/// propagation computes them once per candidate and run.
pub(crate) fn candidate_features(ctx: &DayContext<'_>, domain: DomainSym) -> SimFeatures {
    let (dom_age, dom_validity) = ctx.whois_features(domain);
    SimFeatures {
        no_hosts: ctx.index.connectivity(domain) as f64,
        min_interval_secs: None,
        ip24: false,
        ip16: false,
        no_ref: ctx.index.no_ref_fraction(domain).unwrap_or(0.0),
        rare_ua: ctx.index.rare_ua_fraction(domain).unwrap_or(0.0),
        dom_age,
        dom_validity,
    }
}

/// Fills in the features of `domain` that relate it to the labeled set.
pub(crate) fn relate(
    features: SimFeatures,
    ctx: &DayContext<'_>,
    domain: DomainSym,
    labeled: &LabeledSet,
) -> SimFeatures {
    debug_assert!(!labeled.contains(domain), "a labeled domain is not a candidate");
    SimFeatures {
        min_interval_secs: labeled.min_interval_secs(ctx.index, domain),
        ip24: labeled.shares_subnet24(ctx.index, domain),
        ip16: labeled.shares_subnet16(ctx.index, domain),
        ..features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlybird_logmodel::{Day, DomainInterner, HostId, Ipv4, Timestamp};
    use earlybird_pipeline::{Contact, DayIndex, DomainHistory, HttpContext, RareSieve};

    struct World {
        folded: DomainInterner,
        contacts: Vec<Contact>,
    }

    impl World {
        fn new() -> Self {
            World { folded: DomainInterner::new(), contacts: Vec::new() }
        }

        fn push(
            &mut self,
            ts: u64,
            host: u32,
            name: &str,
            ip: Option<Ipv4>,
            http: Option<HttpContext>,
        ) {
            self.contacts.push(Contact {
                ts: Timestamp::from_secs(ts),
                host: HostId::new(host),
                domain: self.folded.intern(name),
                dest_ip: ip,
                http,
            });
        }

        fn index(&mut self) -> DayIndex {
            self.contacts.sort_by_key(|c| c.ts);
            let rare = RareSieve::paper_default().extract(&self.contacts, &DomainHistory::new());
            DayIndex::build(Day::new(0), &self.contacts, rare, None)
        }
    }

    #[test]
    fn cc_features_without_http_or_whois() {
        let mut w = World::new();
        w.push(0, 1, "cc.ru", None, None);
        w.push(600, 1, "cc.ru", None, None);
        w.push(5, 2, "cc.ru", None, None);
        let index = w.index();
        let ctx = DayContext {
            day: Day::new(0),
            index: &index,
            folded: &w.folded,
            whois: None,
            whois_defaults: (100.0, 200.0),
        };
        let f = cc_features(&ctx, w.folded.get("cc.ru").unwrap(), 1);
        assert_eq!(f.no_hosts, 2.0);
        assert_eq!(f.auto_hosts, 1.0);
        assert_eq!(f.no_ref, 0.0, "no HTTP data -> 0");
        assert_eq!((f.dom_age, f.dom_validity), (100.0, 200.0));
    }

    #[test]
    fn min_interval_uses_first_contacts_of_shared_hosts() {
        let mut w = World::new();
        // host 1 visits mal at t=100 and cand at t=160; host 2 visits cand
        // only — no contribution.
        w.push(100, 1, "mal.c3", None, None);
        w.push(160, 1, "cand.c3", None, None);
        w.push(500, 2, "cand.c3", None, None);
        let index = w.index();
        let ctx = DayContext {
            day: Day::new(0),
            index: &index,
            folded: &w.folded,
            whois: None,
            whois_defaults: (0.0, 0.0),
        };
        let mal = w.folded.get("mal.c3").unwrap();
        let cand = w.folded.get("cand.c3").unwrap();
        let labeled = LabeledSet::from_domains(&index, [mal]);
        assert_eq!(sim_features(&ctx, cand, &labeled).min_interval_secs, Some(60.0));
        // The relation is symmetric.
        let labeled = LabeledSet::from_domains(&index, [cand]);
        assert_eq!(sim_features(&ctx, mal, &labeled).min_interval_secs, Some(60.0));
    }

    #[test]
    fn min_interval_takes_the_nearest_labeled_contact_on_either_side() {
        let mut w = World::new();
        w.push(100, 1, "early.c3", None, None);
        w.push(1_000, 1, "late.c3", None, None);
        w.push(50, 1, "before.c3", None, None);
        w.push(900, 1, "between.c3", None, None);
        w.push(1_500, 1, "after.c3", None, None);
        w.push(950, 2, "other-host.c3", None, None);
        let index = w.index();
        let ctx = DayContext {
            day: Day::new(0),
            index: &index,
            folded: &w.folded,
            whois: None,
            whois_defaults: (0.0, 0.0),
        };
        let sym = |name: &str| w.folded.get(name).unwrap();
        let labeled = LabeledSet::from_domains(&index, [sym("late.c3"), sym("early.c3")]);
        let gap = |name: &str| sim_features(&ctx, sym(name), &labeled).min_interval_secs;
        assert_eq!(gap("before.c3"), Some(50.0));
        assert_eq!(gap("between.c3"), Some(100.0));
        assert_eq!(gap("after.c3"), Some(500.0));
        assert_eq!(gap("other-host.c3"), None, "no shared host");
    }

    #[test]
    fn subnet_sharing_levels() {
        let mut w = World::new();
        w.push(1, 1, "mal.c3", Some(Ipv4::new(191, 146, 166, 145)), None);
        w.push(2, 1, "same24.c3", Some(Ipv4::new(191, 146, 166, 31)), None);
        w.push(3, 1, "same16.c3", Some(Ipv4::new(191, 146, 224, 111)), None);
        w.push(4, 1, "far.c3", Some(Ipv4::new(93, 31, 34, 158)), None);
        let index = w.index();
        let ctx = DayContext {
            day: Day::new(0),
            index: &index,
            folded: &w.folded,
            whois: None,
            whois_defaults: (0.0, 0.0),
        };
        let mal = LabeledSet::from_domains(&index, [w.folded.get("mal.c3").unwrap()]);
        let f24 = sim_features(&ctx, w.folded.get("same24.c3").unwrap(), &mal);
        assert!(f24.ip24 && f24.ip16, "/24 implies /16");
        let f16 = sim_features(&ctx, w.folded.get("same16.c3").unwrap(), &mal);
        assert!(!f16.ip24 && f16.ip16);
        let far = sim_features(&ctx, w.folded.get("far.c3").unwrap(), &mal);
        assert!(!far.ip24 && !far.ip16);
    }

    #[test]
    fn sim_features_use_http_fractions_when_present() {
        let mut w = World::new();
        w.push(1, 1, "mal.c3", None, None);
        w.push(30, 1, "cand.c3", None, Some(HttpContext { ua: None, referer_present: false }));
        let index = w.index();
        let ctx = DayContext {
            day: Day::new(0),
            index: &index,
            folded: &w.folded,
            whois: None,
            whois_defaults: (0.0, 0.0),
        };
        let mal = LabeledSet::from_domains(&index, [w.folded.get("mal.c3").unwrap()]);
        let f = sim_features(&ctx, w.folded.get("cand.c3").unwrap(), &mal);
        assert_eq!(f.no_ref, 1.0);
        assert_eq!(f.rare_ua, 1.0, "absent UA counts as rare");
        assert_eq!(f.min_interval_secs, Some(29.0));
    }
}
