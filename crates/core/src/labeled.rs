//! The labeled malicious set `M` of a belief-propagation run, indexed for
//! the two similarity features that relate a candidate to it (§IV-D).
//!
//! `MinInterval` and `IP24`/`IP16` compare a candidate `D` against every
//! domain already in `M`. Scanning `M` for each candidate costs
//! O(|M| × hosts(D)) hash probes, paid again on every iteration of
//! Algorithm 1. [`LabeledSet`] instead keeps, per internal host, the sorted
//! first-contact times of that host to labeled domains, and the /24 and /16
//! subnets of the labeled domains' IPs. Adding a domain `m` costs
//! O(hosts(m) + ips(m)); relating a candidate costs one nearest-neighbour
//! search per host of `D` and two hash lookups per IP of `D`, independent
//! of |M|.

use earlybird_logmodel::{DomainSym, FastMap, FastSet, HostId, Subnet16, Subnet24, Timestamp};
use earlybird_pipeline::DayIndex;

/// The malicious set `M`, indexed by host first contacts and subnets.
///
/// Every query assumes the candidate is not itself labeled — belief
/// propagation and training only relate unlabeled candidates to `M`.
#[derive(Clone, Debug, Default)]
pub struct LabeledSet {
    domains: FastSet<DomainSym>,
    /// Per host, its first-contact times to labeled domains, ascending.
    first_contacts: FastMap<HostId, Vec<Timestamp>>,
    subnets24: FastSet<Subnet24>,
    subnets16: FastSet<Subnet16>,
}

impl LabeledSet {
    /// Builds the set from `domains` (duplicates are ignored).
    pub fn from_domains(index: &DayIndex, domains: impl IntoIterator<Item = DomainSym>) -> Self {
        let mut set = LabeledSet::default();
        for domain in domains {
            set.insert(index, domain);
        }
        set
    }

    /// Labels `domain`, indexing its hosts' first contacts and its IPs'
    /// subnets in `index`. Returns `false` (and changes nothing) when it
    /// was already labeled.
    pub fn insert(&mut self, index: &DayIndex, domain: DomainSym) -> bool {
        if !self.domains.insert(domain) {
            return false;
        }
        for &host in index.hosts_of(domain).into_iter().flatten() {
            if let Some(t) = index.first_contact(host, domain) {
                let times = self.first_contacts.entry(host).or_default();
                let at = times.partition_point(|&x| x < t);
                times.insert(at, t);
            }
        }
        for ip in index.ips_of(domain).into_iter().flatten() {
            self.subnets24.insert(ip.subnet24());
            self.subnets16.insert(ip.subnet16());
        }
        true
    }

    /// Whether `domain` is labeled.
    pub fn contains(&self, domain: DomainSym) -> bool {
        self.domains.contains(&domain)
    }

    /// Number of labeled domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether no domain is labeled.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Minimum gap in seconds between any host's first visit to `domain`
    /// and its first visit to any labeled domain ("the minimum timing
    /// difference between a host visit to domain D and other malicious
    /// domains in set S", §IV-D). `None` when no host visited both sides.
    pub fn min_interval_secs(&self, index: &DayIndex, domain: DomainSym) -> Option<f64> {
        let mut best: Option<u64> = None;
        for &host in index.hosts_of(domain).into_iter().flatten() {
            let (Some(times), Some(t)) =
                (self.first_contacts.get(&host), index.first_contact(host, domain))
            else {
                continue;
            };
            // The nearest labeled first contact is one of the two times
            // around `t`.
            let at = times.partition_point(|&x| x < t);
            let below = at.checked_sub(1).map(|i| times[i]);
            for x in below.into_iter().chain(times.get(at).copied()) {
                let gap = t.abs_diff(x);
                best = Some(best.map_or(gap, |b| b.min(gap)));
            }
        }
        best.map(|b| b as f64)
    }

    /// Whether some IP of `domain` shares a /24 subnet with a labeled
    /// domain's IP.
    pub fn shares_subnet24(&self, index: &DayIndex, domain: DomainSym) -> bool {
        index
            .ips_of(domain)
            .is_some_and(|ips| ips.iter().any(|ip| self.subnets24.contains(&ip.subnet24())))
    }

    /// Whether some IP of `domain` shares a /16 subnet with a labeled
    /// domain's IP.
    pub fn shares_subnet16(&self, index: &DayIndex, domain: DomainSym) -> bool {
        index
            .ips_of(domain)
            .is_some_and(|ips| ips.iter().any(|ip| self.subnets16.contains(&ip.subnet16())))
    }
}
