//! Two-tier request cache (local memory + remote Redis-like tier).
//!
//! Fig. 1's `E_cache_lookup` distinguishes a *local* cache hit from a
//! remote one via the `local_cache_hit` ECV; Fig. 2 places Redis (managed
//! by systemd) under the web service. This module is that substrate: an
//! LRU in local DRAM backed by a larger remote tier reached over the NIC.

use std::collections::{BTreeMap, HashMap};

use ei_core::units::{Energy, TimeSpan};
use ei_hw::nic::NicSim;

/// Energy characteristics of the cache tiers.
#[derive(Debug, Clone)]
pub struct CacheEnergy {
    /// Local DRAM energy per response byte served.
    pub local_per_byte: Energy,
    /// Remote-node (CPU + memory) energy per response byte served, on top
    /// of the NIC transfer.
    pub remote_per_byte: Energy,
    /// Fixed local lookup cost (hash + index walk).
    pub local_lookup: Energy,
}

impl Default for CacheEnergy {
    fn default() -> Self {
        // Mirrors Fig. 1's 5-vs-100 local/remote asymmetry (here ~ 1:8),
        // while keeping either cache path well below a CNN recompute —
        // caching must save energy for the Fig. 1 story to make sense.
        CacheEnergy {
            local_per_byte: Energy::nanojoules(400.0),
            remote_per_byte: Energy::microjoules(3.0),
            local_lookup: Energy::microjoules(40.0),
        }
    }
}

/// One LRU tier with fixed entry capacity.
///
/// Every touch and every insert takes a fresh `stamp`, so no two resident
/// entries ever share one. `order` is the inverse of `entries`
/// (stamp → key), which makes the least-recently-used entry its first
/// element: eviction is `pop_first`, O(log n) instead of a scan.
#[derive(Debug)]
struct LruTier {
    capacity: usize,
    stamp: u64,
    /// key → stamp of its last touch or insert.
    entries: HashMap<u64, u64>,
    /// stamp → key, one entry per resident key.
    order: BTreeMap<u64, u64>,
}

impl LruTier {
    fn new(capacity: usize) -> Self {
        LruTier {
            capacity: capacity.max(1),
            stamp: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    fn contains_touch(&mut self, key: u64) -> bool {
        self.stamp += 1;
        if let Some(s) = self.entries.get_mut(&key) {
            self.order.remove(s);
            self.order.insert(self.stamp, key);
            *s = self.stamp;
            true
        } else {
            false
        }
    }

    fn insert(&mut self, key: u64) {
        // A resident key is just touched: one fresh stamp either way.
        if self.contains_touch(key) {
            return;
        }
        if self.entries.len() >= self.capacity {
            // The least stamp is unique, so this is exactly the entry a
            // scan for the least `(stamp, key)` picks: the key never
            // decides a tie.
            if let Some((_, victim)) = self.order.pop_first() {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, self.stamp);
        self.order.insert(self.stamp, key);
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The two-tier request cache with energy accounting.
#[derive(Debug)]
pub struct RequestCache {
    local: LruTier,
    remote: LruTier,
    energy_model: CacheEnergy,
    nic: NicSim,
    now: TimeSpan,
    energy: Energy,
    /// Whether the remote cache node is reachable (fault injection).
    remote_alive: bool,
}

impl RequestCache {
    /// Creates a cache with the given tier capacities (entries).
    pub fn new(
        local_entries: usize,
        remote_entries: usize,
        energy_model: CacheEnergy,
        nic: NicSim,
    ) -> Self {
        RequestCache {
            local: LruTier::new(local_entries),
            remote: LruTier::new(remote_entries),
            energy_model,
            nic,
            now: TimeSpan::ZERO,
            energy: Energy::ZERO,
            remote_alive: true,
        }
    }

    /// Marks the remote cache node reachable or dead. While dead, remote
    /// lookups cannot be served and inserts only land locally.
    pub fn set_remote_alive(&mut self, alive: bool) {
        self.remote_alive = alive;
    }

    /// Whether the remote cache node is currently reachable.
    pub fn remote_alive(&self) -> bool {
        self.remote_alive
    }

    /// Mutable access to the NIC (for fault injection and seeding).
    pub fn nic_mut(&mut self) -> &mut NicSim {
        &mut self.nic
    }

    /// Inserts a freshly computed response into both tiers. While the
    /// remote node is dead the insert only lands locally (no NIC
    /// transfer) — the degraded mode sheds the replication write.
    pub fn insert(&mut self, key: u64, response_len: u64) -> Energy {
        let mut e = self.energy_model.local_per_byte * response_len as f64;
        self.local.insert(key);
        if self.remote_alive {
            e += self.nic.transfer(self.now, response_len);
            self.remote.insert(key);
        }
        self.energy += e;
        e
    }

    /// Probes the local tier: pays the fixed lookup cost, and serves
    /// `response_len` bytes from local DRAM on a hit. Advances the cache
    /// clock to `now` (drives NIC sleep/wake). Hit/miss accounting is the
    /// caller's: a request can try several tiers before it settles.
    pub fn lookup_local(&mut self, key: u64, response_len: u64, now: TimeSpan) -> (bool, Energy) {
        self.now = now;
        let mut e = self.energy_model.local_lookup;
        let hit = self.local.contains_touch(key);
        if hit {
            e += self.energy_model.local_per_byte * response_len as f64;
        }
        self.energy += e;
        (hit, e)
    }

    /// One attempt against the remote tier over the NIC. Returns `None`
    /// when the remote node is dead (nothing was sent); otherwise
    /// `(hit, energy, completion latency)` — the latency is what a caller
    /// with a request deadline compares against its timeout. Every attempt
    /// sends one 96-byte request packet; a hit also pays the response and
    /// is promoted into the local tier.
    pub fn lookup_remote_timed(
        &mut self,
        key: u64,
        response_len: u64,
        now: TimeSpan,
    ) -> Option<(bool, Energy, TimeSpan)> {
        if !self.remote_alive {
            return None;
        }
        self.now = now;
        // Request packet out, response (if any) back.
        let (mut e, mut latency) = self.nic.transfer_timed(now, 96);
        let hit = self.remote.contains_touch(key);
        if hit {
            let (e_resp, l_resp) = self.nic.transfer_timed(now, response_len);
            e += e_resp + self.energy_model.remote_per_byte * response_len as f64;
            latency += l_resp;
            self.local.insert(key);
        }
        self.energy += e;
        Some((hit, e, latency))
    }

    /// Cumulative cache-path energy (incl. NIC).
    pub fn energy(&self) -> Energy {
        self.energy
    }

    /// Entries currently resident locally.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_hw::nic::datacenter_nic;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn cache(local: usize, remote: usize) -> RequestCache {
        RequestCache::new(
            local,
            remote,
            CacheEnergy::default(),
            NicSim::new(datacenter_nic()),
        )
    }

    /// One request's walk down the tiers, as the serving frontend takes it:
    /// local first, then one remote attempt. `None` is a miss everywhere.
    fn serve(c: &mut RequestCache, key: u64, len: u64, now: TimeSpan) -> Option<(bool, Energy)> {
        let (local, e_local) = c.lookup_local(key, len, now);
        if local {
            return Some((true, e_local));
        }
        match c.lookup_remote_timed(key, len, now) {
            Some((true, e_remote, _)) => Some((false, e_local + e_remote)),
            _ => None,
        }
    }

    #[test]
    fn miss_then_hit_progression() {
        let mut c = cache(4, 64);
        assert_eq!(serve(&mut c, 1, 1024, TimeSpan::ZERO), None);
        c.insert(1, 1024);
        let (local, e_local) = serve(&mut c, 1, 1024, TimeSpan::seconds(0.001)).unwrap();
        assert!(local);
        assert!(e_local.as_joules() > 0.0);
    }

    #[test]
    fn local_eviction_falls_back_to_remote() {
        let mut c = cache(2, 64);
        for k in 0..4 {
            serve(&mut c, k, 128, TimeSpan::ZERO);
            c.insert(k, 128);
        }
        // Key 0 was evicted locally but survives remotely.
        let (local, e_remote) = serve(&mut c, 0, 128, TimeSpan::seconds(0.01)).unwrap();
        assert!(!local, "served by the remote tier");
        // Remote hits cost more than local hits.
        let (local, e_local) = serve(&mut c, 0, 128, TimeSpan::seconds(0.02)).unwrap();
        assert!(local, "promotion after remote hit");
        assert!(e_remote > e_local);
    }

    #[test]
    fn remote_eviction_leads_to_miss() {
        let mut c = cache(1, 2);
        for k in 0..5 {
            serve(&mut c, k, 64, TimeSpan::ZERO);
            c.insert(k, 64);
        }
        assert_eq!(serve(&mut c, 0, 64, TimeSpan::ZERO), None);
    }

    #[test]
    fn remote_miss_costs_one_request_packet_and_promotes_nothing() {
        let now = TimeSpan::seconds(0.5);
        let mut c = cache(4, 64);
        c.insert(1, 1024);
        let (packets, bytes, _) = c.nic_mut().counters();
        let resident = c.local_len();
        let (hit, e, latency) = c.lookup_remote_timed(7, 1024, now).unwrap();
        assert!(!hit);
        // Exactly the 96-byte request packet, priced as a twin NIC in the
        // same state prices it: no response bytes, no remote-node energy.
        let mut twin = NicSim::new(datacenter_nic());
        twin.transfer(TimeSpan::ZERO, 1024);
        assert_eq!((e, latency), twin.transfer_timed(now, 96));
        let (packets_after, bytes_after, _) = c.nic_mut().counters();
        assert_eq!((packets_after - packets, bytes_after - bytes), (1, 96));
        assert_eq!(c.local_len(), resident, "a miss promotes nothing");
        assert!(!c.lookup_local(7, 1024, now).0);
    }

    #[test]
    fn energy_scales_with_response_len() {
        let mut a = cache(8, 64);
        a.insert(1, 1024);
        let (_, e_small) = a.lookup_local(1, 256, TimeSpan::ZERO);
        let (_, e_big) = a.lookup_local(1, 4096, TimeSpan::ZERO);
        assert!(e_big.as_joules() > 3.0 * e_small.as_joules());
    }

    #[test]
    fn dead_remote_node_degrades_to_local_only() {
        let mut c = cache(2, 64);
        for k in 0..4 {
            serve(&mut c, k, 128, TimeSpan::ZERO);
            c.insert(k, 128);
        }
        c.set_remote_alive(false);
        assert!(!c.remote_alive());
        // Key 0 was evicted locally; with the remote node dead the remote
        // copy is unreachable and nothing is sent.
        assert!(!c.lookup_local(0, 128, TimeSpan::ZERO).0);
        assert!(c.lookup_remote_timed(0, 128, TimeSpan::ZERO).is_none());
        // Inserts shed the replication write while the node is dead.
        let e_dead = c.insert(100, 128);
        c.set_remote_alive(true);
        let e_alive = c.insert(101, 128);
        assert!(e_dead < e_alive, "no NIC transfer while dead");
        // The un-replicated key survives only as long as the local tier
        // keeps it; the revived remote tier never saw it.
        c.insert(102, 128); // evicts 100 or 101 from the 2-entry local tier
        c.insert(103, 128);
        assert_eq!(
            serve(&mut c, 100, 128, TimeSpan::ZERO),
            None,
            "100 was never replicated"
        );
    }

    #[test]
    fn cumulative_energy_and_residency() {
        let mut c = cache(8, 64);
        let (_, e_probe) = c.lookup_local(1, 128, TimeSpan::ZERO);
        let e_insert = c.insert(1, 128);
        let (_, e_hit) = c.lookup_local(1, 128, TimeSpan::ZERO);
        assert_eq!(c.energy(), e_probe + e_insert + e_hit);
        assert_eq!(c.local_len(), 1);
    }

    /// The tier as it was before the ordered index: evict the entry with
    /// the least `(stamp, key)`, found by scanning every entry.
    struct ScanTier {
        capacity: usize,
        stamp: u64,
        entries: HashMap<u64, u64>,
    }

    impl ScanTier {
        fn contains_touch(&mut self, key: u64) -> bool {
            self.stamp += 1;
            match self.entries.get_mut(&key) {
                Some(s) => {
                    *s = self.stamp;
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, key: u64) {
            self.stamp += 1;
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
                if let Some((&victim, _)) = self.entries.iter().min_by_key(|(k, s)| (**s, **k)) {
                    self.entries.remove(&victim);
                }
            }
            self.entries.insert(key, self.stamp);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn ordered_index_evicts_like_the_scan(
            capacity in 1usize..=8,
            ops in proptest::collection::vec((any::<bool>(), 0u64..16), 0..=300),
        ) {
            let mut tier = LruTier::new(capacity);
            let mut model = ScanTier { capacity, stamp: 0, entries: HashMap::new() };
            for (i, &(touch, key)) in ops.iter().enumerate() {
                if touch {
                    prop_assert_eq!(tier.contains_touch(key), model.contains_touch(key), "op {}", i);
                } else {
                    tier.insert(key);
                    model.insert(key);
                }
                let resident: BTreeSet<u64> = tier.entries.keys().copied().collect();
                let expected: BTreeSet<u64> = model.entries.keys().copied().collect();
                prop_assert_eq!(resident, expected, "op {}", i);
                prop_assert_eq!(tier.order.len(), tier.entries.len(), "op {}", i);
                prop_assert!(
                    tier.order.iter().all(|(s, k)| tier.entries.get(k) == Some(s)),
                    "op {}: order is not the inverse of entries", i
                );
            }
        }
    }
}
