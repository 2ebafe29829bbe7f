//! Tiered deserialized-object cache (ROADMAP: "In-SSD deserialized-object
//! cache with tiering").
//!
//! Morpheus pays flash I/O plus an embedded-core parse for every request.
//! Under skewed serve traffic most requests re-deserialize the *same*
//! files, so the controller's 2 GB DRAM — already modelled by the
//! [`alloc_dram`](morpheus_ssd::Ssd::alloc_dram) /
//! [`free_dram`](morpheus_ssd::Ssd::free_dram) accounting the firmware
//! uses for instance state — can memoize finished objects. This module is
//! the policy engine: a map from (app, file, format-digest) to parsed
//! objects across two tiers,
//!
//! * a **controller-DRAM tier** whose byte budget the system reserves
//!   through the firmware's DRAM accounting
//!   ([`MorpheusSsd::reserve_object_cache`](crate::MorpheusSsd::reserve_object_cache)),
//!   and
//! * a **host-memory spill tier** that holds DRAM-tier victims (budget
//!   reserved from host DRAM), cheaper to hit than flash but off-device.
//!
//! Admission is **TinyLFU-style**: a seeded 4-row count-min sketch of
//! 8-bit counters estimates each key's access frequency (halved
//! periodically so the window decays); a first-touch object is *not*
//! admitted — the second miss admits it, and under memory pressure the
//! incoming key must beat the eviction victim's estimated frequency. The
//! alternative [`CachePolicy::Lru`] admits everything unconditionally.
//! Eviction is **segmented LRU**: new admissions enter a probation
//! segment; a probation hit promotes to a protected segment capped at 4/5
//! of the tier, demoting the protected LRU back to probation when it
//! overflows. DRAM victims spill to the host tier; host-tier victims are
//! dropped. Invalidation is by file: any mutation of a staged file
//! ([`System::overwrite_input_file`](crate::System::overwrite_input_file),
//! [`System::create_input_file`](crate::System::create_input_file), or the
//! MWRITE serialization path) drops every entry parsed from it, so a hit
//! can never return stale objects.
//!
//! Everything is deterministic: entries live in a `BTreeMap`, recency is a
//! logical tick, the sketch's hash salts derive from the configured seed,
//! and no wall-clock or address-dependent state is consulted. Cache
//! bookkeeping costs zero *simulated* time — only the delivery of a hit is
//! timed, by the serving layer (`serve.rs`). Each probe and state change
//! is recorded as a `cache`-track trace instant at the sim time the caller
//! passes, through the cache's own [`Tracer`] handle.

use morpheus_format::ObjectDigest;
use morpheus_simcore::{Fnv1a, SimTime, SplitMix64, TraceLayer, Tracer};
use std::collections::BTreeMap;
use std::fmt;

/// Admission policy of the DRAM tier (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// TinyLFU-style frequency gate over segmented-LRU eviction (default).
    TinyLfu,
    /// Admit-everything over segmented-LRU eviction.
    Lru,
}

impl CachePolicy {
    /// Parses the CLI spelling (`tinylfu` / `lru`).
    pub fn parse(s: &str) -> Option<CachePolicy> {
        match s {
            "tinylfu" => Some(CachePolicy::TinyLfu),
            "lru" => Some(CachePolicy::Lru),
            _ => None,
        }
    }
}

impl fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CachePolicy::TinyLfu => "tinylfu",
            CachePolicy::Lru => "lru",
        })
    }
}

/// Configuration of the object cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Controller-DRAM tier capacity, bytes. Reserved up front through the
    /// firmware's `alloc_dram` accounting, like MINIT instance state.
    pub dram_bytes: u64,
    /// Host-memory spill tier capacity, bytes (0 disables spilling).
    pub host_bytes: u64,
    /// Admission policy.
    pub policy: CachePolicy,
    /// Seed for the frequency sketch's hash salts.
    pub seed: u64,
}

impl CacheConfig {
    /// A TinyLFU cache with a DRAM tier of `dram_bytes` and no spill tier,
    /// seeded like the rest of the workspace.
    pub fn new(dram_bytes: u64) -> Self {
        CacheConfig {
            dram_bytes,
            host_bytes: 0,
            policy: CachePolicy::TinyLfu,
            seed: 42,
        }
    }

    /// True when at least one tier has capacity. A config with both
    /// capacities zero is inert: installing it is exactly a cache-off run
    /// (the determinism contract requires byte-identical reports).
    pub fn is_enabled(&self) -> bool {
        self.dram_bytes > 0 || self.host_bytes > 0
    }
}

/// Which tier served (or holds) an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Controller DRAM: delivery is one NVMe read + PCIe DMA (no flash,
    /// no parse, no embedded core).
    Dram,
    /// Host memory: delivery is a host-side copy (or host→GPU DMA).
    Host,
}

/// Counters and occupancy of the cache. Counters accumulate over the
/// cache's lifetime; per-run reports subtract a snapshot taken at run
/// start (see [`CacheStats::since`]). `dram_bytes` / `host_bytes` are
/// live occupancy, and `invalidations` is reported as a lifetime value so
/// mutations *between* runs surface in the next report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the object (either tier).
    pub hits: u64,
    /// Hits served from controller DRAM.
    pub dram_hits: u64,
    /// Hits served from the host spill tier.
    pub host_hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Objects admitted after a miss.
    pub admitted: u64,
    /// Objects the admission gate refused (frequency too low, or larger
    /// than every tier).
    pub rejected: u64,
    /// Entries dropped from the cache entirely.
    pub evictions: u64,
    /// DRAM-tier victims demoted to the host tier.
    pub spills: u64,
    /// Host-tier entries promoted back to DRAM on a hit.
    pub promotions: u64,
    /// Entries dropped by file invalidation.
    pub invalidations: u64,
    /// Current DRAM-tier occupancy, bytes.
    pub dram_bytes: u64,
    /// Current host-tier occupancy, bytes.
    pub host_bytes: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (0 when the cache saw none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The per-run view: event counters relative to `base` (a snapshot
    /// taken at run start), occupancy and invalidations as-is (see type
    /// docs for why invalidations stay cumulative).
    pub fn since(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - base.hits,
            dram_hits: self.dram_hits - base.dram_hits,
            host_hits: self.host_hits - base.host_hits,
            misses: self.misses - base.misses,
            admitted: self.admitted - base.admitted,
            rejected: self.rejected - base.rejected,
            evictions: self.evictions - base.evictions,
            spills: self.spills - base.spills,
            promotions: self.promotions - base.promotions,
            invalidations: self.invalidations,
            dram_bytes: self.dram_bytes,
            host_bytes: self.host_bytes,
        }
    }

    /// Adds `other` to these stats, occupancy included (summing devices:
    /// fleet-wide cached bytes across all controllers). The
    /// destructuring lists every field, so a new counter cannot compile
    /// without being summed here.
    pub fn merge(&mut self, other: &CacheStats) {
        let CacheStats {
            hits,
            dram_hits,
            host_hits,
            misses,
            admitted,
            rejected,
            evictions,
            spills,
            promotions,
            invalidations,
            dram_bytes,
            host_bytes,
        } = *other;
        self.hits += hits;
        self.dram_hits += dram_hits;
        self.host_hits += host_hits;
        self.misses += misses;
        self.admitted += admitted;
        self.rejected += rejected;
        self.evictions += evictions;
        self.spills += spills;
        self.promotions += promotions;
        self.invalidations += invalidations;
        self.dram_bytes += dram_bytes;
        self.host_bytes += host_bytes;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} (dram={} host={}) misses={} hit_rate={:.4} admitted={} rejected={} \
             evictions={} spills={} promotions={} invalidations={} dram_kb={} host_kb={}",
            self.hits,
            self.dram_hits,
            self.host_hits,
            self.misses,
            self.hit_rate(),
            self.admitted,
            self.rejected,
            self.evictions,
            self.spills,
            self.promotions,
            self.invalidations,
            self.dram_bytes / 1024,
            self.host_bytes / 1024
        )
    }
}

/// Trace track of the cache's probes and state changes.
const CACHE_TRACK: &str = "cache";

/// A successful lookup: which tier held the object and the object's
/// digest. The simulator never reads cached values, so an entry holds
/// only what delivery and the serve report need: the binary size (the
/// delivery payload), the record count and the checksum, all equal to a
/// fresh deserialization's.
#[derive(Debug, Clone, Copy)]
pub struct CacheHit {
    /// Tier that served the hit (decides the delivery cost model).
    pub tier: CacheTier,
    /// Digest of the cached objects.
    pub objects: ObjectDigest,
}

/// Cache key: (app name, input file, format digest).
type Key = (String, String, u64);

#[derive(Debug, Clone)]
struct Entry {
    objects: ObjectDigest,
    tier: CacheTier,
    /// Segmented LRU: true once a DRAM entry was re-referenced.
    protected: bool,
    /// Logical recency tick.
    last_used: u64,
}

/// Protected-segment share of the DRAM tier (segmented LRU).
const PROTECTED_NUM: u64 = 4;
const PROTECTED_DEN: u64 = 5;
/// Count-min sketch geometry: 4 rows of `SKETCH_WIDTH` 8-bit counters.
const SKETCH_ROWS: usize = 4;
const SKETCH_WIDTH: usize = 1024;
/// Sketch increments between halvings (the decay window).
const SKETCH_WINDOW: u64 = (SKETCH_WIDTH as u64) * 8;

/// Seeded count-min frequency sketch with periodic halving (the TinyLFU
/// "reset" that keeps estimates recent).
#[derive(Debug, Clone)]
struct FreqSketch {
    salts: [u64; SKETCH_ROWS],
    counters: Vec<u8>,
    ops: u64,
}

impl FreqSketch {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut salts = [0u64; SKETCH_ROWS];
        for s in &mut salts {
            *s = rng.next_u64() | 1; // odd multipliers mix every bit
        }
        FreqSketch {
            salts,
            counters: vec![0; SKETCH_ROWS * SKETCH_WIDTH],
            ops: 0,
        }
    }

    fn slot(&self, row: usize, h: u64) -> usize {
        let mixed = h.wrapping_mul(self.salts[row]);
        row * SKETCH_WIDTH + ((mixed >> 32) as usize & (SKETCH_WIDTH - 1))
    }

    fn bump(&mut self, h: u64) {
        for row in 0..SKETCH_ROWS {
            let i = self.slot(row, h);
            self.counters[i] = self.counters[i].saturating_add(1);
        }
        self.ops += 1;
        if self.ops >= SKETCH_WINDOW {
            for c in &mut self.counters {
                *c >>= 1;
            }
            self.ops = 0;
        }
    }

    fn estimate(&self, h: u64) -> u8 {
        (0..SKETCH_ROWS)
            .map(|row| self.counters[self.slot(row, h)])
            .min()
            .unwrap_or(0)
    }
}

/// FNV-1a over the key's parts (stable, dependency-free).
fn hash_key(key: &Key) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(key.0.as_bytes());
    h.bytes(&[0]);
    h.bytes(key.1.as_bytes());
    h.bytes(&[0]);
    h.bytes(&key.2.to_le_bytes());
    h.value()
}

/// The tiered deserialized-object cache (see module docs for policy).
#[derive(Debug, Clone)]
pub struct ObjectCache {
    cfg: CacheConfig,
    entries: BTreeMap<Key, Entry>,
    sketch: FreqSketch,
    tick: u64,
    stats: CacheStats,
    /// Bytes in the DRAM tier's protected segment.
    protected_bytes: u64,
    /// Where probes and state changes are recorded (disabled until
    /// [`set_tracer`](Self::set_tracer)).
    tracer: Tracer,
}

impl ObjectCache {
    /// Creates an empty cache. The caller (the [`System`](crate::System))
    /// is responsible for reserving the tier budgets against the
    /// controller-DRAM and host-DRAM accounting.
    pub fn new(cfg: CacheConfig) -> Self {
        ObjectCache {
            sketch: FreqSketch::new(cfg.seed),
            cfg,
            entries: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            protected_bytes: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs the trace handle the cache records its `cache`-track
    /// instants through.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Records one probe outcome or state change at `at`.
    fn trace(&self, what: &str, at: SimTime) {
        self.tracer.instant(TraceLayer::Ssd, CACHE_TRACK, what, at);
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Cached entries across both tiers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up (app, file, digest) at sim time `at`. A hit refreshes
    /// recency, promotes probation entries to the protected segment, and
    /// may promote a host-tier entry back to DRAM (spilling victims); a
    /// miss only feeds the frequency sketch. The `hit-dram`, `hit-host` or
    /// `miss` instant is recorded before any change the probe causes.
    /// Returns `None` on a miss.
    pub fn lookup(&mut self, app: &str, file: &str, digest: u64, at: SimTime) -> Option<CacheHit> {
        self.tick += 1;
        let key: Key = (app.to_string(), file.to_string(), digest);
        let h = hash_key(&key);
        self.sketch.bump(h);
        let tick = self.tick;
        let Some(e) = self.entries.get_mut(&key) else {
            self.stats.misses += 1;
            self.trace("miss", at);
            return None;
        };
        let what = match e.tier {
            CacheTier::Dram => "hit-dram",
            CacheTier::Host => "hit-host",
        };
        self.tracer.instant(TraceLayer::Ssd, CACHE_TRACK, what, at);
        e.last_used = tick;
        self.stats.hits += 1;
        let hit = CacheHit {
            tier: e.tier,
            objects: e.objects,
        };
        match e.tier {
            CacheTier::Dram => {
                self.stats.dram_hits += 1;
                if !e.protected {
                    e.protected = true;
                    self.protected_bytes += e.objects.bytes;
                    self.trim_protected();
                }
            }
            CacheTier::Host => {
                self.stats.host_hits += 1;
                self.try_promote(&key, h, at);
            }
        }
        Some(hit)
    }

    /// Offers a freshly deserialized object, by its digest, for admission
    /// at sim time `at` (called by the serving layer after a miss
    /// completes). The frequency gate, tier placement, spilling, and
    /// eviction all happen here, each traced as it happens.
    pub fn admit(
        &mut self,
        app: &str,
        file: &str,
        digest: u64,
        objects: ObjectDigest,
        at: SimTime,
    ) {
        self.tick += 1;
        let key: Key = (app.to_string(), file.to_string(), digest);
        let bytes = objects.bytes;
        let h = hash_key(&key);
        if self.entries.contains_key(&key) {
            return; // a batch can miss the same key twice before admission
        }
        // Doorkeeper: a first-touch key has estimate 1 (its own miss) and
        // is refused; the second miss admits it. LRU admits everything.
        if self.cfg.policy == CachePolicy::TinyLfu && self.sketch.estimate(h) < 2 {
            self.stats.rejected += 1;
            self.trace("reject", at);
            return;
        }
        let tier = if bytes <= self.cfg.dram_bytes {
            CacheTier::Dram
        } else if bytes <= self.cfg.host_bytes {
            CacheTier::Host
        } else {
            self.stats.rejected += 1;
            self.trace("reject", at);
            return;
        };
        if tier == CacheTier::Dram && !self.make_dram_room(bytes, Some(h), None, at) {
            self.stats.rejected += 1;
            self.trace("reject", at);
            return;
        }
        if tier == CacheTier::Host {
            self.make_host_room(bytes, None, at);
        }
        match tier {
            CacheTier::Dram => self.stats.dram_bytes += bytes,
            CacheTier::Host => self.stats.host_bytes += bytes,
        }
        self.entries.insert(
            key,
            Entry {
                objects,
                tier,
                protected: false,
                last_used: self.tick,
            },
        );
        self.stats.admitted += 1;
        self.trace(
            match tier {
                CacheTier::Dram => "admit-dram",
                CacheTier::Host => "admit-host",
            },
            at,
        );
    }

    /// Drops every entry deserialized from `file` (any app, any digest),
    /// recording one `invalidate` instant at `at` when any was cached.
    /// Returns how many entries were dropped.
    pub fn invalidate_file(&mut self, file: &str, at: SimTime) -> u64 {
        let victims: Vec<Key> = self
            .entries
            .keys()
            .filter(|k| k.1 == file)
            .cloned()
            .collect();
        for k in &victims {
            self.drop_entry(k);
        }
        let n = victims.len() as u64;
        if n > 0 {
            self.stats.invalidations += n;
            self.trace("invalidate", at);
        }
        n
    }

    /// Removes an entry, fixing occupancy.
    fn drop_entry(&mut self, key: &Key) {
        let e = self.entries.remove(key).expect("victim exists");
        match e.tier {
            CacheTier::Dram => {
                self.stats.dram_bytes -= e.objects.bytes;
                if e.protected {
                    self.protected_bytes -= e.objects.bytes;
                }
            }
            CacheTier::Host => self.stats.host_bytes -= e.objects.bytes,
        }
    }

    /// The LRU key of a DRAM segment (probation when `protected` is
    /// false). Ties break on key order, so victim choice is deterministic
    /// regardless of map internals.
    fn dram_lru(&self, protected: bool) -> Option<Key> {
        self.entries
            .iter()
            .filter(|(_, e)| e.tier == CacheTier::Dram && e.protected == protected)
            .min_by_key(|(k, e)| (e.last_used, (*k).clone()))
            .map(|(k, _)| k.clone())
    }

    /// The LRU key of the host tier, other than `leaving`.
    fn host_lru(&self, leaving: Option<&Key>) -> Option<Key> {
        self.entries
            .iter()
            .filter(|(k, e)| e.tier == CacheTier::Host && Some(*k) != leaving)
            .min_by_key(|(k, e)| (e.last_used, (*k).clone()))
            .map(|(k, _)| k.clone())
    }

    /// Keeps the protected segment at its 4/5 share by demoting its LRU
    /// back to probation (bookkeeping only; no bytes move).
    fn trim_protected(&mut self) {
        let cap = self.cfg.dram_bytes / PROTECTED_DEN * PROTECTED_NUM;
        while self.protected_bytes > cap {
            let Some(k) = self.dram_lru(true) else { break };
            let e = self.entries.get_mut(&k).expect("lru exists");
            e.protected = false;
            self.protected_bytes -= e.objects.bytes;
        }
    }

    /// Frees DRAM space for `need` incoming bytes by spilling victims
    /// (probation LRU first, then protected LRU) to the host tier. With
    /// the TinyLFU gate (`incoming` is the new key's hash), stops and
    /// reports failure if a victim's estimated frequency exceeds the
    /// incoming key's — the newcomer has not earned the slot. `leaving`
    /// is a host-tier entry on its way up, never a spill's victim.
    fn make_dram_room(
        &mut self,
        need: u64,
        incoming: Option<u64>,
        leaving: Option<&Key>,
        at: SimTime,
    ) -> bool {
        if need > self.cfg.dram_bytes {
            return false;
        }
        while self.stats.dram_bytes + need > self.cfg.dram_bytes {
            let Some(victim) = self.dram_lru(false).or_else(|| self.dram_lru(true)) else {
                return false;
            };
            if self.cfg.policy == CachePolicy::TinyLfu {
                if let Some(h) = incoming {
                    if self.sketch.estimate(hash_key(&victim)) > self.sketch.estimate(h) {
                        return false;
                    }
                }
            }
            self.spill_to_host(&victim, leaving, at);
        }
        true
    }

    /// Frees host-tier space for `need` bytes by dropping host LRUs other
    /// than `leaving`. Once `leaving` is the only host entry left, its
    /// bytes make the room: they leave the tier as `need` arrives.
    fn make_host_room(&mut self, need: u64, leaving: Option<&Key>, at: SimTime) {
        while self.stats.host_bytes + need > self.cfg.host_bytes {
            let Some(victim) = self.host_lru(leaving) else {
                return;
            };
            self.drop_entry(&victim);
            self.stats.evictions += 1;
            self.trace("evict", at);
        }
    }

    /// Demotes a DRAM entry to the host tier (or drops it when the host
    /// tier cannot hold it), evicting any host entry but `leaving`.
    fn spill_to_host(&mut self, key: &Key, leaving: Option<&Key>, at: SimTime) {
        let e = self.entries.get(key).expect("victim exists");
        let bytes = e.objects.bytes;
        if bytes > self.cfg.host_bytes {
            self.drop_entry(key);
            self.stats.evictions += 1;
            self.trace("evict", at);
            return;
        }
        self.make_host_room(bytes, leaving, at);
        let e = self.entries.get_mut(key).expect("victim exists");
        if e.protected {
            e.protected = false;
            self.protected_bytes -= e.objects.bytes;
        }
        e.tier = CacheTier::Host;
        self.stats.dram_bytes -= bytes;
        self.stats.host_bytes += bytes;
        self.stats.spills += 1;
        self.trace("spill", at);
    }

    /// On a host-tier hit, tries to move the entry back to DRAM (same
    /// gate as admission: LRU always, TinyLFU only when the entry beats
    /// the would-be victim). The entry is never its own spill's victim,
    /// so a full host tier makes the promotion a swap.
    fn try_promote(&mut self, key: &Key, h: u64, at: SimTime) {
        let bytes = self.entries.get(key).expect("hit entry").objects.bytes;
        if bytes > self.cfg.dram_bytes {
            return;
        }
        if !self.make_dram_room(bytes, Some(h), Some(key), at) {
            // The gate stopped after a spill that counted on this entry's
            // bytes leaving the host tier: it goes instead.
            if self.stats.host_bytes > self.cfg.host_bytes {
                self.drop_entry(key);
                self.stats.evictions += 1;
                self.trace("evict", at);
            }
            return;
        }
        let e = self.entries.get_mut(key).expect("hit entry");
        e.tier = CacheTier::Dram;
        e.protected = false;
        self.stats.host_bytes -= bytes;
        self.stats.dram_bytes += bytes;
        self.stats.promotions += 1;
        self.trace("promote", at);
    }
}

/// Digest of an app's record schema and input encoding. Part of the cache
/// key so two apps reading one file with different schemas (or a schema
/// change for the same app name) can never alias.
pub fn format_digest(spec: &crate::AppSpec) -> u64 {
    // `Debug` of a data-only enum/struct tree is stable for a fixed
    // compiler — and cache keys never cross process boundaries.
    let rendered = format!("{:?}|{:?}", spec.schema, spec.input_format);
    Fnv1a::hash_bytes(rendered.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_format::{Column, FieldKind, ParsedColumns, Schema};

    const T0: SimTime = SimTime::ZERO;

    /// The digest of an object of `n * 16` binary bytes.
    fn obj(n: usize, salt: i64) -> ObjectDigest {
        let schema = Schema::new(vec![FieldKind::I64, FieldKind::I64]);
        ParsedColumns {
            schema,
            columns: vec![
                Column::Ints((0..n as i64).map(|i| i * 3 + salt).collect()),
                Column::Ints((0..n as i64).map(|i| i * 7 - salt).collect()),
            ],
            records: n as u64,
        }
        .digest()
    }

    fn cache(dram: u64, host: u64, policy: CachePolicy) -> ObjectCache {
        ObjectCache::new(CacheConfig {
            dram_bytes: dram,
            host_bytes: host,
            policy,
            seed: 42,
        })
    }

    #[test]
    fn tinylfu_admits_on_second_miss() {
        let mut c = cache(1 << 20, 0, CachePolicy::TinyLfu);
        assert!(c.lookup("a", "f", 1, T0).is_none());
        c.admit("a", "f", 1, obj(10, 0), T0);
        assert!(
            c.lookup("a", "f", 1, T0).is_none(),
            "doorkeeper refuses first touch"
        );
        c.admit("a", "f", 1, obj(10, 0), T0);
        assert!(c.lookup("a", "f", 1, T0).is_some(), "second miss admits");
        let s = c.stats();
        assert_eq!((s.rejected, s.admitted, s.hits, s.misses), (1, 1, 1, 2));
    }

    #[test]
    fn lru_admits_immediately() {
        let mut c = cache(1 << 20, 0, CachePolicy::Lru);
        assert!(c.lookup("a", "f", 1, T0).is_none());
        c.admit("a", "f", 1, obj(10, 0), T0);
        assert!(c.lookup("a", "f", 1, T0).is_some());
    }

    #[test]
    fn dram_victims_spill_to_host_then_drop() {
        // DRAM fits one object, host fits one more.
        let bytes = obj(64, 0).bytes;
        let mut c = cache(bytes + 8, bytes + 8, CachePolicy::Lru);
        c.admit("a", "f0", 0, obj(64, 0), T0);
        c.admit("a", "f1", 1, obj(64, 1), T0);
        assert_eq!(c.stats().spills, 1, "f0 spilled to host");
        assert!(matches!(
            c.lookup("a", "f0", 0, T0).expect("still cached").tier,
            CacheTier::Host
        ));
        // The hit swapped f0 (back in DRAM) with f1 (now on the host).
        assert_eq!((c.stats().spills, c.stats().promotions), (2, 1));
        c.admit("a", "f2", 2, obj(64, 2), T0);
        // f0 spills; the host tier can only hold one, so its LRU drops.
        let s = c.stats();
        assert_eq!(s.spills, 3);
        assert_eq!(s.evictions, 1);
        assert!(c.len() <= 2);
    }

    #[test]
    fn frequency_gate_protects_hot_victims() {
        let bytes = obj(64, 0).bytes;
        let mut c = cache(bytes + 8, 0, CachePolicy::TinyLfu);
        // Make f0 hot: admitted, then hit repeatedly.
        assert!(c.lookup("a", "f0", 0, T0).is_none());
        c.admit("a", "f0", 0, obj(64, 0), T0);
        assert!(c.lookup("a", "f0", 0, T0).is_none());
        c.admit("a", "f0", 0, obj(64, 0), T0);
        for _ in 0..10 {
            assert!(c.lookup("a", "f0", 0, T0).is_some());
        }
        // A cold newcomer that needs f0's space is refused.
        assert!(c.lookup("a", "f1", 1, T0).is_none());
        assert!(c.lookup("a", "f1", 1, T0).is_none());
        c.admit("a", "f1", 1, obj(64, 1), T0);
        assert!(c.lookup("a", "f0", 0, T0).is_some(), "hot entry survives");
        assert!(
            c.lookup("a", "f1", 1, T0).is_none(),
            "cold newcomer refused"
        );
    }

    #[test]
    fn invalidation_drops_every_entry_of_the_file() {
        let mut c = cache(1 << 20, 1 << 20, CachePolicy::Lru);
        c.admit("a", "shared.txt", 1, obj(10, 0), T0);
        c.admit("b", "shared.txt", 2, obj(10, 1), T0);
        c.admit("c", "other.txt", 3, obj(10, 2), T0);
        assert_eq!(c.invalidate_file("shared.txt", T0), 2);
        assert!(c.lookup("a", "shared.txt", 1, T0).is_none());
        assert!(c.lookup("b", "shared.txt", 2, T0).is_none());
        assert!(c.lookup("c", "other.txt", 3, T0).is_some());
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn occupancy_never_exceeds_budgets() {
        let mut c = cache(4096, 2048, CachePolicy::Lru);
        for i in 0..200u64 {
            let file = format!("f{}", i % 23);
            let _ = c.lookup("a", &file, i % 23, T0);
            c.admit("a", &file, i % 23, obj(8 + (i % 13) as usize, i as i64), T0);
            let s = c.stats();
            assert!(s.dram_bytes <= 4096, "dram over budget: {}", s.dram_bytes);
            assert!(s.host_bytes <= 2048, "host over budget: {}", s.host_bytes);
        }
    }

    #[test]
    fn identical_op_streams_give_identical_stats() {
        let run = || {
            let mut c = cache(2048, 1024, CachePolicy::TinyLfu);
            for i in 0..500u64 {
                let file = format!("f{}", i * i % 17);
                if c.lookup("a", &file, 0, T0).is_none() {
                    c.admit("a", &file, 0, obj(16, i as i64 % 17), T0);
                }
            }
            (c.stats(), c.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hit_rate_math() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_is_defined_for_a_zero_lookup_window() {
        // A per-run window in which the cache saw no lookups (e.g. a
        // serve window that shed everything) divides by zero unless
        // guarded: the defined answer is 0.0, finite, never NaN.
        let s = CacheStats {
            hits: 7,
            misses: 3,
            ..Default::default()
        };
        let window = s.since(&s.clone());
        assert_eq!(window.hits + window.misses, 0, "empty window");
        assert_eq!(window.hit_rate(), 0.0);
        assert!(window.hit_rate().is_finite());
    }

    #[test]
    fn merge_sums_every_field() {
        let s = CacheStats {
            hits: 1,
            dram_hits: 2,
            host_hits: 3,
            misses: 4,
            admitted: 5,
            rejected: 6,
            evictions: 7,
            spills: 8,
            promotions: 9,
            invalidations: 10,
            dram_bytes: 11,
            host_bytes: 12,
        };
        let mut sum = CacheStats::default();
        sum.merge(&s);
        sum.merge(&s);
        // Merging the run back out (invalidations and occupancy aside,
        // which `since` keeps as-is) leaves exactly one copy.
        assert_eq!(
            sum.since(&s),
            CacheStats {
                invalidations: 20,
                dram_bytes: 22,
                host_bytes: 24,
                ..s
            }
        );
    }

    #[test]
    fn probes_and_changes_trace_in_the_order_they_happen() {
        // DRAM fits one object and the host tier two: each admission
        // spills the DRAM entry, a host hit promotes by spilling, and the
        // fourth object's spill evicts the host LRU.
        let bytes = obj(64, 0).bytes;
        let mut c = cache(bytes + 8, 2 * bytes + 8, CachePolicy::Lru);
        let tracer = Tracer::enabled();
        c.set_tracer(tracer.clone());
        let at = SimTime::from_nanos;
        assert!(c.lookup("a", "f0", 0, at(1)).is_none());
        c.admit("a", "f0", 0, obj(64, 0), at(2));
        c.admit("a", "f1", 1, obj(64, 1), at(3));
        assert!(c.lookup("a", "f0", 0, at(4)).is_some());
        c.admit("a", "f2", 2, obj(64, 2), at(5));
        c.admit("a", "f3", 3, obj(64, 3), at(6));
        assert_eq!(c.invalidate_file("f0", at(7)), 1);
        assert_eq!(c.invalidate_file("f0", at(8)), 0, "nothing left to drop");
        let seen: Vec<(String, u64)> = tracer
            .take()
            .events
            .into_iter()
            .map(|e| {
                assert_eq!((e.layer, e.track.as_str()), (TraceLayer::Ssd, "cache"));
                (e.name, e.start_ns)
            })
            .collect();
        let want = [
            ("miss", 1),
            ("admit-dram", 2),
            ("spill", 3),
            ("admit-dram", 3),
            ("hit-host", 4),
            ("spill", 4),
            ("promote", 4),
            ("spill", 5),
            ("admit-dram", 5),
            ("evict", 6),
            ("spill", 6),
            ("admit-dram", 6),
            ("invalidate", 7),
        ];
        let want: Vec<(String, u64)> = want.iter().map(|&(n, t)| (n.to_string(), t)).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn a_host_hit_into_full_tiers_promotes_as_a_swap() {
        // Each tier holds one object. The host hit on f0 spills f1 into
        // the full host tier, whose only entry is f0 itself, on its way up.
        let bytes = obj(64, 0).bytes;
        let mut c = cache(bytes + 8, bytes + 8, CachePolicy::Lru);
        let tracer = Tracer::enabled();
        c.set_tracer(tracer.clone());
        c.admit("a", "f0", 0, obj(64, 0), T0);
        c.admit("a", "f1", 1, obj(64, 1), T0);
        tracer.take();
        assert_eq!(c.lookup("a", "f0", 0, T0).unwrap().tier, CacheTier::Host);
        let names: Vec<String> = tracer.take().events.into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["hit-host", "spill", "promote"]);
        let st = c.stats();
        assert_eq!((st.promotions, st.evictions), (1, 0));
        assert_eq!((st.dram_bytes, st.host_bytes), (bytes, bytes));
        assert_eq!(c.lookup("a", "f0", 0, T0).unwrap().tier, CacheTier::Dram);
        assert_eq!(c.lookup("a", "f1", 1, T0).unwrap().tier, CacheTier::Host);
    }
}
