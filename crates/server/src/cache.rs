//! The sharded plan cache: warm [`ScorpionSession`]s keyed by
//! `(table name, normalized SQL, labels, algorithm)`, one slot per query.
//!
//! The influence parameters `(λ, c)` are deliberately **not** part of
//! the key — that is the whole point: a repeated `POST /explain` for the
//! same query and labels at a new `c` lands on the cached session and
//! re-runs through its prepared plan's influence cache (pure arithmetic,
//! no mask passes) instead of re-parsing, re-partitioning, and
//! re-scoring from scratch.
//!
//! The table's generation is not part of the key either: each slot
//! records the generation its plan was built at, and a lookup names the
//! generation the request read from the registry. Replacing a table
//! bumps its generation, so the next lookup of each of its queries finds
//! a stale slot, takes it out, counts it as an eviction and builds the
//! plan anew; the stale plan (with the old table snapshot, its masks and
//! memos) is freed after the shard lock is released. A replaced table's
//! plans therefore live until their query is asked again, not until LRU
//! reaches them. A request that read the registry just before a reload
//! and arrives after the new plan is resident is served a plan built
//! for its own snapshot, which is not cached.
//!
//! Eviction is **prepare-cost-aware**: each resident entry remembers how
//! long it took to build (SQL parse + session + `prepare`), and an
//! incoming entry may only evict residents that are not dramatically
//! more expensive than itself. A burst of cheap MC preps can therefore
//! no longer wash a multi-second DT prep out of the cache; when every
//! resident is too expensive to displace, the incoming entry is simply
//! *not admitted* (the caller still gets its freshly built session —
//! it just isn't cached) and `admission_denied` is counted.

use crate::registry::TableEntry;
use parking_lot::Mutex;
use scorpion_core::ScorpionSession;
use std::cmp;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cache key: the query a plan answers, which names its slot, and the
/// generation of the table snapshot the request read, which the slot's
/// plan must have been built at. Construct with [`PlanKey::new`] so SQL
/// normalization and field separation stay consistent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// `(table name, normalized SQL, labels, algorithm)`, joined.
    query: String,
    /// Generation of the snapshot the request read.
    generation: u64,
}

impl PlanKey {
    /// Builds a key for a request that read `entry` as the table `name`.
    /// `labels` is the caller's canonical rendering of the label
    /// specification (indices or keys, auto-label `k`, …); requests that
    /// spell the same labels differently simply occupy two cache slots —
    /// both correct, neither shared.
    pub fn new(entry: &TableEntry, name: &str, sql: &str, labels: &str, algorithm: &str) -> Self {
        PlanKey {
            query: format!(
                "{name}\u{1}{sql}\u{1}{labels}\u{1}{algorithm}",
                sql = normalize_sql(sql)
            ),
            generation: entry.generation,
        }
    }
}

/// Collapses runs of whitespace to single spaces and trims, so
/// formatting differences in the SQL text do not fragment the cache.
/// Identifier case is preserved (the engine treats it as significant).
pub fn normalize_sql(sql: &str) -> String {
    sql.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// A cached, warm session plus the result-series metadata needed to
/// render responses without re-running the query.
pub struct PlanEntry {
    /// The reusable session (prepared lazily on first run).
    pub session: ScorpionSession,
    /// Human-readable group keys, in result order.
    pub display_keys: Vec<String>,
    /// The aggregate result series, in result order.
    pub results: Vec<f64>,
}

/// Counters the `/stats` endpoint reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build a session.
    pub misses: u64,
    /// Entries evicted to admit a newer one, or replaced because their
    /// table was reloaded.
    pub evictions: u64,
    /// Built entries refused residency because every evictable slot
    /// held a strictly more expensive prepare.
    pub admission_denied: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A resident entry plus its admission metadata.
struct Slot {
    entry: Arc<PlanEntry>,
    /// Generation of the table snapshot the plan was built from.
    generation: u64,
    /// Measured build cost (parse + session + prepare) at insert time.
    cost: Duration,
    /// Last-access tick for LRU ordering within the shard.
    tick: u64,
}

/// Admission headroom: an incoming entry may evict residents costing up
/// to this factor more than itself. Wide enough that measurement jitter
/// between same-class preps never blocks admission, narrow enough that
/// a microsecond MC prep cannot displace a multi-second DT prep.
const COST_HEADROOM: u32 = 8;

/// Floor applied to the incoming cost before the headroom comparison:
/// below this, build-time differences are noise, and everything cheap
/// should compete as plain LRU.
const COST_FLOOR: Duration = Duration::from_millis(1);

/// What a shard holds for a key's query.
enum Found {
    /// A plan built at the key's generation.
    Current(Arc<PlanEntry>),
    /// A plan built at an older generation, now taken out of the shard.
    /// The caller drops it once the shard lock is released: freeing a
    /// cold plan takes a fraction of a millisecond.
    Stale(Slot),
    /// A plan built at a newer generation: the request read the registry
    /// before a reload.
    Newer,
    /// No plan.
    Absent,
}

/// One lock shard: slots keyed by query, LRU-ordered by access tick,
/// evicted cost-aware. It is not the `scorpion_table::lru::LruShard`
/// the clause and predicate memos share, because its victim depends on
/// build cost as well as recency, and it may refuse an entry.
#[derive(Default)]
struct CostShard {
    map: HashMap<String, Slot>,
    tick: u64,
}

impl CostShard {
    /// Looks up `key`'s query; a hit at the key's generation counts as a
    /// use, and a slot of an older generation is taken out.
    fn find(&mut self, key: &PlanKey) -> Found {
        self.tick += 1;
        let Some(slot) = self.map.get_mut(&key.query) else { return Found::Absent };
        match slot.generation.cmp(&key.generation) {
            cmp::Ordering::Equal => {
                slot.tick = self.tick;
                Found::Current(slot.entry.clone())
            }
            cmp::Ordering::Greater => Found::Newer,
            cmp::Ordering::Less => self.map.remove(&key.query).map_or(Found::Absent, Found::Stale),
        }
    }

    /// Attempts to admit `entry` under the cost-aware policy, evicting
    /// the least-recently-used *displaceable* resident if the shard is
    /// full. Returns `(evicted, admitted)`.
    fn admit(
        &mut self,
        key: &PlanKey,
        entry: Arc<PlanEntry>,
        cost: Duration,
        cap: usize,
    ) -> (u64, bool) {
        self.tick += 1;
        let tick = self.tick;
        let mut evicted = 0;
        if self.map.len() >= cap.max(1) {
            let threshold = cost.max(COST_FLOOR).saturating_mul(COST_HEADROOM);
            let victim = self
                .map
                .iter()
                .filter(|(_, s)| s.cost <= threshold)
                .min_by_key(|(_, s)| s.tick)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.map.remove(&k);
                    evicted = 1;
                }
                // Every resident out-costs the incoming entry: keep them.
                None => return (0, false),
            }
        }
        self.map.insert(key.query.clone(), Slot { entry, generation: key.generation, cost, tick });
        (evicted, true)
    }
}

/// Sharded, cost-aware LRU cache of warm sessions.
pub struct PlanCache {
    shards: Vec<Mutex<CostShard>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    admission_denied: AtomicU64,
}

/// Lock shards (power of two).
const SHARDS: usize = 8;

/// Bound on cached sessions.
const CAP: usize = 256;

impl Default for PlanCache {
    /// The server's cache: bounded to 256 sessions.
    fn default() -> Self {
        PlanCache::with_capacity(CAP)
    }
}

impl PlanCache {
    /// A cache bounded to `cap` sessions, for tests that need a smaller
    /// bound than the server's 256.
    pub fn with_capacity(cap: usize) -> Self {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(CostShard::default())).collect(),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            admission_denied: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &PlanKey) -> &Mutex<CostShard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.query.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// Per-shard resident bound: the capacity rounded up to shard
    /// granularity, so the cache never holds fewer sessions than its
    /// bound (it may hold up to `SHARDS − 1` extra).
    fn shard_cap(&self) -> usize {
        self.cap.div_ceil(SHARDS)
    }

    /// Looks up `key`; on a miss, runs `build` (outside any lock — it
    /// parses SQL, constructs a session, and should *prepare* it, so the
    /// measured cost reflects what re-building would really cost) and
    /// offers the result to the cost-aware admission policy. Concurrent
    /// misses on the same key may both build; the first insert wins and
    /// later builders adopt it, so every caller shares one session
    /// object per key. A denied admission still returns the built entry
    /// — the response is served; the entry just isn't cached.
    ///
    /// A plan of an older generation than `key`'s is taken out of its
    /// slot, counted as an eviction and freed outside the shard lock
    /// before the new plan is built. When the slot holds a newer
    /// generation than `key`'s, the built entry is served but not
    /// offered for admission.
    pub fn get_or_create<E>(
        &self,
        key: &PlanKey,
        build: impl FnOnce() -> Result<PlanEntry, E>,
    ) -> Result<(Arc<PlanEntry>, bool), E> {
        let found = self.shard(key).lock().find(key);
        let admit = match found {
            Found::Current(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((entry, true));
            }
            Found::Stale(stale) => {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                drop(stale);
                true
            }
            Found::Newer => false,
            Found::Absent => true,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let build_start = Instant::now();
        let built = Arc::new(build()?);
        let cost = build_start.elapsed();
        if !admit {
            return Ok((built, false));
        }
        let mut shard = self.shard(key).lock();
        let stale = match shard.find(key) {
            // A racing builder won; adopt its resident entry.
            Found::Current(existing) => return Ok((existing, false)),
            // A request that read a newer snapshot got in first.
            Found::Newer => return Ok((built, false)),
            // One that read an older snapshot got in first.
            Found::Stale(stale) => Some(stale),
            Found::Absent => None,
        };
        let (evicted, admitted) = shard.admit(key, built.clone(), cost, self.shard_cap());
        drop(shard);
        let evicted = evicted + u64::from(stale.is_some());
        drop(stale);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        if !admitted {
            self.admission_denied.fetch_add(1, Ordering::Relaxed);
        }
        Ok((built, false))
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            admission_denied: self.admission_denied.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().map.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpion_core::Scorpion;
    use scorpion_table::{Field, Schema, Table, TableBuilder};

    fn sensors() -> Table {
        let schema =
            Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..20 {
            let g = if i % 2 == 0 { "o" } else { "h" };
            let v = if i == 0 { 100.0 } else { 10.0 };
            b.push_row(vec![g.into(), (i as f64).into(), v.into()]).unwrap();
        }
        b.build()
    }

    fn entry_for(table: &Table) -> PlanEntry {
        let builder = Scorpion::on(table.clone()).sql("SELECT avg(v) FROM t GROUP BY g").unwrap();
        let display_keys: Vec<String> =
            (0..builder.len()).map(|i| builder.display_key(i)).collect();
        let results = builder.results().to_vec();
        let req = builder.outlier(1, 1.0).holdout(0).build().unwrap();
        PlanEntry { session: ScorpionSession::new(req).unwrap(), display_keys, results }
    }

    fn key(gen_entry: &TableEntry, sql: &str) -> PlanKey {
        PlanKey::new(gen_entry, "t", sql, "o:[1]h:[0]", "auto")
    }

    #[test]
    fn hit_after_miss_shares_the_session() {
        let t = sensors();
        let cache = PlanCache::default();
        let te = TableEntry { table: std::sync::Arc::new(t.clone()), generation: 1 };
        let k = key(&te, "SELECT avg(v)  FROM t   GROUP BY g");
        let (a, hit_a) = cache.get_or_create::<()>(&k, || Ok(entry_for(&t))).unwrap();
        // Different whitespace, same normalized key.
        let k2 = key(&te, "SELECT avg(v) FROM t GROUP BY g");
        let (b, hit_b) = cache.get_or_create::<()>(&k2, || Ok(entry_for(&t))).unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn generation_bump_replaces_and_drops_the_stale_plan() {
        let t = sensors();
        let cache = PlanCache::default();
        let g1 = TableEntry { table: std::sync::Arc::new(t.clone()), generation: 1 };
        let g2 = TableEntry { table: std::sync::Arc::new(t.clone()), generation: 2 };
        let sql = "SELECT avg(v) FROM t GROUP BY g";
        let old = {
            let (plan, _) =
                cache.get_or_create::<()>(&key(&g1, sql), || Ok(entry_for(&t))).unwrap();
            Arc::downgrade(&plan)
        };
        assert!(old.upgrade().is_some(), "the cache holds the plan");
        let (new, hit) = cache.get_or_create::<()>(&key(&g2, sql), || Ok(entry_for(&t))).unwrap();
        assert!(!hit, "new generation must not hit the old plan");
        assert!(old.upgrade().is_none(), "the stale plan outlived its replacement's lookup");
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions, s.admission_denied, s.entries), (2, 1, 0, 1));
        let (again, hit) = cache.get_or_create::<()>(&key(&g2, sql), || Ok(entry_for(&t))).unwrap();
        assert!(hit && Arc::ptr_eq(&new, &again));
    }

    #[test]
    fn older_generation_lookup_is_served_but_not_admitted() {
        let t = sensors();
        let cache = PlanCache::default();
        let g1 = TableEntry { table: std::sync::Arc::new(t.clone()), generation: 1 };
        let g2 = TableEntry { table: std::sync::Arc::new(t.clone()), generation: 2 };
        let sql = "SELECT avg(v) FROM t GROUP BY g";
        let (resident, _) =
            cache.get_or_create::<()>(&key(&g2, sql), || Ok(entry_for(&t))).unwrap();
        // A request that read generation 1 before the reload arrives late.
        let (late, hit) = cache.get_or_create::<()>(&key(&g1, sql), || Ok(entry_for(&t))).unwrap();
        assert!(!hit && !Arc::ptr_eq(&late, &resident), "a late request got the newer plan");
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions, s.admission_denied, s.entries), (2, 0, 0, 1));
        let (again, hit) = cache.get_or_create::<()>(&key(&g2, sql), || Ok(entry_for(&t))).unwrap();
        assert!(hit && Arc::ptr_eq(&resident, &again), "the late request displaced the plan");
    }

    #[test]
    fn lru_eviction_bounds_residency() {
        let t = sensors();
        let cache = PlanCache::with_capacity(8);
        let te = TableEntry { table: std::sync::Arc::new(t.clone()), generation: 1 };
        for i in 0..50 {
            let k = PlanKey::new(
                &te,
                "t",
                &format!("SELECT avg(v) FROM t GROUP BY g -- {i}"),
                "o:[1]h:[0]",
                "auto",
            );
            cache.get_or_create::<()>(&k, || Ok(entry_for(&t))).unwrap();
        }
        let s = cache.stats();
        assert!(s.entries <= 8, "{} entries resident", s.entries);
        // Every un-resident miss was either evicted later or denied
        // admission (same-class cheap preps normally all admit).
        assert_eq!((s.evictions + s.admission_denied) as usize, 50 - s.entries);
    }

    #[test]
    fn cheap_preps_cannot_evict_expensive_ones() {
        let t = sensors();
        let te = TableEntry { table: std::sync::Arc::new(t.clone()), generation: 1 };
        let mk = |tag: &str| key(&te, &format!("SELECT avg(v) FROM t GROUP BY g -- {tag}"));
        let mut shard = CostShard::default();

        // A slow DT-class prep takes residence in a full (cap 1) shard.
        let (_, admitted) =
            shard.admit(&mk("dt"), Arc::new(entry_for(&t)), Duration::from_secs(2), 1);
        assert!(admitted);

        // A cheap MC-class prep may not displace it: denied, no eviction.
        let (evicted, admitted) =
            shard.admit(&mk("mc"), Arc::new(entry_for(&t)), Duration::from_millis(1), 1);
        assert!(!admitted && evicted == 0, "cheap prep displaced an expensive one");
        assert!(matches!(shard.find(&mk("dt")), Found::Current(_)), "expensive resident lost");
        assert!(matches!(shard.find(&mk("mc")), Found::Absent));

        // A comparably expensive prep evicts it (plain LRU among peers).
        let (evicted, admitted) =
            shard.admit(&mk("dt2"), Arc::new(entry_for(&t)), Duration::from_secs(1), 1);
        assert!(admitted && evicted == 1);
        assert!(matches!(shard.find(&mk("dt2")), Found::Current(_)));
        assert!(matches!(shard.find(&mk("dt")), Found::Absent));
    }

    #[test]
    fn sub_floor_costs_compete_as_plain_lru() {
        let t = sensors();
        let te = TableEntry { table: std::sync::Arc::new(t.clone()), generation: 1 };
        let mk = |tag: &str| key(&te, &format!("SELECT avg(v) FROM t GROUP BY g -- {tag}"));
        let mut shard = CostShard::default();
        shard.admit(&mk("a"), Arc::new(entry_for(&t)), Duration::from_micros(900), 1);
        // Incoming is *cheaper*, but both are under the jitter floor:
        // LRU wins, the newcomer is admitted.
        let (evicted, admitted) =
            shard.admit(&mk("b"), Arc::new(entry_for(&t)), Duration::from_micros(100), 1);
        assert!(admitted && evicted == 1);
    }
}
