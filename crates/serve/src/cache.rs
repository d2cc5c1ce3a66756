//! An LRU cache for scores, keyed by (model generation, exact feature bits),
//! with optional TTL expiry and per-model capacity limits.
//!
//! Scoring is deterministic, so a cache hit returns the *identical* f64 the
//! model would produce. Keys store the full bit pattern of the feature
//! vector (not a lossy hash), so two vectors collide only if they are
//! bit-identical — in which case the cached score is exact by construction.
//! NaN feature vectors are refused rather than cached: NaN != NaN would make
//! key equality lie.
//!
//! Recency is tracked with a monotonically increasing tick and a
//! `BTreeMap<tick, key>` index, giving `O(log n)` get/insert/evict without
//! unsafe code or intrusive lists. Model hot-swaps need no explicit
//! invalidation: a new generation changes every key, and the old entries age
//! out of the LRU order naturally.
//!
//! The default policy is the original exact-match LRU. Two optional knobs
//! tighten it ([`CachePolicy`]):
//!
//! * **TTL** — entries expire `ttl` after they were written (a hit does not
//!   extend the deadline); an expired entry reads as a miss and is removed
//!   on contact. Correctness never needs this (generations already
//!   invalidate hot-swapped models), but a bounded lifetime caps how long a
//!   score for since-evicted upstream data keeps being served.
//! * **Per-model capacity** — at most `per_model` entries per model
//!   generation, evicting that generation's LRU entry first. This stops one
//!   hot model from evicting every other model's working set out of the
//!   shared cache. Finding a generation's LRU entry walks the global
//!   recency index (`O(n)` worst case); the walk only happens on inserts
//!   that overflow a per-model budget, which batching makes rare.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Cache key: which model generation scored which exact feature vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScoreKey {
    generation: u64,
    feature_bits: Box<[u64]>,
}

impl ScoreKey {
    /// Builds a key from a model generation and a raw feature vector.
    /// Returns `None` if any feature is NaN (uncacheable: equality on the
    /// bit pattern would not imply equality of the vectors' semantics).
    pub fn new(generation: u64, features: &[f64]) -> Option<Self> {
        if features.iter().any(|f| f.is_nan()) {
            return None;
        }
        Some(ScoreKey {
            generation,
            feature_bits: features.iter().map(|f| f.to_bits()).collect(),
        })
    }

    /// The model generation this key belongs to.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Eviction policy of a [`ScoreCache`].
#[derive(Debug, Clone)]
pub struct CachePolicy {
    /// Maximum total entries (0 disables caching entirely).
    pub capacity: usize,
    /// Entries expire this long after insertion (`None` = never).
    pub ttl: Option<Duration>,
    /// Maximum entries per model generation (`None` = no per-model bound;
    /// `Some(0)` is clamped to 1 — to disable caching entirely, set
    /// `capacity` to 0, which is the only switch that means "cache
    /// nothing").
    pub per_model: Option<usize>,
}

impl CachePolicy {
    /// The default policy at a given capacity: plain exact-match LRU, no
    /// TTL, no per-model bound.
    pub fn lru(capacity: usize) -> Self {
        CachePolicy {
            capacity,
            ttl: None,
            per_model: None,
        }
    }
}

/// One cached score with its recency tick and expiry deadline.
#[derive(Debug, Clone, Copy)]
struct Entry {
    score: f64,
    last_used: u64,
    expires_at: Option<Instant>,
}

/// A fixed-capacity least-recently-used score cache with optional TTL and
/// per-model limits.
#[derive(Debug)]
pub struct ScoreCache {
    policy: CachePolicy,
    entries: HashMap<ScoreKey, Entry>,
    order: BTreeMap<u64, ScoreKey>,
    per_generation: HashMap<u64, usize>,
    tick: u64,
}

impl ScoreCache {
    /// A plain LRU cache holding at most `capacity` scores; capacity 0
    /// disables caching (every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(CachePolicy::lru(capacity))
    }

    /// A cache with an explicit eviction policy.
    pub fn with_policy(policy: CachePolicy) -> Self {
        ScoreCache {
            policy,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            per_generation: HashMap::new(),
            tick: 0,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.policy.capacity
    }

    /// The active eviction policy.
    pub fn policy(&self) -> &CachePolicy {
        &self.policy
    }

    /// Current number of **live** entries: expired-but-untouched entries
    /// are purged before counting, so capacity accounting and the
    /// `pfr_serve_cache_entries` gauge never report corpses.
    pub fn len(&mut self) -> usize {
        self.purge_expired();
        self.entries.len()
    }

    /// Whether the cache holds no live entries.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Removes every entry whose TTL deadline has passed. O(n) over the
    /// cache, so it runs lazily: from `len` (rare — `METRICS` scrapes) and
    /// from inserts that overflow capacity (where evicting a corpse first
    /// keeps live entries from being displaced by dead ones).
    fn purge_expired(&mut self) {
        if self.policy.ttl.is_none() {
            return;
        }
        let now = Instant::now();
        let dead: Vec<(u64, ScoreKey)> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.expires_at.is_some_and(|deadline| now >= deadline))
            .map(|(key, entry)| (entry.last_used, key.clone()))
            .collect();
        for (tick, key) in dead {
            self.order.remove(&tick);
            self.entries.remove(&key);
            Self::decrement(&mut self.per_generation, key.generation());
        }
    }

    /// Looks up a score, refreshing the entry's recency on a hit. An entry
    /// past its TTL deadline reads as a miss and is dropped.
    pub fn get(&mut self, key: &ScoreKey) -> Option<f64> {
        let tick = self.next_tick();
        let entry = self.entries.get_mut(key)?;
        if entry
            .expires_at
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            let last_used = entry.last_used;
            self.order.remove(&last_used);
            self.entries.remove(key);
            Self::decrement(&mut self.per_generation, key.generation());
            return None;
        }
        let score = entry.score;
        self.order.remove(&entry.last_used);
        entry.last_used = tick;
        self.order.insert(tick, key.clone());
        Some(score)
    }

    /// Inserts (or refreshes) a score, evicting the least recently used
    /// entries if the insert overflows the per-model or total capacity.
    pub fn insert(&mut self, key: ScoreKey, score: f64) {
        if self.policy.capacity == 0 {
            return;
        }
        let tick = self.next_tick();
        let expires_at = self.policy.ttl.map(|ttl| Instant::now() + ttl);
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.score = score;
            entry.expires_at = expires_at;
            self.order.remove(&entry.last_used);
            entry.last_used = tick;
            self.order.insert(tick, key);
            return;
        }
        let generation = key.generation();
        self.entries.insert(
            key.clone(),
            Entry {
                score,
                last_used: tick,
                expires_at,
            },
        );
        self.order.insert(tick, key);
        *self.per_generation.entry(generation).or_insert(0) += 1;
        if let Some(per_model) = self.policy.per_model {
            while self.per_generation.get(&generation).copied().unwrap_or(0) > per_model.max(1) {
                self.evict_lru_of(generation);
            }
        }
        if self.entries.len() > self.policy.capacity {
            // Over capacity: drop corpses first so expired entries never
            // push live ones out.
            self.purge_expired();
        }
        while self.entries.len() > self.policy.capacity {
            let (_, oldest) = self
                .order
                .pop_first()
                .expect("order index and entry map stay in sync");
            self.entries.remove(&oldest);
            Self::decrement(&mut self.per_generation, oldest.generation());
        }
    }

    /// Warms the cache by replaying a recorded request log: a
    /// line-delimited file of `SCORE <name> <v1> ... <vm>` lines (exactly
    /// what a client sends over the wire, so a capture of production
    /// traffic replays unmodified). Each distinct vector is scored once via
    /// `score`, which resolves the model name to its current generation and
    /// computes the score — or returns `None` to skip the line (model not
    /// loaded, wrong arity). Non-`SCORE` lines, malformed vectors and NaN
    /// vectors are skipped, not errors: a warm-up must tolerate a log
    /// written under a different model set.
    ///
    /// Returns `(replayed, skipped)`: how many lines landed a score in the
    /// cache (a duplicate of an already-cached vector counts as replayed —
    /// the line replayed fine) and how many non-empty lines could not be
    /// used. A truncated or partially binary log — the normal state of a
    /// capture cut off mid-write — degrades to skipped lines, never to an
    /// error: the file is read leniently (invalid UTF-8 is replaced, the
    /// torn final line simply fails to parse) and only a missing/unreadable
    /// file is an `Err`. Scoring is deterministic, so warmed entries are
    /// bitwise identical to what the live request path would have cached —
    /// a warmed server answers its first real request of a logged vector
    /// from the cache, at cache-hit latency.
    pub fn warm_from_log(
        &mut self,
        path: &std::path::Path,
        mut score: impl FnMut(&str, &[f64]) -> Option<(u64, f64)>,
    ) -> std::io::Result<(usize, usize)> {
        let bytes = std::fs::read(path)?;
        let text = String::from_utf8_lossy(&bytes);
        let mut replayed = 0;
        let mut skipped = 0;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let entry = parse_score_line(line).and_then(|(name, features)| {
                let (generation, value) = score(name, &features)?;
                let key = ScoreKey::new(generation, &features)?;
                Some((key, value))
            });
            match entry {
                Some((key, value)) => {
                    if self.get(&key).is_none() {
                        self.insert(key, value);
                    }
                    replayed += 1;
                }
                None => skipped += 1,
            }
        }
        Ok((replayed, skipped))
    }

    /// Drops every entry (used by tests and operational RESET paths).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.per_generation.clear();
    }

    /// Evicts the least recently used entry of one generation.
    fn evict_lru_of(&mut self, generation: u64) {
        let victim = self
            .order
            .iter()
            .find(|(_, key)| key.generation() == generation)
            .map(|(tick, key)| (*tick, key.clone()));
        if let Some((tick, key)) = victim {
            self.order.remove(&tick);
            self.entries.remove(&key);
            Self::decrement(&mut self.per_generation, generation);
        }
    }

    fn decrement(per_generation: &mut HashMap<u64, usize>, generation: u64) {
        if let Some(count) = per_generation.get_mut(&generation) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                per_generation.remove(&generation);
            }
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Parses one recorded `SCORE <name> <v1> ... <vm>` line; `None` for any
/// other verb, a missing name, an empty vector or an unparseable number
/// (which is what the torn final line of a truncated capture looks like).
fn parse_score_line(line: &str) -> Option<(&str, Vec<f64>)> {
    let mut parts = line.split_whitespace();
    if !parts.next()?.eq_ignore_ascii_case("SCORE") {
        return None;
    }
    let name = parts.next()?;
    let features: Vec<f64> = parts.map(|v| v.parse().ok()).collect::<Option<_>>()?;
    if features.is_empty() {
        None
    } else {
        Some((name, features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(generation: u64, features: &[f64]) -> ScoreKey {
        ScoreKey::new(generation, features).unwrap()
    }

    #[test]
    fn get_after_insert_returns_the_exact_score() {
        let mut cache = ScoreCache::new(4);
        let k = key(1, &[0.25, -3.5, 1e-300]);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), 0.123456789);
        assert_eq!(cache.get(&k), Some(0.123456789));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_is_part_of_the_key() {
        let mut cache = ScoreCache::new(4);
        cache.insert(key(1, &[1.0]), 0.1);
        cache.insert(key(2, &[1.0]), 0.9);
        assert_eq!(cache.get(&key(1, &[1.0])), Some(0.1));
        assert_eq!(cache.get(&key(2, &[1.0])), Some(0.9));
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache = ScoreCache::new(2);
        cache.insert(key(1, &[1.0]), 0.1);
        cache.insert(key(1, &[2.0]), 0.2);
        // Touch [1.0] so [2.0] becomes the LRU entry.
        assert!(cache.get(&key(1, &[1.0])).is_some());
        cache.insert(key(1, &[3.0]), 0.3);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, &[2.0])).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1, &[1.0])).is_some());
        assert!(cache.get(&key(1, &[3.0])).is_some());
    }

    #[test]
    fn reinserting_refreshes_value_and_recency() {
        let mut cache = ScoreCache::new(2);
        cache.insert(key(1, &[1.0]), 0.1);
        cache.insert(key(1, &[2.0]), 0.2);
        cache.insert(key(1, &[1.0]), 0.15); // refresh, [2.0] now LRU
        cache.insert(key(1, &[3.0]), 0.3);
        assert_eq!(cache.get(&key(1, &[1.0])), Some(0.15));
        assert!(cache.get(&key(1, &[2.0])).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ScoreCache::new(0);
        cache.insert(key(1, &[1.0]), 0.5);
        assert!(cache.is_empty());
        assert!(cache.get(&key(1, &[1.0])).is_none());
    }

    #[test]
    fn nan_vectors_are_uncacheable() {
        assert!(ScoreKey::new(1, &[f64::NAN]).is_none());
        assert!(ScoreKey::new(1, &[1.0, f64::NAN, 2.0]).is_none());
        assert!(ScoreKey::new(1, &[f64::INFINITY]).is_some());
    }

    #[test]
    fn negative_zero_and_positive_zero_are_distinct_keys() {
        // Bit-exact keying: -0.0 and 0.0 differ in bits, and the scores for
        // the two vectors are identical anyway because scoring is a pure
        // function of the bits... of the *standardized* values, which can
        // differ. Distinct keys are the conservative, correct choice.
        let mut cache = ScoreCache::new(4);
        cache.insert(key(1, &[0.0]), 0.5);
        assert!(cache.get(&key(1, &[-0.0])).is_none());
    }

    #[test]
    fn warm_from_log_replays_score_lines_and_skips_garbage() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pfr_cache_warm_test_{}.log", std::process::id()));
        std::fs::write(
            &path,
            "SCORE risk 1 2 3\n\
             score risk 1 2 3\n\
             SCORE other 5 6\n\
             SCORE risk 4 banana\n\
             SCORE risk NaN 1 2\n\
             HEALTH\n\
             SCORE risk\n\
             SCORE risk 7 8 9\n",
        )
        .unwrap();
        let mut cache = ScoreCache::new(16);
        // "risk" resolves at generation 3 and scores sum/10; "other" is not
        // loaded, mirroring a log recorded under a different model set.
        let (replayed, skipped) = cache
            .warm_from_log(&path, |name, features| {
                (name == "risk").then(|| (3, features.iter().sum::<f64>() / 10.0))
            })
            .unwrap();
        // Three lines replay ([1,2,3], its lowercase duplicate — which
        // deduplicates in the cache but still replayed — and [7,8,9]); the
        // unloaded model, malformed vector, NaN vector, non-SCORE verb and
        // empty vector are all skipped.
        assert_eq!(replayed, 3);
        assert_eq!(skipped, 5);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(3, &[1.0, 2.0, 3.0])), Some(0.6));
        assert_eq!(cache.get(&key(3, &[7.0, 8.0, 9.0])), Some(2.4));
        assert!(cache.get(&key(3, &[5.0, 6.0])).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warm_from_log_survives_a_truncated_log() {
        // A capture cut off mid-write: the final line stops mid-number and
        // the torn tail even contains invalid UTF-8 — exactly what a log
        // torn at the block boundary looks like. Warm-up must replay every
        // complete line and skip the debris, not abort.
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "pfr_cache_warm_truncated_{}.log",
            std::process::id()
        ));
        let mut log: Vec<u8> = b"SCORE risk 1 2 3\nSCORE risk 4 5 6\n".to_vec();
        log.extend_from_slice(b"SCORE risk 7 8");
        log.extend_from_slice(&[0xff, 0xfe, 0x00]); // torn binary tail
        std::fs::write(&path, &log).unwrap();
        let mut cache = ScoreCache::new(16);
        // The scorer enforces the model's arity (3 features), as the real
        // registry closure does: the torn 2-feature line cannot replay.
        let (replayed, skipped) = cache
            .warm_from_log(&path, |name, features| {
                (name == "risk" && features.len() == 3).then(|| (1, features.iter().sum::<f64>()))
            })
            .unwrap();
        assert_eq!(replayed, 2);
        assert_eq!(skipped, 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1, &[1.0, 2.0, 3.0])), Some(6.0));
        assert_eq!(cache.get(&key(1, &[4.0, 5.0, 6.0])), Some(15.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warm_from_log_reports_missing_files() {
        let mut cache = ScoreCache::new(4);
        assert!(cache
            .warm_from_log(std::path::Path::new("/definitely/not/there"), |_, _| None)
            .is_err());
    }

    #[test]
    fn clear_empties_everything() {
        let mut cache = ScoreCache::new(4);
        cache.insert(key(1, &[1.0]), 0.1);
        cache.insert(key(1, &[2.0]), 0.2);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(&key(1, &[1.0])).is_none());
        // Still usable after clear.
        cache.insert(key(1, &[9.0]), 0.9);
        assert_eq!(cache.get(&key(1, &[9.0])), Some(0.9));
    }

    #[test]
    fn ttl_expires_entries_without_extending_on_hits() {
        let mut cache = ScoreCache::with_policy(CachePolicy {
            capacity: 8,
            ttl: Some(Duration::from_millis(30)),
            per_model: None,
        });
        cache.insert(key(1, &[1.0]), 0.1);
        // Fresh entry hits, and hitting does not extend the deadline.
        assert_eq!(cache.get(&key(1, &[1.0])), Some(0.1));
        std::thread::sleep(Duration::from_millis(45));
        assert!(cache.get(&key(1, &[1.0])).is_none(), "entry outlived TTL");
        assert!(cache.is_empty(), "expired entry removed on contact");
        // Re-inserting resets the deadline.
        cache.insert(key(1, &[1.0]), 0.2);
        assert_eq!(cache.get(&key(1, &[1.0])), Some(0.2));
    }

    #[test]
    fn len_purges_expired_entries_lazily() {
        let mut cache = ScoreCache::with_policy(CachePolicy {
            capacity: 8,
            ttl: Some(Duration::from_millis(30)),
            per_model: None,
        });
        cache.insert(key(1, &[1.0]), 0.1);
        cache.insert(key(1, &[2.0]), 0.2);
        assert_eq!(cache.len(), 2);
        std::thread::sleep(Duration::from_millis(45));
        // Nothing touched the entries via `get`; `len` must still not
        // count the corpses.
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn expired_entries_do_not_displace_live_ones_at_capacity() {
        let mut cache = ScoreCache::with_policy(CachePolicy {
            capacity: 2,
            ttl: Some(Duration::from_millis(30)),
            per_model: None,
        });
        cache.insert(key(1, &[1.0]), 0.1);
        cache.insert(key(1, &[2.0]), 0.2);
        std::thread::sleep(Duration::from_millis(45));
        // The overflowing insert purges the two corpses instead of
        // evicting anything live.
        cache.insert(key(1, &[3.0]), 0.3);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1, &[3.0])), Some(0.3));
    }

    #[test]
    fn per_model_capacity_limits_one_generation_without_starving_others() {
        let mut cache = ScoreCache::with_policy(CachePolicy {
            capacity: 100,
            ttl: None,
            per_model: Some(2),
        });
        // A hot model floods the cache ...
        for i in 0..10 {
            cache.insert(key(1, &[i as f64]), i as f64);
        }
        // ... but holds at most 2 entries, its most recent ones.
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, &[8.0])).is_some());
        assert!(cache.get(&key(1, &[9.0])).is_some());
        assert!(cache.get(&key(1, &[0.0])).is_none());
        // A second model's entries are untouched by the first one's churn.
        cache.insert(key(2, &[1.0]), 0.5);
        cache.insert(key(1, &[10.0]), 10.0);
        cache.insert(key(1, &[11.0]), 11.0);
        assert_eq!(cache.get(&key(2, &[1.0])), Some(0.5));
    }

    #[test]
    fn per_model_and_global_capacity_compose() {
        let mut cache = ScoreCache::with_policy(CachePolicy {
            capacity: 3,
            ttl: None,
            per_model: Some(2),
        });
        cache.insert(key(1, &[1.0]), 0.1);
        cache.insert(key(1, &[2.0]), 0.2);
        cache.insert(key(2, &[1.0]), 0.3);
        // Generation 1 is at its per-model cap; inserting a third entry for
        // it evicts generation 1's own LRU entry, not generation 2's.
        cache.insert(key(1, &[3.0]), 0.4);
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&key(1, &[1.0])).is_none());
        assert_eq!(cache.get(&key(2, &[1.0])), Some(0.3));
        // Global capacity still evicts across generations as usual.
        cache.insert(key(3, &[1.0]), 0.5);
        assert_eq!(cache.len(), 3);
    }
}
