//! Cross-query result reuse — the ReStore idea over YSmart chains.
//!
//! *ReStore: Reusing Results of MapReduce Jobs* materializes sub-job
//! outputs and rewrites later jobs to read them instead of recomputing.
//! This module is that layer for the simulated cluster: the cache keeps
//! committed job outputs alive itself, one [`FileRef`] per fingerprint in
//! its own entries (HDFS holds only what jobs read and write by path), and
//! the multi-tenant scheduler fast-forwards any *prefix* of an incoming
//! chain whose job fingerprints hit the cache,
//! through the same [`crate::chain::ChainSession::set_replay`] machinery
//! crash recovery uses — so a hit restores the recorded output bytes and
//! applies the recorded metrics bit-identically to having executed.
//!
//! Soundness rests on three guards:
//!
//! * **Fingerprints** ([`crate::job::JobSpec::fingerprint`]) bind the
//!   blueprint structure *and* the identity of every input (producer
//!   fingerprints for intermediates, content checksums for base tables);
//!   jobs whose input identity cannot be established carry `None` and are
//!   never cached or reused.
//! * **Epochs**: the cache is scoped to one cluster configuration. A
//!   config change ([`ReuseCache::ensure_epoch`]) drops every entry, since
//!   cost-model and format knobs change the bytes and metrics a hit would
//!   replay.
//! * **Integrity**: every hit re-verifies the cached file's XXH64 content
//!   checksum — re-hashed from the bytes each time, in place; the file
//!   handle's memoised checksum names the content and is never taken as
//!   proof of it — with at-rest corruption drawn from the cluster's seeded
//!   [`CorruptionModel`] genuinely flipping a bit (of a copy: the flip
//!   needs somewhere to land) first. A mismatch evicts the entry and
//!   reports a miss — the chain re-executes, so corruption costs time,
//!   never answers.
//!
//! The cache stores and serves [`FileRef`] handles: an entry shares the
//! committed output's allocation with the chain path it was committed from,
//! and a hit hands the same allocation to the consuming chain and, through
//! it, to the journal — which therefore writes the bytes once per epoch.
//!
//! Capacity pressure is relieved by LRU eviction over the *last-hit
//! simulated instant* (insertion instant until first hit), skipping entries
//! pinned by in-flight readers. All cache decisions happen in the
//! scheduler's single-threaded event loop at deterministic simulated
//! times, so behaviour is bit-identical across `exec_threads` settings.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{ClusterConfig, CorruptionModel};
use crate::hash::checksum_bytes;
use crate::hdfs::{file_bytes, file_bytes_len, file_checksum, FileRef};
use crate::metrics::JobMetrics;

/// Configuration of the result-reuse cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseConfig {
    /// Total bytes of cached outputs the cache keeps alive. `0`
    /// disables caching: nothing is ever inserted, every lookup misses —
    /// the byte-identical baseline the CI gate pins.
    pub capacity_bytes: u64,
}

impl ReuseConfig {
    /// A cache bounded at `capacity_bytes`.
    #[must_use]
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        ReuseConfig { capacity_bytes }
    }
}

/// Counters of one cache's lifetime, surfaced in
/// [`crate::scheduler::WorkloadReport::reuse`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReuseStats {
    /// Lookups that returned a verified cached output.
    pub hits: u64,
    /// Lookups that found no entry (including fingerprint-less jobs never
    /// reaching the cache is *not* counted here — only real lookups).
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Hits rejected because the cached bytes failed checksum
    /// verification; each also evicts the damaged entry.
    pub integrity_failures: u64,
    /// Bytes currently cached (live gauge, not a counter).
    pub bytes_cached: u64,
    /// Simulated execution seconds the hits avoided (recorded job time
    /// minus scheduling delay, summed over hits).
    pub reused_work_s: f64,
}

impl ReuseStats {
    /// Hit rate over all lookups, in `[0, 1]`; `0` when no lookups ran.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached job output.
#[derive(Debug, Clone)]
struct Entry {
    /// The materialized output, shared with whoever else holds it.
    file: FileRef,
    /// Content checksum taken at insert time, verified on every hit.
    checksum: u64,
    /// Size of the materialized file.
    bytes: u64,
    /// The committed job's recorded metrics, replayed on a hit.
    metrics: JobMetrics,
    /// Simulated instant of the last hit (insert instant until then) —
    /// the LRU eviction key.
    last_hit_s: f64,
    /// Monotonic tiebreak for equal instants, and the salt of the at-rest
    /// corruption draw (a re-inserted fingerprint draws fresh).
    seq: u64,
    /// In-flight readers; a pinned entry is never evicted.
    pins: u32,
}

/// The cross-query result-reuse cache. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct ReuseCache {
    config: Option<ReuseConfig>,
    entries: BTreeMap<u64, Entry>,
    stats: ReuseStats,
    seq: u64,
    epoch: Option<u64>,
}

/// The epoch a cluster configuration defines: any config change — cost
/// model, data format, corruption seed — yields a different epoch and
/// therefore an empty cache.
#[must_use]
pub fn config_epoch(config: &ClusterConfig) -> u64 {
    checksum_bytes(format!("{config:?}").as_bytes())
}

impl ReuseCache {
    /// An empty cache with the given capacity.
    #[must_use]
    pub fn new(config: ReuseConfig) -> Self {
        ReuseCache {
            config: Some(config),
            ..ReuseCache::default()
        }
    }

    /// The configured capacity in bytes (0 when constructed `Default`).
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.config.map_or(0, |c| c.capacity_bytes)
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> &ReuseStats {
        &self.stats
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a fingerprint is cached.
    #[must_use]
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.entries.contains_key(&fingerprint)
    }

    /// Scopes the cache to `epoch` (see [`config_epoch`]): on a change,
    /// every entry is dropped. Counters survive — they describe the cache's
    /// lifetime, not one epoch.
    pub fn ensure_epoch(&mut self, epoch: u64) {
        if self.epoch == Some(epoch) {
            return;
        }
        self.stats.bytes_cached = 0;
        self.entries.clear();
        self.epoch = Some(epoch);
    }

    /// Looks up a fingerprint at simulated instant `now_s`, verifying the
    /// cached bytes before serving them. At-rest corruption is drawn from
    /// `corruption` per `(seed, fingerprint, entry seq)` and genuinely
    /// flips a bit of the candidate bytes; detection is the real checksum
    /// comparison against the insert-time stamp. A damaged entry is
    /// evicted and reported as a miss, so the caller re-executes.
    pub fn lookup(
        &mut self,
        fingerprint: u64,
        corruption: Option<&CorruptionModel>,
        now_s: f64,
    ) -> Option<(FileRef, JobMetrics)> {
        let Some(entry) = self.entries.get_mut(&fingerprint) else {
            self.stats.misses += 1;
            return None;
        };
        let file = &entry.file;
        let flipped_bit = corruption.and_then(|model| {
            const SPLITMIX: u64 = 0x9E37_79B9_7F4A_7C15;
            let len = file_bytes_len(file);
            let seed = model.seed
                ^ fingerprint.wrapping_mul(SPLITMIX)
                ^ (entry.seq + 0xCAC4E).wrapping_mul(SPLITMIX);
            let mut rng = StdRng::seed_from_u64(seed);
            (model.block_rate > 0.0 && len > 0 && rng.gen::<f64>() < model.block_rate)
                .then(|| rng.gen::<u64>() as usize % (len * 8))
        });
        // Every hit re-hashes the bytes at rest — the handle's checksum
        // memo names the content, it does not vouch for it. Clean bytes are
        // hashed where they lie; a drawn flip needs a copy to land in.
        let at_rest = match flipped_bit {
            None => file_checksum(file),
            Some(bit) => {
                let mut candidate = file_bytes(file);
                candidate[bit / 8] ^= 1 << (bit % 8);
                checksum_bytes(&candidate)
            }
        };
        if at_rest != entry.checksum {
            let dead = self.entries.remove(&fingerprint).expect("entry exists");
            self.stats.bytes_cached -= dead.bytes;
            self.stats.integrity_failures += 1;
            self.stats.misses += 1;
            return None;
        }
        // Only the LRU instant advances; the entry keeps its insertion seq
        // (it salts the at-rest corruption draw).
        entry.last_hit_s = now_s;
        self.stats.hits += 1;
        self.stats.reused_work_s += entry.metrics.total_s() - entry.metrics.startup_delay_s;
        Some((FileRef::clone(&entry.file), entry.metrics.clone()))
    }

    /// Inserts a committed job output at simulated instant `now_s`; the
    /// entry shares `file`'s allocation with whoever else holds it.
    /// No-ops when the capacity is 0, the fingerprint is already cached
    /// (recovery replays re-commit the same jobs), or the file cannot fit
    /// even after evicting every unpinned entry.
    pub fn insert(&mut self, fingerprint: u64, file: FileRef, metrics: JobMetrics, now_s: f64) {
        let capacity = self.capacity_bytes();
        if capacity == 0 || self.entries.contains_key(&fingerprint) {
            return;
        }
        let bytes = file.bytes();
        if bytes > capacity {
            return;
        }
        while self.stats.bytes_cached + bytes > capacity {
            if !self.evict_lru() {
                return;
            }
        }
        let checksum = file.checksum();
        self.seq += 1;
        self.entries.insert(
            fingerprint,
            Entry {
                file,
                checksum,
                bytes,
                metrics,
                last_hit_s: now_s,
                seq: self.seq,
                pins: 0,
            },
        );
        self.stats.insertions += 1;
        self.stats.bytes_cached += bytes;
    }

    /// Evicts the least-recently-hit unpinned entry; `false` when every
    /// entry is pinned (or the cache is empty).
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| e.pins == 0)
            .min_by(|(_, a), (_, b)| {
                a.last_hit_s
                    .partial_cmp(&b.last_hit_s)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.seq.cmp(&b.seq))
            })
            .map(|(fp, _)| *fp);
        let Some(fp) = victim else {
            return false;
        };
        let dead = self.entries.remove(&fp).expect("victim exists");
        self.stats.bytes_cached -= dead.bytes;
        self.stats.evictions += 1;
        true
    }

    /// Marks a fingerprint as having an in-flight reader; pinned entries
    /// are never evicted. Unknown fingerprints are ignored.
    pub fn pin(&mut self, fingerprint: u64) {
        if let Some(e) = self.entries.get_mut(&fingerprint) {
            e.pins += 1;
        }
    }

    /// Releases one pin (saturating; unknown fingerprints are ignored —
    /// the entry may have been integrity-evicted while pinned readers were
    /// already holding its file).
    pub fn unpin(&mut self, fingerprint: u64) {
        if let Some(e) = self.entries.get_mut(&fingerprint) {
            e.pins = e.pins.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdfs::DataFile;

    fn text(lines: &[&str]) -> FileRef {
        DataFile {
            lines: lines.iter().map(|s| (*s).to_string()).collect(),
            frames: Vec::new(),
        }
        .into()
    }

    fn metrics(total: f64) -> JobMetrics {
        JobMetrics {
            map_time_s: total,
            ..JobMetrics::default()
        }
    }

    #[test]
    fn round_trips_and_counts() {
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(1 << 20));
        assert!(cache.lookup(7, None, 0.0).is_none());
        cache.insert(7, text(&["a|1", "b|2"]), metrics(3.0), 1.0);
        assert!(cache.contains(7));
        let (file, m) = cache.lookup(7, None, 2.0).unwrap();
        assert_eq!(file.lines, vec!["a|1".to_string(), "b|2".to_string()]);
        assert!((m.total_s() - 3.0).abs() < 1e-12);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((s.reused_work_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_never_caches() {
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(0));
        cache.insert(1, text(&["x"]), metrics(1.0), 0.0);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes_cached, 0);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn lru_evicts_coldest_first() {
        // Each file is 2 bytes ("x\n"); capacity fits exactly two.
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(4));
        cache.insert(1, text(&["x"]), metrics(1.0), 0.0);
        cache.insert(2, text(&["y"]), metrics(1.0), 1.0);
        // Touch 1 so 2 becomes the LRU victim.
        cache.lookup(1, None, 2.0).unwrap();
        cache.insert(3, text(&["z"]), metrics(1.0), 3.0);
        assert!(cache.contains(1) && cache.contains(3) && !cache.contains(2));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes_cached, 4);
    }

    #[test]
    fn pinned_entry_survives_pressure() {
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(4));
        cache.insert(1, text(&["x"]), metrics(1.0), 0.0);
        cache.insert(2, text(&["y"]), metrics(1.0), 1.0);
        // 1 is the colder entry but a reader holds it pinned.
        cache.pin(1);
        cache.insert(3, text(&["z"]), metrics(1.0), 2.0);
        assert!(cache.contains(1), "pinned entry must not be evicted");
        assert!(!cache.contains(2), "pressure falls on the unpinned LRU");
        assert!(cache.contains(3));
        cache.unpin(1);
        cache.insert(4, text(&["w"]), metrics(1.0), 3.0);
        assert!(!cache.contains(1), "unpinned, 1 is again evictable");
    }

    #[test]
    fn everything_pinned_skips_insert() {
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(2));
        cache.insert(1, text(&["x"]), metrics(1.0), 0.0);
        cache.pin(1);
        cache.insert(2, text(&["y"]), metrics(1.0), 1.0);
        assert!(cache.contains(1) && !cache.contains(2));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn corrupt_entry_is_rejected_and_evicted() {
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(1 << 20));
        cache.insert(9, text(&["payload"]), metrics(2.0), 0.0);
        let certain = CorruptionModel::uniform(1.0, 42);
        assert!(
            cache.lookup(9, Some(&certain), 1.0).is_none(),
            "a flipped bit must fail verification"
        );
        assert!(!cache.contains(9));
        let s = cache.stats();
        assert_eq!((s.integrity_failures, s.hits, s.misses), (1, 0, 1));
        // Clean model: a fresh insert serves again (new seq, fresh draw).
        cache.insert(9, text(&["payload"]), metrics(2.0), 2.0);
        let clean = CorruptionModel::uniform(0.0, 42);
        assert!(cache.lookup(9, Some(&clean), 3.0).is_some());
    }

    #[test]
    fn epoch_change_clears_entries() {
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(1 << 20));
        cache.ensure_epoch(1);
        cache.insert(5, text(&["a"]), metrics(1.0), 0.0);
        cache.ensure_epoch(1);
        assert!(cache.contains(5), "same epoch keeps entries");
        cache.ensure_epoch(2);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes_cached, 0);
    }

    #[test]
    fn config_epoch_tracks_config_changes() {
        let a = ClusterConfig::default();
        let mut b = ClusterConfig::default();
        b.size_multiplier *= 2.0;
        assert_eq!(config_epoch(&a), config_epoch(&ClusterConfig::default()));
        assert_ne!(config_epoch(&a), config_epoch(&b));
    }

    #[test]
    fn oversized_file_is_not_cached() {
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(3));
        cache.insert(1, text(&["too-big"]), metrics(1.0), 0.0);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes_cached, 0);
    }

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        let mut s = ReuseStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
