//! # pqc-cache
//!
//! Block-level GPU cache for hot key-value pairs (paper §3.4).
//!
//! The only decode-phase communication PQCache cannot overlap is the fetch
//! of the top-k tokens' key-value pairs, because it depends on the PQ search
//! result. The paper exploits the persistence of pivotal tokens with a GPU
//! cache at *block* granularity: tokens are grouped into fixed blocks of 128,
//! each retrieval first checks residency, and afterwards the cache is updated
//! with the `k_cache` blocks containing the most top-k tokens, under an LRU
//! or LFU eviction policy.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A capacity budget shared by several shard-local [`BlockCache`]s.
///
/// The serving layer gives every session its own cache (so block ids from
/// different sessions never collide) but all caches draw resident-block
/// slots from one engine-wide budget: total GPU memory spent on cached KV
/// blocks is bounded globally, while lookups and evictions stay lock-free
/// on each shard (one atomic per insertion/eviction).
///
/// Invariants (property-tested in `tests/proptests.rs`):
/// - `used_blocks() == Σ cache.len()` over all attached caches, and
/// - `used_blocks() <= max_blocks()` at every point in any interleaving.
#[derive(Debug, Clone)]
pub struct CacheBudget {
    max_blocks: usize,
    used: Arc<AtomicUsize>,
    underflow: Arc<AtomicBool>,
}

impl CacheBudget {
    /// A budget of `max_blocks` resident blocks across all attached caches.
    pub fn new(max_blocks: usize) -> Self {
        Self {
            max_blocks,
            used: Arc::new(AtomicUsize::new(0)),
            underflow: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A budget expressed in tokens, like [`BlockCache::new`]'s capacity.
    pub fn for_tokens(capacity_tokens: usize, block_size: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        Self::new(capacity_tokens / block_size)
    }

    /// Global capacity in blocks.
    pub fn max_blocks(&self) -> usize {
        self.max_blocks
    }

    /// Blocks currently resident across all attached caches.
    pub fn used_blocks(&self) -> usize {
        self.used.load(Ordering::SeqCst)
    }

    /// Try to claim one resident slot. Public so other tiers can draw on
    /// the same accounting: the host KV tier's page allocator counts pages
    /// against a `CacheBudget` the same way [`BlockCache`] counts blocks.
    pub fn try_acquire(&self) -> bool {
        self.used
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |u| {
                (u < self.max_blocks).then_some(u + 1)
            })
            .is_ok()
    }

    /// Return `n` resident slots claimed with [`CacheBudget::try_acquire`].
    ///
    /// Releasing more than was acquired is a caller bug, but a *recoverable*
    /// one: instead of wrapping the counter (which would silently disable
    /// the budget for the rest of the run), the count saturates at zero and
    /// the mismatch is latched in [`CacheBudget::underflow_detected`] so the
    /// serving layer can surface it in its report.
    pub fn release(&self, n: usize) {
        let prev = self
            .used
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |u| Some(u.saturating_sub(n)))
            .expect("fetch_update with Some never fails");
        if prev < n {
            self.underflow.store(true, Ordering::SeqCst);
        }
    }

    /// Whether a release ever exceeded the acquired count (accounting bug
    /// detected and absorbed; the counter saturated instead of wrapping).
    pub fn underflow_detected(&self) -> bool {
        self.underflow.load(Ordering::SeqCst)
    }

    /// Blocks still available under the budget.
    pub fn free_blocks(&self) -> usize {
        self.max_blocks.saturating_sub(self.used_blocks())
    }
}

/// Cache eviction policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used block.
    Lru,
    /// Evict the least-frequently-used block (ties broken by recency).
    Lfu,
}

/// Cumulative cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Tokens looked up.
    pub token_lookups: u64,
    /// Tokens found resident.
    pub token_hits: u64,
    /// Tokens missed.
    pub token_misses: u64,
    /// Blocks inserted.
    pub insertions: u64,
    /// Blocks evicted.
    pub evictions: u64,
    /// Cache-management operations (map probes/updates) — the overhead that
    /// makes token-level caching expensive (Fig. 11c).
    pub management_ops: u64,
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.token_lookups += rhs.token_lookups;
        self.token_hits += rhs.token_hits;
        self.token_misses += rhs.token_misses;
        self.insertions += rhs.insertions;
        self.evictions += rhs.evictions;
        self.management_ops += rhs.management_ops;
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;
    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

impl CacheStats {
    /// Token-level hit rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.token_lookups == 0 {
            0.0
        } else {
            self.token_hits as f64 / self.token_lookups as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    freq: u64,
    last_used: u64,
}

/// Result of a lookup: which requested tokens were resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLookup {
    /// Requested token ids found in resident blocks.
    pub hits: Vec<usize>,
    /// Requested token ids that must be fetched from the host.
    pub misses: Vec<usize>,
}

/// A block-granular cache over token ids.
///
/// Holds *residency metadata only* — the actual KV bytes live with the
/// caller. This mirrors the paper's design where the cache bookkeeping runs
/// on the CPU side of the launch path and the data movement is asynchronous.
///
/// ```
/// use pqc_cache::{top_blocks, BlockCache, EvictionPolicy};
///
/// let mut cache = BlockCache::new(4096, 128, EvictionPolicy::Lfu);
/// let selected = vec![5usize, 130, 131, 700];
/// let r = cache.lookup(&selected);
/// assert_eq!(r.misses.len(), 4); // cold cache
/// cache.update(&top_blocks(&selected, 128, 32));
/// let r2 = cache.lookup(&selected);
/// assert!(r2.misses.is_empty()); // all blocks resident now
/// ```
#[derive(Debug)]
pub struct BlockCache {
    block_size: usize,
    capacity_blocks: usize,
    policy: EvictionPolicy,
    resident: HashMap<usize, BlockEntry>,
    clock: u64,
    stats: CacheStats,
    /// Shared global budget, when this cache is one shard of a fleet.
    budget: Option<CacheBudget>,
}

impl Clone for BlockCache {
    /// Clones contents and statistics but **detaches the budget**: a clone's
    /// resident blocks were never acquired from the shared counter, so
    /// keeping the handle would double-release on drop.
    fn clone(&self) -> Self {
        Self {
            block_size: self.block_size,
            capacity_blocks: self.capacity_blocks,
            policy: self.policy,
            resident: self.resident.clone(),
            clock: self.clock,
            stats: self.stats,
            budget: None,
        }
    }
}

impl Drop for BlockCache {
    /// A budgeted cache returns its resident-block slots when it goes away
    /// (session completion frees GPU cache memory for newly admitted ones).
    fn drop(&mut self) {
        if let Some(b) = &self.budget {
            b.release(self.resident.len());
        }
    }
}

impl BlockCache {
    /// A cache holding at most `capacity_tokens` tokens in blocks of
    /// `block_size` (paper defaults: 4096-8192 tokens, 128-token blocks).
    ///
    /// `capacity_tokens = 0` creates a disabled cache (everything misses).
    pub fn new(capacity_tokens: usize, block_size: usize, policy: EvictionPolicy) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        Self {
            block_size,
            capacity_blocks: capacity_tokens / block_size,
            policy,
            resident: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
            budget: None,
        }
    }

    /// Like [`BlockCache::new`], but drawing resident-block slots from a
    /// shared [`CacheBudget`]. When the global budget is exhausted the cache
    /// evicts one of its own blocks to make room; if it has none to give,
    /// the insertion is skipped (a shard cannot evict another shard's
    /// blocks — residency checks would race the data movement).
    pub fn with_budget(
        capacity_tokens: usize,
        block_size: usize,
        policy: EvictionPolicy,
        budget: CacheBudget,
    ) -> Self {
        let mut cache = Self::new(capacity_tokens, block_size, policy);
        cache.budget = Some(budget);
        cache
    }

    /// The shared budget, when attached via [`BlockCache::with_budget`].
    pub fn budget(&self) -> Option<&CacheBudget> {
        self.budget.as_ref()
    }

    /// Configured block size in tokens.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Currently resident block count.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when no block is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Whether a block is resident (does not touch stats or recency).
    pub fn contains_block(&self, block: usize) -> bool {
        self.resident.contains_key(&block)
    }

    /// Check residency of the requested tokens, update hit statistics, and
    /// touch the blocks that served hits.
    pub fn lookup(&mut self, token_ids: &[usize]) -> CacheLookup {
        self.clock += 1;
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for &t in token_ids {
            let b = t / self.block_size;
            self.stats.token_lookups += 1;
            self.stats.management_ops += 1;
            match self.resident.get_mut(&b) {
                Some(entry) => {
                    entry.freq += 1;
                    entry.last_used = self.clock;
                    self.stats.token_hits += 1;
                    hits.push(t);
                }
                None => {
                    self.stats.token_misses += 1;
                    misses.push(t);
                }
            }
        }
        CacheLookup { hits, misses }
    }

    /// Insert the given blocks (the `top-k_cache` blocks of this step),
    /// evicting per policy when over capacity. Already-resident blocks are
    /// refreshed instead of reinserted.
    pub fn update(&mut self, blocks: &[usize]) {
        if self.capacity_blocks == 0 {
            return;
        }
        self.clock += 1;
        for &b in blocks {
            self.stats.management_ops += 1;
            if let Some(e) = self.resident.get_mut(&b) {
                e.last_used = self.clock;
                continue;
            }
            let at_capacity = self.resident.len() >= self.capacity_blocks;
            if let Some(budget) = self.budget.clone() {
                if at_capacity {
                    // Trade one of our own blocks for the new one, keeping
                    // the budget slot: no release/re-acquire window another
                    // shard could steal.
                    self.evict_victim();
                } else if !budget.try_acquire() {
                    // Global pressure: trade locally too. With nothing to
                    // evict, other shards own the whole budget — skip
                    // rather than evict remotely (residency checks would
                    // race the data movement).
                    if self.resident.is_empty() {
                        continue;
                    }
                    self.evict_victim();
                }
            } else if at_capacity {
                self.evict_victim();
            }
            self.resident.insert(b, BlockEntry { freq: 1, last_used: self.clock });
            self.stats.insertions += 1;
        }
    }

    /// Evict one block per policy, *retaining* any budget slot it held (the
    /// caller either re-fills the slot immediately or has no budget).
    fn evict_victim(&mut self) {
        let victim = match self.policy {
            EvictionPolicy::Lru => self
                .resident
                .iter()
                .min_by_key(|(id, e)| (e.last_used, **id))
                .map(|(id, _)| *id),
            EvictionPolicy::Lfu => self
                .resident
                .iter()
                .min_by_key(|(id, e)| (e.freq, e.last_used, **id))
                .map(|(id, _)| *id),
        };
        if let Some(v) = victim {
            self.resident.remove(&v);
            self.stats.evictions += 1;
            self.stats.management_ops += 1;
        }
    }

    /// Cumulative statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zero the statistics, keeping residency.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// The `k_cache` blocks containing the most of the given token ids, ordered
/// by descending containment count (ties toward the lower block id). This is
/// the paper's cache-update rule: "we update the cache using the top-k_cache
/// blocks, which contain the most top-k tokens".
pub fn top_blocks(token_ids: &[usize], block_size: usize, k_cache: usize) -> Vec<usize> {
    assert!(block_size > 0);
    let mut counts: HashMap<usize, usize> = HashMap::new();
    for &t in token_ids {
        *counts.entry(t / block_size).or_insert(0) += 1;
    }
    let mut pairs: Vec<(usize, usize)> = counts.into_iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs.into_iter().take(k_cache).map(|(b, _)| b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_all_miss() {
        let mut c = BlockCache::new(1024, 128, EvictionPolicy::Lru);
        let r = c.lookup(&[0, 5, 300]);
        assert!(r.hits.is_empty());
        assert_eq!(r.misses, vec![0, 5, 300]);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn resident_block_serves_all_its_tokens() {
        let mut c = BlockCache::new(1024, 128, EvictionPolicy::Lru);
        c.update(&[2]); // block 2 = tokens 256..384
        let r = c.lookup(&[256, 300, 383, 384]);
        assert_eq!(r.hits, vec![256, 300, 383]);
        assert_eq!(r.misses, vec![384]);
    }

    #[test]
    fn hit_rate_accounting() {
        let mut c = BlockCache::new(256, 128, EvictionPolicy::Lfu);
        c.update(&[0]);
        let _ = c.lookup(&[1, 2, 200]); // 2 hits, 1 miss
        let s = c.stats();
        assert_eq!(s.token_lookups, 3);
        assert_eq!(s.token_hits, 2);
        assert_eq!(s.token_misses, 1);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_enforced() {
        let mut c = BlockCache::new(4 * 128, 128, EvictionPolicy::Lru);
        c.update(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = BlockCache::new(2 * 128, 128, EvictionPolicy::Lru);
        c.update(&[0]);
        c.update(&[1]);
        let _ = c.lookup(&[0]); // touch block 0
        c.update(&[2]); // must evict block 1
        assert!(c.contains_block(0));
        assert!(!c.contains_block(1));
        assert!(c.contains_block(2));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = BlockCache::new(2 * 128, 128, EvictionPolicy::Lfu);
        c.update(&[0, 1]);
        for _ in 0..5 {
            let _ = c.lookup(&[10]); // block 0 gains frequency
        }
        let _ = c.lookup(&[130]); // block 1 used once
        c.update(&[2]); // evict block 1 (freq 2) not block 0 (freq 6)
        assert!(c.contains_block(0));
        assert!(!c.contains_block(1));
    }

    #[test]
    fn lfu_never_evicts_strictly_more_frequent_than_retained() {
        // DESIGN.md invariant, checked over a random workload.
        let mut c = BlockCache::new(8 * 16, 16, EvictionPolicy::Lfu);
        let mut rng = 12345u64;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        for _ in 0..500 {
            let toks: Vec<usize> = (0..8).map(|_| next() % 2048).collect();
            let _ = c.lookup(&toks);
            let blocks = top_blocks(&toks, 16, 4);
            // Snapshot frequencies before update to validate eviction choice.
            let before: HashMap<usize, u64> =
                c.resident.iter().map(|(k, v)| (*k, v.freq)).collect();
            c.update(&blocks);
            for (b, f) in &before {
                if !c.contains_block(*b) {
                    // b was evicted: no retained old block may have had a
                    // strictly smaller frequency at eviction time.
                    for (ob, of) in &before {
                        if c.contains_block(*ob) {
                            assert!(
                                of >= f || blocks.contains(ob),
                                "evicted freq {f} but kept {of}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_capacity_cache_is_inert() {
        let mut c = BlockCache::new(0, 128, EvictionPolicy::Lru);
        c.update(&[0, 1, 2]);
        assert!(c.is_empty());
        let r = c.lookup(&[3]);
        assert_eq!(r.misses, vec![3]);
    }

    #[test]
    fn token_level_cache_works() {
        let mut c = BlockCache::new(4, 1, EvictionPolicy::Lru);
        assert_eq!(c.block_size(), 1);
        c.update(&[7, 8, 9, 10]);
        let r = c.lookup(&[7, 11]);
        assert_eq!(r.hits, vec![7]);
        assert_eq!(r.misses, vec![11]);
    }

    #[test]
    fn token_level_more_management_ops_than_block_level() {
        let tokens: Vec<usize> = (0..512).collect();
        let mut block = BlockCache::new(512, 128, EvictionPolicy::Lru);
        let mut tok = BlockCache::new(512, 1, EvictionPolicy::Lru);
        block.update(&top_blocks(&tokens, 128, 4));
        tok.update(&tokens);
        assert!(tok.stats().management_ops > block.stats().management_ops * 10);
    }

    #[test]
    fn top_blocks_orders_by_containment() {
        // Tokens: 3 in block 1, 2 in block 0, 1 in block 5.
        let toks = [128, 130, 200, 0, 1, 640];
        assert_eq!(top_blocks(&toks, 128, 2), vec![1, 0]);
        assert_eq!(top_blocks(&toks, 128, 10), vec![1, 0, 5]);
    }

    #[test]
    fn top_blocks_tie_breaks_low_id() {
        let toks = [0, 128];
        assert_eq!(top_blocks(&toks, 128, 2), vec![0, 1]);
    }

    #[test]
    fn hits_plus_misses_equals_lookups() {
        let mut c = BlockCache::new(256, 64, EvictionPolicy::Lfu);
        c.update(&[0, 3]);
        for batch in [[1usize, 65, 200], [192, 193, 500]] {
            let r = c.lookup(&batch);
            assert_eq!(r.hits.len() + r.misses.len(), batch.len());
        }
        let s = c.stats();
        assert_eq!(s.token_hits + s.token_misses, s.token_lookups);
    }

    #[test]
    fn shared_budget_bounds_total_residency() {
        // Two shard caches, each locally able to hold 4 blocks, sharing a
        // global budget of 4: together they can never exceed 4.
        let budget = CacheBudget::new(4);
        let mut a = BlockCache::with_budget(4 * 128, 128, EvictionPolicy::Lru, budget.clone());
        let mut b = BlockCache::with_budget(4 * 128, 128, EvictionPolicy::Lru, budget.clone());
        a.update(&[0, 1, 2]);
        b.update(&[0, 1, 2]);
        assert_eq!(budget.used_blocks(), a.len() + b.len());
        assert!(budget.used_blocks() <= 4);
        // `b` got at least one block in by trading its own slots.
        assert!(!b.is_empty());
    }

    #[test]
    fn budget_released_on_drop() {
        let budget = CacheBudget::new(8);
        {
            let mut c = BlockCache::with_budget(8 * 64, 64, EvictionPolicy::Lfu, budget.clone());
            c.update(&[1, 2, 3]);
            assert_eq!(budget.used_blocks(), 3);
        }
        assert_eq!(budget.used_blocks(), 0);
    }

    #[test]
    fn budget_starved_cache_skips_instead_of_stealing() {
        let budget = CacheBudget::new(2);
        let mut a = BlockCache::with_budget(4 * 32, 32, EvictionPolicy::Lru, budget.clone());
        let mut b = BlockCache::with_budget(4 * 32, 32, EvictionPolicy::Lru, budget.clone());
        a.update(&[0, 1]); // budget exhausted by a
        b.update(&[5]); // b holds nothing: cannot evict a's blocks, skips
        assert_eq!(b.len(), 0);
        assert_eq!(a.len(), 2);
        assert_eq!(budget.used_blocks(), 2);
        let r = b.lookup(&[5 * 32]);
        assert!(r.hits.is_empty());
    }

    #[test]
    fn budgetless_behaviour_unchanged_and_clone_detaches() {
        let budget = CacheBudget::new(4);
        let mut c = BlockCache::with_budget(4 * 128, 128, EvictionPolicy::Lru, budget.clone());
        c.update(&[0, 1]);
        let clone = c.clone();
        assert!(clone.budget().is_none());
        assert_eq!(clone.len(), 2);
        drop(clone); // must not release the original's slots
        assert_eq!(budget.used_blocks(), 2);
        drop(c);
        assert_eq!(budget.used_blocks(), 0);
    }

    #[test]
    fn release_underflow_saturates_and_latches() {
        // Regression: over-releasing used to wrap the atomic in release
        // builds (debug_assert only), silently granting the budget
        // usize::MAX free slots. It must saturate at zero and latch a flag.
        let b = CacheBudget::new(4);
        assert!(b.try_acquire());
        assert!(!b.underflow_detected());
        b.release(3); // one held, three released
        assert!(b.underflow_detected(), "underflow must be latched");
        assert_eq!(b.used_blocks(), 0, "counter must saturate, not wrap");
        assert_eq!(b.free_blocks(), 4);
        // The budget keeps functioning after the bug is absorbed.
        assert!(b.try_acquire());
        assert_eq!(b.used_blocks(), 1);
        b.release(1);
        assert_eq!(b.used_blocks(), 0);
        assert!(b.underflow_detected(), "flag stays latched");
    }

    #[test]
    fn balanced_release_never_flags() {
        let b = CacheBudget::new(2);
        assert!(b.try_acquire());
        assert!(b.try_acquire());
        assert!(!b.try_acquire());
        assert_eq!(b.free_blocks(), 0);
        b.release(2);
        assert!(!b.underflow_detected());
        assert_eq!(b.free_blocks(), 2);
    }

    #[test]
    fn for_tokens_matches_block_capacity() {
        let b = CacheBudget::for_tokens(512, 128);
        assert_eq!(b.max_blocks(), 4);
        assert_eq!(b.used_blocks(), 0);
    }

    #[test]
    fn update_refreshes_existing_without_insertion() {
        let mut c = BlockCache::new(2 * 128, 128, EvictionPolicy::Lru);
        c.update(&[0]);
        c.update(&[0]);
        assert_eq!(c.stats().insertions, 1);
        assert_eq!(c.len(), 1);
    }
}
