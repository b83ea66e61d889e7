//! Host-tier KVCache storage with transfer accounting.
//!
//! The paper keeps the full KVCache in CPU memory (Step ❶) and fetches rows
//! on demand (Step ❺). [`HostKvStore`] holds per-layer/per-head K and V rows
//! and meters every byte that crosses the simulated PCIe link, so efficiency
//! experiments can compare methods by *data moved*, the fair-comparison axis
//! of §4.1.3.
//!
//! Storage is **paged** (see [`crate::pages`]): each (layer, head) slot is a
//! page table into the tier-global [`PageAllocator`], appends are page-local
//! and amortized O(head_dim), and pages are refcounted so namespaces can
//! share them copy-on-write.
//!
//! There is **one read**, [`HostKvStore::read_into`]: it appends the rows
//! of an id list to caller-owned K/V buffers, meters the rows that crossed
//! the link, and verifies the slot's chain exactly when it meters (the
//! trust rule, stated on the method). The decode step, session resume and
//! host-side PQ construction all call it; [`HostKvStore::try_fetch`] is
//! the same read into fresh matrices with every row metered.
//!
//! For multi-session serving, a [`KvTier`] vends per-session **namespaces**:
//! each namespace is a [`HostKvStore`] with its own token-offset space (two
//! sessions interleaving appends never perturb each other's middle indices)
//! whose transfers are additionally metered into one shared aggregate, so
//! engine-level accounting equals the sum of per-session stats by
//! construction. The tier also keeps a **prefix registry** keyed on
//! token-content hash chains: a session that registers its prompt lets later
//! sessions with the same prompt adopt its pages (and an opaque payload —
//! the serving layer stores the prefill output and trained policy state
//! there) via [`KvTier::new_namespace_with_prefix`].

use crate::pages::{MemError, PageAllocator, SharingStats, DEFAULT_PAGE_TOKENS};
use parking_lot::Mutex;
use pqc_cache::CacheBudget;
use pqc_tensor::Matrix;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes-per-element used for wire accounting (FP16, as the paper serves).
pub const WIRE_BYTES_PER_ELEM: usize = 2;

/// Cumulative transfer statistics, shared between store handles.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TransferStats {
    /// Bytes moved device→host (offload).
    pub d2h_bytes: u64,
    /// Bytes moved host→device (fetch).
    pub h2d_bytes: u64,
    /// Number of offload operations.
    pub d2h_ops: u64,
    /// Number of fetch operations.
    pub h2d_ops: u64,
}

impl std::ops::AddAssign for TransferStats {
    fn add_assign(&mut self, rhs: Self) {
        self.d2h_bytes += rhs.d2h_bytes;
        self.h2d_bytes += rhs.h2d_bytes;
        self.d2h_ops += rhs.d2h_ops;
        self.h2d_ops += rhs.h2d_ops;
    }
}

impl std::ops::Add for TransferStats {
    type Output = TransferStats;
    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

impl std::iter::Sum for TransferStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |acc, s| acc + s)
    }
}

/// Identifier of one namespace within a [`KvTier`]. Offsets (middle-token
/// indices) are scoped to a namespace, never global across the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NamespaceId(pub u64);

/// Fold `tokens` into a chained content hash (FNV-1a with an avalanche
/// step). The fold is positional and incremental, so the hash of every
/// prefix of a token stream is computable in one left-to-right pass — the
/// property the tier's prefix registry keys on.
pub fn token_chain_hash(tokens: &[u32]) -> u64 {
    tokens.iter().fold(CHAIN_SEED, |h, &t| chain_step(h, t))
}

/// The chain hash of the empty token stream (the FNV-1a offset basis).
const CHAIN_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one more token into a chain hash — the single definition both
/// [`token_chain_hash`] and [`KvTier::lookup_prefix`]'s incremental scan
/// use, so registration and lookup can never disagree.
fn chain_step(h: u64, t: u32) -> u64 {
    let h = (h ^ t as u64).wrapping_mul(0x0000_0100_0000_01b3);
    h ^ (h >> 29)
}

/// Snapshot of the tier prefix-cache counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Prefix lookups performed.
    pub lookups: u64,
    /// Lookups that matched the *entire* queried token stream.
    pub full_hits: u64,
    /// Lookups that matched only a proper prefix of the query.
    pub partial_hits: u64,
    /// Prefixes currently registered.
    pub entries: usize,
}

impl PrefixCacheStats {
    /// Fraction of lookups that were full hits (0 when no lookups ran).
    pub fn full_hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.full_hits as f64 / self.lookups as f64
        }
    }
}

/// Key and value page table for one (layer, kv-head) pair.
#[derive(Debug, Clone, Default)]
struct HeadKv {
    pages: Vec<u32>,
    rows: usize,
}

/// One registered prefix: the exact tokens (hash-collision guard), a frozen
/// snapshot of the registrant's page tables, and an opaque payload the
/// registering layer attaches (e.g. prefill output + trained policy state).
struct PrefixEntry {
    tokens: Vec<u32>,
    slots: Vec<Option<HeadKv>>,
    payload: Arc<dyn Any + Send + Sync>,
}

#[derive(Default)]
struct PrefixRegistry {
    map: HashMap<(u64, usize), PrefixEntry>,
}

impl std::fmt::Debug for PrefixRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixRegistry").field("entries", &self.map.len()).finish()
    }
}

/// A successful prefix lookup. Holds page references for the matched
/// snapshot (released on drop), the matched length, and the registrant's
/// payload; feed it to [`KvTier::new_namespace_with_prefix`] to mint a
/// namespace that starts with the shared pages resident.
pub struct PrefixHit {
    len: usize,
    payload: Arc<dyn Any + Send + Sync>,
    slots: Vec<Option<HeadKv>>,
    alloc: PageAllocator,
}

impl PrefixHit {
    /// Number of prompt tokens this hit covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length hit (never produced by the registry).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload attached at registration time.
    pub fn payload(&self) -> &Arc<dyn Any + Send + Sync> {
        &self.payload
    }
}

impl Drop for PrefixHit {
    fn drop(&mut self) {
        for slot in self.slots.iter().flatten() {
            self.alloc.release_chain(&slot.pages);
        }
    }
}

impl std::fmt::Debug for PrefixHit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixHit").field("len", &self.len).finish()
    }
}

/// A shared host-memory tier serving many concurrent sessions.
///
/// `new_namespace` hands out a [`HostKvStore`] bound to a fresh
/// [`NamespaceId`]; every namespace meters its traffic both into its own
/// [`TransferStats`] and into the tier-wide aggregate, which
/// [`KvTier::aggregate_stats`] snapshots. All namespaces draw pages from
/// one [`PageAllocator`], so [`KvTier::resident_bytes`] counts each shared
/// page once.
///
/// ```
/// use pqc_memhier::KvTier;
///
/// let tier = KvTier::new(2, 2, 8);
/// let mut a = tier.new_namespace();
/// let mut b = tier.new_namespace();
/// a.append_token(0, 0, &[0.0; 8], &[0.0; 8]);
/// b.append_token(0, 0, &[1.0; 8], &[1.0; 8]);
/// // Offsets are per-namespace: both sessions' first middle token is 0.
/// assert_eq!(a.len(0, 0), 1);
/// assert_eq!(b.len(0, 0), 1);
/// assert_eq!(tier.aggregate_stats(), a.stats() + b.stats());
/// ```
#[derive(Debug, Clone)]
pub struct KvTier {
    n_layers: usize,
    n_kv_heads: usize,
    head_dim: usize,
    alloc: PageAllocator,
    aggregate: Arc<Mutex<TransferStats>>,
    sharing_aggregate: Arc<Mutex<SharingStats>>,
    next_ns: Arc<AtomicU64>,
    registry: Arc<Mutex<PrefixRegistry>>,
    lookups: Arc<AtomicU64>,
    full_hits: Arc<AtomicU64>,
    partial_hits: Arc<AtomicU64>,
}

impl KvTier {
    /// A tier for the given model geometry, with no namespaces yet and the
    /// default page size.
    pub fn new(n_layers: usize, n_kv_heads: usize, head_dim: usize) -> Self {
        Self::with_pages(n_layers, n_kv_heads, head_dim, DEFAULT_PAGE_TOKENS, None)
    }

    /// A tier with an explicit page size (in tokens) and an optional shared
    /// page budget.
    pub fn with_pages(
        n_layers: usize,
        n_kv_heads: usize,
        head_dim: usize,
        page_tokens: usize,
        budget: Option<CacheBudget>,
    ) -> Self {
        Self::with_page_limit(n_layers, n_kv_heads, head_dim, page_tokens, budget, None)
    }

    /// Like [`KvTier::with_pages`], additionally capping the tier's pool at
    /// `max_pages` live pages. At the cap, the fallible store paths
    /// ([`HostKvStore::try_offload`], [`HostKvStore::try_append_token`])
    /// return [`MemError::PageExhausted`] instead of growing, letting the
    /// serving layer shed the session rather than the process.
    pub fn with_page_limit(
        n_layers: usize,
        n_kv_heads: usize,
        head_dim: usize,
        page_tokens: usize,
        budget: Option<CacheBudget>,
        max_pages: Option<usize>,
    ) -> Self {
        Self {
            n_layers,
            n_kv_heads,
            head_dim,
            alloc: PageAllocator::with_limit(page_tokens, head_dim, budget, max_pages),
            aggregate: Arc::new(Mutex::new(TransferStats::default())),
            sharing_aggregate: Arc::new(Mutex::new(SharingStats::default())),
            next_ns: Arc::new(AtomicU64::new(0)),
            registry: Arc::new(Mutex::new(PrefixRegistry::default())),
            lookups: Arc::new(AtomicU64::new(0)),
            full_hits: Arc::new(AtomicU64::new(0)),
            partial_hits: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Page size of the tier's pool, in tokens.
    pub fn page_tokens(&self) -> usize {
        self.alloc.page_tokens()
    }

    /// The tier-global page allocator (shared by every namespace).
    pub fn allocator(&self) -> &PageAllocator {
        &self.alloc
    }

    /// Create a fresh, empty namespace (e.g. one per admitted session).
    /// Namespace ids are unique across clones of this tier handle.
    pub fn new_namespace(&self) -> HostKvStore {
        let ns = NamespaceId(self.next_ns.fetch_add(1, Ordering::Relaxed));
        let mut store =
            HostKvStore::with_allocator(self.n_layers, self.n_kv_heads, self.head_dim, self.alloc.clone());
        store.namespace = ns;
        store.aggregate = Some(Arc::clone(&self.aggregate));
        store.sharing_aggregate = Some(Arc::clone(&self.sharing_aggregate));
        store
    }

    /// Fork `store` into a fresh namespace that shares its pages
    /// copy-on-write (refcounts bumped, zeroed stats) but — unlike
    /// [`HostKvStore::clone`] — stays **attached to the tier aggregate**.
    /// This is the checkpoint path: a snapshot namespace is a first-class
    /// tier citizen whose later traffic (none, in the happy path) must obey
    /// the engine-wide `aggregate == Σ namespace stats` invariant.
    pub fn fork_namespace(&self, store: &HostKvStore) -> HostKvStore {
        assert!(
            self.alloc.same_pool(&store.alloc),
            "fork_namespace: store does not belong to this tier"
        );
        let mut fork = self.new_namespace();
        for slot in store.slots.iter().flatten() {
            self.alloc.retain_chain(&slot.pages);
        }
        fork.slots = store.slots.clone();
        fork
    }

    /// Register `tokens` as a shareable prefix backed by `store`'s current
    /// page tables (snapshotted and refcount-retained; the registrant keeps
    /// appending privately via copy-on-write). Returns `false` when the
    /// prefix is already registered — first registrant wins — or `tokens`
    /// is empty.
    ///
    /// `payload` is an opaque value later hits can downcast; the serving
    /// layer stores the deterministic prefill output and the policy's
    /// trained PQ/IVF state so shared-prefix sessions skip re-encoding.
    pub fn register_prefix(
        &self,
        tokens: &[u32],
        store: &HostKvStore,
        payload: Arc<dyn Any + Send + Sync>,
    ) -> bool {
        assert!(
            self.alloc.same_pool(&store.alloc),
            "register_prefix: store does not belong to this tier"
        );
        if tokens.is_empty() {
            return false;
        }
        let key = (token_chain_hash(tokens), tokens.len());
        let mut reg = self.registry.lock();
        if reg.map.contains_key(&key) {
            return false;
        }
        let slots = store.slots.clone();
        for slot in slots.iter().flatten() {
            self.alloc.retain_chain(&slot.pages);
        }
        reg.map.insert(key, PrefixEntry { tokens: tokens.to_vec(), slots, payload });
        true
    }

    /// Look up the longest registered prefix of `tokens` (token content is
    /// verified, not just hashes). The returned [`PrefixHit`] pins the
    /// matched pages until dropped.
    pub fn lookup_prefix(&self, tokens: &[u32]) -> Option<PrefixHit> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let reg = self.registry.lock();
        let mut h = CHAIN_SEED;
        let mut best: Option<&PrefixEntry> = None;
        for (i, &t) in tokens.iter().enumerate() {
            h = chain_step(h, t);
            if let Some(entry) = reg.map.get(&(h, i + 1)) {
                if entry.tokens == tokens[..i + 1] {
                    best = Some(entry);
                }
            }
        }
        let entry = best?;
        if entry.tokens.len() == tokens.len() {
            self.full_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.partial_hits.fetch_add(1, Ordering::Relaxed);
        }
        let slots = entry.slots.clone();
        for slot in slots.iter().flatten() {
            self.alloc.retain_chain(&slot.pages);
        }
        Some(PrefixHit {
            len: entry.tokens.len(),
            payload: Arc::clone(&entry.payload),
            slots,
            alloc: self.alloc.clone(),
        })
    }

    /// Mint a namespace whose slots start as the hit's shared pages: the
    /// session begins with the prefix's K/V resident (no offload traffic —
    /// the data never left the host) and pays copy-on-write only on its
    /// first append to a partially-filled shared tail. Meters
    /// `prefix_hit_tokens` by the hit length.
    pub fn new_namespace_with_prefix(&self, hit: &PrefixHit) -> HostKvStore {
        assert!(
            self.alloc.same_pool(&hit.alloc),
            "new_namespace_with_prefix: hit does not belong to this tier"
        );
        let mut store = self.new_namespace();
        for slot in hit.slots.iter().flatten() {
            self.alloc.retain_chain(&slot.pages);
        }
        store.slots = hit.slots.clone();
        store.meter_sharing(|s| s.prefix_hit_tokens += hit.len as u64);
        store
    }

    /// Remove a registered prefix and release its page references. Returns
    /// `false` when no such prefix is registered.
    pub fn release_prefix(&self, tokens: &[u32]) -> bool {
        let key = (token_chain_hash(tokens), tokens.len());
        let mut reg = self.registry.lock();
        match reg.map.remove(&key) {
            Some(entry) => {
                for slot in entry.slots.iter().flatten() {
                    self.alloc.release_chain(&slot.pages);
                }
                true
            }
            None => false,
        }
    }

    /// Snapshot of the prefix-cache counters.
    pub fn prefix_stats(&self) -> PrefixCacheStats {
        PrefixCacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            full_hits: self.full_hits.load(Ordering::Relaxed),
            partial_hits: self.partial_hits.load(Ordering::Relaxed),
            entries: self.registry.lock().map.len(),
        }
    }

    /// Snapshot of the tier-wide aggregate transfer statistics (the sum of
    /// every namespace's stats, including namespaces already dropped).
    pub fn aggregate_stats(&self) -> TransferStats {
        *self.aggregate.lock()
    }

    /// Snapshot of the tier-wide sharing statistics (sum over namespaces).
    pub fn aggregate_sharing(&self) -> SharingStats {
        *self.sharing_aggregate.lock()
    }

    /// Unique host-resident bytes across the tier: every page counted once,
    /// however many namespaces or registered prefixes reference it.
    pub fn resident_bytes(&self) -> u64 {
        self.alloc.resident_bytes()
    }
}

/// CPU-resident KVCache for a whole model: `n_layers × n_kv_heads` slots,
/// each a page table into a shared [`PageAllocator`].
///
/// Standalone stores (from [`HostKvStore::new`]) own a private single-store
/// pool and are namespace 0 with no aggregate; stores vended by
/// [`KvTier::new_namespace`] carry a unique [`NamespaceId`], draw pages from
/// the tier pool, and mirror their metering into the tier aggregate. Token
/// offsets returned by [`HostKvStore::append_token`] are always
/// namespace-local.
///
/// Cloning forks the namespace copy-on-write: the clone shares pages with
/// the source (refcounts bumped) but gets **fresh, zeroed stats** and is
/// detached from any tier aggregate — a clone is a private fork for
/// experimentation, and its traffic must not perturb the source's metering
/// or the engine-wide invariant `aggregate == Σ namespace stats`.
#[derive(Debug)]
pub struct HostKvStore {
    n_layers: usize,
    n_kv_heads: usize,
    head_dim: usize,
    namespace: NamespaceId,
    alloc: PageAllocator,
    slots: Vec<Option<HeadKv>>,
    stats: Arc<Mutex<TransferStats>>,
    sharing: Arc<Mutex<SharingStats>>,
    aggregate: Option<Arc<Mutex<TransferStats>>>,
    sharing_aggregate: Option<Arc<Mutex<SharingStats>>>,
}

impl Clone for HostKvStore {
    fn clone(&self) -> Self {
        for slot in self.slots.iter().flatten() {
            self.alloc.retain_chain(&slot.pages);
        }
        Self {
            n_layers: self.n_layers,
            n_kv_heads: self.n_kv_heads,
            head_dim: self.head_dim,
            namespace: self.namespace,
            alloc: self.alloc.clone(),
            slots: self.slots.clone(),
            stats: Arc::new(Mutex::new(TransferStats::default())),
            sharing: Arc::new(Mutex::new(SharingStats::default())),
            aggregate: None,
            sharing_aggregate: None,
        }
    }
}

impl Drop for HostKvStore {
    fn drop(&mut self) {
        for slot in self.slots.iter().flatten() {
            self.alloc.release_chain(&slot.pages);
        }
    }
}

impl HostKvStore {
    /// An empty standalone store for the given model geometry (private page
    /// pool, default page size).
    pub fn new(n_layers: usize, n_kv_heads: usize, head_dim: usize) -> Self {
        Self::with_allocator(
            n_layers,
            n_kv_heads,
            head_dim,
            PageAllocator::new(DEFAULT_PAGE_TOKENS, head_dim),
        )
    }

    /// An empty store drawing pages from `alloc` (the [`KvTier`] namespace
    /// path; also usable directly for custom page sizes).
    pub fn with_allocator(
        n_layers: usize,
        n_kv_heads: usize,
        head_dim: usize,
        alloc: PageAllocator,
    ) -> Self {
        assert_eq!(alloc.head_dim(), head_dim, "allocator head_dim mismatch");
        Self {
            n_layers,
            n_kv_heads,
            head_dim,
            namespace: NamespaceId(0),
            alloc,
            slots: vec![None; n_layers * n_kv_heads],
            stats: Arc::new(Mutex::new(TransferStats::default())),
            sharing: Arc::new(Mutex::new(SharingStats::default())),
            aggregate: None,
            sharing_aggregate: None,
        }
    }

    /// The namespace this store is bound to (0 for standalone stores).
    pub fn namespace(&self) -> NamespaceId {
        self.namespace
    }

    /// Page size (tokens per page) of the backing pool.
    pub fn page_tokens(&self) -> usize {
        self.alloc.page_tokens()
    }

    fn slot_index(&self, layer: usize, head: usize) -> usize {
        assert!(layer < self.n_layers, "layer {layer} out of range");
        assert!(head < self.n_kv_heads, "head {head} out of range");
        layer * self.n_kv_heads + head
    }

    /// Meter a transfer into the namespace stats and, when tier-bound, the
    /// shared aggregate.
    fn meter(&self, f: impl Fn(&mut TransferStats)) {
        f(&mut self.stats.lock());
        if let Some(agg) = &self.aggregate {
            f(&mut agg.lock());
        }
    }

    /// Meter a sharing event (prefix hit, CoW copy) the same two-level way.
    fn meter_sharing(&self, f: impl Fn(&mut SharingStats)) {
        f(&mut self.sharing.lock());
        if let Some(agg) = &self.sharing_aggregate {
            f(&mut agg.lock());
        }
    }

    /// Offload the full prefill K/V of one (layer, head): Step ❶.
    /// Overwrites any prior content for the slot. Panics on pool
    /// exhaustion — use [`HostKvStore::try_offload`] on capped tiers.
    pub fn offload(&mut self, layer: usize, head: usize, keys: Matrix, values: Matrix) {
        self.try_offload(layer, head, keys, values).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`HostKvStore::offload`]: on pool exhaustion the slot's
    /// prior content is left intact, nothing is metered, and the error
    /// reports the pool cap. The new chain is written *before* the old one
    /// is released, so a failed overwrite never loses data (at the cost of
    /// transiently holding both chains).
    pub fn try_offload(
        &mut self,
        layer: usize,
        head: usize,
        keys: Matrix,
        values: Matrix,
    ) -> Result<(), MemError> {
        assert_eq!(keys.shape(), values.shape(), "K/V shape mismatch");
        assert_eq!(keys.cols(), self.head_dim, "head_dim mismatch");
        let idx = self.slot_index(layer, head);
        let rows = keys.rows();
        let pages = self.alloc.try_write_rows(&keys, &values)?;
        if let Some(old) = self.slots[idx].take() {
            self.alloc.release_chain(&old.pages);
        }
        self.slots[idx] = Some(HeadKv { pages, rows });
        let bytes = (2 * keys.rows() * keys.cols() * WIRE_BYTES_PER_ELEM) as u64;
        self.meter(|st| {
            st.d2h_bytes += bytes;
            st.d2h_ops += 1;
        });
        Ok(())
    }

    /// Append a single evicted token's K/V row (Algorithm 2, line 5) and
    /// return its **namespace-local** offset — the middle index callers must
    /// use for later fetches. Sessions must not derive this offset from any
    /// tier-global count: with several sessions interleaving appends, only
    /// the per-namespace offset is stable.
    ///
    /// Appends are page-local: the row lands in the slot's tail page
    /// (copy-on-write if that page is shared, a fresh page if it is full),
    /// so appending `s` tokens costs O(s·head_dim) total. Panics on pool
    /// exhaustion — use [`HostKvStore::try_append_token`] on capped tiers.
    pub fn append_token(&mut self, layer: usize, head: usize, key: &[f32], value: &[f32]) -> usize {
        self.try_append_token(layer, head, key, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`HostKvStore::append_token`]: on pool exhaustion the slot
    /// is left exactly as it was (no offset consumed, nothing metered) and
    /// the append is retryable once pages free up.
    pub fn try_append_token(
        &mut self,
        layer: usize,
        head: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<usize, MemError> {
        assert_eq!(key.len(), self.head_dim);
        assert_eq!(value.len(), self.head_dim);
        let idx = self.slot_index(layer, head);
        let slot = self.slots[idx].get_or_insert_with(HeadKv::default);
        let offset = slot.rows;
        let cow = self.alloc.try_append_row(&mut slot.pages, key, value)?;
        slot.rows += 1;
        let bytes = (2 * self.head_dim * WIRE_BYTES_PER_ELEM) as u64;
        self.meter(|st| {
            st.d2h_bytes += bytes;
            st.d2h_ops += 1;
        });
        if cow {
            self.meter_sharing(|s| s.cow_copies += 1);
        }
        Ok(offset)
    }

    /// The one host read (Step ❺): append the K/V rows of `token_ids`
    /// (namespace-local offsets, in the order given) to `keys` / `values`.
    /// `link_rows` of those rows crossed the simulated PCIe link; the rest
    /// are GPU-resident (block-cache hits, a dropping policy's kept set, a
    /// host-side read for PQ construction).
    ///
    /// The trust rule: the read verifies the slot's whole chain **if and
    /// only if** it meters rows (`link_rows > 0`). Rows that cross the link
    /// are checksum-checked, and on a failed check the read returns
    /// [`MemError::PageCorrupt`], meters nothing and appends nothing.
    /// GPU-resident rows are trusted unverified, although the simulation
    /// still copies them out of the host pool. A metered read counts
    /// `link_rows` rows of H2D bytes and one `h2d_op`; an empty id list
    /// touches nothing, not even the slot. Returns
    /// [`MemError::EmptySlot`] when the (layer, head) slot holds no data.
    pub fn read_into(
        &self,
        layer: usize,
        head: usize,
        token_ids: &[usize],
        link_rows: usize,
        keys: &mut Matrix,
        values: &mut Matrix,
    ) -> Result<(), MemError> {
        debug_assert!(link_rows <= token_ids.len(), "more link rows than rows read");
        if token_ids.is_empty() {
            return Ok(());
        }
        let idx = self.slot_index(layer, head);
        let slot = self.slots[idx].as_ref().ok_or(MemError::EmptySlot { layer, head })?;
        self.alloc.read_rows(&slot.pages, slot.rows, token_ids, link_rows > 0, keys, values)?;
        if link_rows > 0 {
            let bytes = (2 * link_rows * self.head_dim * WIRE_BYTES_PER_ELEM) as u64;
            self.meter(|st| {
                st.h2d_bytes += bytes;
                st.h2d_ops += 1;
            });
        }
        Ok(())
    }

    /// Fetch the K/V rows of the given token indices into fresh matrices,
    /// every row crossing the link: [`HostKvStore::read_into`] with
    /// `link_rows = token_ids.len()`. A zero-row fetch moves and meters
    /// nothing (no phantom `h2d_ops`), even on an empty slot.
    pub fn try_fetch(
        &self,
        layer: usize,
        head: usize,
        token_ids: &[usize],
    ) -> Result<(Matrix, Matrix), MemError> {
        let dh = self.head_dim;
        let empty = || Matrix::from_vec(0, dh, Vec::with_capacity(token_ids.len() * dh));
        let (mut keys, mut values) = (empty(), empty());
        self.read_into(layer, head, token_ids, token_ids.len(), &mut keys, &mut values)?;
        Ok((keys, values))
    }

    /// Stored token count for a slot (0 if never offloaded).
    pub fn len(&self, layer: usize, head: usize) -> usize {
        self.slots[self.slot_index(layer, head)].as_ref().map_or(0, |s| s.rows)
    }

    /// True when no slot holds data.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Logical resident bytes across all slots (FP16 accounting of this
    /// namespace's rows; shared pages are counted here per-namespace — use
    /// [`KvTier::resident_bytes`] for unique physical residency).
    pub fn resident_bytes(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|s| (2 * s.rows * self.head_dim * WIRE_BYTES_PER_ELEM) as u64)
            .sum()
    }

    /// Snapshot of cumulative transfer statistics.
    pub fn stats(&self) -> TransferStats {
        *self.stats.lock()
    }

    /// Snapshot of cumulative sharing statistics (prefix hits, CoW copies).
    pub fn sharing_stats(&self) -> SharingStats {
        *self.sharing.lock()
    }

    /// Zero the transfer counters (e.g. to meter decode separately from
    /// prefill).
    pub fn reset_stats(&self) {
        *self.stats.lock() = TransferStats::default();
    }

    /// Verify every page this namespace references against its stored
    /// checksum (resume/restore path: corrupt KV must be detected *before*
    /// a recovered session decodes from it, not when the bad row happens to
    /// be fetched).
    pub fn verify(&self) -> Result<(), MemError> {
        for slot in self.slots.iter().flatten() {
            self.alloc.verify_chain(&slot.pages)?;
        }
        Ok(())
    }

    /// Deterministic fault injection: flip one bit of K data in the given
    /// slot's tail page (see [`PageAllocator::corrupt_chain_tail`] — a
    /// shared tail is copy-on-write copied first so only this namespace
    /// observes the corruption). Returns `false` when the slot holds no
    /// data to corrupt.
    pub fn corrupt_slot(&mut self, layer: usize, head: usize, bit: u64) -> bool {
        let idx = self.slot_index(layer, head);
        match self.slots[idx].as_mut() {
            Some(slot) => self.alloc.corrupt_chain_tail(&mut slot.pages, bit),
            None => false,
        }
    }

    /// Pin every page this namespace references (suspend path: a preempted
    /// session's KV must stay resident while it is parked). Pair with
    /// [`HostKvStore::unpin_pages`] before the store is dropped or its
    /// chains are released — a pinned page whose refcount drains to zero
    /// panics.
    pub fn pin_pages(&self) {
        for slot in self.slots.iter().flatten() {
            self.alloc.pin_chain(&slot.pages);
        }
    }

    /// Remove one pin layer from every page this namespace references
    /// (resume/retire path).
    pub fn unpin_pages(&self) {
        for slot in self.slots.iter().flatten() {
            self.alloc.unpin_chain(&slot.pages);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqc_tensor::Rng64;

    fn store_with_data(s: usize, dh: usize) -> (HostKvStore, Matrix, Matrix) {
        let mut rng = Rng64::new(1);
        let k = Matrix::randn(s, dh, 1.0, &mut rng);
        let v = Matrix::randn(s, dh, 1.0, &mut rng);
        let mut store = HostKvStore::new(2, 2, dh);
        store.offload(0, 0, k.clone(), v.clone());
        (store, k, v)
    }

    /// An unmetered (GPU-resident) read of `ids` from slot (0, 0).
    fn resident_rows(store: &HostKvStore, ids: &[usize]) -> (Matrix, Matrix) {
        let (mut k, mut v) = (Matrix::zeros(0, store.head_dim), Matrix::zeros(0, store.head_dim));
        store.read_into(0, 0, ids, 0, &mut k, &mut v).unwrap();
        (k, v)
    }

    #[test]
    fn offload_then_fetch_roundtrip() {
        let (store, k, v) = store_with_data(50, 8);
        let ids = [3usize, 10, 49];
        let (fk, fv) = store.try_fetch(0, 0, &ids).unwrap();
        for (row, &id) in ids.iter().enumerate() {
            assert_eq!(fk.row(row), k.row(id));
            assert_eq!(fv.row(row), v.row(id));
        }
    }

    #[test]
    fn transfer_accounting_exact() {
        let (store, _, _) = store_with_data(100, 16);
        // offload: 2 (K+V) * 100 * 16 * 2 bytes
        assert_eq!(store.stats().d2h_bytes, 2 * 100 * 16 * 2);
        assert_eq!(store.stats().d2h_ops, 1);
        let _ = store.try_fetch(0, 0, &[1, 2, 3]).unwrap();
        assert_eq!(store.stats().h2d_bytes, 2 * 3 * 16 * 2);
        assert_eq!(store.stats().h2d_ops, 1);
    }

    #[test]
    fn empty_fetch_moves_and_meters_nothing() {
        // Regression: a zero-row fetch used to meter `h2d_ops += 1` with 0
        // bytes, skewing ops-based efficiency comparisons.
        let (store, _, _) = store_with_data(10, 4);
        let before = store.stats();
        let (k, v) = store.try_fetch(0, 0, &[]).unwrap();
        assert_eq!(k.rows(), 0);
        assert_eq!(v.rows(), 0);
        assert_eq!(k.cols(), 4);
        assert_eq!(store.stats(), before, "empty fetch must not meter");
        // Even on a slot that was never offloaded.
        let empty = HostKvStore::new(1, 1, 4);
        let _ = empty.try_fetch(0, 0, &[]).unwrap();
        assert_eq!(empty.stats(), TransferStats::default());
    }

    #[test]
    fn append_token_extends() {
        let (mut store, _, _) = store_with_data(10, 4);
        let key = [1.0f32, 2.0, 3.0, 4.0];
        let val = [9.0f32, 8.0, 7.0, 6.0];
        let off = store.append_token(0, 0, &key, &val);
        assert_eq!(off, 10);
        assert_eq!(store.len(0, 0), 11);
        let (fk, fv) = store.try_fetch(0, 0, &[10]).unwrap();
        assert_eq!(fk.row(0), &key);
        assert_eq!(fv.row(0), &val);
    }

    #[test]
    fn append_into_empty_slot_allowed() {
        let mut store = HostKvStore::new(1, 1, 4);
        assert_eq!(store.append_token(0, 0, &[1.0; 4], &[2.0; 4]), 0);
        assert_eq!(store.len(0, 0), 1);
    }

    #[test]
    fn appends_round_trip_across_page_boundaries() {
        // Rows written through offload + many appends must all read back
        // exactly, including across page boundaries.
        let alloc = PageAllocator::new(4, 2);
        let mut store = HostKvStore::with_allocator(1, 1, 2, alloc);
        let mut rng = Rng64::new(7);
        store.offload(0, 0, Matrix::randn(5, 2, 1.0, &mut rng), Matrix::randn(5, 2, 1.0, &mut rng));
        let mut expect_k: Vec<[f32; 2]> = Vec::new();
        for i in 0..23 {
            let k = [i as f32, -(i as f32)];
            let v = [100.0 + i as f32, 0.5];
            assert_eq!(store.append_token(0, 0, &k, &v), 5 + i);
            expect_k.push(k);
        }
        assert_eq!(store.len(0, 0), 28);
        let ids: Vec<usize> = (5..28).collect();
        let (fk, _) = store.try_fetch(0, 0, &ids).unwrap();
        for (row, k) in expect_k.iter().enumerate() {
            assert_eq!(fk.row(row), k, "append row {row} corrupted");
        }
    }

    #[test]
    fn large_append_stream_is_amortized_linear() {
        // Regression for the O(s²) whole-slot-vstack append: 30k appends
        // move ~2 MB under paged growth vs ~60 GB under the old scheme.
        // The loose wall-clock bound fails catastrophically on any
        // quadratic regression while staying far from flaky on slow CI.
        let s = 30_000usize;
        let dh = 8;
        let mut store = HostKvStore::new(1, 1, dh);
        let start = std::time::Instant::now();
        for i in 0..s {
            let k = [i as f32; 8];
            assert_eq!(store.append_token(0, 0, &k, &k), i);
        }
        let elapsed = start.elapsed();
        assert_eq!(store.len(0, 0), s);
        let (fk, _) = store.try_fetch(0, 0, &[0, s / 2, s - 1]).unwrap();
        assert_eq!(fk.row(0), &[0.0; 8]);
        assert_eq!(fk.row(1), &[(s / 2) as f32; 8]);
        assert_eq!(fk.row(2), &[(s - 1) as f32; 8]);
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "appending {s} tokens took {elapsed:?} — quadratic append is back"
        );
    }

    #[test]
    fn clone_gets_fresh_stats_and_cow_isolation() {
        // Regression: `derive(Clone)` used to share the stats/aggregate
        // Arcs, so a clone's traffic double-metered into the source (and
        // the tier aggregate). Clones must start with zeroed stats,
        // detached from the tier, and must not perturb the source's data.
        let tier = KvTier::new(1, 1, 4);
        let mut a = tier.new_namespace();
        a.offload(0, 0, Matrix::zeros(3, 4), Matrix::zeros(3, 4));
        let a_stats = a.stats();
        let agg = tier.aggregate_stats();

        let mut c = a.clone();
        assert_eq!(c.stats(), TransferStats::default(), "clone must start unmetered");
        c.append_token(0, 0, &[9.0; 4], &[9.0; 4]);
        let _ = c.try_fetch(0, 0, &[0, 3]).unwrap();
        assert_eq!(a.stats(), a_stats, "clone traffic leaked into source stats");
        assert_eq!(tier.aggregate_stats(), agg, "clone traffic leaked into tier aggregate");
        assert!(c.stats().d2h_ops == 1 && c.stats().h2d_ops == 1);

        // Data is CoW-isolated both ways.
        assert_eq!(a.len(0, 0), 3);
        assert_eq!(c.len(0, 0), 4);
        a.append_token(0, 0, &[-1.0; 4], &[-1.0; 4]);
        let (ka, _) = a.try_fetch(0, 0, &[3]).unwrap();
        let (kc, _) = c.try_fetch(0, 0, &[3]).unwrap();
        assert_eq!(ka.row(0), &[-1.0; 4]);
        assert_eq!(kc.row(0), &[9.0; 4]);
    }

    #[test]
    fn interleaved_namespace_appends_keep_offsets_local() {
        // Regression for the serving refactor: token offsets must be
        // per-namespace, not globally monotone across the tier. Interleave
        // appends from two "sessions" and check each namespace's offsets run
        // 0, 1, 2, ... independently and round-trip to its own rows.
        let tier = KvTier::new(1, 1, 4);
        let mut a = tier.new_namespace();
        let mut b = tier.new_namespace();
        assert_ne!(a.namespace(), b.namespace());
        for i in 0..6 {
            let ka = [i as f32; 4];
            let kb = [-(i as f32) - 1.0; 4];
            // a then b within the same "tick" — the interleaving that broke
            // a global-offset scheme (b's first append would have seen 1).
            assert_eq!(a.append_token(0, 0, &ka, &ka), i);
            assert_eq!(b.append_token(0, 0, &kb, &kb), i);
        }
        assert_eq!(a.len(0, 0), 6);
        assert_eq!(b.len(0, 0), 6);
        let (ka, _) = a.try_fetch(0, 0, &[3]).unwrap();
        let (kb, _) = b.try_fetch(0, 0, &[3]).unwrap();
        assert_eq!(ka.row(0), &[3.0; 4]);
        assert_eq!(kb.row(0), &[-4.0; 4]);
    }

    #[test]
    fn tier_aggregate_is_sum_of_namespace_stats() {
        let tier = KvTier::new(2, 1, 4);
        let mut rng = Rng64::new(3);
        let mut stores: Vec<HostKvStore> = (0..3).map(|_| tier.new_namespace()).collect();
        for (i, st) in stores.iter_mut().enumerate() {
            let rows = 4 + i;
            st.offload(0, 0, Matrix::randn(rows, 4, 1.0, &mut rng), Matrix::randn(rows, 4, 1.0, &mut rng));
            st.append_token(1, 0, &[0.0; 4], &[0.0; 4]);
            let _ = st.try_fetch(0, 0, &[0, 1]).unwrap();
        }
        let sum: TransferStats = stores.iter().map(|s| s.stats()).sum();
        assert_eq!(tier.aggregate_stats(), sum);
        assert!(sum.d2h_bytes > 0 && sum.h2d_bytes > 0);
    }

    #[test]
    fn aggregate_survives_namespace_drop() {
        let tier = KvTier::new(1, 1, 4);
        let mut a = tier.new_namespace();
        a.append_token(0, 0, &[1.0; 4], &[1.0; 4]);
        let before = tier.aggregate_stats();
        drop(a);
        assert_eq!(tier.aggregate_stats(), before);
    }

    #[test]
    fn namespace_drop_releases_pages() {
        let tier = KvTier::new(2, 2, 4);
        let mut a = tier.new_namespace();
        a.offload(0, 0, Matrix::zeros(40, 4), Matrix::zeros(40, 4));
        a.offload(1, 1, Matrix::zeros(7, 4), Matrix::zeros(7, 4));
        assert!(tier.allocator().pages_in_use() > 0);
        drop(a);
        assert_eq!(tier.allocator().pages_in_use(), 0, "drop must free all pages");
    }

    #[test]
    fn transfer_stats_sum_and_add() {
        let a = TransferStats { d2h_bytes: 1, h2d_bytes: 2, d2h_ops: 3, h2d_ops: 4 };
        let b = TransferStats { d2h_bytes: 10, h2d_bytes: 20, d2h_ops: 30, h2d_ops: 40 };
        let s: TransferStats = [a, b].into_iter().sum();
        assert_eq!(s, a + b);
        assert_eq!(s.d2h_bytes, 11);
        assert_eq!(s.h2d_ops, 44);
    }

    #[test]
    fn host_reads_do_not_meter() {
        let (store, k, v) = store_with_data(20, 8);
        let before = store.stats();
        let all: Vec<usize> = (0..20).collect();
        assert_eq!(resident_rows(&store, &all), (k.clone(), v));
        let (gk, _) = resident_rows(&store, &[2, 19]);
        assert_eq!(gk.row(1), k.row(19));
        assert_eq!(store.stats(), before);
    }

    #[test]
    fn read_meters_and_verifies_exactly_the_rows_that_cross_the_link() {
        let (mut store, k, v) = store_with_data(40, 4);
        store.reset_stats();
        let (mut gk, mut gv) = (Matrix::zeros(0, 4), Matrix::zeros(0, 4));
        // Three rows, one of them a miss: one row's bytes and one op.
        store.read_into(0, 0, &[2, 39, 17], 1, &mut gk, &mut gv).unwrap();
        let one_miss = TransferStats { h2d_bytes: 2 * 4 * 2, h2d_ops: 1, ..Default::default() };
        assert_eq!(store.stats(), one_miss);
        for (row, &id) in [2usize, 39, 17].iter().enumerate() {
            assert_eq!((gk.row(row), gv.row(row)), (k.row(id), v.row(id)));
        }
        // All hits: appended after the earlier rows, nothing metered.
        store.read_into(0, 0, &[5], 0, &mut gk, &mut gv).unwrap();
        assert_eq!((gk.rows(), gk.row(3)), (4, k.row(5)));
        assert_eq!(store.stats(), one_miss);

        // On a corrupt chain an unmetered read neither verifies nor meters…
        assert!(store.corrupt_slot(0, 0, 3));
        store.read_into(0, 0, &[0], 0, &mut gk, &mut gv).expect("hits are not verified");
        assert_eq!((gk.rows(), store.stats()), (5, one_miss));
        // …and a read with a miss fails typed, meters nothing, appends nothing.
        let err = store.read_into(0, 0, &[0, 1], 1, &mut gk, &mut gv).expect_err("corrupt");
        assert!(matches!(err, MemError::PageCorrupt { .. }));
        assert_eq!((gk.rows(), gv.rows(), store.stats()), (5, 5, one_miss));
    }

    #[test]
    fn resident_bytes_counts_all_slots() {
        let mut store = HostKvStore::new(2, 1, 4);
        let mut rng = Rng64::new(2);
        store.offload(0, 0, Matrix::randn(10, 4, 1.0, &mut rng), Matrix::randn(10, 4, 1.0, &mut rng));
        store.offload(1, 0, Matrix::randn(5, 4, 1.0, &mut rng), Matrix::randn(5, 4, 1.0, &mut rng));
        assert_eq!(store.resident_bytes(), (2 * 10 * 4 * 2 + 2 * 5 * 4 * 2) as u64);
    }

    #[test]
    fn reset_stats_zeroes() {
        let (store, _, _) = store_with_data(10, 4);
        store.reset_stats();
        assert_eq!(store.stats(), TransferStats::default());
    }

    #[test]
    fn store_pin_pages_blocks_recycling_until_unpinned() {
        let tier = KvTier::with_pages(1, 1, 4, 8, None);
        let mut store = tier.new_namespace();
        let mut rng = Rng64::new(7);
        let k = Matrix::randn(20, 4, 1.0, &mut rng);
        let v = Matrix::randn(20, 4, 1.0, &mut rng);
        store.offload(0, 0, k.clone(), v.clone());
        store.pin_pages();
        assert_eq!(tier.allocator().pinned_pages(), 3, "ceil(20/8) pages pinned");
        store.unpin_pages();
        assert_eq!(tier.allocator().pinned_pages(), 0);
        // Data survives the pin/unpin round trip bit-for-bit.
        assert_eq!(resident_rows(&store, &(0..20).collect::<Vec<_>>()), (k, v));
        drop(store);
        assert_eq!(tier.allocator().pages_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_layer_panics() {
        let store = HostKvStore::new(1, 1, 4);
        let _ = store.len(5, 0);
    }

    #[test]
    #[should_panic(expected = "empty slot")]
    fn fetch_empty_panics() {
        let store = HostKvStore::new(1, 1, 4);
        let _ = store.try_fetch(0, 0, &[0]).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn capped_tier_append_fails_then_recovers() {
        // 1 page of 2 tokens: the third append needs a second page.
        let tier = KvTier::with_page_limit(1, 1, 4, 2, None, Some(1));
        let mut a = tier.new_namespace();
        assert_eq!(a.try_append_token(0, 0, &[0.0; 4], &[0.0; 4]), Ok(0));
        assert_eq!(a.try_append_token(0, 0, &[1.0; 4], &[1.0; 4]), Ok(1));
        let before = a.stats();
        let err = a.try_append_token(0, 0, &[2.0; 4], &[2.0; 4]).expect_err("at cap");
        assert_eq!(err, MemError::PageExhausted { max_pages: 1 });
        assert_eq!(a.len(0, 0), 2, "failed append consumes no offset");
        assert_eq!(a.stats(), before, "failed append meters nothing");
        // Stored data still reads back fine.
        let (k, _) = a.try_fetch(0, 0, &[0, 1]).unwrap();
        assert_eq!(k.row(1), &[1.0; 4]);
        // Retiring the namespace frees its pages; a new session fits again.
        drop(a);
        let mut b = tier.new_namespace();
        assert_eq!(b.try_append_token(0, 0, &[9.0; 4], &[9.0; 4]), Ok(0));
    }

    #[test]
    fn capped_tier_offload_fails_without_metering() {
        let tier = KvTier::with_page_limit(1, 1, 4, 2, None, Some(2));
        let mut ns = tier.new_namespace();
        // 6 rows need 3 pages; cap is 2.
        let err = ns
            .try_offload(0, 0, Matrix::zeros(6, 4), Matrix::zeros(6, 4))
            .expect_err("over-cap offload");
        assert_eq!(err, MemError::PageExhausted { max_pages: 2 });
        assert_eq!(ns.stats(), TransferStats::default(), "failed offload meters nothing");
        assert_eq!(tier.aggregate_stats(), TransferStats::default());
        assert_eq!(tier.allocator().pages_in_use(), 0, "failed offload rolled back");
        // A within-cap offload still works.
        ns.try_offload(0, 0, Matrix::zeros(4, 4), Matrix::zeros(4, 4)).expect("fits");
        assert_eq!(ns.len(0, 0), 4);
    }

    #[test]
    fn failed_overwrite_keeps_old_slot_contents() {
        let tier = KvTier::with_page_limit(1, 1, 4, 2, None, Some(3));
        let mut ns = tier.new_namespace();
        let mut rng = Rng64::new(5);
        let k = Matrix::randn(3, 4, 1.0, &mut rng);
        ns.try_offload(0, 0, k.clone(), Matrix::zeros(3, 4)).expect("fits in 2 pages");
        // Overwrite needing 3 fresh pages fails (2 already held + 3 > cap)…
        let err = ns
            .try_offload(0, 0, Matrix::zeros(6, 4), Matrix::zeros(6, 4))
            .expect_err("overwrite over cap");
        assert_eq!(err, MemError::PageExhausted { max_pages: 3 });
        // …and the original rows survive untouched.
        assert_eq!(ns.len(0, 0), 3);
        let (fk, _) = ns.try_fetch(0, 0, &[0, 2]).unwrap();
        assert_eq!(fk.row(0), k.row(0));
        assert_eq!(fk.row(1), k.row(2));
    }

    #[test]
    fn try_fetch_empty_slot_returns_typed_error() {
        let store = HostKvStore::new(2, 2, 4);
        let err = store.try_fetch(1, 1, &[0]).expect_err("never offloaded");
        assert_eq!(err, MemError::EmptySlot { layer: 1, head: 1 });
        assert!(err.to_string().contains("empty slot"));
        // Zero-row fetch stays Ok even on an empty slot.
        let (k, v) = store.try_fetch(1, 1, &[]).expect("empty id list");
        assert_eq!((k.rows(), v.rows()), (0, 0));
    }

    #[test]
    fn corrupt_slot_is_detected_by_try_fetch_and_verify() {
        let (mut store, _, _) = store_with_data(10, 4);
        store.verify().expect("intact store verifies");
        assert!(store.corrupt_slot(0, 0, 3));
        let err = store.try_fetch(0, 0, &[0]).expect_err("corrupt page must not serve");
        assert!(matches!(err, MemError::PageCorrupt { .. }));
        assert!(store.verify().is_err());
        // Untouched slots still serve: corruption is detected per-chain.
        assert!(!store.corrupt_slot(1, 1, 0), "empty slot has nothing to corrupt");
        // A failed fetch meters nothing — corrupt bytes never cross the link.
        let before = store.stats();
        let _ = store.try_fetch(0, 0, &[1]);
        assert_eq!(store.stats(), before);
    }

    #[test]
    fn fork_namespace_shares_pages_and_stays_in_aggregate() {
        let tier = KvTier::with_pages(1, 1, 4, 4, None);
        let mut a = tier.new_namespace();
        let mut rng = Rng64::new(13);
        let k = Matrix::randn(6, 4, 1.0, &mut rng);
        let v = Matrix::randn(6, 4, 1.0, &mut rng);
        a.offload(0, 0, k.clone(), v.clone());
        let pages_before = tier.allocator().pages_in_use();

        let f = tier.fork_namespace(&a);
        assert_ne!(f.namespace(), a.namespace());
        assert_eq!(f.stats(), TransferStats::default(), "fork starts unmetered");
        assert_eq!(tier.allocator().pages_in_use(), pages_before, "fork must not allocate");
        assert_eq!(f.len(0, 0), 6);

        // Fork traffic *does* land in the tier aggregate (unlike clone()).
        let agg = tier.aggregate_stats();
        let _ = f.try_fetch(0, 0, &[0]).unwrap();
        assert_eq!(tier.aggregate_stats(), agg + f.stats());

        // CoW isolation: the source keeps appending without disturbing the
        // fork's frozen rows.
        a.append_token(0, 0, &[9.0; 4], &[9.0; 4]);
        assert_eq!(f.len(0, 0), 6, "fork is a point-in-time snapshot");
        let (fk, _) = resident_rows(&f, &[5]);
        assert_eq!(fk.row(0), k.row(5));

        drop(a);
        drop(f);
        assert_eq!(tier.allocator().pages_in_use(), 0);
    }

    #[test]
    fn corrupting_source_spares_the_fork() {
        // The failure model behind checkpoint rollback: live data rots, the
        // checkpoint fork must still verify and serve the original bytes.
        let tier = KvTier::with_pages(1, 1, 2, 4, None);
        let mut live = tier.new_namespace();
        let mut rng = Rng64::new(17);
        let k = Matrix::randn(5, 2, 1.0, &mut rng);
        live.offload(0, 0, k.clone(), Matrix::randn(5, 2, 1.0, &mut rng));
        let ckpt = tier.fork_namespace(&live);
        assert!(live.corrupt_slot(0, 0, 7));
        assert!(live.verify().is_err(), "live namespace sees the corruption");
        ckpt.verify().expect("checkpoint keeps the intact original");
        let (ck, _) = resident_rows(&ckpt, &[4]);
        assert_eq!(ck.row(0), k.row(4));
    }

    #[test]
    fn chain_hash_is_prefix_consistent_and_content_sensitive() {
        let toks = [5u32, 9, 9, 2, 7];
        assert_eq!(token_chain_hash(&toks[..3]), token_chain_hash(&[5, 9, 9]));
        assert_ne!(token_chain_hash(&toks[..3]), token_chain_hash(&toks[..4]));
        assert_ne!(token_chain_hash(&[1, 2]), token_chain_hash(&[2, 1]), "order must matter");
    }

    #[test]
    fn prefix_register_lookup_adopt() {
        let tier = KvTier::with_pages(1, 1, 4, 4, None);
        let mut owner = tier.new_namespace();
        let mut rng = Rng64::new(11);
        let k = Matrix::randn(10, 4, 1.0, &mut rng);
        let v = Matrix::randn(10, 4, 1.0, &mut rng);
        owner.offload(0, 0, k.clone(), v.clone());
        let prompt: Vec<u32> = (0..12).collect();
        assert!(tier.register_prefix(&prompt, &owner, Arc::new(42usize)));
        assert!(!tier.register_prefix(&prompt, &owner, Arc::new(0usize)), "first wins");

        // Full-stream hit.
        let hit = tier.lookup_prefix(&prompt).expect("registered prefix must hit");
        assert_eq!(hit.len(), 12);
        assert!(!hit.is_empty());
        assert_eq!(*hit.payload().downcast_ref::<usize>().expect("payload type"), 42);

        // Adopted namespace sees the owner's rows without any offload.
        let adopted = tier.new_namespace_with_prefix(&hit);
        assert_eq!(adopted.len(0, 0), 10);
        assert_eq!(adopted.stats(), TransferStats::default(), "adoption is not a transfer");
        assert_eq!(adopted.sharing_stats().prefix_hit_tokens, 12);
        let (ak, av) = resident_rows(&adopted, &(0..10).collect::<Vec<_>>());
        for r in 0..10 {
            assert_eq!(ak.row(r), k.row(r));
            assert_eq!(av.row(r), v.row(r));
        }

        // Longest-prefix lookup on an extended stream is a partial hit.
        let longer: Vec<u32> = (0..20).collect();
        let partial = tier.lookup_prefix(&longer).expect("prefix of query registered");
        assert_eq!(partial.len(), 12);
        // Unrelated stream misses.
        assert!(tier.lookup_prefix(&[99, 98]).is_none());
        let st = tier.prefix_stats();
        assert_eq!((st.lookups, st.full_hits, st.partial_hits, st.entries), (3, 1, 1, 1));
        assert!((st.full_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_sharing_is_cow_isolated_and_unique_resident() {
        let tier = KvTier::with_pages(1, 1, 2, 4, None);
        let mut owner = tier.new_namespace();
        owner.offload(0, 0, Matrix::zeros(10, 2), Matrix::zeros(10, 2));
        let pages_before = tier.allocator().pages_in_use();
        let prompt: Vec<u32> = (100..110).collect();
        assert!(tier.register_prefix(&prompt, &owner, Arc::new(())));

        // N adopters share the owner's pages: residency does not grow.
        let hit = tier.lookup_prefix(&prompt).expect("hit");
        let mut adopters: Vec<HostKvStore> =
            (0..8).map(|_| tier.new_namespace_with_prefix(&hit)).collect();
        drop(hit);
        assert_eq!(tier.allocator().pages_in_use(), pages_before, "adoption must not allocate");

        // Owner's own appends after registration CoW its shared tail.
        owner.append_token(0, 0, &[7.0; 2], &[7.0; 2]);
        assert_eq!(owner.sharing_stats().cow_copies, 1);
        // Each adopter's first append CoWs too; none corrupt the others.
        for (i, ad) in adopters.iter_mut().enumerate() {
            ad.append_token(0, 0, &[i as f32; 2], &[i as f32; 2]);
        }
        for (i, ad) in adopters.iter().enumerate() {
            let (k, _) = resident_rows(ad, &[9, 10]);
            assert_eq!(k.row(0), &[0.0; 2], "shared row corrupted");
            assert_eq!(k.row(1), &[i as f32; 2], "private row corrupted");
        }
        assert_eq!(tier.aggregate_sharing().cow_copies, 9);

        // Releasing everything returns the pool to empty.
        drop(owner);
        adopters.clear();
        assert!(tier.release_prefix(&prompt));
        assert!(!tier.release_prefix(&prompt), "double release");
        assert_eq!(tier.allocator().pages_in_use(), 0);
    }
}
