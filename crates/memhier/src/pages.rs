//! Fixed-size KV pages with refcounting and copy-on-write.
//!
//! The vLLM-PagedAttention storage shape for the host tier: K/V rows live in
//! fixed-size **pages** owned by a tier-global [`PageAllocator`]. A
//! namespace's (layer, head) slot is a *page table* — an ordered chain of
//! page ids — so logical token offset `t` maps to page `t / page_tokens`,
//! page-local row `t % page_tokens`.
//!
//! Pages are **refcounted**: N namespaces sharing a prompt prefix point
//! their page tables at the same pages, so host residency grows with unique
//! tokens, not sessions. Mutation of a shared page (appending into a
//! partially-filled tail that another namespace also references) triggers
//! **copy-on-write**: the writer gets a private copy of the tail page and
//! the shared original stays frozen. Appends are therefore page-local —
//! amortized O(head_dim) per token — which structurally removes the old
//! whole-slot-`vstack` quadratic append.
//!
//! The allocator can draw page accounting from a [`pqc_cache::CacheBudget`]
//! (the same budget type the GPU block cache uses). The host tier must
//! never refuse data, so an exhausted budget does not fail the allocation;
//! it increments an over-budget counter the serving layer can watch.

use parking_lot::Mutex;
use pqc_cache::CacheBudget;
use pqc_tensor::Matrix;
use std::sync::Arc;

use crate::kvstore::WIRE_BYTES_PER_ELEM;

/// Default page size in tokens (rows per page).
pub const DEFAULT_PAGE_TOKENS: usize = 32;

/// A recoverable memory-tier failure.
///
/// The host tier's fallible entry points ([`PageAllocator::try_alloc`],
/// [`crate::HostKvStore::try_append_token`], [`crate::HostKvStore::try_fetch`])
/// return these instead of panicking, so the serving layer can fail one
/// session — not the process — when the tier runs out of pages or is asked
/// for data that was never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The page pool hit its configured `max_pages` cap with nothing on the
    /// free list. Freeing any page (session retirement, prefix release)
    /// makes the pool allocatable again.
    PageExhausted {
        /// The configured pool capacity in pages.
        max_pages: usize,
    },
    /// A fetch targeted a (layer, head) slot that was never offloaded.
    EmptySlot {
        /// Layer index of the empty slot.
        layer: usize,
        /// KV-head index of the empty slot.
        head: usize,
    },
    /// A page's stored checksum no longer matches its K/V contents: the
    /// page was corrupted after it was written and must not be served.
    PageCorrupt {
        /// The tier-wide id of the corrupt page.
        page: u32,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::PageExhausted { max_pages } => {
                write!(f, "page pool exhausted (max_pages {max_pages})")
            }
            MemError::EmptySlot { layer, head } => {
                write!(f, "fetch from empty slot (layer {layer}, head {head})")
            }
            MemError::PageCorrupt { page } => {
                write!(f, "kv page {page} failed its checksum (corrupt data)")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Cumulative sharing statistics, metered alongside [`crate::TransferStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SharingStats {
    /// Prompt tokens adopted from a shared prefix instead of re-prefilled,
    /// re-offloaded, and re-encoded.
    pub prefix_hit_tokens: u64,
    /// Copy-on-write page copies triggered by appends to shared tail pages.
    pub cow_copies: u64,
}

impl std::ops::AddAssign for SharingStats {
    fn add_assign(&mut self, rhs: Self) {
        self.prefix_hit_tokens += rhs.prefix_hit_tokens;
        self.cow_copies += rhs.cow_copies;
    }
}

impl std::ops::Add for SharingStats {
    type Output = SharingStats;
    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

impl std::iter::Sum for SharingStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |acc, s| acc + s)
    }
}

/// FNV-1a offset basis: every page checksum starts here.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold a row of f32s into a running FNV-1a hash over their bit patterns.
/// Element-wise and sequential, so folding row by row equals folding the
/// page's flat buffer — verification can recompute in one pass.
fn fnv_fold(mut h: u64, row: &[f32]) -> u64 {
    for &x in row {
        h ^= x.to_bits() as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One fixed-size page of K and V rows.
#[derive(Debug, Default)]
struct Page {
    k: Vec<f32>,
    v: Vec<f32>,
    rows: usize,
    rc: u32,
    /// Pin count: a pinned page must stay resident — releasing its last
    /// reference while pinned is a refcounting bug and panics.
    pinned: u32,
    /// Whether this page successfully claimed a budget slot.
    budgeted: bool,
    /// Incrementally-maintained FNV-1a checksum of the K buffer.
    ck: u64,
    /// Incrementally-maintained FNV-1a checksum of the V buffer.
    cv: u64,
}

#[derive(Debug)]
struct Pool {
    page_tokens: usize,
    head_dim: usize,
    pages: Vec<Page>,
    free: Vec<u32>,
    in_use: usize,
    peak_in_use: usize,
    cow_copies: u64,
    over_budget: u64,
    budget: Option<CacheBudget>,
    /// Hard cap on concurrently-live pages; `None` grows unboundedly.
    max_pages: Option<usize>,
}

impl Pool {
    fn page(&self, id: u32) -> &Page {
        let p = &self.pages[id as usize];
        debug_assert!(p.rc > 0, "access to freed page {id}");
        p
    }

    fn try_alloc(&mut self) -> Result<u32, MemError> {
        // Capacity gate first, before the budget draw: a failed allocation
        // must not leak a budget slot.
        if let Some(max) = self.max_pages {
            if self.in_use >= max {
                return Err(MemError::PageExhausted { max_pages: max });
            }
        }
        let budgeted = match &self.budget {
            Some(b) => {
                let ok = b.try_acquire();
                if !ok {
                    self.over_budget += 1;
                }
                ok
            }
            None => false,
        };
        let cap = self.page_tokens * self.head_dim;
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.pages.push(Page::default());
                (self.pages.len() - 1) as u32
            }
        };
        let p = &mut self.pages[id as usize];
        debug_assert!(p.rc == 0, "allocating a live page");
        p.k.clear();
        p.v.clear();
        p.k.reserve(cap);
        p.v.reserve(cap);
        p.rows = 0;
        p.rc = 1;
        debug_assert!(p.pinned == 0, "recycled page {id} still pinned");
        p.pinned = 0;
        p.budgeted = budgeted;
        p.ck = FNV_OFFSET;
        p.cv = FNV_OFFSET;
        self.in_use += 1;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        Ok(id)
    }

    fn pin(&mut self, id: u32) {
        let p = &mut self.pages[id as usize];
        assert!(p.rc > 0, "pin of freed page {id}");
        p.pinned += 1;
    }

    fn unpin(&mut self, id: u32) {
        let p = &mut self.pages[id as usize];
        assert!(p.pinned > 0, "unpin of unpinned page {id}");
        p.pinned -= 1;
    }

    fn retain(&mut self, id: u32) {
        let p = &mut self.pages[id as usize];
        debug_assert!(p.rc > 0, "retain of freed page {id}");
        p.rc += 1;
    }

    fn release(&mut self, id: u32) {
        let p = &mut self.pages[id as usize];
        assert!(p.rc > 0, "release of freed page {id}");
        p.rc -= 1;
        if p.rc == 0 {
            assert!(p.pinned == 0, "release of pinned page {id} to refcount zero");
            let budgeted = p.budgeted;
            p.k = Vec::new();
            p.v = Vec::new();
            p.rows = 0;
            p.budgeted = false;
            self.free.push(id);
            self.in_use -= 1;
            if budgeted {
                if let Some(b) = &self.budget {
                    b.release(1);
                }
            }
        }
    }

    fn push_row(&mut self, id: u32, key: &[f32], value: &[f32]) -> usize {
        let page_tokens = self.page_tokens;
        let p = &mut self.pages[id as usize];
        debug_assert!(p.rc == 1, "in-place append to a shared page");
        debug_assert!(p.rows < page_tokens, "append to a full page");
        p.k.extend_from_slice(key);
        p.v.extend_from_slice(value);
        p.ck = fnv_fold(p.ck, key);
        p.cv = fnv_fold(p.cv, value);
        p.rows += 1;
        p.rows - 1
    }

    /// Copy-on-write: give the caller a private copy of shared page `tail`
    /// — contents and checksums carried forward as they are — in exchange
    /// for its reference to the original, which the other referents keep
    /// frozen. The allocation comes first, so on pool exhaustion nothing
    /// has changed.
    fn cow_copy(&mut self, tail: u32) -> Result<u32, MemError> {
        let id = self.try_alloc()?;
        let (k, v, rows, ck, cv) = {
            let p = self.page(tail);
            (p.k.clone(), p.v.clone(), p.rows, p.ck, p.cv)
        };
        let np = &mut self.pages[id as usize];
        np.k = k;
        np.v = v;
        np.rows = rows;
        np.ck = ck;
        np.cv = cv;
        self.release(tail);
        self.cow_copies += 1;
        Ok(id)
    }

    /// Recompute the page's checksums from its contents and compare against
    /// the incrementally-maintained ones.
    fn verify(&self, id: u32) -> Result<(), MemError> {
        let p = self.page(id);
        if fnv_fold(FNV_OFFSET, &p.k) != p.ck || fnv_fold(FNV_OFFSET, &p.v) != p.cv {
            return Err(MemError::PageCorrupt { page: id });
        }
        Ok(())
    }
}

/// Tier-global allocator of refcounted KV pages (free list + budget hook).
///
/// Cloning the allocator clones a *handle*: all clones share one pool, so a
/// [`crate::KvTier`] and every namespace it vends allocate from the same
/// page space and page ids are meaningful tier-wide.
#[derive(Debug, Clone)]
pub struct PageAllocator {
    pool: Arc<Mutex<Pool>>,
}

impl PageAllocator {
    /// A pool of `page_tokens`-row pages for rows of width `head_dim`.
    pub fn new(page_tokens: usize, head_dim: usize) -> Self {
        Self::with_budget(page_tokens, head_dim, None)
    }

    /// Like [`PageAllocator::new`], optionally drawing page accounting from
    /// a shared [`CacheBudget`] (one budget slot per allocated page).
    pub fn with_budget(page_tokens: usize, head_dim: usize, budget: Option<CacheBudget>) -> Self {
        Self::with_limit(page_tokens, head_dim, budget, None)
    }

    /// Like [`PageAllocator::with_budget`], additionally capping the pool at
    /// `max_pages` concurrently-live pages. Once the cap is reached,
    /// [`PageAllocator::try_alloc`] (and every fallible path built on it)
    /// returns [`MemError::PageExhausted`] until a page is freed.
    pub fn with_limit(
        page_tokens: usize,
        head_dim: usize,
        budget: Option<CacheBudget>,
        max_pages: Option<usize>,
    ) -> Self {
        assert!(page_tokens > 0, "page_tokens must be positive");
        assert!(head_dim > 0, "head_dim must be positive");
        assert!(max_pages != Some(0), "max_pages cap must be positive");
        Self {
            pool: Arc::new(Mutex::new(Pool {
                page_tokens,
                head_dim,
                pages: Vec::new(),
                free: Vec::new(),
                in_use: 0,
                peak_in_use: 0,
                cow_copies: 0,
                over_budget: 0,
                budget,
                max_pages,
            })),
        }
    }

    /// The live-page cap, if one was configured.
    pub fn max_pages(&self) -> Option<usize> {
        self.pool.lock().max_pages
    }

    /// Allocate one empty page (refcount 1), failing — not panicking — when
    /// the pool is at its configured cap. Pair with
    /// [`PageAllocator::release_page`].
    pub fn try_alloc(&self) -> Result<u32, MemError> {
        self.pool.lock().try_alloc()
    }

    /// Bump the refcount of a live page.
    pub fn retain_page(&self, id: u32) {
        self.pool.lock().retain(id);
    }

    /// Drop one reference to a live page, recycling it at refcount zero.
    pub fn release_page(&self, id: u32) {
        self.pool.lock().release(id);
    }

    /// Rows per page.
    pub fn page_tokens(&self) -> usize {
        self.pool.lock().page_tokens
    }

    /// Row width (head dimension) this pool stores.
    pub fn head_dim(&self) -> usize {
        self.pool.lock().head_dim
    }

    /// Pages currently allocated (refcount > 0).
    pub fn pages_in_use(&self) -> usize {
        self.pool.lock().in_use
    }

    /// High-water mark of [`PageAllocator::pages_in_use`].
    pub fn peak_pages_in_use(&self) -> usize {
        self.pool.lock().peak_in_use
    }

    /// Length of the free list (pages allocated before and since released).
    pub fn free_pages(&self) -> usize {
        self.pool.lock().free.len()
    }

    /// Copy-on-write page copies performed since construction.
    pub fn cow_copies(&self) -> u64 {
        self.pool.lock().cow_copies
    }

    /// Allocations that found the budget exhausted (allocation proceeded —
    /// the host tier never drops data — but the budget was over-committed).
    pub fn over_budget_allocs(&self) -> u64 {
        self.pool.lock().over_budget
    }

    /// Wire-accounted capacity of one page: K+V, `page_tokens` rows, FP16.
    pub fn page_bytes(&self) -> u64 {
        let pool = self.pool.lock();
        (2 * pool.page_tokens * pool.head_dim * WIRE_BYTES_PER_ELEM) as u64
    }

    /// Unique resident bytes across all live pages (each page counted once
    /// no matter how many namespaces reference it; FP16 accounting of rows
    /// actually written).
    pub fn resident_bytes(&self) -> u64 {
        let pool = self.pool.lock();
        pool.pages
            .iter()
            .filter(|p| p.rc > 0)
            .map(|p| (2 * p.rows * pool.head_dim * WIRE_BYTES_PER_ELEM) as u64)
            .sum()
    }

    /// Peak unique residency in capacity bytes: high-water pages × page size.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_pages_in_use() as u64 * self.page_bytes()
    }

    /// Whether two handles share one pool (page ids interchangeable).
    pub fn same_pool(&self, other: &PageAllocator) -> bool {
        Arc::ptr_eq(&self.pool, &other.pool)
    }

    /// Pin every page in `chain`: a pinned page must stay resident, so
    /// dropping its last reference panics instead of silently recycling KV
    /// data a suspended session still owns. Pins nest (a page shared by two
    /// suspended namespaces carries two pins) and do **not** count as
    /// references — pair every pin with [`PageAllocator::unpin_chain`].
    pub fn pin_chain(&self, chain: &[u32]) {
        let mut pool = self.pool.lock();
        for &id in chain {
            pool.pin(id);
        }
    }

    /// Remove one pin from every page in `chain`.
    pub fn unpin_chain(&self, chain: &[u32]) {
        let mut pool = self.pool.lock();
        for &id in chain {
            pool.unpin(id);
        }
    }

    /// Number of live pages with at least one pin (each page counted once,
    /// however many pins it carries) — the swap-audit metric: after every
    /// suspended session resumes or retires this must return to zero.
    pub fn pinned_pages(&self) -> usize {
        let pool = self.pool.lock();
        pool.pages.iter().filter(|p| p.rc > 0 && p.pinned > 0).count()
    }

    /// Bump the refcount of every page in `chain`.
    pub(crate) fn retain_chain(&self, chain: &[u32]) {
        let mut pool = self.pool.lock();
        for &id in chain {
            pool.retain(id);
        }
    }

    /// Drop one reference to every page in `chain`.
    pub(crate) fn release_chain(&self, chain: &[u32]) {
        let mut pool = self.pool.lock();
        for &id in chain {
            pool.release(id);
        }
    }

    /// Write a full K/V matrix pair into freshly-allocated pages and return
    /// the page chain. On pool exhaustion mid-write, every page already
    /// allocated for this chain is released before the error returns — a
    /// failed bulk write leaves the pool exactly as it found it.
    pub(crate) fn try_write_rows(
        &self,
        keys: &Matrix,
        values: &Matrix,
    ) -> Result<Vec<u32>, MemError> {
        let mut pool = self.pool.lock();
        debug_assert_eq!(keys.cols(), pool.head_dim);
        let pt = pool.page_tokens;
        let mut chain = Vec::with_capacity(keys.rows().div_ceil(pt));
        for r in 0..keys.rows() {
            if r % pt == 0 {
                match pool.try_alloc() {
                    Ok(id) => chain.push(id),
                    Err(e) => {
                        for &id in &chain {
                            pool.release(id);
                        }
                        return Err(e);
                    }
                }
            }
            let id = *chain.last().expect("chain non-empty");
            pool.push_row(id, keys.row(r), values.row(r));
        }
        Ok(chain)
    }

    /// Append one row to a page chain, allocating a new tail page or
    /// copying a shared one as needed. Returns `Ok(true)` when the append
    /// triggered a copy-on-write of the tail page. On pool exhaustion the
    /// chain is left untouched (the allocation is attempted before any
    /// chain or refcount mutation), so a failed append is retryable after
    /// pages free up.
    pub(crate) fn try_append_row(
        &self,
        chain: &mut Vec<u32>,
        key: &[f32],
        value: &[f32],
    ) -> Result<bool, MemError> {
        let mut pool = self.pool.lock();
        debug_assert_eq!(key.len(), pool.head_dim);
        let mut cow = false;
        match chain.last().copied() {
            None => {
                let id = pool.try_alloc()?;
                pool.push_row(id, key, value);
                chain.push(id);
            }
            Some(tail) => {
                let (rows, rc) = {
                    let p = pool.page(tail);
                    (p.rows, p.rc)
                };
                if rows == pool.page_tokens {
                    // Full tail stays shared (or private) untouched; grow the
                    // chain with a fresh page.
                    let id = pool.try_alloc()?;
                    pool.push_row(id, key, value);
                    chain.push(id);
                } else if rc > 1 {
                    // Shared, partially-filled tail: copy-on-write. The
                    // other referents keep the frozen original.
                    let id = pool.cow_copy(tail)?;
                    pool.push_row(id, key, value);
                    *chain.last_mut().expect("tail exists") = id;
                    cow = true;
                } else {
                    pool.push_row(tail, key, value);
                }
            }
        }
        Ok(cow)
    }

    /// Verify every page in `chain` against its stored checksum. The first
    /// mismatch returns [`MemError::PageCorrupt`] with the offending page
    /// id; corrupt data is never gathered by the fallible read paths.
    pub fn verify_chain(&self, chain: &[u32]) -> Result<(), MemError> {
        let pool = self.pool.lock();
        for &id in chain {
            pool.verify(id)?;
        }
        Ok(())
    }

    /// Deterministic corruption primitive for fault injection: flip one bit
    /// of K data in the chain's tail page, leaving the stored checksum
    /// stale so the next verified read detects it. A tail shared with other
    /// referents (a checkpoint, a prefix sharer) is copy-on-write copied
    /// first — only *this* chain observes the corruption, exactly like a
    /// stray write into one namespace's resident data. Returns `false`
    /// when there is nothing to corrupt (empty chain/page, or the CoW copy
    /// could not be allocated under a page cap).
    pub fn corrupt_chain_tail(&self, chain: &mut [u32], bit: u64) -> bool {
        let mut pool = self.pool.lock();
        let Some(&tail) = chain.last() else { return false };
        let (rc, len) = {
            let p = pool.page(tail);
            (p.rc, p.k.len())
        };
        if len == 0 {
            return false;
        }
        let id = if rc > 1 {
            let Ok(id) = pool.cow_copy(tail) else { return false };
            *chain.last_mut().expect("tail exists") = id;
            id
        } else {
            tail
        };
        let p = &mut pool.pages[id as usize];
        let i = (bit as usize / 32) % p.k.len();
        let b = (bit % 32) as u32;
        p.k[i] = f32::from_bits(p.k[i].to_bits() ^ (1u32 << b));
        true
    }

    /// Gather `ids` (logical offsets into a chain of `rows` rows) into
    /// dense K/V matrices.
    pub(crate) fn gather(&self, chain: &[u32], rows: usize, ids: &[usize]) -> (Matrix, Matrix) {
        let pool = self.pool.lock();
        let dh = pool.head_dim;
        let pt = pool.page_tokens;
        let mut k = Matrix::zeros(ids.len(), dh);
        let mut v = Matrix::zeros(ids.len(), dh);
        for (out, &t) in ids.iter().enumerate() {
            assert!(t < rows, "token id {t} out of range (rows {rows})");
            let p = pool.page(chain[t / pt]);
            let lo = (t % pt) * dh;
            k.row_mut(out).copy_from_slice(&p.k[lo..lo + dh]);
            v.row_mut(out).copy_from_slice(&p.v[lo..lo + dh]);
        }
        (k, v)
    }

    /// Materialize a whole chain as dense K/V matrices (host-side read).
    pub(crate) fn materialize(&self, chain: &[u32], rows: usize) -> (Matrix, Matrix) {
        let pool = self.pool.lock();
        let dh = pool.head_dim;
        let pt = pool.page_tokens;
        let mut k = Matrix::zeros(rows, dh);
        let mut v = Matrix::zeros(rows, dh);
        for t in 0..rows {
            let p = pool.page(chain[t / pt]);
            let lo = (t % pt) * dh;
            k.row_mut(t).copy_from_slice(&p.k[lo..lo + dh]);
            v.row_mut(t).copy_from_slice(&p.v[lo..lo + dh]);
        }
        (k, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_rows(alloc: &PageAllocator, k: &Matrix, v: &Matrix) -> Vec<u32> {
        alloc.try_write_rows(k, v).expect("write_rows in uncapped test pool")
    }

    fn append_row(alloc: &PageAllocator, chain: &mut Vec<u32>, k: &[f32], v: &[f32]) -> bool {
        alloc.try_append_row(chain, k, v).expect("append_row in uncapped test pool")
    }

    #[test]
    fn alloc_release_recycles_pages() {
        let alloc = PageAllocator::new(4, 2);
        let chain = write_rows(&alloc, &Matrix::zeros(10, 2), &Matrix::zeros(10, 2));
        assert_eq!(chain.len(), 3); // ceil(10/4)
        assert_eq!(alloc.pages_in_use(), 3);
        alloc.release_chain(&chain);
        assert_eq!(alloc.pages_in_use(), 0);
        assert_eq!(alloc.free_pages(), 3);
        // Reuse from the free list, not fresh slots.
        let chain2 = write_rows(&alloc, &Matrix::zeros(4, 2), &Matrix::zeros(4, 2));
        assert_eq!(alloc.pages_in_use(), 1);
        assert_eq!(alloc.free_pages(), 2);
        assert_eq!(alloc.peak_pages_in_use(), 3);
        alloc.release_chain(&chain2);
    }

    #[test]
    fn append_cow_preserves_shared_reader() {
        let alloc = PageAllocator::new(4, 1);
        let mut a = Vec::new();
        for i in 0..3 {
            append_row(&alloc, &mut a, &[i as f32], &[10.0 + i as f32]);
        }
        // Fork: b shares a's pages.
        let b = a.clone();
        alloc.retain_chain(&b);
        // a appends into the shared, partially-filled tail → CoW.
        assert!(append_row(&alloc, &mut a, &[3.0], &[13.0]));
        assert_eq!(alloc.cow_copies(), 1);
        assert_ne!(a[0], b[0], "writer must have a private tail page");
        let (ka, _) = alloc.gather(&a, 4, &[0, 1, 2, 3]);
        let (kb, _) = alloc.gather(&b, 3, &[0, 1, 2]);
        assert_eq!(ka.row(3), &[3.0]);
        for i in 0..3 {
            assert_eq!(ka.row(i), &[i as f32]);
            assert_eq!(kb.row(i), &[i as f32], "reader corrupted by writer CoW");
        }
        alloc.release_chain(&a);
        alloc.release_chain(&b);
        assert_eq!(alloc.pages_in_use(), 0);
    }

    #[test]
    fn full_shared_tail_appends_without_copy() {
        let alloc = PageAllocator::new(2, 1);
        let mut a = Vec::new();
        append_row(&alloc, &mut a, &[0.0], &[0.0]);
        append_row(&alloc, &mut a, &[1.0], &[1.0]); // page now full
        let b = a.clone();
        alloc.retain_chain(&b);
        assert!(!append_row(&alloc, &mut a, &[2.0], &[2.0]), "full page needs no CoW");
        assert_eq!(alloc.cow_copies(), 0);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], b[0], "full page stays shared");
        alloc.release_chain(&a);
        alloc.release_chain(&b);
    }

    #[test]
    fn budget_counts_pages_and_releases_on_free() {
        let budget = CacheBudget::new(2);
        let alloc = PageAllocator::with_budget(2, 1, Some(budget.clone()));
        let chain = write_rows(&alloc, &Matrix::zeros(4, 1), &Matrix::zeros(4, 1));
        assert_eq!(budget.used_blocks(), 2);
        assert_eq!(alloc.over_budget_allocs(), 0);
        // Third page exceeds the budget: allocation still succeeds (host
        // tier never drops data) but the overflow is counted.
        let extra = write_rows(&alloc, &Matrix::zeros(1, 1), &Matrix::zeros(1, 1));
        assert_eq!(alloc.pages_in_use(), 3);
        assert_eq!(budget.used_blocks(), 2);
        assert_eq!(alloc.over_budget_allocs(), 1);
        alloc.release_chain(&chain);
        alloc.release_chain(&extra);
        assert_eq!(budget.used_blocks(), 0, "budget slots returned on free");
    }

    #[test]
    fn try_alloc_errors_at_cap_and_recovers_after_free() {
        let alloc = PageAllocator::with_limit(4, 2, None, Some(2));
        assert_eq!(alloc.max_pages(), Some(2));
        let a = alloc.try_alloc().expect("first page fits");
        let b = alloc.try_alloc().expect("second page fits");
        assert_eq!(
            alloc.try_alloc(),
            Err(MemError::PageExhausted { max_pages: 2 }),
            "cap reached: allocation must fail, not panic"
        );
        alloc.release_page(a);
        let c = alloc.try_alloc().expect("freed page recycles");
        assert_eq!(c, a, "recycled id comes off the free list");
        alloc.release_page(b);
        alloc.release_page(c);
        assert_eq!(alloc.pages_in_use(), 0);
    }

    #[test]
    fn failed_bulk_write_rolls_back_partial_chain() {
        let budget = CacheBudget::new(8);
        let alloc = PageAllocator::with_limit(2, 1, Some(budget.clone()), Some(2));
        // 6 rows need 3 pages but the cap is 2: the write must fail and
        // release the 2 pages (and budget slots) it had already claimed.
        let err = alloc
            .try_write_rows(&Matrix::zeros(6, 1), &Matrix::zeros(6, 1))
            .expect_err("over-cap bulk write must fail");
        assert_eq!(err, MemError::PageExhausted { max_pages: 2 });
        assert_eq!(alloc.pages_in_use(), 0, "partial chain rolled back");
        assert_eq!(budget.used_blocks(), 0, "budget slots returned on rollback");
        // The pool is still usable afterwards.
        let chain = alloc
            .try_write_rows(&Matrix::zeros(4, 1), &Matrix::zeros(4, 1))
            .expect("within-cap write succeeds after rollback");
        alloc.release_chain(&chain);
    }

    #[test]
    fn failed_append_leaves_chain_untouched() {
        let alloc = PageAllocator::with_limit(2, 1, None, Some(1));
        let mut chain = Vec::new();
        alloc.try_append_row(&mut chain, &[0.0], &[0.0]).expect("fits");
        alloc.try_append_row(&mut chain, &[1.0], &[1.0]).expect("fits");
        let before = chain.clone();
        // Tail full, next append needs a second page: over cap.
        let err = alloc.try_append_row(&mut chain, &[2.0], &[2.0]).expect_err("at cap");
        assert_eq!(err, MemError::PageExhausted { max_pages: 1 });
        assert_eq!(chain, before, "failed append must not mutate the chain");
        // Retry succeeds once space frees up.
        alloc.release_chain(&before);
        let mut fresh = Vec::new();
        alloc.try_append_row(&mut fresh, &[2.0], &[2.0]).expect("retry after free");
        alloc.release_chain(&fresh);
    }

    #[test]
    fn capped_cow_fails_cleanly_on_shared_tail() {
        let alloc = PageAllocator::with_limit(4, 1, None, Some(1));
        let mut a = Vec::new();
        alloc.try_append_row(&mut a, &[0.0], &[0.0]).expect("fits");
        let b = a.clone();
        alloc.retain_chain(&b);
        // CoW of the shared partial tail needs a second live page: over cap.
        let err = alloc.try_append_row(&mut a, &[1.0], &[1.0]).expect_err("at cap");
        assert_eq!(err, MemError::PageExhausted { max_pages: 1 });
        assert_eq!(a, b, "reader and writer still share the frozen tail");
        assert_eq!(alloc.cow_copies(), 0);
        let (kb, _) = alloc.gather(&b, 1, &[0]);
        assert_eq!(kb.row(0), &[0.0], "shared data intact after failed CoW");
        alloc.release_chain(&a);
        alloc.release_chain(&b);
        assert_eq!(alloc.pages_in_use(), 0);
    }

    #[test]
    fn pin_counts_and_unpin_returns_to_zero() {
        let alloc = PageAllocator::new(4, 2);
        let chain = write_rows(&alloc, &Matrix::zeros(10, 2), &Matrix::zeros(10, 2));
        assert_eq!(alloc.pinned_pages(), 0);
        alloc.pin_chain(&chain);
        assert_eq!(alloc.pinned_pages(), 3);
        // Pins nest: a second pin of the same chain keeps the same page count.
        alloc.pin_chain(&chain);
        assert_eq!(alloc.pinned_pages(), 3);
        alloc.unpin_chain(&chain);
        assert_eq!(alloc.pinned_pages(), 3, "one pin layer remains");
        alloc.unpin_chain(&chain);
        assert_eq!(alloc.pinned_pages(), 0);
        alloc.release_chain(&chain);
        assert_eq!(alloc.pages_in_use(), 0);
    }

    #[test]
    fn pinned_shared_page_survives_one_owner_releasing() {
        // Two namespaces share a chain; one suspends (pins), the other
        // retires (releases). The pinned page must stay live and readable.
        let alloc = PageAllocator::new(2, 1);
        let a = write_rows(&alloc, &Matrix::zeros(2, 1), &Matrix::zeros(2, 1));
        let b = a.clone();
        alloc.retain_chain(&b);
        alloc.pin_chain(&a);
        alloc.release_chain(&b);
        assert_eq!(alloc.pages_in_use(), 1);
        assert_eq!(alloc.pinned_pages(), 1);
        alloc.unpin_chain(&a);
        alloc.release_chain(&a);
        assert_eq!(alloc.pages_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "release of pinned page")]
    fn releasing_last_reference_of_pinned_page_panics() {
        let alloc = PageAllocator::new(2, 1);
        let chain = write_rows(&alloc, &Matrix::zeros(1, 1), &Matrix::zeros(1, 1));
        alloc.pin_chain(&chain);
        alloc.release_chain(&chain);
    }

    #[test]
    #[should_panic(expected = "unpin of unpinned page")]
    fn unpinning_unpinned_page_panics() {
        let alloc = PageAllocator::new(2, 1);
        let chain = write_rows(&alloc, &Matrix::zeros(1, 1), &Matrix::zeros(1, 1));
        alloc.unpin_chain(&chain);
    }

    #[test]
    fn mem_error_display_mentions_empty_slot() {
        let e = MemError::EmptySlot { layer: 1, head: 2 };
        assert!(e.to_string().contains("empty slot"));
        let p = MemError::PageExhausted { max_pages: 7 };
        assert!(p.to_string().contains("exhausted"));
    }

    #[test]
    fn verify_chain_passes_intact_and_detects_bit_flip() {
        let alloc = PageAllocator::new(4, 2);
        let mut chain = write_rows(&alloc, &Matrix::zeros(6, 2), &Matrix::zeros(6, 2));
        alloc.verify_chain(&chain).expect("intact chain verifies");
        assert!(alloc.corrupt_chain_tail(&mut chain, 17));
        let err = alloc.verify_chain(&chain).expect_err("flip must be detected");
        assert!(matches!(err, MemError::PageCorrupt { .. }));
        assert!(err.to_string().contains("checksum"));
        alloc.release_chain(&chain);
    }

    #[test]
    fn corrupting_twice_with_same_bit_restores_the_page() {
        // XOR is an involution: the same flip applied twice must verify again
        // — the checksum really is content-derived, not a tamper flag.
        let alloc = PageAllocator::new(4, 1);
        let mut chain = write_rows(&alloc, &Matrix::zeros(3, 1), &Matrix::zeros(3, 1));
        assert!(alloc.corrupt_chain_tail(&mut chain, 5));
        alloc.verify_chain(&chain).expect_err("corrupt");
        assert!(alloc.corrupt_chain_tail(&mut chain, 5));
        alloc.verify_chain(&chain).expect("flip undone");
        alloc.release_chain(&chain);
    }

    #[test]
    fn corrupting_shared_tail_cows_so_sharer_stays_intact() {
        let alloc = PageAllocator::new(4, 1);
        let mut a = Vec::new();
        for i in 0..3 {
            append_row(&alloc, &mut a, &[i as f32], &[10.0 + i as f32]);
        }
        let b = a.clone();
        alloc.retain_chain(&b);
        assert!(alloc.corrupt_chain_tail(&mut a, 0));
        assert_ne!(a[0], b[0], "corruption must land on a private copy");
        assert_eq!(alloc.cow_copies(), 1);
        alloc.verify_chain(&a).expect_err("writer sees the corruption");
        alloc.verify_chain(&b).expect("sharer keeps the intact original");
        let (kb, _) = alloc.gather(&b, 3, &[0, 1, 2]);
        for i in 0..3 {
            assert_eq!(kb.row(i), &[i as f32]);
        }
        alloc.release_chain(&a);
        alloc.release_chain(&b);
        assert_eq!(alloc.pages_in_use(), 0);
    }

    #[test]
    fn corrupt_empty_chain_reports_nothing_to_corrupt() {
        let alloc = PageAllocator::new(4, 1);
        let mut chain = Vec::new();
        assert!(!alloc.corrupt_chain_tail(&mut chain, 3));
        alloc.verify_chain(&chain).expect("empty chain trivially verifies");
    }

    #[test]
    fn cow_append_carries_checksums_forward() {
        // After a normal CoW append, both the frozen original and the
        // writer's copy must still verify.
        let alloc = PageAllocator::new(4, 1);
        let mut a = Vec::new();
        append_row(&alloc, &mut a, &[1.0], &[2.0]);
        let b = a.clone();
        alloc.retain_chain(&b);
        assert!(append_row(&alloc, &mut a, &[3.0], &[4.0]));
        alloc.verify_chain(&a).expect("writer copy verifies");
        alloc.verify_chain(&b).expect("frozen original verifies");
        alloc.release_chain(&a);
        alloc.release_chain(&b);
    }

    #[test]
    fn sharing_stats_sum_and_add() {
        let a = SharingStats { prefix_hit_tokens: 3, cow_copies: 1 };
        let b = SharingStats { prefix_hit_tokens: 10, cow_copies: 5 };
        let s: SharingStats = [a, b].into_iter().sum();
        assert_eq!(s, a + b);
        assert_eq!(s.prefix_hit_tokens, 13);
        assert_eq!(s.cow_copies, 6);
    }
}
