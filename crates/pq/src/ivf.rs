//! IVF (inverted-file) coarse quantization — the paper's §5 extension,
//! wired into the decode hot path.
//!
//! "Other retrieval techniques, such as IVF \[48\] ... could potentially
//! contribute to more efficient LLM inference." IVF partitions the keys into
//! `n_list` coarse cells by K-Means; a query then scores only the tokens in
//! its `n_probe` nearest cells instead of all `s` tokens, cutting ADC work
//! from O(s·m) to O(s·m·n_probe/n_list) at some recall cost.
//!
//! The index stores **per-cell SoA code columns** (each cell owns a
//! [`PqCodes`] holding its members' codes in the same subspace-major layout
//! the fused scan wants, plus an ascending token-id list), so probing a cell
//! is the same L1-resident sequential column walk as the flat scan — and the
//! per-`CODE_BLOCK`-block max-code bound composes with routing: inside a
//! probed cell, blocks that cannot beat the running k-th-best threshold are
//! skipped exactly as in [`crate::adc::AdcTable::score_and_select_into`].
//! See `score_and_select_ivf_into` in [`crate::adc`] and the "IVF-routed
//! selection" section of EXPERIMENTS.md.
//!
//! The index is built once, over the prefill keys; decode-time tokens join
//! through [`IvfIndex::append_token`], routed against the build-time coarse
//! centroids (as FAISS's `IndexIVF::add` routes against fixed centroids).
//! Nothing re-trains or re-balances the cells afterwards.

use crate::codebook::PqCodes;
use crate::kmeans::{kmeans, KMeansConfig};
use pqc_tensor::{dot, nearest_centroid_cached, row_sq_norms_into, AssignScratch, Matrix};

/// How the decode-step selector routes retrieval.
///
/// Threaded from `SessionConfig` through `PqCachePolicyConfig` down to
/// `PqRetriever`: `Exact` runs the flat fused score-and-select over all
/// middle tokens; `Probe(n_probe)` scores coarse centroids first and scans
/// only the `n_probe` nearest cells. `Probe(n)` with `n >= n_list` scans
/// every cell and is **bit-identical** to `Exact` (enforced by tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum IvfMode {
    /// Flat fused scan over every token (the PR 4 path).
    #[default]
    Exact,
    /// IVF routing: scan only the given number of coarse cells per query.
    Probe(usize),
}

impl IvfMode {
    /// Whether this mode routes through the IVF tier.
    pub fn is_probe(&self) -> bool {
        matches!(self, Self::Probe(_))
    }

    /// The probe width, if routing is on.
    pub fn n_probe(&self) -> Option<usize> {
        match self {
            Self::Exact => None,
            Self::Probe(n) => Some(*n),
        }
    }
}

/// IVF configuration.
#[derive(Debug, Clone, Copy)]
pub struct IvfConfig {
    /// Number of coarse cells.
    pub n_list: usize,
    /// Cells probed per query, as recorded with the index; the fused scan
    /// takes its `n_probe` explicitly.
    pub n_probe: usize,
    /// Coarse K-Means iterations.
    pub max_iters: usize,
    /// Seed for coarse clustering.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self { n_list: 16, n_probe: 4, max_iters: 10, seed: 0x1BF }
    }
}

/// Coarse training sample cap: above this many keys the coarse K-Means runs
/// on a strided sample and the full set is routed with one blocked
/// assignment pass — the FAISS-style recipe that keeps build time flat in
/// `s` (routing is one `‖x‖² − 2XCᵀ + ‖c‖²` sweep).
const COARSE_TRAIN_CAP: usize = 16_384;

/// Greatest common divisor (Euclid), for the coprime sampling step.
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One inverted list: ascending token ids plus their PQ codes in the shared
/// SoA column layout (so the ADC scan machinery applies unchanged).
#[derive(Debug, Clone)]
struct IvfCell {
    /// Member token ids, strictly ascending.
    ids: Vec<u32>,
    /// Members' PQ codes, subspace-major, row `r` codes token `ids[r]`.
    codes: PqCodes,
}

impl IvfCell {
    fn new(m: usize) -> Self {
        Self { ids: Vec::new(), codes: PqCodes::new(m) }
    }

    fn codes(&self) -> &PqCodes {
        &self.codes
    }

    fn push(&mut self, id: u32, token_codes: &[u16]) {
        debug_assert!(self.ids.last().is_none_or(|&last| last < id), "ids must ascend");
        self.ids.push(id);
        self.codes.push(token_codes);
    }
}

/// An inverted-file index over token keys, layered on top of PQ codes.
///
/// ```
/// use pqc_pq::{IvfConfig, IvfIndex, PqCodebook, PqConfig, PqRetriever};
/// use pqc_tensor::{Matrix, Rng64};
///
/// let mut rng = Rng64::new(2);
/// let keys = Matrix::randn(512, 16, 1.0, &mut rng);
/// let (book, codes) = PqCodebook::train(&keys, PqConfig { m: 2, b: 5, max_iters: 8, seed: 2 });
/// let ivf = IvfIndex::build(&keys, &codes, IvfConfig { n_list: 16, n_probe: 4, max_iters: 8, seed: 3 });
/// let q: Vec<f32> = keys.row(42).to_vec();
/// let mut top = Vec::new();
/// let stats = PqRetriever::new()
///     .score_and_select_ivf_into(&book, &ivf, &q, ivf.len(), 10, 4, &mut top);
/// assert!(top.len() <= 10);
/// // Only ~n_probe/n_list of tokens were ADC-scored.
/// assert!((stats.scanned_tokens as f64) < 0.8 * 512.0);
/// ```
#[derive(Debug, Clone)]
pub struct IvfIndex {
    cfg: IvfConfig,
    /// `(n_list, dh)` coarse centroids.
    coarse: Matrix,
    /// `‖centroid‖²` per coarse cell, cached so append-time routing runs the
    /// batched `‖c‖² − 2·x·c` argmin.
    coarse_norms: Vec<f32>,
    /// Inverted lists (ids + SoA codes per cell).
    cells: Vec<IvfCell>,
    /// Total tokens indexed (cells partition `0..len`).
    len: usize,
}

impl IvfIndex {
    /// Build the index from raw keys and their PQ codes (one code row per
    /// key row, same order).
    ///
    /// Coarse centroids are trained on at most `COARSE_TRAIN_CAP` strided
    /// sample rows; the full key set is then routed with one blocked
    /// assignment pass, so build cost stays near-linear in `s`.
    pub fn build(keys: &Matrix, codes: &PqCodes, cfg: IvfConfig) -> Self {
        assert!(cfg.n_list >= 1 && cfg.n_probe >= 1);
        assert_eq!(keys.rows(), codes.len(), "one code row per key row");
        let s = keys.rows();
        let kcfg = KMeansConfig { k: cfg.n_list, max_iters: cfg.max_iters, tol: 1e-4, seed: cfg.seed };
        let (centroids, assignments) = if s > COARSE_TRAIN_CAP {
            // Weyl-sequence sample, not a plain stride: key streams are
            // often periodic (interleaved sessions, repeated templates),
            // and a stride sharing a factor with the period would sample a
            // single phase of it. The step is forced coprime to `s`, so
            // `j ↦ j·step mod s` is a bijection: the sample hits every
            // residue class and contains no duplicate rows.
            let mut step = 0x9E37_79B9_7F4A_7C15_usize % s;
            while gcd(step, s) != 1 {
                step += 1;
            }
            let sample_ids: Vec<usize> =
                (0..COARSE_TRAIN_CAP).map(|j| j.wrapping_mul(step) % s).collect();
            let res = kmeans(&keys.gather_rows(&sample_ids), &kcfg);
            let mut assignments = vec![0u32; s];
            AssignScratch::new().assign(keys, &res.centroids, &mut assignments);
            (res.centroids, assignments)
        } else {
            let res = kmeans(keys, &kcfg);
            (res.centroids, res.assignments)
        };
        let n_list = centroids.rows();
        let mut cells = vec![IvfCell::new(codes.m()); n_list];
        let mut buf = Vec::new();
        for (i, &a) in assignments.iter().enumerate() {
            codes.token_into(i, &mut buf);
            cells[a as usize].push(i as u32, &buf);
        }
        let mut coarse_norms = Vec::new();
        row_sq_norms_into(&centroids, &mut coarse_norms);
        Self { cfg, coarse: centroids, coarse_norms, cells, len: s }
    }

    /// Number of coarse cells actually built.
    pub fn n_list(&self) -> usize {
        self.cells.len()
    }

    /// Total tokens indexed (the cells partition `0..len`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sub-space count of the stored codes.
    pub fn m(&self) -> usize {
        self.cells.first().map_or(0, |c| c.codes().m())
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> IvfConfig {
        self.cfg
    }

    /// One inverted list: `(ascending token ids, SoA codes)` — row `r` of
    /// the codes belongs to token `ids[r]`. Exposed for the fused IVF scan
    /// and for equivalence tests.
    pub fn cell(&self, c: usize) -> (&[u32], &PqCodes) {
        let cell = &self.cells[c];
        (&cell.ids, cell.codes())
    }

    /// Append one token: routed to its nearest build-time coarse cell
    /// (cached-norm batched argmin — no allocation beyond amortised list
    /// growth). The token id must exceed every id already present (decode
    /// appends are monotone), keeping every cell's id list ascending.
    pub fn append_token(&mut self, token_id: usize, key: &[f32], token_codes: &[u16]) {
        assert!(token_id >= self.len, "append ids must be monotone (got {token_id}, len {})", self.len);
        let (best, _) = nearest_centroid_cached(key, &self.coarse, &self.coarse_norms);
        self.cells[best].push(token_id as u32, token_codes);
        self.len = token_id + 1;
    }

    /// Inner-product scores of the query against every coarse centroid,
    /// written into `out` (cleared first). O(n_list · dh).
    pub fn score_cells_into(&self, query: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.cells.len());
        for c in 0..self.coarse.rows() {
            out.push(dot(query, self.coarse.row(c)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adc::exact_top_k;
    use crate::codebook::{PqCodebook, PqConfig};
    use crate::PqRetriever;
    use pqc_tensor::{top_k_indices, topk_recall, Rng64};

    fn setup(s: usize, dh: usize, seed: u64) -> (Matrix, PqCodebook, PqCodes) {
        let mut rng = Rng64::new(seed);
        let keys = Matrix::randn(s, dh, 1.0, &mut rng);
        let (book, codes) =
            PqCodebook::train(&keys, PqConfig { m: 4, b: 6, max_iters: 15, seed });
        (keys, book, codes)
    }

    /// Token ids inside the `n_probe` cells whose coarse centroids score
    /// highest against `query`, in cell-rank order: the routing step of the
    /// fused IVF scan, without the scan.
    fn routed_ids(ivf: &IvfIndex, query: &[f32], n_probe: usize) -> Vec<usize> {
        let mut scores = Vec::new();
        ivf.score_cells_into(query, &mut scores);
        top_k_indices(&scores, n_probe)
            .into_iter()
            .flat_map(|c| ivf.cell(c).0.iter().map(|&i| i as usize))
            .collect()
    }

    fn partitioned_ids(ivf: &IvfIndex) -> Vec<usize> {
        let mut all: Vec<usize> = (0..ivf.n_list())
            .flat_map(|c| ivf.cell(c).0.iter().map(|&i| i as usize).collect::<Vec<_>>())
            .collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn lists_partition_tokens() {
        let (keys, _, codes) = setup(300, 16, 1);
        let ivf = IvfIndex::build(&keys, &codes, IvfConfig::default());
        assert_eq!(partitioned_ids(&ivf), (0..300).collect::<Vec<_>>());
        assert_eq!(ivf.len(), 300);
        // Cell ids ascend and cell codes mirror the global codes row by row.
        for c in 0..ivf.n_list() {
            let (ids, ccodes) = ivf.cell(c);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "cell {c} ids not ascending");
            for (r, &id) in ids.iter().enumerate() {
                for j in 0..codes.m() {
                    assert_eq!(ccodes.code(r, j), codes.code(id as usize, j));
                }
            }
        }
    }

    #[test]
    fn probing_reduces_scan() {
        let (keys, _, codes) = setup(400, 16, 2);
        let ivf = IvfIndex::build(
            &keys,
            &codes,
            IvfConfig { n_list: 16, n_probe: 4, ..Default::default() },
        );
        let mut rng = Rng64::new(9);
        let q: Vec<f32> = (0..16).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let frac = routed_ids(&ivf, &q, 4).len() as f64 / 400.0;
        assert!(frac < 0.7, "scan fraction {frac}");
        assert!(frac > 0.0);
    }

    #[test]
    fn ivf_ablation_recall_vs_scan() {
        // More probes => more scan => better recall against exact search.
        let (keys, book, codes) = setup(600, 16, 3);
        let mut rng = Rng64::new(10);
        let mut retriever = PqRetriever::new();
        let mut got = Vec::new();
        let mut prev_recall = 0.0;
        for n_probe in [1usize, 4, 16] {
            let ivf = IvfIndex::build(
                &keys,
                &codes,
                IvfConfig { n_list: 16, n_probe, max_iters: 10, seed: 5 },
            );
            let mut recall = 0.0;
            let trials = 10;
            let mut rq = rng.fork(n_probe as u64);
            for _ in 0..trials {
                let q: Vec<f32> = (0..16).map(|_| rq.normal_f32(0.0, 1.0)).collect();
                let exact = exact_top_k(&keys, &q, 30);
                let _ = retriever
                    .score_and_select_ivf_into(&book, &ivf, &q, ivf.len(), 30, n_probe, &mut got);
                recall += topk_recall(&exact, &got);
            }
            recall /= trials as f64;
            assert!(recall + 0.12 >= prev_recall, "recall regressed: {recall} vs {prev_recall}");
            prev_recall = prev_recall.max(recall);
        }
        // Probing everything should recover most of plain PQ's recall.
        assert!(prev_recall > 0.5, "full-probe recall {prev_recall}");
    }

    #[test]
    fn append_routes_to_a_cell() {
        let (keys, book, codes) = setup(100, 16, 4);
        let mut ivf = IvfIndex::build(&keys, &codes, IvfConfig::default());
        let before: usize = (0..ivf.n_list()).map(|c| ivf.cell(c).0.len()).sum();
        let appended_codes = book.assign(keys.row(0));
        ivf.append_token(100, keys.row(0), &appended_codes);
        let after: usize = (0..ivf.n_list()).map(|c| ivf.cell(c).0.len()).sum();
        assert_eq!(after, before + 1);
        assert_eq!(ivf.len(), 101);
        // The appended token is findable with a query aligned to its key.
        let q: Vec<f32> = keys.row(0).iter().map(|v| v * 2.0).collect();
        assert!(routed_ids(&ivf, &q, ivf.config().n_probe).contains(&100));
    }

    #[test]
    fn skewed_appends_stay_partitioned_and_reachable() {
        // Build over two well-separated clusters, then append a third,
        // denser cluster: every appended token routes to its nearest
        // build-time centroid, inflating one cell. The partition must stay
        // exact and the appended cluster reachable by routing.
        let dh = 8;
        let mut rng = Rng64::new(44);
        let mut rows: Vec<f32> = Vec::new();
        let n_seed = 60;
        for i in 0..n_seed {
            let base = if i % 2 == 0 { 4.0 } else { -4.0 };
            for d in 0..dh {
                rows.push(base + 0.1 * rng.normal_f32(0.0, 1.0) + d as f32 * 0.0);
            }
        }
        // Appended cluster near +1.5: nearer to the +4 centroid than -4.
        let n_app = 120;
        for _ in 0..n_app {
            for _ in 0..dh {
                rows.push(1.5 + 0.1 * rng.normal_f32(0.0, 1.0));
            }
        }
        let all_keys = Matrix::from_vec(n_seed + n_app, dh, rows);
        let seed_keys = all_keys.slice_rows(0, n_seed);
        let (book, codes) =
            PqCodebook::train(&all_keys, PqConfig { m: 2, b: 4, max_iters: 10, seed: 9 });
        let seed_codes = {
            let cols = (0..codes.m())
                .map(|j| codes.column(j)[..n_seed].to_vec())
                .collect::<Vec<_>>();
            PqCodes::from_columns(cols)
        };
        let mut ivf = IvfIndex::build(
            &seed_keys,
            &seed_codes,
            IvfConfig { n_list: 4, n_probe: 2, max_iters: 20, seed: 11 },
        );
        let mut buf = Vec::new();
        for t in n_seed..n_seed + n_app {
            book.assign_into(all_keys.row(t), &mut buf);
            ivf.append_token(t, all_keys.row(t), &buf);
        }
        // The partition invariant holds: every token in exactly one cell,
        // ids ascending.
        assert_eq!(partitioned_ids(&ivf), (0..n_seed + n_app).collect::<Vec<_>>());
        for c in 0..ivf.n_list() {
            let (ids, _) = ivf.cell(c);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "cell {c} ids not ascending");
        }
        // And probing the appended cluster finds appended tokens.
        let q: Vec<f32> = vec![1.5; dh];
        let probed = routed_ids(&ivf, &q, ivf.config().n_probe);
        assert!(probed.iter().any(|&i| i >= n_seed), "appended cluster unreachable");
    }

    #[test]
    fn coarse_sample_covers_periodic_streams() {
        // Regression: s divisible by 5 with a period-5 key stream (five
        // interleaved "sessions"). A sampling step sharing the factor 5
        // with s would train the coarse centroids on one phase only and
        // leave the other four sessions' clusters unrepresented; the
        // coprime-step sample must see all five.
        let (s, dh) = (20_480usize, 8usize); // > COARSE_TRAIN_CAP, s % 5 == 0
        let mut rng = Rng64::new(55);
        let centers = Matrix::randn(5, dh, 4.0, &mut rng);
        let keys = Matrix::from_fn(s, dh, |i, j| {
            centers.get(i % 5, j) + 0.1 * rng.normal_f32(0.0, 1.0)
        });
        let (_, codes) =
            PqCodebook::train(&keys, PqConfig { m: 2, b: 4, max_iters: 5, seed: 56 });
        let ivf = IvfIndex::build(
            &keys,
            &codes,
            IvfConfig { n_list: 5, n_probe: 1, max_iters: 10, seed: 57 },
        );
        // Five tight, well-separated clusters of 4096 tokens each: a
        // phase-covering sample yields near-balanced cells; a single-phase
        // sample collapses them (imbalance ≈ 5).
        let max = (0..ivf.n_list()).map(|c| ivf.cell(c).0.len()).max().unwrap_or(0);
        let imb = max as f64 / (ivf.len() as f64 / ivf.n_list() as f64);
        assert!(imb < 1.5, "coarse sample missed stream phases: imbalance {imb:.2}");
    }
}
