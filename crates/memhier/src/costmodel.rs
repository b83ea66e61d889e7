//! Analytical hardware cost model.
//!
//! The paper's latency results come from an RTX 4090 + 2×Xeon 6330 + PCIe 1.0
//! x16 testbed. We replace the silicon with an analytical model: device
//! throughputs are parameters, and operation durations are derived from
//! first-principles FLOP/byte counts (the same counts as the paper's §3.2
//! complexity analysis). Latency *shapes* — what scales linearly vs
//! quadratically with `s`, what overlaps with what — are then faithful even
//! though absolute numbers are synthetic.

use serde::{Deserialize, Serialize};

/// Shape of a transformer model, for memory/FLOP accounting.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct ModelShape {
    /// Transformer layer count.
    pub n_layers: usize,
    /// Hidden dimension `d`.
    pub d_model: usize,
    /// Query head count `h`.
    pub n_heads: usize,
    /// Key/value head count `h_kv` (GQA).
    pub n_kv_heads: usize,
    /// Per-head dimension `d_h`.
    pub head_dim: usize,
    /// FFN inner dimension.
    pub ffn_dim: usize,
}

impl ModelShape {
    /// Llama-2-7B-like shape (used by Fig. 1's "7B" series).
    pub fn llama_7b() -> Self {
        Self { n_layers: 32, d_model: 4096, n_heads: 32, n_kv_heads: 32, head_dim: 128, ffn_dim: 11008 }
    }

    /// Llama-2-13B-like shape.
    pub fn llama_13b() -> Self {
        Self { n_layers: 40, d_model: 5120, n_heads: 40, n_kv_heads: 40, head_dim: 128, ffn_dim: 13824 }
    }

    /// Llama-3.1-8B-like shape (GQA, h_kv = 8) — the paper's main model.
    pub fn llama3_8b() -> Self {
        Self { n_layers: 32, d_model: 4096, n_heads: 32, n_kv_heads: 8, head_dim: 128, ffn_dim: 14336 }
    }

    /// KVCache bytes for `batch` sequences of length `seq_len` at
    /// `bytes_per_elem` precision: `2 (K and V) · L · s · h_kv · d_h · n`.
    pub fn kvcache_bytes(&self, batch: usize, seq_len: usize, bytes_per_elem: usize) -> u64 {
        2u64 * self.n_layers as u64
            * seq_len as u64
            * self.n_kv_heads as u64
            * self.head_dim as u64
            * batch as u64
            * bytes_per_elem as u64
    }

    /// Per-layer K+V bytes for one sequence (FP16 accounting).
    pub fn layer_kv_bytes(&self, seq_len: usize) -> u64 {
        2u64 * seq_len as u64 * self.n_kv_heads as u64 * self.head_dim as u64 * 2
    }

    /// Forward FLOPs of one layer during prefill over `s` tokens:
    /// projections + attention (O(s²)) + FFN.
    pub fn prefill_layer_flops(&self, s: u64) -> u64 {
        let d = self.d_model as u64;
        let dh = self.head_dim as u64;
        let h = self.n_heads as u64;
        let hkv = self.n_kv_heads as u64;
        let ff = self.ffn_dim as u64;
        let proj = 2 * s * d * (h * dh + 2 * hkv * dh + d); // Wq, Wk, Wv, Wo
        let attn = 2 * 2 * h * s * s * dh; // QK^T and AV, causal ~ /2 but keep full for headroom
        let ffn = 2 * 2 * s * d * ff;
        proj + attn + ffn
    }

    /// Forward FLOPs of one layer during decode with `k` attended tokens.
    pub fn decode_layer_flops(&self, k: u64) -> u64 {
        let d = self.d_model as u64;
        let dh = self.head_dim as u64;
        let h = self.n_heads as u64;
        let hkv = self.n_kv_heads as u64;
        let ff = self.ffn_dim as u64;
        let proj = 2 * d * (h * dh + 2 * hkv * dh + d);
        let attn = 2 * 2 * h * k * dh;
        let ffn = 2 * 2 * d * ff;
        proj + attn + ffn
    }
}

/// Interconnect + device throughput parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostModel {
    /// Host↔device bandwidth in bytes/second.
    pub pcie_bw: f64,
    /// Per-transfer fixed latency in seconds.
    pub pcie_latency: f64,
    /// Sustained GPU throughput in FLOP/s (already derated for MFU).
    pub gpu_flops: f64,
    /// Fixed kernel-launch style overhead per layer per phase, seconds.
    pub gpu_layer_overhead: f64,
    /// CPU K-Means throughput in FLOP/s *per clustering worker*.
    pub cpu_worker_flops: f64,
    /// Number of parallel clustering workers (paper: m·h_kv processes × 4
    /// threads on 2×Xeon 6330).
    pub cpu_workers: usize,
    /// Fixed per-K-Means-job setup cost, seconds.
    pub kmeans_setup: f64,
}

impl CostModel {
    /// Paper testbed: RTX 4090 (82 TFLOPs FP16, ~45% MFU), PCIe 1.0 x16
    /// (4 GB/s), 2×Xeon 6330.
    pub fn paper_testbed() -> Self {
        Self {
            pcie_bw: 4.0e9,
            pcie_latency: 15e-6,
            gpu_flops: 82e12 * 0.45,
            gpu_layer_overhead: 40e-6,
            cpu_worker_flops: 12e9,
            cpu_workers: 32,
            kmeans_setup: 300e-6,
        }
    }

    /// PCIe Gen 5 x16 (~64 GB/s) variant, used by Fig. 1's transfer-latency
    /// series.
    pub fn pcie_gen5() -> Self {
        Self { pcie_bw: 64.0e9, ..Self::paper_testbed() }
    }

    /// Transfer time for `bytes` over the interconnect.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.pcie_latency + bytes as f64 / self.pcie_bw
    }

    /// One-layer prefill compute time for sequence length `s`.
    pub fn prefill_layer_time(&self, shape: &ModelShape, s: usize) -> f64 {
        self.gpu_layer_overhead + shape.prefill_layer_flops(s as u64) as f64 / self.gpu_flops
    }

    /// One-layer decode compute time attending to `k` tokens.
    pub fn decode_layer_time(&self, shape: &ModelShape, k: usize) -> f64 {
        self.gpu_layer_overhead + shape.decode_layer_flops(k as u64) as f64 / self.gpu_flops
    }

    /// K-Means clustering time for one layer's PQ construction:
    /// `h_kv · m` independent jobs of `O(s · d_m · 2^b · T)` FLOPs each,
    /// spread over `cpu_workers` workers.
    pub fn kmeans_layer_time(
        &self,
        shape: &ModelShape,
        s: usize,
        m: usize,
        b: u32,
        iters: usize,
    ) -> f64 {
        let dm = (shape.head_dim / m.max(1)).max(1) as f64;
        let kc = (1u64 << b) as f64;
        // Distance computations dominate: s · k_c · d_m mult-adds per iter.
        let per_job = 2.0 * s as f64 * kc * dm * iters.max(1) as f64;
        let jobs = (shape.n_kv_heads * m) as f64;
        let waves = (jobs / self.cpu_workers as f64).ceil();
        self.kmeans_setup + waves * per_job / self.cpu_worker_flops
    }

    /// Quadratic-fit coefficients `(α₂, β₂, γ₂)` of the prefill layer time —
    /// closed form, since the model is already polynomial in `s`.
    pub fn prefill_coefficients(&self, shape: &ModelShape) -> (f64, f64, f64) {
        let d = shape.d_model as f64;
        let dh = shape.head_dim as f64;
        let h = shape.n_heads as f64;
        let hkv = shape.n_kv_heads as f64;
        let ff = shape.ffn_dim as f64;
        let beta = (2.0 * d * (h * dh + 2.0 * hkv * dh + d) + 4.0 * d * ff) / self.gpu_flops;
        let gamma = 4.0 * h * dh / self.gpu_flops;
        (self.gpu_layer_overhead, beta, gamma)
    }

    /// Linear-fit coefficients `(α₁, β₁)` of per-layer K-Means time as a
    /// function of `s·T`.
    pub fn kmeans_coefficients(&self, shape: &ModelShape, m: usize, b: u32) -> (f64, f64) {
        let dm = (shape.head_dim / m.max(1)).max(1) as f64;
        let kc = (1u64 << b) as f64;
        let jobs = (shape.n_kv_heads * m) as f64;
        let waves = (jobs / self.cpu_workers as f64).ceil();
        let beta = waves * 2.0 * kc * dm / self.cpu_worker_flops;
        (self.kmeans_setup, beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_magnitudes_match_paper() {
        // Paper intro: a 7B-class model at 128K tokens, batch 128, produces
        // on the order of a terabyte of KVCache — far beyond the 640 GB of
        // an 8×A100 node. GQA (h_kv=8) shape gives ~2.2 TB; the operative
        // claim ("exceeds single-node GPU memory") must hold with margin.
        let shape = ModelShape::llama3_8b();
        let bytes = shape.kvcache_bytes(128, 128 * 1024, 2);
        let tb = bytes as f64 / 1e12;
        assert!((1.0..4.0).contains(&tb), "got {tb} TB");
        assert!(bytes > 640 * (1u64 << 30), "must exceed 8xA100 memory");
        // Per-sample at 128K: tens of GB — matches Fig. 1's y-axis range.
        let per_sample = shape.kvcache_bytes(1, 128 * 1024, 2) as f64 / 1e9;
        assert!((10.0..40.0).contains(&per_sample), "{per_sample} GB");
    }

    #[test]
    fn gqa_shrinks_kvcache() {
        let mha = ModelShape::llama_7b();
        let gqa = ModelShape::llama3_8b();
        let a = mha.kvcache_bytes(1, 4096, 2);
        let b = gqa.kvcache_bytes(1, 4096, 2);
        assert_eq!(a / b, 4); // 32 kv heads vs 8
    }

    #[test]
    fn transfer_time_monotone_and_latency_bound() {
        let cm = CostModel::paper_testbed();
        assert_eq!(cm.transfer_time(0), 0.0);
        let t1 = cm.transfer_time(1);
        let t2 = cm.transfer_time(1 << 30);
        assert!(t1 >= cm.pcie_latency);
        assert!(t2 > t1);
        // 1 GiB over 4 GB/s ≈ 0.27 s.
        assert!((0.2..0.4).contains(&t2), "t2 {t2}");
    }

    #[test]
    fn gen5_faster_than_gen1() {
        let g1 = CostModel::paper_testbed();
        let g5 = CostModel::pcie_gen5();
        assert!(g5.transfer_time(1 << 30) < g1.transfer_time(1 << 30) / 10.0);
    }

    #[test]
    fn prefill_time_superlinear_decode_linear() {
        let cm = CostModel::paper_testbed();
        let shape = ModelShape::llama3_8b();
        let p1 = cm.prefill_layer_time(&shape, 8_000);
        let p2 = cm.prefill_layer_time(&shape, 64_000);
        // 8x tokens must cost more than 8x time (attention quadratic term).
        assert!(p2 > 8.0 * p1, "p1={p1} p2={p2}");

        let d1 = cm.decode_layer_time(&shape, 1_000);
        let d2 = cm.decode_layer_time(&shape, 8_000);
        assert!(d2 < 8.0 * d1, "decode should be sub-linear-dominated");
        assert!(d2 > d1);
    }

    #[test]
    fn prefill_coefficients_reproduce_model() {
        let cm = CostModel::paper_testbed();
        let shape = ModelShape::llama3_8b();
        let (a, b, g) = cm.prefill_coefficients(&shape);
        for &s in &[1024usize, 16 * 1024, 128 * 1024] {
            let direct = cm.prefill_layer_time(&shape, s);
            let poly = a + b * s as f64 + g * (s as f64) * (s as f64);
            assert!(
                (direct - poly).abs() < 1e-9 + direct * 1e-6,
                "s={s}: {direct} vs {poly}"
            );
        }
    }

    #[test]
    fn kmeans_coefficients_reproduce_model() {
        let cm = CostModel::paper_testbed();
        let shape = ModelShape::llama3_8b();
        let (a, b) = cm.kmeans_coefficients(&shape, 2, 6);
        for &(s, t) in &[(4096usize, 5usize), (65536, 20)] {
            let direct = cm.kmeans_layer_time(&shape, s, 2, 6, t);
            let lin = a + b * (s * t) as f64;
            assert!(
                (direct - lin).abs() < 1e-9 + direct * 1e-6,
                "s={s} t={t}: {direct} vs {lin}"
            );
        }
    }

    #[test]
    fn fig8_crossover_exists() {
        // Paper Fig. 8: at short sequences clustering exceeds one-layer GPU
        // compute; at long sequences compute dominates. Our model must show
        // the same crossover somewhere in a plausible range.
        let cm = CostModel::paper_testbed();
        let shape = ModelShape::llama3_8b();
        let iters = 20;
        let short = 2_000;
        let long = 128_000;
        assert!(
            cm.kmeans_layer_time(&shape, short, 2, 6, iters)
                > cm.prefill_layer_time(&shape, short),
            "clustering should dominate at short s"
        );
        assert!(
            cm.kmeans_layer_time(&shape, long, 2, 6, iters)
                < cm.prefill_layer_time(&shape, long),
            "compute should dominate at long s"
        );
    }
}
