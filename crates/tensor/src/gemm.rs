//! Packed, register-blocked, rayon-parallel single-precision GEMM.
//!
//! This is the workhorse behind the fully-connected layers and the im2col
//! convolution, organized BLIS-style:
//!
//! * `A` is packed into row-panels of `MR` rows and `B` into column-panels
//!   of `NR` columns (k-major inside each panel), once per call — not per
//!   k-tile — into thread-local [`crate::scratch`] buffers, so the inner
//!   loop reads both operands with unit stride and steady-state calls make
//!   no heap allocations.
//! * An `MR×NR` register tile (6×16 for full-size problems — 12 ymm
//!   accumulators under AVX2, narrowed for skinny ones) accumulates over
//!   the whole `k` extent with one `mul_add` per element and no
//!   data-dependent branches; LLVM autovectorizes the `NR`-wide inner loop
//!   to FMA lanes (the workspace builds with `target-cpu=native`, see
//!   `.cargo/config.toml`).
//! * The write-back applies a fused [`Epilogue`] — overwrite, accumulate,
//!   or bias (+ optional ReLU), broadcast over rows or columns — so callers
//!   like the fully-connected forward pass no longer make a second sweep
//!   over `C`.
//! * Transposed variants ([`gemm_at`], [`gemm_bt`]) pack straight from the
//!   transposed layout, so backward passes never materialize `Aᵀ`/`Bᵀ`.
//!
//! Skinny products (`m` at most [`SKINNY_M`] — a fully-connected layer at
//! batch 1–32) run a column-parallel driver instead: the pool splits `C`
//! into disjoint `NC`-column blocks, and each task reads its slice of `B`
//! once, in `KC×NC` blocks packed into an L2-resident buffer, while every
//! `MR`-row panel of the packed `A` consumes it — one load of each `B`
//! element per `MR` rows, not per row. Partial sums are stored as f32
//! between `k`-blocks, so each accumulator still continues one chain. At
//! `m = 1` with row-major `B` nothing is packed: each task streams whole
//! contiguous row segments of `b` into an L1-resident accumulator.
//!
//! The large-`m` path splits `C` into disjoint `MC`-row blocks (each block
//! is written by exactly one rayon task). On every path each output
//! element is a single fused-multiply-add chain over `p = 0..k` in
//! ascending order, regardless of the tile shape, code path, or thread
//! count — which is what keeps parallel runs bit-identical to sequential
//! ones and the skinny path bit-identical to the tiled one. (The retained
//! [`gemm_legacy`] baseline uses separate mul+add, so it agrees with the
//! packed kernel only to rounding, not to the bit.)

use crate::scratch;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Rows per A micro-panel at full size. 6 rows × 16 columns is 12 ymm
/// accumulators — with the B row (2) and the A broadcast (1) that is 15 of
/// the 16 AVX2 registers, and 12 independent FMA chains comfortably covers
/// the latency×throughput product of the FMA units.
const MR_MAX: usize = 6;
/// Columns per B micro-panel at full size (two 8-lane vectors).
const NR_MAX: usize = 16;
/// Rows of `C` per parallel task (a multiple of every selectable `MR`).
const MC: usize = 60;
/// `m` at or below which the skinny column-parallel driver runs instead of
/// the `MC`-row split (which would leave one task for the whole product).
const SKINNY_M: usize = 32;
/// `(KC, NC)` of the skinny driver for row-major `B`: each task owns up to
/// `NC` columns of `C` (a multiple of every selectable `NR`) and packs `B` in
/// `KC×NC` blocks. A block is 64 Ki floats (256 KB, L2-resident between
/// packing and use), shaped so packing reads `b` in 4 KB row segments —
/// short segments cut the streaming rate of the memory-bound read of `B`.
const BLOCK_ROWS: (usize, usize) = (64, 1024);
/// `(KC, NC)` for transposed `B`, where packing reads `KC`-float runs along
/// each stored row of `b`: the same 256 KB, shaped tall instead.
const BLOCK_TRANS: (usize, usize) = (512, 128);
/// Shortest row segment per task of a one-row product.
const MIN_STREAM: usize = 256;
/// `m·n·k` below which the block loop runs inline (scheduling would
/// dominate). The parallel and sequential paths run identical code.
const PAR_WORK: usize = 1 << 16;

/// Whether an operand is stored transposed.
///
/// `gemm`-family entry points take matrices in row-major storage; `Yes`
/// means the buffer holds the transpose of the operand (so `op(A)[i][p]`
/// reads `a[p*m + i]`), and the packing routines absorb the transpose —
/// no intermediate buffer is ever materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Operand stored as written in the product.
    No,
    /// Buffer holds the operand's transpose.
    Yes,
}

/// Fused write-back applied as each register tile leaves the accumulators.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// `C = A·B`.
    Store,
    /// `C += A·B`.
    Accumulate,
    /// `C = A·B + bias[j]` — bias broadcast over rows (fully-connected
    /// layers; `bias` has length `n`).
    BiasCols(&'a [f32]),
    /// [`Epilogue::BiasCols`] followed by `max(0, ·)`.
    BiasColsRelu(&'a [f32]),
    /// `C = A·B + bias[i]` — bias broadcast over columns (convolution
    /// output channels; `bias` has length `m`).
    BiasRows(&'a [f32]),
    /// [`Epilogue::BiasRows`] followed by `max(0, ·)`.
    BiasRowsRelu(&'a [f32]),
}

impl Epilogue<'_> {
    fn check(&self, m: usize, n: usize) {
        match self {
            Epilogue::BiasCols(b) | Epilogue::BiasColsRelu(b) => {
                assert_eq!(b.len(), n, "column bias length {} != n {n}", b.len());
            }
            Epilogue::BiasRows(b) | Epilogue::BiasRowsRelu(b) => {
                assert_eq!(b.len(), m, "row bias length {} != m {m}", b.len());
            }
            Epilogue::Store | Epilogue::Accumulate => {}
        }
    }
}

/// Micro-panel height for an `m`-row problem: full 6 when there is enough
/// work to fill the tile, narrowed so a skinny GEMM does not burn the FLOPs
/// on padding.
fn select_mr(m: usize) -> usize {
    if m >= MR_MAX {
        MR_MAX
    } else if m >= 4 {
        4
    } else if m >= 2 {
        2
    } else {
        1
    }
}

/// Micro-panel height of the skinny driver: [`select_mr`], except that a
/// batch 4-row panels tile exactly and 6-row panels do not (8, 20, 32)
/// takes 4 — at `m ≤ SKINNY_M` the padding rows would be a large share of
/// the work.
fn skinny_mr(m: usize) -> usize {
    if !m.is_multiple_of(MR_MAX) && m.is_multiple_of(4) {
        4
    } else {
        select_mr(m)
    }
}

/// Micro-panel width for an `n`-column problem (see [`select_mr`]).
fn select_nr(n: usize) -> usize {
    if n >= NR_MAX {
        NR_MAX
    } else if n >= 8 {
        8
    } else if n >= 2 {
        4
    } else {
        1
    }
}

// ----------------------------------------------------------------- packing

/// Packs `op(A)` (`m×k` logical) into row-panels of `mr` rows, k-major
/// within each panel: element `(p, ii)` of panel `pi` lands at
/// `pi·mr·k + p·mr + ii`. `out` must be zeroed (ragged panels stay padded).
fn pack_lhs(a: &[f32], ta: Trans, m: usize, k: usize, mr: usize, out: &mut [f32]) {
    if k == 0 {
        return; // zero-extent panels; the epilogue still runs on write-back
    }
    match ta {
        Trans::No => {
            for (pi, panel) in out.chunks_mut(mr * k).enumerate() {
                let i0 = pi * mr;
                let rows = mr.min(m - i0);
                for ii in 0..rows {
                    let src = &a[(i0 + ii) * k..(i0 + ii + 1) * k];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * mr + ii] = v;
                    }
                }
            }
        }
        Trans::Yes => {
            // `a` stores Aᵀ: `op(A)[i][p] = a[p*m + i]`, so each source row
            // of `a` is contiguous in `ii` and copies as a slice.
            for (pi, panel) in out.chunks_mut(mr * k).enumerate() {
                let i0 = pi * mr;
                let rows = mr.min(m - i0);
                for p in 0..k {
                    let src = &a[p * m + i0..p * m + i0 + rows];
                    panel[p * mr..p * mr + rows].copy_from_slice(src);
                }
            }
        }
    }
}

/// Packs the `kc×cols` block of `op(B)` (`k×n` logical) starting at row
/// `kb` and column `j0` into column-panels of `nr` columns, k-major within
/// each panel: element `(p, jj)` of panel `pj` lands at
/// `pj·nr·kc + p·nr + jj`. `out` holds exactly `⌈cols/nr⌉·nr·kc` elements;
/// the padding lanes of a ragged last panel are zeroed.
#[allow(clippy::too_many_arguments)]
fn pack_rhs(
    b: &[f32],
    tb: Trans,
    k: usize,
    n: usize,
    (kb, kc): (usize, usize),
    (j0, cols): (usize, usize),
    nr: usize,
    out: &mut [f32],
) {
    if kc == 0 {
        return;
    }
    for (pj, panel) in out.chunks_mut(nr * kc).enumerate() {
        let c0 = j0 + pj * nr;
        let w = nr.min(j0 + cols - c0);
        match tb {
            Trans::No => {
                for p in 0..kc {
                    let src = &b[(kb + p) * n + c0..][..w];
                    panel[p * nr..p * nr + w].copy_from_slice(src);
                }
            }
            Trans::Yes => {
                // `b` stores Bᵀ: `op(B)[p][j] = b[j*k + p]`.
                for jj in 0..w {
                    let src = &b[(c0 + jj) * k + kb..][..kc];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * nr + jj] = v;
                    }
                }
            }
        }
        if w < nr {
            for p in 0..kc {
                panel[p * nr + w..(p + 1) * nr].fill(0.0);
            }
        }
    }
}

/// `A` pre-packed for reuse across many [`gemm_packed`] calls.
///
/// `conv2d` packs its weight matrix once per layer invocation and shares it
/// (read-only) across every sample's im2col GEMM instead of re-packing per
/// sample. The panel buffer is borrowed from the packing thread's scratch
/// pool and returned on drop.
pub struct PackedLhs {
    buf: Vec<f32>,
    m: usize,
    k: usize,
    mr: usize,
}

impl PackedLhs {
    /// Packs `op(A)` with logical shape `m×k` (`a` holds `k×m` storage when
    /// `ta` is [`Trans::Yes`]).
    pub fn pack(a: &[f32], ta: Trans, m: usize, k: usize) -> PackedLhs {
        PackedLhs::with_mr(a, ta, m, k, select_mr(m.max(1)))
    }

    /// [`PackedLhs::pack`] into panels of `mr` rows.
    fn with_mr(a: &[f32], ta: Trans, m: usize, k: usize, mr: usize) -> PackedLhs {
        check_len("A", a.len(), m * k);
        let mut buf = scratch::take(m.div_ceil(mr) * mr * k);
        pack_lhs(a, ta, m, k, mr, &mut buf);
        PackedLhs { buf, m, k, mr }
    }

    /// Logical row count of the packed operand.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Shared (inner) dimension of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Drop for PackedLhs {
    fn drop(&mut self) {
        scratch::release(std::mem::take(&mut self.buf));
    }
}

// ------------------------------------------------------------ micro-kernel

/// Expands to a call of `$f::<MR, NR>` for the runtime tile `($mr, $nr)`.
macro_rules! with_tile {
    ($tile:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $tile {
            (6, 16) => $f::<6, 16>($($arg),*),
            (6, 8) => $f::<6, 8>($($arg),*),
            (6, 4) => $f::<6, 4>($($arg),*),
            (6, 1) => $f::<6, 1>($($arg),*),
            (4, 16) => $f::<4, 16>($($arg),*),
            (4, 8) => $f::<4, 8>($($arg),*),
            (4, 4) => $f::<4, 4>($($arg),*),
            (4, 1) => $f::<4, 1>($($arg),*),
            (2, 16) => $f::<2, 16>($($arg),*),
            (2, 8) => $f::<2, 8>($($arg),*),
            (2, 4) => $f::<2, 4>($($arg),*),
            (2, 1) => $f::<2, 1>($($arg),*),
            (1, 16) => $f::<1, 16>($($arg),*),
            (1, 8) => $f::<1, 8>($($arg),*),
            (1, 4) => $f::<1, 4>($($arg),*),
            (1, 1) => $f::<1, 1>($($arg),*),
            (mr, nr) => unreachable!("unsupported tile {mr}x{nr}"),
        }
    };
}

/// Continues the `MR×NR` accumulator tile over `kdim` steps of a packed
/// A panel and B panel: one `mul_add` per element per step, `p` ascending —
/// one fused chain per output element, independent of tile shape, block
/// size and thread count, which is the invariant behind the
/// bit-determinism guarantee.
#[inline(always)]
fn fma_tile<const MR: usize, const NR: usize>(
    apanel: &[f32],
    bpanel: &[f32],
    kdim: usize,
    acc: &mut [[f32; NR]; MR],
) {
    for p in 0..kdim {
        let ar = &apanel[p * MR..p * MR + MR];
        let br = &bpanel[p * NR..p * NR + NR];
        for i in 0..MR {
            let ai = ar[i];
            for j in 0..NR {
                acc[i][j] = ai.mul_add(br[j], acc[i][j]);
            }
        }
    }
}

/// Writes one row segment of finished sums `acc` into `crow` through the
/// epilogue; `gi` is the segment's row and `j0` its first column in `C`.
#[inline(always)]
fn write_back(ep: Epilogue<'_>, crow: &mut [f32], acc: &[f32], gi: usize, j0: usize) {
    let relu = |y: f32| if y > 0.0 { y } else { 0.0 };
    match ep {
        Epilogue::Store => crow.copy_from_slice(&acc[..crow.len()]),
        Epilogue::Accumulate => {
            for (c, &v) in crow.iter_mut().zip(acc) {
                *c += v;
            }
        }
        Epilogue::BiasCols(bias) => {
            for ((c, &v), &b) in crow.iter_mut().zip(acc).zip(&bias[j0..]) {
                *c = v + b;
            }
        }
        Epilogue::BiasColsRelu(bias) => {
            for ((c, &v), &b) in crow.iter_mut().zip(acc).zip(&bias[j0..]) {
                *c = relu(v + b);
            }
        }
        Epilogue::BiasRows(bias) => {
            for (c, &v) in crow.iter_mut().zip(acc) {
                *c = v + bias[gi];
            }
        }
        Epilogue::BiasRowsRelu(bias) => {
            for (c, &v) in crow.iter_mut().zip(acc) {
                *c = relu(v + bias[gi]);
            }
        }
    }
}

/// Computes one `MR×NR` register tile over the full `k` extent and writes
/// it back through the epilogue, masking the ragged edge.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_tile<const MR: usize, const NR: usize>(
    apanel: &[f32],
    bpanel: &[f32],
    kdim: usize,
    c_rows: &mut [f32],
    row0: usize,
    gi: usize,
    j0: usize,
    m_rem: usize,
    n_rem: usize,
    n: usize,
    ep: Epilogue<'_>,
) {
    let mut acc = [[0.0f32; NR]; MR];
    fma_tile::<MR, NR>(apanel, bpanel, kdim, &mut acc);
    for (i, acc_row) in acc.iter().enumerate().take(m_rem) {
        let crow = &mut c_rows[(row0 + i) * n + j0..(row0 + i) * n + j0 + n_rem];
        write_back(ep, crow, acc_row, gi + i, j0);
    }
}

/// Runs every micro-tile of one `MC`-row block of `C`.
#[allow(clippy::too_many_arguments)]
fn block<const MR: usize, const NR: usize>(
    apack: &[f32],
    bpack: &[f32],
    c_rows: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    n: usize,
    ep: Epilogue<'_>,
) {
    for ip in (i0..i1).step_by(MR) {
        let apanel = &apack[(ip / MR) * MR * k..(ip / MR + 1) * MR * k];
        let m_rem = MR.min(i1 - ip);
        for jp in (0..n).step_by(NR) {
            let bpanel = &bpack[(jp / NR) * NR * k..(jp / NR + 1) * NR * k];
            let n_rem = NR.min(n - jp);
            micro_tile::<MR, NR>(
                apanel,
                bpanel,
                k,
                c_rows,
                ip - i0,
                ip,
                jp,
                m_rem,
                n_rem,
                n,
                ep,
            );
        }
    }
}

/// `C[m×n] = op(A)·B'` against a pre-packed left operand, `B'` packed here
/// from `b` (transposed when `tb` says so), with a fused epilogue.
pub fn gemm_packed(pa: &PackedLhs, b: &[f32], tb: Trans, c: &mut [f32], n: usize, ep: Epilogue) {
    let (m, k) = (pa.m, pa.k);
    check_len("B", b.len(), k * n);
    check_len("C", c.len(), m * n);
    ep.check(m, n);
    if m == 0 || n == 0 {
        return;
    }
    let nr = select_nr(n);
    let mut bpack = scratch::take(n.div_ceil(nr) * nr * k);
    pack_rhs(b, tb, k, n, (0, k), (0, n), nr, &mut bpack);
    let tile = (pa.mr, nr);
    let (apack, bpack_ref) = (&pa.buf, &bpack);
    let run = |blk: usize, c_blk: &mut [f32]| {
        let (i0, i1) = (blk * MC, (blk * MC + MC).min(m));
        with_tile!(tile, block(apack, bpack_ref, c_blk, i0, i1, k, n, ep));
    };
    if m * n * k < PAR_WORK {
        c.chunks_mut(MC * n)
            .enumerate()
            .for_each(|(i, c)| run(i, c));
    } else {
        c.par_chunks_mut(MC * n)
            .enumerate()
            .for_each(|(i, c)| run(i, c));
    }
    scratch::release(bpack);
}

// ---------------------------------------------------------- skinny driver

/// Continues one column block of a skinny product by `kc` steps: `acc`
/// holds the `MR×NR` tile's f32 partial sums (row stride `ld`), which are
/// loaded, extended and stored back, so splitting `k` into blocks leaves
/// each element's `mul_add` chain unchanged.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn skinny_tile<const MR: usize, const NR: usize>(
    apanel: &[f32],
    bpanel: &[f32],
    kc: usize,
    acc: &mut [f32],
    ld: usize,
    m_rem: usize,
    n_rem: usize,
) {
    let mut t = [[0.0f32; NR]; MR];
    for (i, row) in t.iter_mut().enumerate().take(m_rem) {
        row[..n_rem].copy_from_slice(&acc[i * ld..i * ld + n_rem]);
    }
    fma_tile::<MR, NR>(apanel, bpanel, kc, &mut t);
    for (i, row) in t.iter().enumerate().take(m_rem) {
        acc[i * ld..i * ld + n_rem].copy_from_slice(&row[..n_rem]);
    }
}

/// Accumulates the `m×cols` column block of `C` at column `j0` into `acc`
/// (row stride `ld`): `B` is read in `kc_max×cols` blocks, packed into a
/// thread-local buffer, and each `kc×NR` panel stays in L1 while every
/// row panel of `apack` consumes it.
#[allow(clippy::too_many_arguments)]
fn skinny_block<const MR: usize, const NR: usize>(
    apack: &[f32],
    b: &[f32],
    tb: Trans,
    (m, k, n): (usize, usize, usize),
    (kc_max, ld): (usize, usize),
    j0: usize,
    cols: usize,
    acc: &mut [f32],
) {
    let panels = cols.div_ceil(NR);
    let mut bpack = scratch::take(panels * NR * kc_max.min(k));
    for kb in (0..k).step_by(kc_max) {
        let kc = kc_max.min(k - kb);
        let bblock = &mut bpack[..panels * NR * kc];
        pack_rhs(b, tb, k, n, (kb, kc), (j0, cols), NR, bblock);
        for (pj, bpanel) in bblock.chunks(NR * kc).enumerate() {
            let jp = pj * NR;
            for ip in (0..m).step_by(MR) {
                let apanel = &apack[ip * k + kb * MR..][..MR * kc];
                skinny_tile::<MR, NR>(
                    apanel,
                    bpanel,
                    kc,
                    &mut acc[ip * ld + jp..],
                    ld,
                    MR.min(m - ip),
                    NR.min(cols - jp),
                );
            }
        }
    }
    scratch::release(bpack);
}

/// Accumulates `acc[j] += Σ_p a[p]·b[p][j0 + j]` for a one-row product:
/// whole contiguous row segments of the row-major `b` stream through an
/// L1-resident accumulator, and nothing is packed.
fn stream_block(a: &[f32], b: &[f32], n: usize, j0: usize, acc: &mut [f32]) {
    for (p, &ap) in a.iter().enumerate() {
        let brow = &b[p * n + j0..][..acc.len()];
        for (s, &bv) in acc.iter_mut().zip(brow) {
            *s = ap.mul_add(bv, *s);
        }
    }
}

/// The skinny-product driver (`m ≤ SKINNY_M`): splits `C` into column
/// blocks run as parallel tasks, each accumulating its block's f32 sums in
/// its own slice of a staging buffer, then applies the epilogue in one
/// pass. A one-row product with row-major `B` streams `b` unpacked
/// ([`stream_block`]); anything else packs `A` once into `MR`-row panels and
/// `B` per block ([`skinny_block`]), which also absorbs a transposed `B`.
#[allow(clippy::too_many_arguments)]
fn gemm_skinny(
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    ep: Epilogue<'_>,
) {
    if m == 0 || n == 0 {
        return;
    }
    // At m = 1, `a` holds the same k values under either layout.
    let mr = skinny_mr(m);
    let pa = (m > 1 || tb == Trans::Yes).then(|| PackedLhs::with_mr(a, ta, m, k, mr));
    // Blocks narrow to give every worker one when `n` is small. A one-row
    // product is bound by reading `b`, fastest in the longest contiguous
    // row segments, so it gets exactly one block per worker. Every element
    // is computed the same way under any split.
    let per_worker = n
        .div_ceil(rayon::current_num_threads())
        .next_multiple_of(NR_MAX);
    let (kc, nc) = match (&pa, tb) {
        (None, _) => (k, per_worker.max(MIN_STREAM)),
        (Some(_), Trans::No) => (BLOCK_ROWS.0, BLOCK_ROWS.1.min(per_worker)),
        (Some(_), Trans::Yes) => (BLOCK_TRANS.0, BLOCK_TRANS.1.min(per_worker)),
    };
    // A product narrower than one block is a single block of `n` columns.
    let nc = nc.min(n);
    let tile = (mr, select_nr(n));
    let run = |blk: usize, acc: &mut [f32]| {
        let j0 = blk * nc;
        let cols = nc.min(n - j0);
        match &pa {
            Some(pa) => with_tile!(
                tile,
                skinny_block(&pa.buf, b, tb, (m, k, n), (kc, nc), j0, cols, acc)
            ),
            None => stream_block(a, b, n, j0, &mut acc[..cols]),
        }
    };
    let mut staging = scratch::take(n.div_ceil(nc) * m * nc);
    if m * n * k < PAR_WORK {
        staging
            .chunks_mut(m * nc)
            .enumerate()
            .for_each(|(i, s)| run(i, s));
    } else {
        staging
            .par_chunks_mut(m * nc)
            .enumerate()
            .for_each(|(i, s)| run(i, s));
    }
    for (blk, acc) in staging.chunks(m * nc).enumerate() {
        let j0 = blk * nc;
        let cols = nc.min(n - j0);
        for i in 0..m {
            write_back(ep, &mut c[i * n + j0..][..cols], &acc[i * nc..], i, j0);
        }
    }
    scratch::release(staging);
}

/// Panics with the operand name unless a buffer has the length its
/// dimensions imply.
fn check_len(what: &str, len: usize, want: usize) {
    assert_eq!(len, want, "{what} buffer is {len} but expected {want}");
}

/// General packed GEMM: `C[m×n] ←(ep) op(A)·op(B)` where `a` stores `A`
/// (`m×k`, or `k×m` when `ta` = [`Trans::Yes`]) and `b` stores `B` (`k×n`,
/// or `n×k` when `tb` = [`Trans::Yes`]).
#[allow(clippy::too_many_arguments)]
pub fn gemm_ep(
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue,
) {
    let _span = dcd_obs::span("gemm", dcd_obs::Category::Gemm);
    dcd_obs::counter!("gemm.flops").add(2 * (m * k * n) as u64);
    if m <= SKINNY_M {
        check_len("A", a.len(), m * k);
        check_len("B", b.len(), k * n);
        check_len("C", c.len(), m * n);
        ep.check(m, n);
        gemm_skinny(a, ta, b, tb, c, (m, k, n), ep);
        return;
    }
    let pa = PackedLhs::pack(a, ta, m, k);
    gemm_packed(&pa, b, tb, c, n, ep);
}

// ---------------------------------------------------------- entry points

/// `C = A (m×k) · B (k×n)` into a freshly allocated row-major buffer.
///
/// Slices are raw row-major matrices; see [`matmul`] for the [`Tensor`]
/// wrapper.
pub fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_ep(a, Trans::No, b, Trans::No, &mut c, m, k, n, Epilogue::Store);
    c
}

/// `C = A·B` overwriting an existing buffer (no zeroing pre-pass — the
/// packed kernel stores every element exactly once).
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_ep(a, Trans::No, b, Trans::No, c, m, k, n, Epilogue::Store);
}

/// `C += A·B` accumulated into an existing buffer.
pub fn gemm_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_ep(a, Trans::No, b, Trans::No, c, m, k, n, Epilogue::Accumulate);
}

/// `C = A·B + bias` where `bias` (length `n`) is broadcast over rows — the
/// fully-connected forward pass, bias fused into the tile write-back
/// instead of a second sweep over `C`.
pub fn gemm_bias(a: &[f32], b: &[f32], bias: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_ep(
        a,
        Trans::No,
        b,
        Trans::No,
        &mut c,
        m,
        k,
        n,
        Epilogue::BiasCols(bias),
    );
    c
}

/// [`gemm_bias`] with a fused `max(0, ·)` — the inference fast path for
/// `Linear → ReLU`, skipping the separate mask pass entirely.
pub fn gemm_bias_relu(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_ep(
        a,
        Trans::No,
        b,
        Trans::No,
        &mut c,
        m,
        k,
        n,
        Epilogue::BiasColsRelu(bias),
    );
    c
}

/// `C[m×n] = Aᵀ·B` where `a` holds `A` in `k×m` storage — e.g. the
/// fully-connected weight gradient `xᵀ·∂y` without materializing `xᵀ`.
pub fn gemm_at(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_ep(
        a,
        Trans::Yes,
        b,
        Trans::No,
        &mut c,
        m,
        k,
        n,
        Epilogue::Store,
    );
    c
}

/// `C[m×n] = A·Bᵀ` where `b` holds `B` in `n×k` storage — e.g. the
/// fully-connected input gradient `∂y·Wᵀ` without materializing `Wᵀ`.
pub fn gemm_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_ep(
        a,
        Trans::No,
        b,
        Trans::Yes,
        &mut c,
        m,
        k,
        n,
        Epilogue::Store,
    );
    c
}

/// `C += A·Bᵀ` (`b` in `n×k` storage) — the convolution weight-gradient
/// accumulation `∂y·colsᵀ` without building the `colsᵀ` buffer.
pub fn gemm_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_ep(
        a,
        Trans::No,
        b,
        Trans::Yes,
        c,
        m,
        k,
        n,
        Epilogue::Accumulate,
    );
}

/// Rank-2 [`Tensor`] matrix product.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().matrix();
    let (k2, n) = b.shape().matrix();
    assert_eq!(k, k2, "matmul inner dims disagree: {k} vs {k2}");
    let c = gemm(a.data(), b.data(), m, k, n);
    Tensor::from_vec([m, n], c).expect("gemm output size")
}

// -------------------------------------------------------------- legacy

/// The pre-packing scalar axpy kernel, kept as the benchmark baseline
/// (`dcd-bench --bin gemm` reports packed-vs-legacy speedups) and as an
/// independent oracle in tests. Not used by any layer.
pub fn gemm_legacy(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0.0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    const KC: usize = 256;
    let legacy_rows = |a: &[f32], c_rows: &mut [f32], i0: usize, i1: usize| {
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            for i in i0..i1 {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c_rows[(i - i0) * n..(i - i0 + 1) * n];
                for p in kb..kend {
                    let aval = a_row[p];
                    if aval == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * n..(p + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                        *cv += aval * bv;
                    }
                }
            }
        }
    };
    if m * n * k < PAR_WORK {
        legacy_rows(a, &mut c, 0, m);
    } else {
        c.par_chunks_mut(32 * n)
            .enumerate()
            .for_each(|(blk, c_blk)| {
                legacy_rows(a, c_blk, blk * 32, (blk * 32 + 32).min(m));
            });
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    /// Naive reference O(mnk) product.
    fn gemm_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] as f64 * b[p * n + j] as f64;
                }
            }
        }
        c.into_iter().map(|x| x as f32).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn identity_matmul() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]).unwrap();
        let eye = Tensor::from_vec([2, 2], vec![1., 0., 0., 1.]).unwrap();
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    fn known_2x3_by_3x2() {
        let a = vec![1., 2., 3., 4., 5., 6.];
        let b = vec![7., 8., 9., 10., 11., 12.];
        let c = gemm(&a, &b, 2, 3, 2);
        assert_eq!(c, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matches_reference_small() {
        let mut rng = SeededRng::new(1);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (7, 4, 9), (16, 16, 16)] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            assert_close(&gemm(&a, &b, m, k, n), &gemm_ref(&a, &b, m, k, n), 1e-5);
        }
    }

    #[test]
    fn matches_reference_parallel_path() {
        // Large enough that the rayon branch engages and multiple row
        // blocks and ragged edge panels are exercised (70 % 8 != 0).
        let (m, k, n) = (70, 300, 50);
        let mut rng = SeededRng::new(2);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        assert_close(&gemm(&a, &b, m, k, n), &gemm_ref(&a, &b, m, k, n), 1e-4);
    }

    #[test]
    fn packed_matches_legacy_closely() {
        // The packed kernel keeps the legacy summation order (single
        // accumulator per element, p ascending) but fuses each multiply-add,
        // so it agrees with the separate-mul-add legacy kernel to rounding.
        let mut rng = SeededRng::new(12);
        for &(m, k, n) in &[(1, 7, 5), (13, 31, 9), (70, 300, 50)] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let packed = gemm(&a, &b, m, k, n);
            let legacy = gemm_legacy(&a, &b, m, k, n);
            assert_close(&packed, &legacy, 1e-5);
        }
    }

    #[test]
    fn skinny_matches_tiled_bitwise() {
        // m ≤ SKINNY_M routes through the column-parallel skinny driver; the
        // tiled kernel run on the same inputs (via a pre-packed LHS, which
        // always tiles) must agree to the bit — both are one fma chain per
        // element. k = 805 spans several KC blocks of either B layout and
        // ends in a ragged one; n is ragged against NR and the column block
        // width of either layout.
        let mut rng = SeededRng::new(14);
        let trans = [Trans::No, Trans::Yes];
        for &m in &[1, 2, 5, 9, 20, 32] {
            for &(k, n) in &[(805, 300), (300, 1100), (1, 3), (0, 5)] {
                let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
                let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
                let c0: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
                let cols: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
                let rows: Vec<f32> = (0..m).map(|_| rng.normal()).collect();
                let eps = [
                    Epilogue::Store,
                    Epilogue::Accumulate,
                    Epilogue::BiasCols(&cols),
                    Epilogue::BiasColsRelu(&cols),
                    Epilogue::BiasRows(&rows),
                    Epilogue::BiasRowsRelu(&rows),
                ];
                for (&ta, &tb, ep) in trans
                    .iter()
                    .flat_map(|ta| trans.iter().map(move |tb| (ta, tb)))
                    .flat_map(|(ta, tb)| eps.iter().map(move |&ep| (ta, tb, ep)))
                {
                    let mut skinny = c0.clone();
                    gemm_ep(&a, ta, &b, tb, &mut skinny, m, k, n, ep);
                    let pa = PackedLhs::pack(&a, ta, m, k);
                    let mut tiled = c0.clone();
                    gemm_packed(&pa, &b, tb, &mut tiled, n, ep);
                    for (i, (s, t)) in skinny.iter().zip(&tiled).enumerate() {
                        assert_eq!(
                            s.to_bits(),
                            t.to_bits(),
                            "{m}x{k}x{n} {ta:?}/{tb:?} {ep:?} element {i}: {s} vs {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![2., 3., 4., 5.];
        let mut c = vec![1.0; 4];
        gemm_acc(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![3., 4., 5., 6.]);
    }

    #[test]
    fn gemm_bias_broadcasts_rows() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![1., 2., 3., 4.];
        let c = gemm_bias(&a, &b, &[10., 20.], 2, 2, 2);
        assert_eq!(c, vec![11., 22., 13., 24.]);
    }

    #[test]
    fn gemm_bias_relu_clamps_negatives() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![1., -2., 3., -4.];
        let c = gemm_bias_relu(&a, &b, &[0.5, 0.5], 2, 2, 2);
        assert_eq!(c, vec![1.5, 0.0, 3.5, 0.0]);
    }

    #[test]
    fn row_bias_broadcasts_columns() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![1., 2., 3., 4.];
        let mut c = vec![0.0; 4];
        gemm_ep(
            &a,
            Trans::No,
            &b,
            Trans::No,
            &mut c,
            2,
            2,
            2,
            Epilogue::BiasRows(&[10., 20.]),
        );
        assert_eq!(c, vec![11., 12., 23., 24.]);
    }

    #[test]
    fn gemm_at_transposes_lhs() {
        // A stored [k=3 × m=2]; op(A) = Aᵀ is [[1,3,5],[2,4,6]].
        let a = vec![1., 2., 3., 4., 5., 6.];
        let b = vec![7., 8., 9., 10., 11., 12.];
        let c = gemm_at(&a, &b, 2, 3, 2);
        assert_eq!(c, vec![89., 98., 116., 128.]);
    }

    #[test]
    fn gemm_bt_transposes_rhs() {
        // B stored [n=2 × k=3]; op(B) = Bᵀ.
        let a = vec![1., 2., 3., 4., 5., 6.];
        let b = vec![7., 8., 9., 10., 11., 12.];
        let c = gemm_bt(&a, &b, 2, 3, 2);
        assert_eq!(c, vec![50., 68., 122., 167.]);
    }

    #[test]
    fn gemm_bt_acc_accumulates() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![2., 3., 4., 5.]; // B stored [n=2 × k=2]
        let mut c = vec![1.0; 4];
        gemm_bt_acc(&a, &b, &mut c, 2, 2, 2);
        // A·Bᵀ = [[2,4],[3,5]] + 1
        assert_eq!(c, vec![3., 5., 4., 6.]);
    }

    #[test]
    fn packed_lhs_reused_across_calls() {
        let mut rng = SeededRng::new(3);
        let (m, k, n) = (11, 23, 17);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let pa = PackedLhs::pack(&a, Trans::No, m, k);
        for seed in 0..4 {
            let mut r2 = SeededRng::new(seed);
            let b: Vec<f32> = (0..k * n).map(|_| r2.normal()).collect();
            let mut c = vec![0.0; m * n];
            gemm_packed(&pa, &b, Trans::No, &mut c, n, Epilogue::Store);
            assert_close(&c, &gemm_ref(&a, &b, m, k, n), 1e-5);
        }
    }

    #[test]
    fn zero_k_applies_epilogue_only() {
        let mut c = vec![7.0; 4];
        gemm_ep(
            &[],
            Trans::No,
            &[],
            Trans::No,
            &mut c,
            2,
            0,
            2,
            Epilogue::BiasCols(&[1.0, 2.0]),
        );
        assert_eq!(c, vec![1., 2., 1., 2.]);
        gemm_ep(
            &[],
            Trans::No,
            &[],
            Trans::No,
            &mut c,
            2,
            0,
            2,
            Epilogue::Accumulate,
        );
        assert_eq!(c, vec![1., 2., 1., 2.]);
    }

    #[test]
    fn empty_dims_are_ok() {
        assert!(gemm(&[], &[], 0, 3, 0).is_empty());
        let c = gemm(&[0.0; 0], &[0.0; 0], 2, 0, 2);
        assert_eq!(c, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn matmul_checks_inner_dim() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        matmul(&a, &b);
    }
}
