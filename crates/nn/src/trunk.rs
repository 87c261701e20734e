//! The shared conv trunk of a whole-scene scan.
//!
//! A scan runs the network on many overlapping windows of one scene.
//! Inference splits at the last convolution: the **trunk** (`conv1` …
//! `relu3`) is computed once per scene, and only the **tail** (`pool3`,
//! `spp`, the FC layers and the heads) runs per window, through
//! [`SppNet::forward_from`]. The result is bit-identical to running
//! [`SppNet::forward_inference`] on each clipped window.
//!
//! * **Shared maps.** Each trunk op runs once over the windows' bounding
//!   box. A conv output cell of a window equals the shared map's cell
//!   unless the window's own zero padding reaches it.
//! * **Rings.** A cell is *tainted* if its input window reads padding or a
//!   tainted cell. Per axis the tainted cells are a prefix and a suffix, so
//!   in 2-D they form a ring around the window. Ring cells are recomputed
//!   per window, and only where a later op reads them: `pool3` floors away
//!   `conv3`'s last row and column of a 100-px window, so those are never
//!   computed. A ring conv builds the same im2col column, in the same `K`
//!   order, as the window's own convolution, and the GEMM computes every
//!   output element as one FMA chain whatever the column count (see
//!   `dcd_tensor::gemm`), so every value keeps its bits.
//! * **Phases.** A window's pooled cells line up with the shared map's only
//!   if its origin is a multiple of the pool strides in front of the op.
//!   Windows are grouped by origin modulo the cumulative stride of the last
//!   trunk op (4 for SPP-Net), and each group has its own maps.
//! * **Bands.** Within a group the windows are cut into bands (blocks of
//!   window rows and columns) whose maps fit in `BAND_FLOATS`; a band's
//!   maps are dropped before the next band's are computed. Each conv map
//!   is computed in parallel row strips whose im2col buffer is no larger
//!   than one window's im2col at that op.

use crate::op::OpKind;
use crate::sppnet::SppNet;
use dcd_tensor::{gemm_packed, scratch, Epilogue, PackedLhs, Tensor, Trans};
use rayon::prelude::*;
use std::ops::Range;

/// Upper bound on the floats of one band's shared maps (64 MiB). A band is
/// at least one window, so a single window larger than this still runs.
const BAND_FLOATS: usize = 1 << 24;

/// Marks a clean cell in [`Stage::index`].
const CLEAN: u32 = u32::MAX;

/// Why a scan's windows do not fit the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrunkError {
    /// The scene's band count differs from the model's input channels.
    Channels {
        /// Bands in the scene.
        scene: usize,
        /// Input channels of the model.
        model: usize,
    },
    /// A window of `patch` pixels leaves op `op` nothing to read.
    PatchTooSmall {
        /// Window side in pixels.
        patch: usize,
        /// The op that has no input left.
        op: &'static str,
    },
}

impl std::fmt::Display for TrunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrunkError::Channels { scene, model } => {
                write!(f, "scene has {scene} bands, the model reads {model}")
            }
            TrunkError::PatchTooSmall { patch, op } => {
                write!(f, "a {patch}-px patch is too small for `{op}`")
            }
        }
    }
}

impl std::error::Error for TrunkError {}

/// What one trunk stage computes.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A stride-1 convolution of `node`, with its ReLU fused when `relu`.
    Conv {
        node: usize,
        c_in: usize,
        kernel: usize,
        pad: usize,
        relu: bool,
    },
    /// Max pooling.
    Pool { kernel: usize, stride: usize },
}

/// One trunk op with its per-window geometry. Windows are square, so one
/// axis describes both.
#[derive(Debug)]
struct Stage {
    name: &'static str,
    kind: Kind,
    /// Output channels.
    c: usize,
    /// Input side per window.
    input: usize,
    /// Output side per window.
    size: usize,
    /// Output cells per axis that later ops read: `0..needed`.
    needed: usize,
    /// Untainted cells per axis among the needed ones (possibly empty).
    clean: Range<usize>,
    /// Input pixels per output cell: the product of the pool strides so far.
    scale: usize,
    /// The needed cells that are not clean in both axes, row-major.
    ring: Vec<(usize, usize)>,
    /// `needed²` entries: a cell's position in `ring`, or [`CLEAN`].
    index: Vec<u32>,
}

impl Stage {
    /// Multiply-accumulates over `cells` output cells (0 for a pool).
    fn macs(&self, cells: usize) -> u64 {
        match self.kind {
            Kind::Conv { c_in, kernel, .. } => (self.c * c_in * kernel * kernel * cells) as u64,
            Kind::Pool { .. } => 0,
        }
    }

    /// A window's clean cells in `map`, seen from the first one: the
    /// window is offset `d` pixels from its group's phase.
    fn shared<'a>(&self, map: &'a Option<Map>, d: (usize, usize)) -> Option<View<'a>> {
        let at = |d: usize| d / self.scale + self.clean.start;
        map.as_ref().map(|m| m.view(at(d.0), at(d.1)))
    }

    /// The shared map's extent for windows whose offsets span `dy` and `dx`
    /// (inclusive, in input pixels), or `None` when no cell is clean.
    fn rect(&self, dy: (usize, usize), dx: (usize, usize)) -> Option<(Range<usize>, Range<usize>)> {
        if self.clean.is_empty() {
            return None;
        }
        let axis = |(lo, hi): (usize, usize)| {
            lo / self.scale + self.clean.start..hi / self.scale + self.clean.end
        };
        Some((axis(dy), axis(dx)))
    }
}

/// A read-only `[C, rows, cols]` window onto a map: element `(c, y, x)` is
/// `data[base + c·cs + y·rs + x]`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    base: usize,
    cs: usize,
    rs: usize,
}

impl<'a> View<'a> {
    /// A dense `[C, n, n]` buffer.
    fn dense(data: &'a [f32], n: usize) -> View<'a> {
        View {
            data,
            base: 0,
            cs: n * n,
            rs: n,
        }
    }

    #[inline(always)]
    fn at(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.base + c * self.cs + y * self.rs + x]
    }

    /// `len` values of row `y` of channel `c` from column `x`.
    #[inline(always)]
    fn row(&self, c: usize, y: usize, x: usize, len: usize) -> &'a [f32] {
        let start = self.base + c * self.cs + y * self.rs + x;
        &self.data[start..start + len]
    }
}

/// A shared map in row-major `[rows, C, cols]` order, so that a strip of
/// rows is one contiguous slice. It covers grid rows `y0..y0 + rows` and
/// columns `x0..x0 + w`; its buffer comes from the scratch arena.
struct Map {
    data: Vec<f32>,
    c: usize,
    y0: usize,
    x0: usize,
    w: usize,
}

impl Map {
    /// The map seen from grid cell `(y, x)`.
    fn view(&self, y: usize, x: usize) -> View<'_> {
        View {
            data: &self.data,
            base: (y - self.y0) * self.c * self.w + (x - self.x0),
            cs: self.w,
            rs: self.c * self.w,
        }
    }
}

impl Drop for Map {
    fn drop(&mut self) {
        scratch::release(std::mem::take(&mut self.data));
    }
}

/// Windows of one phase group whose shared maps are computed together.
#[derive(Debug)]
struct Band {
    /// Window indices, in input order.
    tiles: Vec<usize>,
    /// The group's phase: window origins modulo the trunk's scale.
    phase: (usize, usize),
    /// Smallest and largest window offset from the phase, per axis.
    dy: (usize, usize),
    dx: (usize, usize),
}

/// The conv trunk of one model over one scene, shared by every window of
/// a scan. See the module documentation.
pub struct SharedTrunk<'a> {
    model: &'a SppNet,
    stages: Vec<Stage>,
    /// Packed weights, per stage (`None` for pools).
    packed: Vec<Option<PackedLhs>>,
    /// The scene, `[C, H, W]`.
    scene: &'a Tensor,
    /// Maps a scene value to the network's input.
    prep: fn(f32) -> f32,
    /// Window origins (top-left pixel), in input order.
    origins: Vec<(usize, usize)>,
    bands: Vec<Band>,
    /// Each window's band.
    band_of: Vec<usize>,
    /// The band whose maps are held, with one map per stage.
    current: Option<(usize, Vec<Option<Map>>)>,
}

impl<'a> SharedTrunk<'a> {
    /// Plans the trunk of `model` for `patch`-px windows with top-left
    /// corners `origins` over `scene` (`[bands, H, W]`), feeding the network
    /// `prep(v)` for every scene value `v`. Every window must lie inside the
    /// scene. Nothing is convolved until [`SharedTrunk::features`], and the
    /// scene is read in place.
    ///
    /// # Panics
    /// If the scene is not `[bands, H, W]`, if a window leaves it, or if the
    /// trunk of the op list is not alternating stride-1 convolutions and max
    /// pools, as [`crate::SppNetConfig::ops`] builds it.
    pub fn new(
        model: &'a SppNet,
        scene: &'a Tensor,
        patch: usize,
        origins: Vec<(usize, usize)>,
        prep: fn(f32) -> f32,
    ) -> Result<SharedTrunk<'a>, TrunkError> {
        SharedTrunk::build(model, scene, patch, origins, prep, BAND_FLOATS)
    }

    /// [`SharedTrunk::new`] with bands of at most `budget` map floats.
    fn build(
        model: &'a SppNet,
        scene: &'a Tensor,
        patch: usize,
        origins: Vec<(usize, usize)>,
        prep: fn(f32) -> f32,
        budget: usize,
    ) -> Result<SharedTrunk<'a>, TrunkError> {
        let &[c, h, w] = scene.dims() else {
            panic!("expected a [bands, H, W] scene, got {:?}", scene.dims());
        };
        assert!(
            origins
                .iter()
                .all(|&(x, y)| x + patch <= w && y + patch <= h),
            "every window must lie inside the scene"
        );
        let stages = plan(model, c, patch)?;
        let packed = stages
            .iter()
            .map(|st| match st.kind {
                Kind::Conv {
                    node, c_in, kernel, ..
                } => {
                    let weight = &model.nodes()[node].params[0].value;
                    Some(PackedLhs::pack(
                        weight.data(),
                        Trans::No,
                        st.c,
                        c_in * kernel * kernel,
                    ))
                }
                Kind::Pool { .. } => None,
            })
            .collect();

        let bands = bands(&stages, &origins, budget);
        let mut band_of = vec![0; origins.len()];
        for (b, band) in bands.iter().enumerate() {
            for &t in &band.tiles {
                band_of[t] = b;
            }
        }
        Ok(SharedTrunk {
            model,
            stages,
            packed,
            scene,
            prep,
            origins,
            bands,
            band_of,
            current: None,
        })
    }

    /// Window indices in the order that computes each band's maps once:
    /// band by band, input order within a band.
    pub fn order(&self) -> Vec<usize> {
        self.bands
            .iter()
            .flat_map(|b| b.tiles.iter().copied())
            .collect()
    }

    /// The trunk's output for windows `tiles` (indices into the origins),
    /// as a `[tiles, C, n, n]` batch built in `buf`'s storage, for
    /// [`SppNet::forward_from`] at [`SppNet::tail_start`]. `n` is the part
    /// of the last trunk op's output that the tail reads.
    pub fn features(&mut self, tiles: &[usize], mut buf: Vec<f32>) -> Tensor {
        let last = self.stages.last().expect("the trunk has a conv");
        let (c, n) = (last.c, last.needed);
        let slot = c * n * n;
        // Every element is written below; only growth needs filling.
        buf.resize(buf.len().max(tiles.len() * slot), 0.0);
        buf.truncate(tiles.len() * slot);
        let mut start = 0;
        while start < tiles.len() {
            let band = self.band_of[tiles[start]];
            let len = tiles[start..]
                .iter()
                .take_while(|&&t| self.band_of[t] == band)
                .count();
            self.enter(band);
            let run = &tiles[start..start + len];
            self.rings(band, run, &mut buf[start * slot..(start + len) * slot]);
            start += len;
        }
        Tensor::from_vec([tiles.len(), c, n, n], buf).expect("trunk features")
    }

    /// The scene seen from pixel `(y, x)`.
    fn image(&self, y: usize, x: usize) -> View<'a> {
        let (h, w) = (self.scene.dims()[1], self.scene.dims()[2]);
        View {
            data: self.scene.data(),
            base: y * w + x,
            cs: h * w,
            rs: w,
        }
    }

    /// Computes band `b`'s shared maps unless they are held already.
    fn enter(&mut self, b: usize) {
        if matches!(self.current, Some((held, _)) if held == b) {
            return;
        }
        self.current = None;
        let band = &self.bands[b];
        let (px, py) = band.phase;
        let mut maps: Vec<Option<Map>> = Vec::with_capacity(self.stages.len());
        for (si, st) in self.stages.iter().enumerate() {
            let _span = dcd_obs::span(st.name, dcd_obs::Category::Nn);
            let map = st.rect(band.dy, band.dx).map(|(rows, cols)| match st.kind {
                Kind::Conv { pad, .. } => {
                    let (y, x) = (rows.start - pad, cols.start - pad);
                    let packed = self.packed[si].as_ref().expect("conv weights");
                    match si {
                        0 => {
                            let input = self.image(py + y, px + x);
                            conv_map(self.model, st, packed, input, self.prep, rows, cols)
                        }
                        _ => {
                            let input = maps[si - 1].as_ref().expect("clean input").view(y, x);
                            conv_map(self.model, st, packed, input, |v| v, rows, cols)
                        }
                    }
                }
                Kind::Pool { kernel, stride } => {
                    let input = maps[si - 1].as_ref().expect("clean input");
                    pool_map(input, kernel, stride, rows, cols)
                }
            });
            maps.push(map);
        }
        self.current = Some((b, maps));
    }

    /// Fills one slot of `out` per window of `tiles` (all in band `b`, whose
    /// maps are held): the shared maps' cells, with the rings recomputed.
    fn rings(&self, b: usize, tiles: &[usize], out: &mut [f32]) {
        let per_window: u64 = self.stages.iter().map(|st| st.macs(st.ring.len())).sum();
        let macs = per_window * tiles.len() as u64;
        dcd_obs::counter!("scan.conv_macs").add(macs);
        dcd_obs::counter!("conv.flops").add(2 * macs);
        let _span = dcd_obs::span("conv2d", dcd_obs::Category::Conv);
        let maps = &self.current.as_ref().expect("band maps").1;
        let slot = out.len() / tiles.len();
        let phase = self.bands[b].phase;
        out.par_chunks_mut(slot)
            .zip(tiles.par_iter())
            .for_each(|(dst, &t)| {
                let (x0, y0) = self.origins[t];
                self.window((y0, x0), (y0 - phase.1, x0 - phase.0), maps, dst);
            });
    }

    /// Runs the trunk for the window at scene pixel `at`, offset `d` from
    /// its group's phase, into `out`.
    fn window(&self, at: (usize, usize), d: (usize, usize), maps: &[Option<Map>], out: &mut [f32]) {
        let last = self.stages.len() - 1;
        // The input of the next conv (a pool's output; empty before conv1)
        // and the ring of the last conv.
        let mut dense: Vec<f32> = Vec::new();
        let mut ring: Vec<f32> = Vec::new();
        for (si, st) in self.stages.iter().enumerate() {
            let _span = dcd_obs::span(st.name, dcd_obs::Category::Nn);
            let shared = st.shared(&maps[si], d);
            match st.kind {
                Kind::Conv {
                    node,
                    c_in,
                    kernel,
                    pad,
                    relu,
                } => {
                    let n = st.ring.len();
                    let mut cols = scratch::take(c_in * kernel * kernel * n);
                    let geom = (st.input, c_in, kernel, pad);
                    match si {
                        0 => {
                            ring_cols(self.image(at.0, at.1), self.prep, geom, &st.ring, &mut cols)
                        }
                        _ => {
                            let input = View::dense(&dense, self.stages[si - 1].needed);
                            ring_cols(input, |v| v, geom, &st.ring, &mut cols);
                        }
                    }
                    scratch::release(std::mem::replace(&mut ring, scratch::take(st.c * n)));
                    let bias = self.model.nodes()[node].params[1].value.data();
                    let ep = if relu {
                        Epilogue::BiasRowsRelu(bias)
                    } else {
                        Epilogue::BiasRows(bias)
                    };
                    let packed = self.packed[si].as_ref().expect("conv weights");
                    gemm_packed(packed, &cols, Trans::No, &mut ring, n, ep);
                    scratch::release(cols);
                    if si == last {
                        copy_clean(st, shared, out);
                        for ci in 0..st.c {
                            let src = &ring[ci * n..(ci + 1) * n];
                            for (&v, &(y, x)) in src.iter().zip(&st.ring) {
                                out[(ci * st.needed + y) * st.needed + x] = v;
                            }
                        }
                    }
                }
                Kind::Pool { kernel, stride } => {
                    let conv = &self.stages[si - 1];
                    let conv_shared = conv.shared(&maps[si - 1], d);
                    let c0 = conv.clean.start;
                    let mut next = if si == last {
                        Vec::new()
                    } else {
                        scratch::take(st.c * st.needed * st.needed)
                    };
                    let dst = if si == last { &mut *out } else { &mut next[..] };
                    copy_clean(st, shared, dst);
                    let n = conv.ring.len();
                    for ci in 0..st.c {
                        for &(y, x) in &st.ring {
                            let mut best = f32::NEG_INFINITY;
                            for a in 0..kernel {
                                let cy = y * stride + a;
                                for b in 0..kernel {
                                    let cx = x * stride + b;
                                    let v = match conv.index[cy * conv.needed + cx] {
                                        CLEAN => {
                                            conv_shared.expect("clean").at(ci, cy - c0, cx - c0)
                                        }
                                        i => ring[ci * n + i as usize],
                                    };
                                    if v > best {
                                        best = v;
                                    }
                                }
                            }
                            dst[(ci * st.needed + y) * st.needed + x] = best;
                        }
                    }
                    scratch::release(std::mem::replace(&mut dense, next));
                }
            }
        }
        scratch::release(dense);
        scratch::release(ring);
    }
}

/// The trunk stages of `model` and their geometry for `patch`-px windows of
/// a `bands`-band scene.
fn plan(model: &SppNet, bands: usize, patch: usize) -> Result<Vec<Stage>, TrunkError> {
    let nodes = model.nodes();
    let tail = model.tail_start();
    let mut stages: Vec<Stage> = Vec::new();
    let (mut size, mut clean, mut scale) = (patch, 0..patch, 1);
    let mut i = 0;
    while i < tail {
        let op = &nodes[i].op;
        let prev_conv = matches!(stages.last(), Some(s) if matches!(s.kind, Kind::Conv { .. }));
        let (kind, c, out, next_clean, next_scale) = match op.kind {
            OpKind::Conv {
                c_in,
                c_out,
                kernel,
                stride: 1,
                pad,
            } if !prev_conv => {
                if stages.is_empty() && c_in != bands {
                    return Err(TrunkError::Channels {
                        scene: bands,
                        model: c_in,
                    });
                }
                let relu = nodes.get(i + 1).is_some_and(|n| n.op.kind == OpKind::Relu);
                i += usize::from(relu);
                let Some(out) = (size + 2 * pad + 1).checked_sub(kernel).filter(|&o| o > 0) else {
                    return Err(TrunkError::PatchTooSmall { patch, op: op.name });
                };
                let lo = clean.start + pad;
                let hi = (clean.end + pad + 1).saturating_sub(kernel).min(out);
                let kind = Kind::Conv {
                    node: i - usize::from(relu),
                    c_in,
                    kernel,
                    pad,
                    relu,
                };
                (kind, c_out, out, lo..hi.max(lo), scale)
            }
            OpKind::MaxPool { kernel, stride } if prev_conv => {
                if size < kernel {
                    return Err(TrunkError::PatchTooSmall { patch, op: op.name });
                }
                let out = (size - kernel) / stride + 1;
                let lo = clean.start.div_ceil(stride);
                let hi = match clean.end.checked_sub(kernel) {
                    Some(e) => (e / stride + 1).min(out),
                    None => 0,
                };
                let c = stages.last().expect("a conv").c;
                (
                    Kind::Pool { kernel, stride },
                    c,
                    out,
                    lo..hi.max(lo),
                    scale * stride,
                )
            }
            _ => panic!(
                "`{}`: the conv trunk must alternate stride-1 convolutions and max pools",
                op.name
            ),
        };
        stages.push(Stage {
            name: op.name,
            kind,
            c,
            input: size,
            size: out,
            needed: out,
            clean: next_clean.clone(),
            scale: next_scale,
            ring: Vec::new(),
            index: Vec::new(),
        });
        (size, clean, scale) = (out, next_clean, next_scale);
        i += 1;
    }

    // What the tail reads of the trunk's output: a max pool floors away the
    // rows and columns its windows do not reach.
    let mut needed = match nodes[tail].op.kind {
        OpKind::MaxPool { kernel, stride } => {
            if size < kernel {
                return Err(TrunkError::PatchTooSmall {
                    patch,
                    op: nodes[tail].op.name,
                });
            }
            (size - kernel) / stride * stride + kernel
        }
        _ => size,
    };
    for si in (0..stages.len()).rev() {
        let st = &mut stages[si];
        st.needed = needed;
        st.clean = st.clean.start..st.clean.end.min(needed).max(st.clean.start);
        for y in 0..needed {
            for x in 0..needed {
                if st.clean.contains(&y) && st.clean.contains(&x) {
                    st.index.push(CLEAN);
                } else {
                    st.index.push(st.ring.len() as u32);
                    st.ring.push((y, x));
                }
            }
        }
        // The input cells the needed outputs read.
        needed = match st.kind {
            Kind::Conv { kernel, pad, .. } => (needed - 1 + kernel).saturating_sub(pad),
            Kind::Pool { kernel, stride } => (needed - 1) * stride + kernel,
        }
        .min(st.input);
    }
    Ok(stages)
}

/// Groups the windows by phase and cuts each group into bands whose shared
/// maps fit in `budget` floats.
fn bands(stages: &[Stage], origins: &[(usize, usize)], budget: usize) -> Vec<Band> {
    let modulus = stages.last().expect("the trunk has a conv").scale;
    let mut phases: Vec<(usize, usize)> = Vec::new();
    for &(x, y) in origins {
        let phase = (x % modulus, y % modulus);
        if !phases.contains(&phase) {
            phases.push(phase);
        }
    }
    // Floats of the maps for offsets spanning `dy` × `dx`; `None` if a conv
    // map is wider than one window's output, where a one-row strip would
    // need a larger im2col than one window does.
    let cost = |dy: (usize, usize), dx: (usize, usize)| -> Option<usize> {
        let mut floats = 0;
        for st in stages {
            if let Some((rows, cols)) = st.rect(dy, dx) {
                if matches!(st.kind, Kind::Conv { .. }) && cols.len() > st.size * st.size {
                    return None;
                }
                floats += st.c * rows.len() * cols.len();
            }
        }
        Some(floats)
    };
    let fits = |dy, dx| cost(dy, dx).is_some_and(|f| f <= budget);
    // Greedy runs of the sorted coordinates `v` that pass `ok(first, last)`;
    // every run has at least one element.
    let runs = |v: &[usize], ok: &dyn Fn(usize, usize) -> bool| -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < v.len() {
            let mut end = start;
            while end + 1 < v.len() && ok(v[start], v[end + 1]) {
                end += 1;
            }
            out.push((v[start], v[end]));
            start = end + 1;
        }
        out
    };
    let mut out = Vec::new();
    for phase in phases {
        let members: Vec<usize> = (0..origins.len())
            .filter(|&t| (origins[t].0 % modulus, origins[t].1 % modulus) == phase)
            .collect();
        let offsets = |axis: fn(&(usize, usize)) -> usize, p: usize| {
            let mut v: Vec<usize> = members.iter().map(|&t| axis(&origins[t]) - p).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let xs = offsets(|o| o.0, phase.0);
        let ys = offsets(|o| o.1, phase.1);
        let y0 = ys[0];
        let col_runs = runs(&xs, &|a, b| fits((y0, y0), (a, b)));
        let widest = col_runs
            .iter()
            .copied()
            .max_by_key(|&(a, b)| b - a)
            .expect("a column");
        let row_runs = runs(&ys, &|a, b| fits((a, b), widest));
        for &(ya, yb) in &row_runs {
            for &(xa, xb) in &col_runs {
                let tiles: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&t| {
                        let (dx, dy) = (origins[t].0 - phase.0, origins[t].1 - phase.1);
                        (ya..=yb).contains(&dy) && (xa..=xb).contains(&dx)
                    })
                    .collect();
                if tiles.is_empty() {
                    continue;
                }
                let span = |axis: fn(&(usize, usize)) -> usize, p: usize| {
                    let v = tiles.iter().map(|&t| axis(&origins[t]) - p);
                    (v.clone().min().expect("a tile"), v.max().expect("a tile"))
                };
                out.push(Band {
                    dy: span(|o| o.1, phase.1),
                    dx: span(|o| o.0, phase.0),
                    tiles,
                    phase,
                });
            }
        }
    }
    out
}

/// A conv stage's shared map over grid `rows × cols`, reading `prep` of
/// `input` from the cell the first output's window starts at. Parallel over
/// row strips whose im2col holds at most one window's output cells.
fn conv_map(
    model: &SppNet,
    st: &Stage,
    packed: &PackedLhs,
    input: View<'_>,
    prep: impl Fn(f32) -> f32 + Sync,
    rows: Range<usize>,
    cols: Range<usize>,
) -> Map {
    let Kind::Conv {
        node,
        c_in,
        kernel,
        relu,
        ..
    } = st.kind
    else {
        unreachable!("conv stage");
    };
    let (c, w) = (st.c, cols.len());
    let k = c_in * kernel * kernel;
    let strip = (st.size * st.size / w).max(1);
    let bias = model.nodes()[node].params[1].value.data();
    let ep = if relu {
        Epilogue::BiasRowsRelu(bias)
    } else {
        Epilogue::BiasRows(bias)
    };
    let macs = st.macs(rows.len() * w);
    dcd_obs::counter!("scan.conv_macs").add(macs);
    dcd_obs::counter!("conv.flops").add(2 * macs);
    let _span = dcd_obs::span("conv2d", dcd_obs::Category::Conv);
    let mut data = scratch::take(rows.len() * c * w);
    data.par_chunks_mut(strip * c * w)
        .enumerate()
        .for_each(|(i, out)| {
            let (r0, nr) = (i * strip, out.len() / (c * w));
            let n = nr * w;
            let mut im2col = scratch::take(k * n);
            for ci in 0..c_in {
                for ki in 0..kernel {
                    for kj in 0..kernel {
                        let row = (ci * kernel + ki) * kernel + kj;
                        let dst = &mut im2col[row * n..(row + 1) * n];
                        for (r, d) in dst.chunks_mut(w).enumerate() {
                            let src = input.row(ci, r0 + r + ki, kj, w);
                            for (d, &v) in d.iter_mut().zip(src) {
                                *d = prep(v);
                            }
                        }
                    }
                }
            }
            let mut prod = scratch::take(c * n);
            gemm_packed(packed, &im2col, Trans::No, &mut prod, n, ep);
            for (r, dst) in out.chunks_mut(c * w).enumerate() {
                for (co, d) in dst.chunks_mut(w).enumerate() {
                    d.copy_from_slice(&prod[co * n + r * w..co * n + (r + 1) * w]);
                }
            }
            scratch::release(prod);
            scratch::release(im2col);
        });
    Map {
        data,
        c,
        y0: rows.start,
        x0: cols.start,
        w,
    }
}

/// A pool stage's shared map over grid `rows × cols`, from the conv map
/// `input`; each window is scanned in the order `max_pool2d_values` uses.
fn pool_map(
    input: &Map,
    kernel: usize,
    stride: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) -> Map {
    let (c, w) = (input.c, cols.len());
    let mut data = scratch::take(rows.len() * c * w);
    data.par_chunks_mut(c * w).enumerate().for_each(|(r, out)| {
        let src = input.view((rows.start + r) * stride, cols.start * stride);
        for (ci, dst) in out.chunks_mut(w).enumerate() {
            for (q, d) in dst.iter_mut().enumerate() {
                let mut best = f32::NEG_INFINITY;
                for a in 0..kernel {
                    for b in 0..kernel {
                        let v = src.at(ci, a, q * stride + b);
                        if v > best {
                            best = v;
                        }
                    }
                }
                *d = best;
            }
        }
    });
    Map {
        data,
        c,
        y0: rows.start,
        x0: cols.start,
        w,
    }
}

/// The im2col columns of a window's ring cells, `[C_in·k·k, ring]`, from
/// `prep` of the window's `size`-px input; positions outside it are the
/// zero padding and stay zero (`cols` arrives zeroed).
fn ring_cols(
    input: View<'_>,
    prep: impl Fn(f32) -> f32,
    (size, c_in, kernel, pad): (usize, usize, usize, usize),
    ring: &[(usize, usize)],
    cols: &mut [f32],
) {
    let n = ring.len();
    for ci in 0..c_in {
        for ki in 0..kernel {
            for kj in 0..kernel {
                let row = (ci * kernel + ki) * kernel + kj;
                for (d, &(y, x)) in cols[row * n..(row + 1) * n].iter_mut().zip(ring) {
                    let (iy, ix) = (y + ki, x + kj);
                    if iy >= pad && ix >= pad && iy - pad < size && ix - pad < size {
                        *d = prep(input.at(ci, iy - pad, ix - pad));
                    }
                }
            }
        }
    }
}

/// Copies a stage's clean cells for one window from `shared` (seen from
/// the first clean cell) into a dense `[C, needed, needed]` buffer.
fn copy_clean(st: &Stage, shared: Option<View<'_>>, out: &mut [f32]) {
    let Some(shared) = shared else {
        return;
    };
    let (n, len) = (st.needed, st.clean.len());
    for ci in 0..st.c {
        for y in st.clean.clone() {
            let start = (ci * n + y) * n + st.clean.start;
            out[start..start + len].copy_from_slice(shared.row(ci, y - st.clean.start, 0, len));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SppNetConfig;
    use dcd_tensor::SeededRng;

    /// Origins of `patch`-px windows every `stride` px over an `h×w` scene,
    /// as a scan tiles it: the centre stays below `len - patch / 2`.
    fn origins(h: usize, w: usize, patch: usize, stride: usize) -> Vec<(usize, usize)> {
        let half = patch / 2;
        let axis = move |len: usize| {
            std::iter::successors(Some(0), move |&o: &usize| {
                (o + stride + half < len - half).then_some(o + stride)
            })
        };
        axis(h).flat_map(|y| axis(w).map(move |x| (x, y))).collect()
    }

    impl SharedTrunk<'_> {
        /// The MACs a pass over every window executes, from the plan alone.
        fn planned_macs(&self) -> u64 {
            let ring: u64 = self.stages.iter().map(|st| st.macs(st.ring.len())).sum();
            let shared: u64 = self
                .bands
                .iter()
                .flat_map(|b| {
                    self.stages.iter().filter_map(|st| {
                        let (rows, cols) = st.rect(b.dy, b.dx)?;
                        Some(st.macs(rows.len() * cols.len()))
                    })
                })
                .sum();
            shared + ring * self.origins.len() as u64
        }
    }

    #[test]
    fn paper_width_rings_and_macs() {
        let model = SppNet::new(SppNetConfig::candidate2(), &mut SeededRng::new(1));
        let scene = Tensor::zeros([4, 256, 256]);
        let trunk =
            SharedTrunk::new(&model, &scene, 100, origins(256, 256, 100, 12), |v| v).expect("fits");
        let rings: Vec<(&str, usize)> = trunk
            .stages
            .iter()
            .map(|s| (s.name, s.ring.len()))
            .collect();
        assert_eq!(
            rings,
            [
                ("conv1", 396),
                ("pool1", 196),
                ("conv2", 384),
                ("pool2", 96),
                ("conv3", 135)
            ]
        );
        assert_eq!(trunk.stages.last().unwrap().needed, 24);
        assert_eq!(trunk.bands.len(), 1, "a 256-px scene is one band");
        // 13×13 windows at origins 0, 12, …, 144. Shared maps cover their
        // clean cells: conv1 1..243 (242), conv2 2..120 (118), conv3 2..59
        // (57) per axis.
        let shared = 242 * 242 * 64 * 36 + 118 * 118 * 128 * 576 + 57 * 57 * 256 * 1152;
        let ring = 396 * 64 * 36 + 384 * 128 * 576 + 135 * 256 * 1152;
        assert_eq!(trunk.origins.len(), 169);
        assert_eq!(trunk.planned_macs(), shared + 169 * ring);
        assert_eq!(trunk.planned_macs(), 13_786_951_680);
        // Patch-wise: 169 tiles × (10⁴·64·36 + 2500·128·576 + 625·256·1152).
        assert_eq!(169 * 391_680_000u64, 66_193_920_000);
    }

    #[test]
    fn small_bands_match_one_band_bitwise() {
        let mut arch = SppNetConfig::tiny();
        arch.in_channels = 2;
        let model = SppNet::new(arch, &mut SeededRng::new(4));
        let scene = Tensor::uniform([2, 70, 90], 0.0, 1.0, &mut SeededRng::new(5));
        let features = |budget: usize| {
            let origins = origins(70, 90, 24, 5);
            let mut trunk =
                SharedTrunk::build(&model, &scene, 24, origins, |v| v, budget).expect("fits");
            let bands = trunk.bands.len();
            let all: Vec<usize> = (0..trunk.origins.len()).collect();
            (bands, trunk.features(&all, Vec::new()))
        };
        let (one_band_per_phase, wide) = features(BAND_FLOATS);
        let (many, narrow) = features(1500);
        assert_eq!(one_band_per_phase, 16, "stride 5 has 4×4 phases mod 4");
        assert!(many > 4 * one_band_per_phase, "only {many} bands");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&wide), bits(&narrow));
        // And both equal the windows' own trunk, run patch-wise.
        let tail = model.tail_start();
        let tiles: Vec<Tensor> = origins(70, 90, 24, 5)
            .iter()
            .map(|&(x, y)| {
                let mut t = Tensor::zeros([2, 24, 24]);
                for c in 0..2 {
                    for r in 0..24 {
                        for q in 0..24 {
                            t.set(&[c, r, q], scene.at(&[c, y + r, x + q]));
                        }
                    }
                }
                t
            })
            .collect();
        let mut x = Tensor::stack(&tiles);
        let mut nodes = model.nodes()[..tail].iter().peekable();
        while let Some(node) = nodes.next() {
            let relu = nodes.next_if(|n| n.op.kind == OpKind::Relu).is_some();
            x = node.infer(&x, relu);
        }
        // The trunk output keeps only the rows and columns pool3 reads.
        let n = wide.dims()[2];
        let (c, full) = (x.dims()[1], x.dims()[2]);
        for t in 0..tiles.len() {
            for ci in 0..c {
                for r in 0..n {
                    for q in 0..n {
                        let want = x.data()[((t * c + ci) * full + r) * full + q];
                        let got = wide.data()[((t * c + ci) * n + r) * n + q];
                        assert_eq!(got.to_bits(), want.to_bits(), "tile {t} ({ci},{r},{q})");
                    }
                }
            }
        }
    }

    #[test]
    fn patch_too_small_is_an_error() {
        let model = SppNet::new(SppNetConfig::tiny(), &mut SeededRng::new(1));
        let scene = Tensor::zeros([1, 16, 16]);
        let err = SharedTrunk::new(&model, &scene, 4, vec![(0, 0)], |v| v).err();
        assert_eq!(
            err,
            Some(TrunkError::PatchTooSmall {
                patch: 4,
                op: "pool3"
            })
        );
        let err = SharedTrunk::new(&model, &Tensor::zeros([3, 16, 16]), 8, vec![], |v| v).err();
        assert_eq!(err, Some(TrunkError::Channels { scene: 3, model: 1 }));
    }
}
