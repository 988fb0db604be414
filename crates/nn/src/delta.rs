//! Incremental one-pixel inference: cached base activations plus
//! dirty-region delta propagation.
//!
//! Every query of the attack sketch is the *same base image with exactly
//! one pixel changed*. A one-pixel edit only perturbs a receptive-field
//! cone that grows by the kernel radius per convolution layer — on a
//! 32×32 input most activation cells are untouched. This module exploits
//! that structure:
//!
//! * [`BaseActivations`] snapshots every intermediate buffer of one full
//!   forward pass through an [`InferencePlan`] (captured once per
//!   attacked image).
//! * [`DeltaPlan`] compiles the plan's op list into delta steps that,
//!   given a (pixel, channel-perturbation) candidate, recompute only the
//!   dirty spatial rectangle of each layer: convolutions through the
//!   plan's one conv kernel,
//!   [`oppsla_tensor::gemm::conv2d_region_batch_into`], pooling through
//!   the region-restricted kernels in [`oppsla_tensor::ops`].
//! * [`DeltaWorkspace`] holds a mutable copy of the base activations plus
//!   per-buffer dirty state; after a query, the dirty rectangles are
//!   lazily restored from the base at the start of the next one, so a
//!   query touches (and re-copies) only what it recomputed.
//!
//! # Dirty-region algebra
//!
//! Per layer kind, an input rectangle `[y0, y1) × [x0, x1)` maps to:
//!
//! * **Conv (k×k, stride s, padding p)** — the output cells whose window
//!   overlaps the rectangle: rows `[⌈(y0+p−k+1)/s⌉, ⌊(y1−1+p)/s⌋]`
//!   clamped to the output, i.e. the rectangle dilated by the kernel
//!   radius (the receptive-field cone's growth step).
//! * **MaxPool (window v)** — rows `[y0/v, ⌊(y1−1)/v⌋]` (coordinates
//!   shrink by the window).
//! * **ReLU** — the same rectangle (elementwise). The plan fuses each
//!   ReLU it can into the convolution, fully connected layer or add that
//!   produces its input, so this step runs only for a ReLU that could not
//!   fuse (none in the model zoo); a fused one keeps its producer's
//!   region for the same reason.
//! * **Residual add** — the bounding box of the two input rectangles
//!   (elementwise over the union).
//! * **Concat segment** — the input rectangle, surfacing at the segment's
//!   channel offset; multiple dirty segments merge by bounding box.
//! * **GlobalAvgPool / Linear** — any dirty input makes the (cheap,
//!   spatially unstructured) output fully dirty: full recompute.
//!
//! **Fallback rule:** a rectangle that covers the full spatial extent is
//! promoted to a full-buffer recompute ([`Region::Full`]), which is
//! exactly what the full engine would do — so results are bit-identical
//! to [`InferencePlan::scores_into`] by construction: every recomputed
//! cell is produced by the same kernel arithmetic, and every untouched
//! cell is the base value (verified strictly in
//! `tests/delta_matches_full.rs`).

use crate::infer::{relu_if, ForwardWorkspace, InferOp, InferencePlan};
use oppsla_tensor::gemm;
use oppsla_tensor::ops::{self, Rect};
use oppsla_tensor::Tensor;

/// Candidates per fully connected kernel call in the batched route: the
/// length of the input-row tile built on the stack.
const LINEAR_ROWS: usize = 8;

/// Dirty state of one activation buffer during a delta pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    /// Untouched: every cell holds the base activation.
    Clean,
    /// The cells inside the rectangle were recomputed (spatial `[c, h, w]`
    /// buffers only).
    Dirty(Rect),
    /// The whole buffer was recomputed.
    Full,
}

impl Region {
    fn is_clean(&self) -> bool {
        matches!(self, Region::Clean)
    }
}

/// One delta step, mirroring an op of the source [`InferencePlan`].
/// Weight-carrying steps reference the plan's op by index instead of
/// duplicating the weight snapshot.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Region-restricted convolution (op index into the plan), one
    /// kernel call for every candidate of the pass.
    Conv { op: usize },
    /// Elementwise ReLU over the dirty region (a ReLU the plan could not
    /// fuse into its producer).
    Relu { x: usize, out: usize },
    /// Region-restricted max pool (op index into the plan).
    Pool { op: usize },
    /// Full recompute of the (cheap) global average pool.
    Gap { op: usize },
    /// Elementwise sum over the merged dirty region, through a fused
    /// ReLU when `relu` is set.
    Add {
        x: usize,
        y: usize,
        out: usize,
        relu: bool,
    },
    /// One concat segment: copies the input's dirty region to the
    /// segment's channel offset in the output.
    CopySeg {
        x: usize,
        out: usize,
        ch_offset: usize,
    },
    /// Full recompute of a fully connected layer (one row tile per
    /// group of candidates on the batched route).
    Linear { op: usize },
}

/// Every intermediate activation of one full forward pass, snapshotted so
/// delta queries can restore exactly the cells they dirtied.
#[derive(Debug, Clone)]
pub struct BaseActivations {
    bufs: Vec<Vec<f32>>,
}

impl BaseActivations {
    /// Runs one full forward pass for `image` and snapshots every buffer.
    ///
    /// # Panics
    ///
    /// Panics if the image geometry disagrees with the plan's input spec
    /// or the workspace belongs to a different plan.
    pub fn capture(plan: &InferencePlan, ws: &mut ForwardWorkspace, image: &Tensor) -> Self {
        plan.run(ws, image);
        BaseActivations {
            bufs: ws.bufs.clone(),
        }
    }

    /// Re-runs the full forward pass for a new base image, reusing this
    /// snapshot's buffers (no allocation).
    pub fn recapture(&mut self, plan: &InferencePlan, ws: &mut ForwardWorkspace, image: &Tensor) {
        plan.run(ws, image);
        for (snap, buf) in self.bufs.iter_mut().zip(&ws.bufs) {
            snap.copy_from_slice(buf);
        }
    }
}

/// Per-query mutable state of the incremental engine: a copy of the base
/// activations plus dirty-region bookkeeping. Build one per thread with
/// [`DeltaPlan::workspace`]; steady-state queries are allocation-free.
#[derive(Debug)]
pub struct DeltaWorkspace {
    bufs: Vec<Vec<f32>>,
    /// Dirty state per buffer, reset at the start of each query.
    dirty: Vec<Region>,
    /// Buffers (with their regions) that must be restored from the base
    /// before the next query runs. Drained lazily so each query pays only
    /// for what the previous one touched.
    pending: Vec<(usize, Region)>,
}

impl DeltaWorkspace {
    /// Re-seeds this workspace from a (new) base snapshot, restoring every
    /// pending dirty region. Reuses all buffers.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's buffer geometry disagrees.
    pub fn reset_from(&mut self, base: &BaseActivations) {
        assert_eq!(
            self.bufs.len(),
            base.bufs.len(),
            "base snapshot does not belong to this workspace's plan"
        );
        for (buf, snap) in self.bufs.iter_mut().zip(&base.bufs) {
            buf.copy_from_slice(snap);
        }
        self.pending.clear();
        self.dirty.fill(Region::Clean);
    }
}

/// Reusable scratch for the batched route of
/// [`DeltaPlan::scores_pixel_delta_batch_into`]: the output panel of one
/// tile of candidates for fully connected layers. Convolutions need
/// none: their kernel keeps its tiles on the stack and writes straight
/// into each workspace. One scratch serves any batch size; after its
/// first fully connected step the batched path is allocation-free.
#[derive(Debug, Default)]
pub struct DeltaBatchScratch {
    linear_out: Vec<f32>,
}

impl DeltaBatchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The incremental counterpart of an [`InferencePlan`]: delta steps plus
/// the per-buffer spatial metadata needed to propagate dirty rectangles.
///
/// The plan itself stays the owner of the weights; a `DeltaPlan` only
/// stores op indices, so it is cheap and can be rebuilt freely.
#[derive(Debug)]
pub struct DeltaPlan {
    steps: Vec<Step>,
    /// `Some([c, h, w])` for spatial buffers, `None` for flat ones.
    buf_chw: Vec<Option<[usize; 3]>>,
    num_bufs: usize,
    num_ops: usize,
    output_buf: usize,
}

impl DeltaPlan {
    /// Compiles the delta steps for `plan`.
    pub fn compile(plan: &InferencePlan) -> Self {
        let buf_chw: Vec<Option<[usize; 3]>> = plan
            .buf_dims
            .iter()
            .map(|d| match d[..] {
                [c, h, w] => Some([c, h, w]),
                _ => None,
            })
            .collect();
        let mut steps = Vec::with_capacity(plan.ops.len());
        for (i, op) in plan.ops.iter().enumerate() {
            steps.push(match *op {
                InferOp::Conv2d { .. } => Step::Conv { op: i },
                InferOp::Linear { .. } => Step::Linear { op: i },
                InferOp::Relu { x, out } => Step::Relu { x, out },
                InferOp::MaxPool { .. } => Step::Pool { op: i },
                InferOp::GlobalAvgPool { .. } => Step::Gap { op: i },
                InferOp::Add { x, y, out, relu } => Step::Add { x, y, out, relu },
                InferOp::CopySeg { x, out, offset, .. } => {
                    let [_, h, w] =
                        buf_chw[out].expect("concat output must be a spatial [c, h, w] buffer");
                    Step::CopySeg {
                        x,
                        out,
                        ch_offset: offset / (h * w),
                    }
                }
            });
        }
        DeltaPlan {
            steps,
            buf_chw,
            num_bufs: plan.buf_lens.len(),
            num_ops: plan.ops.len(),
            output_buf: plan.output_buf,
        }
    }

    /// Allocates a delta workspace seeded with `base`'s activations.
    pub fn workspace(&self, base: &BaseActivations) -> DeltaWorkspace {
        assert_eq!(
            base.bufs.len(),
            self.num_bufs,
            "base snapshot does not belong to this plan"
        );
        DeltaWorkspace {
            bufs: base.bufs.clone(),
            dirty: vec![Region::Clean; self.num_bufs],
            pending: Vec::with_capacity(self.num_bufs),
        }
    }

    /// Scores the base image with the pixel at `(row, col)` replaced by
    /// `rgb`, recomputing only dirty regions. Writes the softmax score
    /// vector into `out` (cleared first); bit-identical to running
    /// [`InferencePlan::scores_into`] on the perturbed image.
    ///
    /// `plan` must be the plan this `DeltaPlan` was compiled from, `base`
    /// the snapshot `ws` was seeded with (both asserted cheaply).
    ///
    /// # Panics
    ///
    /// Panics if `plan`/`base`/`ws` disagree with this delta plan, or the
    /// pixel coordinates are out of range.
    #[allow(clippy::too_many_arguments)] // (plan, base, ws) + the candidate + out
    pub fn scores_pixel_delta_into(
        &self,
        plan: &InferencePlan,
        base: &BaseActivations,
        ws: &mut DeltaWorkspace,
        row: usize,
        col: usize,
        rgb: [f32; 3],
        out: &mut Vec<f32>,
    ) {
        assert_eq!(
            plan.ops.len(),
            self.num_ops,
            "plan does not match delta plan"
        );
        assert_eq!(ws.bufs.len(), self.num_bufs, "workspace does not match");
        assert_eq!(base.bufs.len(), self.num_bufs, "base does not match");
        oppsla_obs::count(oppsla_obs::Counter::DeltaQueries);
        self.begin_candidate(base, ws, row, col, rgb);
        for &step in &self.steps {
            match step {
                Step::Conv { op } => self.run_conv_batch(plan, std::slice::from_mut(ws), op),
                _ => self.run_step(plan, ws, step),
            }
        }
        out.clear();
        softmax_append(&ws.bufs[self.output_buf], out);
    }

    /// Scores `candidates.len()` one-pixel variants of the same base image
    /// in one pass: each candidate gets its own [`DeltaWorkspace`] (all
    /// seeded from `base`), and the delta steps run **layer-major** —
    /// every workspace advances through step `i` before any touches step
    /// `i + 1` — so a layer's weights stay cache-resident across the whole
    /// batch instead of being re-streamed per candidate. The two
    /// weight-heavy step kinds also share their arithmetic across
    /// candidates, which is where the batched path's throughput win comes
    /// from:
    ///
    /// * Convolution steps pass every dirty candidate's output rectangle
    ///   to one [`gemm::conv2d_region_batch_into`] call. Its register
    ///   lanes are output channels and its tiles of pixels span
    ///   candidates, so each weight load feeds several candidates' pixels.
    ///   Every pixel accumulates its in-bounds taps in `(ch, ky, kx)`
    ///   order, bias added last, whichever tile it lands in.
    /// * Fully connected steps pass up to 8 candidates' input rows to
    ///   one [`gemm::linear_nt_rows_into`] call, whose register tiles load
    ///   each weight once for several candidates. Every row keeps the
    ///   one-row kernel's accumulation order, bias added last.
    ///
    /// So each candidate's result stays bit-identical to its sequential
    /// run (asserted exactly in `tests/batched_matches_sequential.rs`).
    ///
    /// Appends `num_classes` softmax scores per candidate to `out`
    /// (cleared first), in candidate order.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer workspaces than candidates, or any
    /// plan/base/workspace disagrees with this delta plan, or a pixel is
    /// out of range.
    pub fn scores_pixel_delta_batch_into(
        &self,
        plan: &InferencePlan,
        base: &BaseActivations,
        workspaces: &mut [DeltaWorkspace],
        candidates: &[(usize, usize, [f32; 3])],
        scratch: &mut DeltaBatchScratch,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(
            plan.ops.len(),
            self.num_ops,
            "plan does not match delta plan"
        );
        assert_eq!(base.bufs.len(), self.num_bufs, "base does not match");
        assert!(
            candidates.len() <= workspaces.len(),
            "{} candidates need at least as many delta workspaces, got {}",
            candidates.len(),
            workspaces.len()
        );
        let workspaces = &mut workspaces[..candidates.len()];
        for (ws, &(row, col, rgb)) in workspaces.iter_mut().zip(candidates) {
            assert_eq!(ws.bufs.len(), self.num_bufs, "workspace does not match");
            oppsla_obs::count(oppsla_obs::Counter::DeltaQueries);
            self.begin_candidate(base, ws, row, col, rgb);
        }
        self.run_batch_steps(plan, workspaces, scratch, out);
    }

    /// The layer-major step loop of the batched route: every workspace
    /// advances through step `i` before any touches step `i + 1`, convs
    /// route through `run_conv_batch` and fully connected layers through
    /// `run_linear_batch`, and each candidate's softmax is appended to
    /// `out` in order.
    fn run_batch_steps(
        &self,
        plan: &InferencePlan,
        workspaces: &mut [DeltaWorkspace],
        scratch: &mut DeltaBatchScratch,
        out: &mut Vec<f32>,
    ) {
        for &step in &self.steps {
            match step {
                Step::Conv { op } => self.run_conv_batch(plan, workspaces, op),
                Step::Linear { op } => self.run_linear_batch(plan, workspaces, op, scratch),
                _ => {
                    for ws in workspaces.iter_mut() {
                        self.run_step(plan, ws, step);
                    }
                }
            }
        }
        out.clear();
        for ws in workspaces.iter() {
            softmax_append(&ws.bufs[self.output_buf], out);
        }
    }

    /// Runs one convolution step for every candidate in the batch
    /// through one [`gemm::conv2d_region_batch_into`] call: each
    /// candidate whose input is dirty contributes its dirty output
    /// rectangle, the kernel's register tiles share every weight load
    /// across pixels of any candidate, and results land straight in each
    /// workspace. Each output cell is computed on its own, so which
    /// candidates share a call never changes an output bit. The
    /// sequential route calls this with a one-workspace batch.
    fn run_conv_batch(&self, plan: &InferencePlan, workspaces: &mut [DeltaWorkspace], op: usize) {
        let InferOp::Conv2d {
            x,
            out,
            ref lanes,
            ref geom,
            ..
        } = plan.ops[op]
        else {
            unreachable!("Step::Conv points at a non-conv op");
        };
        let _op_timing = oppsla_obs::op_timer(oppsla_obs::OpKind::Conv);
        let full = Rect::full(geom.out_h(), geom.out_w());
        let jobs = workspaces.iter_mut().filter_map(|ws| {
            let region = conv_out_region(ws.dirty[x], geom);
            let rect = match region {
                Region::Clean => return None,
                Region::Full => full,
                Region::Dirty(r) => r,
            };
            self.mark(ws, out, region);
            let (xb, ob) = buf_pair(&mut ws.bufs, x, out);
            Some((xb, rect, ob))
        });
        gemm::conv2d_region_batch_into(lanes, geom, jobs);
    }

    /// Runs one fully connected step for every candidate whose input is
    /// dirty: [`LINEAR_ROWS`] candidates' input rows at a time, gathered
    /// into a tile on the stack, go through one
    /// [`gemm::linear_nt_rows_into`] call into the scratch panel, which
    /// is then scattered back (plus bias, through a fused ReLU if the
    /// layer has one) into each workspace. Each row
    /// is exactly the sequential route's [`gemm::linear_nt_into`] call,
    /// so the tile a candidate lands in never changes an output bit.
    fn run_linear_batch(
        &self,
        plan: &InferencePlan,
        workspaces: &mut [DeltaWorkspace],
        op: usize,
        scratch: &mut DeltaBatchScratch,
    ) {
        let InferOp::Linear {
            x,
            out,
            ref weight_t,
            ref bias,
            in_f,
            out_f,
            relu,
        } = plan.ops[op]
        else {
            unreachable!("Step::Linear points at a non-linear op");
        };
        let _op_timing = oppsla_obs::op_timer(oppsla_obs::OpKind::Linear);
        let panel = &mut scratch.linear_out;
        if panel.len() < LINEAR_ROWS * out_f {
            panel.resize(LINEAR_ROWS * out_f, 0.0);
        }
        let mut next = 0;
        loop {
            let mut tile = [0usize; LINEAR_ROWS];
            let mut rows: [&[f32]; LINEAR_ROWS] = [&[]; LINEAR_ROWS];
            let mut m = 0;
            while m < LINEAR_ROWS && next < workspaces.len() {
                let ws = &workspaces[next];
                if !ws.dirty[x].is_clean() {
                    tile[m] = next;
                    rows[m] = &ws.bufs[x];
                    m += 1;
                }
                next += 1;
            }
            if m == 0 {
                break;
            }
            let panel = &mut panel[..m * out_f];
            gemm::linear_nt_rows_into(&rows[..m], weight_t, in_f, out_f, panel);
            for (&i, logits) in tile[..m].iter().zip(panel.chunks_exact(out_f)) {
                let ws = &mut workspaces[i];
                for ((o, &v), &bv) in ws.bufs[out].iter_mut().zip(logits).zip(bias) {
                    *o = relu_if(relu, v + bv);
                }
                self.mark(ws, out, Region::Full);
            }
        }
    }

    /// Restores the previous candidate's dirty regions from the base,
    /// pokes the new candidate pixel, and seeds its 1×1 dirty rectangle.
    fn begin_candidate(
        &self,
        base: &BaseActivations,
        ws: &mut DeltaWorkspace,
        row: usize,
        col: usize,
        rgb: [f32; 3],
    ) {
        let [in_c, in_h, in_w] = self.buf_chw[0].expect("input buffer must be [c, h, w]");
        assert_eq!(in_c, 3, "pixel-delta queries need a 3-channel input");
        assert!(
            row < in_h && col < in_w,
            "pixel ({row}, {col}) out of range for {in_h}x{in_w} input"
        );

        // Lazily undo the previous query: restore exactly the regions it
        // dirtied from the base snapshot.
        for (buf, region) in ws.pending.drain(..) {
            match region {
                Region::Clean => {}
                Region::Full => ws.bufs[buf].copy_from_slice(&base.bufs[buf]),
                Region::Dirty(r) => {
                    let [c, h, w] = self.buf_chw[buf].expect("rect region on flat buffer");
                    let (src, dst) = (&base.bufs[buf], &mut ws.bufs[buf]);
                    for ch in 0..c {
                        for y in r.y0..r.y1 {
                            let o = (ch * h + y) * w;
                            dst[o + r.x0..o + r.x1].copy_from_slice(&src[o + r.x0..o + r.x1]);
                        }
                    }
                }
            }
        }
        ws.dirty.fill(Region::Clean);

        // Poke the candidate pixel into the input buffer (CHW layout).
        for (ch, v) in rgb.into_iter().enumerate() {
            ws.bufs[0][ch * in_h * in_w + row * in_w + col] = v;
        }
        let seed = Rect {
            y0: row,
            y1: row + 1,
            x0: col,
            x1: col + 1,
        };
        self.mark(ws, 0, Region::Dirty(seed));
    }

    /// Advances one workspace through one delta step (dirty-region
    /// propagation plus the region-restricted kernel call). All candidate
    /// state lives in `ws`, so steps can be interleaved across workspaces
    /// in any order — the batched path runs them layer-major. Conv steps
    /// never come here: both routes run them through `run_conv_batch`.
    fn run_step(&self, plan: &InferencePlan, ws: &mut DeltaWorkspace, step: Step) {
        let _op_timing = oppsla_obs::op_timer(match step {
            Step::Conv { .. } => oppsla_obs::OpKind::Conv,
            Step::Linear { .. } => oppsla_obs::OpKind::Linear,
            Step::Relu { .. } => oppsla_obs::OpKind::Relu,
            Step::Pool { .. } => oppsla_obs::OpKind::MaxPool,
            Step::Gap { .. } => oppsla_obs::OpKind::Gap,
            Step::Add { .. } => oppsla_obs::OpKind::Add,
            Step::CopySeg { .. } => oppsla_obs::OpKind::CopySeg,
        });
        {
            match step {
                Step::Conv { .. } => unreachable!("conv steps run through run_conv_batch"),
                Step::Relu { x, out } => {
                    let region = ws.dirty[x];
                    if region.is_clean() {
                        return;
                    }
                    let (xb, ob) = buf_pair(&mut ws.bufs, x, out);
                    for (lo, hi) in RegionRows::new(region, self.buf_chw[out], ob.len()) {
                        for (o, &v) in ob[lo..hi].iter_mut().zip(&xb[lo..hi]) {
                            *o = v.max(0.0);
                        }
                    }
                    self.mark(ws, out, region);
                }
                Step::Pool { op } => {
                    let InferOp::MaxPool {
                        x,
                        out,
                        channels,
                        h,
                        w,
                        window,
                    } = plan.ops[op]
                    else {
                        unreachable!("Step::Pool points at a non-pool op");
                    };
                    let (oh, ow) = (h / window, w / window);
                    let region = match ws.dirty[x] {
                        Region::Clean => return,
                        Region::Full => Region::Full,
                        Region::Dirty(r) => {
                            let o = Rect {
                                y0: r.y0 / window,
                                y1: (r.y1 - 1) / window + 1,
                                x0: r.x0 / window,
                                x1: (r.x1 - 1) / window + 1,
                            };
                            if o.covers(oh, ow) {
                                oppsla_obs::count(oppsla_obs::Counter::DeltaFullPromotions);
                                Region::Full
                            } else {
                                Region::Dirty(o)
                            }
                        }
                    };
                    let rect = match region {
                        Region::Full => Rect::full(oh, ow),
                        Region::Dirty(r) => r,
                        Region::Clean => unreachable!(),
                    };
                    let (xb, ob) = buf_pair(&mut ws.bufs, x, out);
                    ops::max_pool2d_region_into(xb, channels, h, w, window, rect, ob);
                    self.mark(ws, out, region);
                }
                Step::Gap { op } => {
                    let InferOp::GlobalAvgPool {
                        x,
                        out,
                        channels,
                        h,
                        w,
                    } = plan.ops[op]
                    else {
                        unreachable!("Step::Gap points at a non-gap op");
                    };
                    if ws.dirty[x].is_clean() {
                        return;
                    }
                    let (xb, ob) = buf_pair(&mut ws.bufs, x, out);
                    ops::global_avg_pool_into(xb, channels, h, w, ob);
                    self.mark(ws, out, Region::Full);
                }
                Step::Add { x, y, out, relu } => {
                    let region = union_region(ws.dirty[x], ws.dirty[y]);
                    if region.is_clean() {
                        return;
                    }
                    // Elementwise over the merged region: both inputs are
                    // valid everywhere (clean cells hold base values).
                    for (lo, hi) in RegionRows::new(region, self.buf_chw[out], ws.bufs[out].len()) {
                        let (xb, ob) = buf_pair(&mut ws.bufs, x, out);
                        ob[lo..hi].copy_from_slice(&xb[lo..hi]);
                        let (yb, ob) = buf_pair(&mut ws.bufs, y, out);
                        for (o, &v) in ob[lo..hi].iter_mut().zip(&yb[lo..hi]) {
                            *o = relu_if(relu, *o + v);
                        }
                    }
                    self.mark(ws, out, region);
                }
                Step::CopySeg { x, out, ch_offset } => {
                    let region = ws.dirty[x];
                    if region.is_clean() {
                        return;
                    }
                    let [xc, xh, xw] = self.buf_chw[x].expect("concat input must be [c, h, w]");
                    let [_, oh, ow] = self.buf_chw[out].expect("concat out must be [c, h, w]");
                    debug_assert_eq!((xh, xw), (oh, ow), "concat spatial dims");
                    let rect = match region {
                        Region::Full => Rect::full(xh, xw),
                        Region::Dirty(r) => r,
                        Region::Clean => unreachable!(),
                    };
                    let (xb, ob) = buf_pair(&mut ws.bufs, x, out);
                    for ch in 0..xc {
                        for y in rect.y0..rect.y1 {
                            let src = (ch * xh + y) * xw;
                            let dst = ((ch_offset + ch) * oh + y) * ow;
                            ob[dst + rect.x0..dst + rect.x1]
                                .copy_from_slice(&xb[src + rect.x0..src + rect.x1]);
                        }
                    }
                    // The segment dirties the same spatial window of the
                    // (taller) output; merge with other dirty segments.
                    let out_region = match region {
                        Region::Full => {
                            if self.buf_chw[out].map(|[c, _, _]| c) == Some(xc) {
                                Region::Full
                            } else {
                                Region::Dirty(Rect::full(xh, xw))
                            }
                        }
                        other => other,
                    };
                    let merged = union_region(ws.dirty[out], out_region);
                    self.mark(ws, out, merged);
                }
                Step::Linear { op } => {
                    let InferOp::Linear {
                        x,
                        out,
                        ref weight_t,
                        ref bias,
                        in_f,
                        out_f,
                        relu,
                    } = plan.ops[op]
                    else {
                        unreachable!("Step::Linear points at a non-linear op");
                    };
                    if ws.dirty[x].is_clean() {
                        return;
                    }
                    let (xb, ob) = buf_pair(&mut ws.bufs, x, out);
                    gemm::linear_nt_into(xb, weight_t, in_f, out_f, ob);
                    for (o, &bv) in ob.iter_mut().zip(bias) {
                        *o = relu_if(relu, *o + bv);
                    }
                    self.mark(ws, out, Region::Full);
                }
            }
        }
    }

    /// Records `region` as buffer `buf`'s dirty state and queues it for
    /// restoration before the next query. Spatial rectangles on flat
    /// buffers are promoted to [`Region::Full`].
    fn mark(&self, ws: &mut DeltaWorkspace, buf: usize, mut region: Region) {
        if matches!(region, Region::Dirty(_)) && self.buf_chw[buf].is_none() {
            region = Region::Full;
        }
        let prev = ws.dirty[buf];
        ws.dirty[buf] = region;
        // One pending entry per buffer per query: replace, don't stack.
        // (Only concat outputs are marked twice within a query.)
        if prev.is_clean() {
            ws.pending.push((buf, region));
        } else if let Some(entry) = ws.pending.iter_mut().rev().find(|(b, _)| *b == buf) {
            entry.1 = region;
        }
    }
}

/// Propagates a convolution input region to its output region: the
/// dirty-region algebra's kernel-radius dilation step, with full-extent
/// rectangles promoted to [`Region::Full`] (counted as a promotion).
fn conv_out_region(dirty: Region, geom: &ops::Conv2dGeometry) -> Region {
    match dirty {
        Region::Clean => Region::Clean,
        Region::Full => Region::Full,
        Region::Dirty(r) => {
            let (s, p) = (geom.stride, geom.padding);
            let (oh, ow) = (geom.out_h(), geom.out_w());
            let o = Rect {
                y0: (r.y0 + p).saturating_sub(geom.kernel_h - 1).div_ceil(s),
                y1: ((r.y1 - 1 + p) / s + 1).min(oh),
                x0: (r.x0 + p).saturating_sub(geom.kernel_w - 1).div_ceil(s),
                x1: ((r.x1 - 1 + p) / s + 1).min(ow),
            };
            if o.covers(oh, ow) {
                oppsla_obs::count(oppsla_obs::Counter::DeltaFullPromotions);
                Region::Full
            } else {
                Region::Dirty(o)
            }
        }
    }
}

/// Appends the max-shift softmax of `logits` to `out`, mirroring
/// `autograd::softmax_rows` (and [`InferencePlan::scores_into`]) exactly.
fn softmax_append(logits: &[f32], out: &mut Vec<f32>) {
    let start = out.len();
    let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for &v in logits {
        let e = (v - m).exp();
        sum += e;
        out.push(e);
    }
    for o in out[start..].iter_mut() {
        *o /= sum;
    }
}

/// Merged dirty state of two buffers feeding one elementwise op.
fn union_region(a: Region, b: Region) -> Region {
    match (a, b) {
        (Region::Clean, r) | (r, Region::Clean) => r,
        (Region::Full, _) | (_, Region::Full) => Region::Full,
        (Region::Dirty(ra), Region::Dirty(rb)) => Region::Dirty(ra.union(&rb)),
    }
}

/// Iterates the flat `[lo, hi)` index ranges covered by a region: one
/// range per (channel, row) for rectangles, a single full range for
/// [`Region::Full`].
struct RegionRows {
    region: Region,
    chw: Option<[usize; 3]>,
    len: usize,
    ch: usize,
    y: usize,
    done: bool,
}

impl RegionRows {
    fn new(region: Region, chw: Option<[usize; 3]>, len: usize) -> Self {
        let (y, done) = match region {
            Region::Dirty(r) => (r.y0, r.is_empty()),
            _ => (0, false),
        };
        RegionRows {
            region,
            chw,
            len,
            ch: 0,
            y,
            done,
        }
    }
}

impl Iterator for RegionRows {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.done {
            return None;
        }
        match self.region {
            Region::Clean => {
                self.done = true;
                None
            }
            Region::Full => {
                self.done = true;
                Some((0, self.len))
            }
            Region::Dirty(r) => {
                let [c, h, w] = self.chw.expect("rect region on flat buffer");
                if self.ch >= c {
                    self.done = true;
                    return None;
                }
                let o = (self.ch * h + self.y) * w;
                let item = (o + r.x0, o + r.x1);
                self.y += 1;
                if self.y >= r.y1 {
                    self.y = r.y0;
                    self.ch += 1;
                }
                Some(item)
            }
        }
    }
}

/// Splits simultaneous shared/exclusive borrows of two distinct buffers.
fn buf_pair(bufs: &mut [Vec<f32>], x: usize, out: usize) -> (&[f32], &mut [f32]) {
    assert_ne!(x, out, "an op cannot read and write the same buffer");
    if x < out {
        let (lo, hi) = bufs.split_at_mut(out);
        (&lo[x], &mut hi[0])
    } else {
        let (lo, hi) = bufs.split_at_mut(x);
        (&hi[0], &mut lo[out])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Arch, ConvNet, InputSpec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn test_image(spec: InputSpec) -> Tensor {
        Tensor::from_fn([spec.channels, spec.height, spec.width], |i| {
            ((i as f32) * 0.137).sin().abs()
        })
    }

    /// Full harness: delta scores for a pixel poke must equal a full
    /// forward pass on the poked image, bit for bit.
    fn check(arch: Arch, spec: InputSpec, pixels: &[(usize, usize)]) {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let net = ConvNet::build(arch, spec, 6, &mut rng);
        let plan = InferencePlan::compile(&net);
        let delta = DeltaPlan::compile(&plan);
        let mut ws = plan.workspace();
        let image = test_image(spec);
        let base = BaseActivations::capture(&plan, &mut ws, &image);
        let mut dws = delta.workspace(&base);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (i, &(row, col)) in pixels.iter().enumerate() {
            let rgb = [0.9, (i % 2) as f32, 0.05 * i as f32];
            delta.scores_pixel_delta_into(&plan, &base, &mut dws, row, col, rgb, &mut got);
            let mut poked = image.clone();
            for (ch, v) in rgb.into_iter().enumerate() {
                *poked.at_mut(&[ch, row, col]) = v;
            }
            plan.scores_into(&mut ws, &poked, &mut want);
            assert_eq!(got, want, "{arch} pixel ({row}, {col}) diverged");
        }
    }

    #[test]
    fn delta_matches_full_on_conv_families() {
        let pixels = [(0, 0), (31, 31), (16, 16), (0, 16), (15, 0), (1, 30)];
        for arch in [
            Arch::VggSmall,
            Arch::ResNetSmall,
            Arch::GoogLeNetSmall,
            Arch::DenseNetSmall,
        ] {
            check(arch, InputSpec::RGB32, &pixels);
        }
    }

    #[test]
    fn delta_matches_full_on_the_mlp() {
        // The MLP flattens immediately: everything funnels through the
        // Linear full-recompute fallback.
        check(Arch::Mlp, InputSpec::RGB32, &[(0, 0), (16, 16), (31, 31)]);
    }

    #[test]
    fn repeated_queries_restore_the_base() {
        // Querying the same pixel twice with different values must not
        // leak state from the first query into the second.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let net = ConvNet::build(Arch::ResNetSmall, InputSpec::RGB32, 5, &mut rng);
        let plan = InferencePlan::compile(&net);
        let delta = DeltaPlan::compile(&plan);
        let mut ws = plan.workspace();
        let image = test_image(InputSpec::RGB32);
        let base = BaseActivations::capture(&plan, &mut ws, &image);
        let mut dws = delta.workspace(&base);
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        delta.scores_pixel_delta_into(&plan, &base, &mut dws, 7, 9, [1.0, 0.0, 1.0], &mut a);
        delta.scores_pixel_delta_into(&plan, &base, &mut dws, 20, 3, [0.0, 0.0, 0.0], &mut b);
        delta.scores_pixel_delta_into(&plan, &base, &mut dws, 7, 9, [1.0, 0.0, 1.0], &mut c);
        assert_eq!(a, c, "state leaked across queries");
        assert_ne!(a, b, "different pokes should (generically) differ");
    }

    #[test]
    fn recapture_and_reset_track_a_new_base() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let net = ConvNet::build(Arch::VggSmall, InputSpec::RGB32, 4, &mut rng);
        let plan = InferencePlan::compile(&net);
        let delta = DeltaPlan::compile(&plan);
        let mut ws = plan.workspace();
        let img1 = test_image(InputSpec::RGB32);
        let img2 = Tensor::from_fn([3, 32, 32], |i| ((i as f32) * 0.271).cos().abs());
        let mut base = BaseActivations::capture(&plan, &mut ws, &img1);
        let mut dws = delta.workspace(&base);
        let mut out = Vec::new();
        delta.scores_pixel_delta_into(&plan, &base, &mut dws, 3, 3, [1.0; 3], &mut out);

        base.recapture(&plan, &mut ws, &img2);
        dws.reset_from(&base);
        delta.scores_pixel_delta_into(&plan, &base, &mut dws, 3, 3, [1.0; 3], &mut out);
        let mut poked = img2.clone();
        for ch in 0..3 {
            *poked.at_mut(&[ch, 3, 3]) = 1.0;
        }
        let mut want = Vec::new();
        plan.scores_into(&mut ws, &poked, &mut want);
        assert_eq!(out, want);
    }
}
