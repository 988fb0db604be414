//! Allocation-free single-image inference.
//!
//! The attack loop treats a classifier as a black box and queries it
//! millions of times with single `[c, h, w]` images. The tape in
//! [`crate::autograd`] rebuilds its node list — and re-clones every weight
//! tensor — per forward pass, which is the right trade for training but
//! pure overhead for inference. This module compiles a [`ConvNet`] once
//! into an [`InferencePlan`]: a flat list of kernel calls with weights
//! snapshotted into plain buffers, plus the exact size of every
//! intermediate activation. A [`ForwardWorkspace`] pre-allocates those
//! buffers, so steady-state queries perform **zero heap allocations**
//! (verified by `tests/alloc_free.rs`).
//!
//! The plan mirrors the tape's arithmetic operation-for-operation — the
//! same per-element accumulation order (convolution is fused rather than
//! lowered through im2col, which skips only exact-zero padding taps; see
//! [`oppsla_tensor::gemm::conv2d_region_batch_into`] for why that is
//! bit-exact), same bias broadcast, same max-shift softmax — so scores are
//! bit-identical to [`ConvNet::scores`] (verified by
//! `tests/infer_matches_tape.rs`).
//!
//! After planning, the compiler fuses each ReLU into the convolution,
//! fully connected layer or residual add that produces its input when
//! nothing else reads that input: the producer then stores `v.max(0.0)`
//! itself, and the pre-ReLU buffer leaves the plan, so no workspace or
//! snapshot allocates, copies or restores it. The ReLU is the same
//! `f32::max` on the same value, so fusion changes no output bit.
//!
//! Weights are snapshotted at compile time: rebuild the plan after
//! training or loading weights.
//!
//! # Examples
//!
//! ```
//! use oppsla_nn::infer::InferenceEngine;
//! use oppsla_nn::models::{Arch, ConvNet, InputSpec};
//! use oppsla_tensor::Tensor;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let net = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 2, &mut rng);
//! let engine = InferenceEngine::new(&net);
//! let image = Tensor::zeros([3, 32, 32]);
//! assert_eq!(engine.scores(&image), net.scores(&image));
//! ```

use crate::layers::Layer;
use crate::models::{ConvNet, InputSpec};
use oppsla_tensor::gemm::{self, ConvLanes};
use oppsla_tensor::ops::{self, Conv2dGeometry, Rect};
use oppsla_tensor::Tensor;
use std::sync::Mutex;

/// Handle to an activation produced while planning (a buffer plus its
/// logical shape). Reshapes alias the same buffer under a new shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(usize);

#[derive(Debug)]
struct Slot {
    buf: usize,
    dims: Vec<usize>,
}

/// One step of a compiled forward pass. Buffer indices refer to
/// [`ForwardWorkspace::bufs`]; every op writes a buffer no earlier op
/// reads, so execution is a straight-line sweep.
///
/// `pub(crate)` so the incremental engine in [`crate::delta`] can walk
/// the same op list with region-restricted kernels.
#[derive(Debug)]
pub(crate) enum InferOp {
    /// Convolution plus bias through the one conv kernel,
    /// [`gemm::conv2d_region_batch_into`]: full forwards pass it the full
    /// output rectangle, and both delta routes pass each dirty
    /// candidate's rectangle. It is bit-identical to the tape's im2col +
    /// matmul + bias pipeline — same per-element accumulation order, bias
    /// last.
    Conv2d {
        x: usize,
        out: usize,
        /// The kernel bank and bias transposed once at plan-compile time
        /// to output-channel lanes; it carries the fused-ReLU flag.
        lanes: ConvLanes,
        geom: Conv2dGeometry,
    },
    /// `x · weightᵀ + bias`. The weight is stored pre-transposed
    /// (`[in, out]`) for the row-tiled SIMD kernel: full forwards and the
    /// sequential delta route run one row through
    /// [`gemm::linear_nt_into`], and the batched delta route runs a tile
    /// of candidates' rows through [`gemm::linear_nt_rows_into`]. Both
    /// are bit-identical to `matmul_nt_into` against the `[out, in]`
    /// original, row by row.
    Linear {
        x: usize,
        out: usize,
        weight_t: Vec<f32>,
        bias: Vec<f32>,
        in_f: usize,
        out_f: usize,
        /// A fused ReLU, applied after the bias.
        relu: bool,
    },
    /// A ReLU the compiler could not fuse into its input's producer.
    Relu { x: usize, out: usize },
    MaxPool {
        x: usize,
        out: usize,
        channels: usize,
        h: usize,
        w: usize,
        window: usize,
    },
    GlobalAvgPool {
        x: usize,
        out: usize,
        channels: usize,
        h: usize,
        w: usize,
    },
    /// Elementwise `out = x + y` (residual join).
    Add {
        x: usize,
        y: usize,
        out: usize,
        /// A fused ReLU, applied after the sum.
        relu: bool,
    },
    /// Copies buffer `x` into `out[offset..offset + len]` (one concat
    /// segment; a channel concatenation lowers to one copy per input).
    CopySeg {
        x: usize,
        out: usize,
        offset: usize,
        len: usize,
    },
}

impl InferOp {
    /// The buffers this op reads.
    fn reads(&self) -> [Option<usize>; 2] {
        match *self {
            InferOp::Add { x, y, .. } => [Some(x), Some(y)],
            InferOp::Conv2d { x, .. }
            | InferOp::Linear { x, .. }
            | InferOp::Relu { x, .. }
            | InferOp::MaxPool { x, .. }
            | InferOp::GlobalAvgPool { x, .. }
            | InferOp::CopySeg { x, .. } => [Some(x), None],
        }
    }

    /// Fuses `relu(x) → out` into this op if it is a convolution, fully
    /// connected layer or add that writes `x` and has no ReLU yet: it
    /// then writes `out` through the ReLU itself. Returns whether it did.
    fn fuse_relu(&mut self, x: usize, relu_out: usize) -> bool {
        match self {
            InferOp::Conv2d { out, lanes, .. } if *out == x && !lanes.relu() => {
                lanes.set_relu(true);
                *out = relu_out;
            }
            InferOp::Linear { out, relu, .. } | InferOp::Add { out, relu, .. }
                if *out == x && !*relu =>
            {
                *relu = true;
                *out = relu_out;
            }
            _ => return false,
        }
        true
    }

    /// Renumbers every buffer index through `map`.
    fn remap(&mut self, map: &[usize]) {
        match self {
            InferOp::Add { x, y, out, .. } => (*x, *y, *out) = (map[*x], map[*y], map[*out]),
            InferOp::Conv2d { x, out, .. }
            | InferOp::Linear { x, out, .. }
            | InferOp::Relu { x, out }
            | InferOp::MaxPool { x, out, .. }
            | InferOp::GlobalAvgPool { x, out, .. }
            | InferOp::CopySeg { x, out, .. } => (*x, *out) = (map[*x], map[*out]),
        }
    }
}

/// Records the ops and buffer sizes of a forward pass as the layer stack
/// is walked. Layers call the planner methods mirroring the [`Tape`]
/// (`crate::autograd::Tape`) API; the result is an [`InferencePlan`].
#[derive(Debug)]
pub struct InferencePlanner {
    slots: Vec<Slot>,
    buf_lens: Vec<usize>,
    buf_dims: Vec<Vec<usize>>,
    ops: Vec<InferOp>,
}

impl InferencePlanner {
    /// Starts a plan whose input slot is a `[c, h, w]` image buffer.
    pub fn new(input: InputSpec) -> Self {
        let mut p = InferencePlanner {
            slots: Vec::new(),
            buf_lens: Vec::new(),
            buf_dims: Vec::new(),
            ops: Vec::new(),
        };
        p.new_slot(vec![input.channels, input.height, input.width]);
        p
    }

    /// The slot the input image is copied into.
    pub fn input_slot(&self) -> SlotId {
        SlotId(0)
    }

    /// The logical shape of a slot.
    pub fn dims(&self, slot: SlotId) -> &[usize] {
        &self.slots[slot.0].dims
    }

    fn new_slot(&mut self, dims: Vec<usize>) -> SlotId {
        let len = dims.iter().product();
        self.buf_lens.push(len);
        self.buf_dims.push(dims.clone());
        self.slots.push(Slot {
            buf: self.buf_lens.len() - 1,
            dims,
        });
        SlotId(self.slots.len() - 1)
    }

    fn buf(&self, slot: SlotId) -> usize {
        self.slots[slot.0].buf
    }

    /// Plans a stride-1 convolution with square kernels; `weight` is the
    /// flattened kernel bank `[out_c, in_c·k·k]`, `bias` is `[out_c]`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not `[c, h, w]` with `c == in_channels` or the
    /// weight shape disagrees with the geometry.
    #[allow(clippy::too_many_arguments)] // mirrors the tape's conv2d signature
    pub fn conv2d(
        &mut self,
        x: SlotId,
        weight: &Tensor,
        bias: &Tensor,
        in_channels: usize,
        kernel: usize,
        padding: usize,
        stride: usize,
    ) -> SlotId {
        let dims = self.dims(x).to_vec();
        assert_eq!(dims.len(), 3, "conv2d input slot must be [c, h, w]");
        assert_eq!(dims[0], in_channels, "conv2d input channel mismatch");
        let geom = Conv2dGeometry {
            in_channels,
            in_h: dims[1],
            in_w: dims[2],
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        };
        let out_c = weight.shape().dim(0);
        assert_eq!(
            weight.shape().dim(1),
            in_channels * kernel * kernel,
            "conv2d weight columns disagree with geometry"
        );
        assert_eq!(bias.numel(), out_c, "conv2d bias must be [out_c]");
        let out = self.new_slot(vec![out_c, geom.out_h(), geom.out_w()]);
        let k = in_channels * kernel * kernel;
        self.ops.push(InferOp::Conv2d {
            x: self.buf(x),
            out: self.buf(out),
            lanes: ConvLanes::new(weight.data(), bias.data(), out_c, k),
            geom,
        });
        out
    }

    /// Plans a fully connected layer; `weight` is `[out, in]`, `bias` `[out]`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not a rank-1 feature vector matching `weight`.
    pub fn linear(&mut self, x: SlotId, weight: &Tensor, bias: &Tensor) -> SlotId {
        let dims = self.dims(x).to_vec();
        assert_eq!(dims.len(), 1, "linear input slot must be flat features");
        let (out_f, in_f) = (weight.shape().dim(0), weight.shape().dim(1));
        assert_eq!(dims[0], in_f, "linear input width disagrees with weight");
        assert_eq!(bias.numel(), out_f, "linear bias must be [out]");
        let out = self.new_slot(vec![out_f]);
        let w = weight.data();
        let mut weight_t = vec![0.0f32; in_f * out_f];
        for (j, wrow) in w.chunks_exact(in_f).enumerate() {
            for (kk, &v) in wrow.iter().enumerate() {
                weight_t[kk * out_f + j] = v;
            }
        }
        self.ops.push(InferOp::Linear {
            x: self.buf(x),
            out: self.buf(out),
            weight_t,
            bias: bias.data().to_vec(),
            in_f,
            out_f,
            relu: false,
        });
        out
    }

    /// Plans an elementwise ReLU.
    pub fn relu(&mut self, x: SlotId) -> SlotId {
        let dims = self.dims(x).to_vec();
        let out = self.new_slot(dims);
        self.ops.push(InferOp::Relu {
            x: self.buf(x),
            out: self.buf(out),
        });
        out
    }

    /// Plans square max pooling with stride equal to the window.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not `[c, h, w]` or the window does not divide
    /// the spatial extents.
    pub fn max_pool2d(&mut self, x: SlotId, window: usize) -> SlotId {
        let dims = self.dims(x).to_vec();
        assert_eq!(dims.len(), 3, "max_pool2d input slot must be [c, h, w]");
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        assert!(
            h % window == 0 && w % window == 0,
            "pool window {window} does not divide spatial extent {h}x{w}"
        );
        let out = self.new_slot(vec![c, h / window, w / window]);
        self.ops.push(InferOp::MaxPool {
            x: self.buf(x),
            out: self.buf(out),
            channels: c,
            h,
            w,
            window,
        });
        out
    }

    /// Plans global average pooling `[c, h, w] → [c]`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not `[c, h, w]`.
    pub fn global_avg_pool(&mut self, x: SlotId) -> SlotId {
        let dims = self.dims(x).to_vec();
        assert_eq!(
            dims.len(),
            3,
            "global_avg_pool input slot must be [c, h, w]"
        );
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let out = self.new_slot(vec![c]);
        self.ops.push(InferOp::GlobalAvgPool {
            x: self.buf(x),
            out: self.buf(out),
            channels: c,
            h,
            w,
        });
        out
    }

    /// Plans an elementwise sum of two same-shaped slots.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&mut self, x: SlotId, y: SlotId) -> SlotId {
        assert_eq!(self.dims(x), self.dims(y), "add slot shapes differ");
        let dims = self.dims(x).to_vec();
        let out = self.new_slot(dims);
        self.ops.push(InferOp::Add {
            x: self.buf(x),
            y: self.buf(y),
            out: self.buf(out),
            relu: false,
        });
        out
    }

    /// Plans a channel concatenation of `[c_i, h, w]` slots.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or spatial extents disagree.
    pub fn concat_channels(&mut self, inputs: &[SlotId]) -> SlotId {
        assert!(
            !inputs.is_empty(),
            "concat_channels needs at least one input"
        );
        let first = self.dims(inputs[0]).to_vec();
        assert_eq!(first.len(), 3, "concat_channels expects [c, h, w] inputs");
        let (h, w) = (first[1], first[2]);
        let mut total_c = 0;
        for &s in inputs {
            let d = self.dims(s);
            assert_eq!(
                (d[1], d[2]),
                (h, w),
                "concat_channels inputs disagree on spatial dims"
            );
            total_c += d[0];
        }
        let out = self.new_slot(vec![total_c, h, w]);
        let out_buf = self.buf(out);
        let area = h * w;
        let mut offset = 0;
        for &s in inputs {
            let len = self.dims(s)[0] * area;
            self.ops.push(InferOp::CopySeg {
                x: self.buf(s),
                out: out_buf,
                offset,
                len,
            });
            offset += len;
        }
        out
    }

    /// Plans a flatten: the slot's buffer aliased under a rank-1 shape.
    pub fn flatten(&mut self, x: SlotId) -> SlotId {
        let numel: usize = self.dims(x).iter().product();
        let buf = self.buf(x);
        self.slots.push(Slot {
            buf,
            dims: vec![numel],
        });
        SlotId(self.slots.len() - 1)
    }
}

/// A compiled forward pass: straight-line kernel calls with snapshotted
/// weights and pre-computed buffer sizes. Build one with
/// [`InferencePlan::compile`]; it is immutable, `Send + Sync`, and shared
/// freely across threads, each running its own [`ForwardWorkspace`].
#[derive(Debug)]
pub struct InferencePlan {
    input: InputSpec,
    num_classes: usize,
    pub(crate) ops: Vec<InferOp>,
    pub(crate) buf_lens: Vec<usize>,
    /// Logical `[c, h, w]` (or flat `[n]`) dims of every buffer, used by
    /// the incremental engine's dirty-region bookkeeping.
    pub(crate) buf_dims: Vec<Vec<usize>>,
    pub(crate) output_buf: usize,
}

impl InferencePlan {
    /// Compiles `net` into a flat plan, snapshotting its current weights
    /// and fusing each ReLU it can into its input's producer.
    pub fn compile(net: &ConvNet) -> Self {
        Self::compile_stack(net.stack(), net.input_spec(), net.num_classes())
    }

    /// [`InferencePlan::compile`] for any layer stack whose output is a
    /// `[num_classes]` logit vector.
    fn compile_stack(stack: &dyn Layer, input: InputSpec, num_classes: usize) -> Self {
        let mut p = InferencePlanner::new(input);
        let x = p.input_slot();
        let out = stack.plan(&mut p, x);
        assert_eq!(
            p.dims(out),
            &[num_classes],
            "network output slot is not a [num_classes] logit vector"
        );
        let mut plan = InferencePlan {
            input,
            num_classes,
            output_buf: p.buf(out),
            ops: p.ops,
            buf_lens: p.buf_lens,
            buf_dims: p.buf_dims,
        };
        plan.fuse_relus();
        plan
    }

    /// Folds each `Relu { x, out }` into the op just before it when that
    /// op is a convolution, fully connected layer or add writing `x`, no
    /// other op reads `x`, and `x` is not the output: the producer writes
    /// `out` itself and buffer `x` leaves the plan. The ReLU maps a dirty
    /// rectangle to itself, so the delta engine's region algebra is the
    /// same with or without it.
    fn fuse_relus(&mut self) {
        let mut readers = vec![0usize; self.buf_lens.len()];
        for op in &self.ops {
            for b in op.reads().into_iter().flatten() {
                readers[b] += 1;
            }
        }
        let mut dropped = vec![false; self.buf_lens.len()];
        let mut ops: Vec<InferOp> = Vec::with_capacity(self.ops.len());
        for op in self.ops.drain(..) {
            if let InferOp::Relu { x, out } = op {
                let sole_reader = readers[x] == 1 && x != self.output_buf;
                if sole_reader && ops.last_mut().is_some_and(|prev| prev.fuse_relu(x, out)) {
                    dropped[x] = true;
                    continue;
                }
            }
            ops.push(op);
        }
        // Renumber the surviving buffers densely.
        let mut map = vec![0; dropped.len()];
        let mut next = 0;
        for (b, &gone) in dropped.iter().enumerate() {
            map[b] = next;
            next += usize::from(!gone);
        }
        for op in &mut ops {
            op.remap(&map);
        }
        for b in (0..dropped.len()).rev().filter(|&b| dropped[b]) {
            self.buf_lens.remove(b);
            self.buf_dims.remove(b);
        }
        self.output_buf = map[self.output_buf];
        self.ops = ops;
    }

    /// Expected input geometry.
    pub fn input_spec(&self) -> InputSpec {
        self.input
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Allocates a workspace holding every intermediate activation this
    /// plan needs. Reuse it across queries for allocation-free inference.
    pub fn workspace(&self) -> ForwardWorkspace {
        ForwardWorkspace {
            bufs: self.buf_lens.iter().map(|&l| vec![0.0; l]).collect(),
        }
    }

    /// Runs the forward pass for one `[c, h, w]` image and writes the
    /// softmax score vector into `out` (cleared first). With a warmed
    /// workspace and an `out` of sufficient capacity this performs no heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the image geometry disagrees with the input spec or the
    /// workspace was built from a different plan.
    pub fn scores_into(&self, ws: &mut ForwardWorkspace, image: &Tensor, out: &mut Vec<f32>) {
        let logits_buf = self.run(ws, image);
        let logits = &ws.bufs[logits_buf];
        // Mirror `autograd::softmax_rows` exactly: max-shift, exp, then a
        // second pass dividing by the sum.
        out.clear();
        let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for &v in logits {
            let e = (v - m).exp();
            sum += e;
            out.push(e);
        }
        for o in out.iter_mut() {
            *o /= sum;
        }
    }

    /// Runs the forward pass and returns the index of the logits buffer.
    pub(crate) fn run(&self, ws: &mut ForwardWorkspace, image: &Tensor) -> usize {
        assert_eq!(
            image.shape().dims(),
            &[self.input.channels, self.input.height, self.input.width],
            "image geometry disagrees with the plan's input spec"
        );
        assert_eq!(
            ws.bufs.len(),
            self.buf_lens.len(),
            "workspace does not belong to this plan"
        );
        let bufs = &mut ws.bufs;
        bufs[0].copy_from_slice(image.data());
        for op in &self.ops {
            // Per-layer timing hook: the guard records call count and
            // elapsed nanoseconds on drop. With the recorder disarmed it
            // reads no clock: one load and a branch.
            let _op_timing = oppsla_obs::op_timer(match op {
                InferOp::Conv2d { .. } => oppsla_obs::OpKind::Conv,
                InferOp::Linear { .. } => oppsla_obs::OpKind::Linear,
                InferOp::Relu { .. } => oppsla_obs::OpKind::Relu,
                InferOp::MaxPool { .. } => oppsla_obs::OpKind::MaxPool,
                InferOp::GlobalAvgPool { .. } => oppsla_obs::OpKind::Gap,
                InferOp::Add { .. } => oppsla_obs::OpKind::Add,
                InferOp::CopySeg { .. } => oppsla_obs::OpKind::CopySeg,
            });
            match op {
                InferOp::Conv2d {
                    x,
                    out,
                    lanes,
                    geom,
                } => {
                    let (xb, ob) = buf_pair(bufs, *x, *out);
                    let full = Rect::full(geom.out_h(), geom.out_w());
                    gemm::conv2d_region_batch_into(lanes, geom, [(xb, full, ob)]);
                }
                InferOp::Linear {
                    x,
                    out,
                    weight_t,
                    bias,
                    in_f,
                    out_f,
                    relu,
                } => {
                    let (xb, ob) = buf_pair(bufs, *x, *out);
                    gemm::linear_nt_into(xb, weight_t, *in_f, *out_f, ob);
                    for (o, &bv) in ob.iter_mut().zip(bias) {
                        *o = relu_if(*relu, *o + bv);
                    }
                }
                InferOp::Relu { x, out } => {
                    let (xb, ob) = buf_pair(bufs, *x, *out);
                    for (o, &v) in ob.iter_mut().zip(xb) {
                        *o = v.max(0.0);
                    }
                }
                InferOp::MaxPool {
                    x,
                    out,
                    channels,
                    h,
                    w,
                    window,
                } => {
                    let (xb, ob) = buf_pair(bufs, *x, *out);
                    ops::max_pool2d_into(xb, *channels, *h, *w, *window, ob, None);
                }
                InferOp::GlobalAvgPool {
                    x,
                    out,
                    channels,
                    h,
                    w,
                } => {
                    let (xb, ob) = buf_pair(bufs, *x, *out);
                    ops::global_avg_pool_into(xb, *channels, *h, *w, ob);
                }
                InferOp::Add { x, y, out, relu } => {
                    {
                        let (xb, ob) = buf_pair(bufs, *x, *out);
                        ob.copy_from_slice(xb);
                    }
                    let (yb, ob) = buf_pair(bufs, *y, *out);
                    for (o, &v) in ob.iter_mut().zip(yb) {
                        *o = relu_if(*relu, *o + v);
                    }
                }
                InferOp::CopySeg {
                    x,
                    out,
                    offset,
                    len,
                } => {
                    let (xb, ob) = buf_pair(bufs, *x, *out);
                    ob[*offset..*offset + *len].copy_from_slice(xb);
                }
            }
        }
        self.output_buf
    }
}

/// `v.max(0.0)` for a fused ReLU, else `v`: the same `f32::max` on the
/// same value as a standalone [`InferOp::Relu`].
#[inline]
pub(crate) fn relu_if(relu: bool, v: f32) -> f32 {
    if relu {
        v.max(0.0)
    } else {
        v
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

/// Pre-allocated storage for every intermediate activation of one
/// [`InferencePlan`]. One workspace serves one thread; clone-free reuse
/// across queries is the point.
#[derive(Debug)]
pub struct ForwardWorkspace {
    pub(crate) bufs: Vec<Vec<f32>>,
}

/// An [`InferencePlan`] bundled with a mutex-guarded workspace: a drop-in,
/// thread-safe query engine. Parallel callers that want zero contention
/// should instead share the [`plan`](InferenceEngine::plan) (and
/// [`delta_plan`](InferenceEngine::delta_plan)) and give each thread its
/// own workspace.
#[derive(Debug)]
pub struct InferenceEngine {
    plan: InferencePlan,
    delta: crate::delta::DeltaPlan,
    state: Mutex<EngineState>,
}

/// The engine's per-query mutable state: the forward workspace plus the
/// incremental path's cached base (populated on first pixel-delta query).
#[derive(Debug)]
struct EngineState {
    ws: ForwardWorkspace,
    cache: Option<EngineDeltaCache>,
}

#[derive(Debug)]
struct EngineDeltaCache {
    base_image: Tensor,
    base: crate::delta::BaseActivations,
    dws: crate::delta::DeltaWorkspace,
}

impl InferenceEngine {
    /// Compiles `net` and allocates one workspace.
    pub fn new(net: &ConvNet) -> Self {
        let plan = InferencePlan::compile(net);
        let delta = crate::delta::DeltaPlan::compile(&plan);
        let ws = plan.workspace();
        InferenceEngine {
            plan,
            delta,
            state: Mutex::new(EngineState { ws, cache: None }),
        }
    }

    /// The underlying compiled plan.
    pub fn plan(&self) -> &InferencePlan {
        &self.plan
    }

    /// The incremental (dirty-region) counterpart of the plan, for callers
    /// managing their own per-thread delta workspaces.
    pub fn delta_plan(&self) -> &crate::delta::DeltaPlan {
        &self.delta
    }

    /// Softmax scores for one `[c, h, w]` image (allocates the result).
    pub fn scores(&self, image: &Tensor) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.plan.num_classes);
        self.scores_into(image, &mut out);
        out
    }

    /// Writes softmax scores into `out`, reusing the shared workspace.
    /// Allocation-free once warm.
    pub fn scores_into(&self, image: &Tensor, out: &mut Vec<f32>) {
        let mut state = self.state.lock().expect("inference workspace poisoned");
        self.plan.scores_into(&mut state.ws, image, out);
    }

    /// Writes softmax scores for `base` with the pixel at `(row, col)`
    /// replaced by `rgb`, serving repeated queries against the same base
    /// from cached activations via the incremental engine. Bit-identical
    /// to perturbing the image and calling
    /// [`scores_into`](InferenceEngine::scores_into). The base snapshot is
    /// (re)captured whenever `base` differs from the previous call's.
    pub fn scores_pixel_delta_into(
        &self,
        base: &Tensor,
        row: usize,
        col: usize,
        rgb: [f32; 3],
        out: &mut Vec<f32>,
    ) {
        let mut guard = self.state.lock().expect("inference workspace poisoned");
        let EngineState { ws, cache } = &mut *guard;
        match cache {
            Some(c) if c.base_image == *base => {
                oppsla_obs::count(oppsla_obs::Counter::DeltaCacheHit);
                oppsla_obs::trace::tag_cache(oppsla_obs::trace::CacheTag::Hit);
            }
            Some(c) => {
                oppsla_obs::count(oppsla_obs::Counter::DeltaCacheRebase);
                oppsla_obs::trace::tag_cache(oppsla_obs::trace::CacheTag::Rebase);
                c.base.recapture(&self.plan, ws, base);
                c.dws.reset_from(&c.base);
                c.base_image.data_mut().copy_from_slice(base.data());
            }
            None => {
                oppsla_obs::count(oppsla_obs::Counter::DeltaCacheCold);
                oppsla_obs::trace::tag_cache(oppsla_obs::trace::CacheTag::Cold);
                let acts = crate::delta::BaseActivations::capture(&self.plan, ws, base);
                let dws = self.delta.workspace(&acts);
                *cache = Some(EngineDeltaCache {
                    base_image: base.clone(),
                    base: acts,
                    dws,
                });
            }
        }
        let c = cache.as_mut().expect("delta cache populated above");
        self.delta
            .scores_pixel_delta_into(&self.plan, &c.base, &mut c.dws, row, col, rgb, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Arch;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn test_image(spec: InputSpec) -> Tensor {
        Tensor::from_fn([spec.channels, spec.height, spec.width], |i| {
            ((i as f32) * 0.137).sin().abs()
        })
    }

    #[test]
    fn every_family_matches_tape_scores_exactly() {
        for arch in [
            Arch::VggSmall,
            Arch::ResNetSmall,
            Arch::GoogLeNetSmall,
            Arch::DenseNetSmall,
            Arch::Mlp,
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            let net = ConvNet::build(arch, InputSpec::RGB32, 10, &mut rng);
            let engine = InferenceEngine::new(&net);
            let img = test_image(InputSpec::RGB32);
            assert_eq!(engine.scores(&img), net.scores(&img), "{arch} diverged");
        }
    }

    #[test]
    fn workspace_reuse_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = ConvNet::build(Arch::ResNetSmall, InputSpec::RGB32, 4, &mut rng);
        let plan = InferencePlan::compile(&net);
        let mut ws = plan.workspace();
        let img = test_image(InputSpec::RGB32);
        let mut a = Vec::new();
        let mut b = Vec::new();
        plan.scores_into(&mut ws, &img, &mut a);
        // A second query through the same (now dirty) workspace must not
        // see stale state.
        plan.scores_into(&mut ws, &img, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn plan_runs_at_64x64() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = ConvNet::build(Arch::DenseNetSmall, InputSpec::RGB64, 7, &mut rng);
        let engine = InferenceEngine::new(&net);
        let img = test_image(InputSpec::RGB64);
        assert_eq!(engine.scores(&img), net.scores(&img));
    }

    #[test]
    fn stale_weights_detected_by_recompile() {
        // The plan snapshots weights: after mutating a parameter the old
        // plan keeps the old scores and a recompile picks up the new ones.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let net = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 3, &mut rng);
        let before = InferencePlan::compile(&net);
        for p in net.params() {
            let mut v = p.value();
            for x in v.data_mut() {
                *x += 0.25;
            }
            p.set_value(v);
        }
        let after = InferencePlan::compile(&net);
        let img = test_image(InputSpec::RGB32);
        let (mut wa, mut wb) = (before.workspace(), after.workspace());
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        before.scores_into(&mut wa, &img, &mut sa);
        after.scores_into(&mut wb, &img, &mut sb);
        assert_ne!(sa, sb, "recompile did not pick up the new weights");
        assert_eq!(sb, net.scores(&img));
    }

    #[test]
    fn engine_pixel_delta_matches_full_scores_across_base_switches() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let net = ConvNet::build(Arch::GoogLeNetSmall, InputSpec::RGB32, 5, &mut rng);
        let engine = InferenceEngine::new(&net);
        let base_a = test_image(InputSpec::RGB32);
        let base_b = Tensor::from_fn([3, 32, 32], |i| ((i as f32) * 0.219).cos().abs());
        let mut got = Vec::new();
        // Interleave bases to exercise capture, recapture and cache hits.
        for (base, row, col) in [
            (&base_a, 0usize, 0usize),
            (&base_a, 31, 31),
            (&base_b, 16, 2),
            (&base_a, 16, 2),
        ] {
            let rgb = [1.0, 0.0, 0.5];
            engine.scores_pixel_delta_into(base, row, col, rgb, &mut got);
            let mut poked = base.clone();
            for (ch, v) in rgb.into_iter().enumerate() {
                *poked.at_mut(&[ch, row, col]) = v;
            }
            assert_eq!(got, engine.scores(&poked), "({row}, {col}) diverged");
        }
    }

    /// Plans `stack` without the fusion pass: the op list the layers
    /// emit.
    fn unfused(stack: &dyn Layer, input: InputSpec) -> InferencePlanner {
        let mut p = InferencePlanner::new(input);
        let x = p.input_slot();
        stack.plan(&mut p, x);
        p
    }

    fn is_relu(op: &InferOp) -> bool {
        matches!(op, InferOp::Relu { .. })
    }

    #[test]
    fn zoo_plans_fuse_every_relu_and_drop_its_input_buffer() {
        for spec in [InputSpec::RGB32, InputSpec::RGB64] {
            for arch in Arch::CNN_FAMILIES.into_iter().chain([Arch::Mlp]) {
                let mut rng = ChaCha8Rng::seed_from_u64(31);
                let net = ConvNet::build(arch, spec, 10, &mut rng);
                let raw = unfused(net.stack(), spec);
                let pre_relu: Vec<usize> = raw
                    .ops
                    .iter()
                    .filter_map(|op| match *op {
                        InferOp::Relu { x, .. } => Some(x),
                        _ => None,
                    })
                    .collect();
                assert!(!pre_relu.is_empty(), "{arch} plans no ReLU");
                let plan = InferencePlan::compile(&net);
                assert!(
                    !plan.ops.iter().any(is_relu),
                    "{arch} at {spec:?} kept a standalone ReLU"
                );
                assert_eq!(plan.ops.len(), raw.ops.len() - pre_relu.len(), "{arch}");
                assert_eq!(
                    plan.buf_lens.len(),
                    raw.buf_lens.len() - pre_relu.len(),
                    "{arch} at {spec:?} kept a pre-ReLU buffer"
                );
                let floats = |lens: &[usize]| lens.iter().sum::<usize>();
                let dropped: usize = pre_relu.iter().map(|&x| raw.buf_lens[x]).sum();
                assert_eq!(
                    floats(&plan.buf_lens),
                    floats(&raw.buf_lens) - dropped,
                    "{arch} at {spec:?}"
                );
                if (arch, spec) == (Arch::VggSmall, InputSpec::RGB32) {
                    assert_eq!(plan.ops.len(), 7);
                    assert_eq!(plan.buf_lens.len(), 8);
                    assert_eq!(floats(&plan.buf_lens), 38_458);
                }
            }
        }
    }

    #[test]
    fn relus_that_cannot_fuse_stay_standalone_and_match_the_tape() {
        use crate::autograd::{softmax_rows, Tape};
        use crate::delta::{BaseActivations, DeltaBatchScratch, DeltaPlan};
        use crate::layers::{Conv2d, Flatten, Linear, MaxPool, ParallelConcat, Relu, Sequential};

        let spec = InputSpec::RGB32;
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        // The first ReLU follows a max pool; the second one's input has a
        // second reader (the concat copies the conv output beside it),
        // whose negative cells reach the logits.
        let stack = Sequential::new()
            .push(Conv2d::new(&mut rng, "hand.c1", 3, 4, 3, 1))
            .push(MaxPool::new(2))
            .push(Relu)
            .push(Conv2d::new(&mut rng, "hand.c2", 4, 4, 3, 1))
            .push(ParallelConcat::with_input(vec![
                Sequential::new().push(Relu)
            ]))
            .push(Flatten)
            .push(Linear::new(&mut rng, "hand.fc", 8 * 16 * 16, 3));
        let plan = InferencePlan::compile_stack(&stack, spec, 3);
        let raw = unfused(&stack, spec);
        assert_eq!(plan.ops.iter().filter(|op| is_relu(op)).count(), 2);
        assert_eq!(plan.ops.len(), raw.ops.len());
        assert_eq!(plan.buf_lens, raw.buf_lens);

        let image = test_image(spec);
        let tape_scores = |image: &Tensor| {
            let mut tape = Tape::no_grad();
            let x = tape.input(image.reshape([1, 3, 32, 32]));
            let y = stack.forward(&mut tape, x);
            softmax_rows(tape.value(y)).into_vec()
        };
        let mut ws = plan.workspace();
        let mut got = Vec::new();
        plan.scores_into(&mut ws, &image, &mut got);
        assert_eq!(got, tape_scores(&image));

        // Both delta routes run the standalone steps too.
        let delta = DeltaPlan::compile(&plan);
        let base = BaseActivations::capture(&plan, &mut ws, &image);
        let mut dws: Vec<_> = (0..2).map(|_| delta.workspace(&base)).collect();
        let cands = [(0, 0, [1.0, 0.0, 0.5]), (17, 9, [0.0, 1.0, 1.0])];
        let mut batched = Vec::new();
        let mut scratch = DeltaBatchScratch::new();
        delta.scores_pixel_delta_batch_into(
            &plan,
            &base,
            &mut dws,
            &cands,
            &mut scratch,
            &mut batched,
        );
        for (i, &(row, col, rgb)) in cands.iter().enumerate() {
            let mut poked = image.clone();
            for (ch, v) in rgb.into_iter().enumerate() {
                *poked.at_mut(&[ch, row, col]) = v;
            }
            let want = tape_scores(&poked);
            delta.scores_pixel_delta_into(&plan, &base, &mut dws[0], row, col, rgb, &mut got);
            assert_eq!(got, want, "sequential delta at ({row}, {col})");
            assert_eq!(batched[i * 3..(i + 1) * 3], want[..], "batched delta");
        }
    }

    #[test]
    #[should_panic(expected = "geometry disagrees")]
    fn rejects_wrong_image_geometry() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 2, &mut rng);
        let engine = InferenceEngine::new(&net);
        engine.scores(&Tensor::zeros([3, 16, 16]));
    }
}
