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
//! [`oppsla_tensor::ops::conv2d_region_into`] for why that is bit-exact),
//! same bias broadcast, same max-shift softmax — so scores are
//! bit-identical to [`ConvNet::scores`] (verified by
//! `tests/infer_matches_tape.rs`).
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
use crate::tune::{self, ConvRouteDecision, TunePolicy};
use oppsla_tensor::gemm::{self, ConvLanes, PackedA};
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
    /// Convolution plus bias. Full forwards run either the tape's
    /// im2col + matmul + bias pipeline (`direct == false`, small feature
    /// maps, where the GEMM wins) or the fused direct kernel
    /// [`oppsla_tensor::ops::conv2d_region_into`] (`direct == true`,
    /// large feature maps, where the im2col scratch spills cache). The
    /// two are bit-identical — same per-element accumulation order, bias
    /// last — so the choice never changes the scores. The incremental
    /// engine patches with the same arithmetic: the region kernel on its
    /// sequential route, the channel-lane kernel on its batched one.
    Conv2d {
        x: usize,
        out: usize,
        weight: Vec<f32>,
        /// The same kernel bank repacked once at plan-compile time into
        /// [`PackedA`] row panels for the blocked GEMM (GEMM-path convs
        /// only; the direct kernel reads the row-major `weight`).
        packed: PackedA,
        /// The kernel bank and bias transposed once at plan-compile time
        /// to output-channel lanes for the batched delta route's
        /// [`gemm::conv2d_region_batch_into`].
        lanes: ConvLanes,
        bias: Vec<f32>,
        geom: Conv2dGeometry,
        out_c: usize,
        cols_len: usize,
        direct: bool,
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
    },
    Relu {
        x: usize,
        out: usize,
    },
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

/// Records the ops and buffer sizes of a forward pass as the layer stack
/// is walked. Layers call the planner methods mirroring the [`Tape`]
/// (`crate::autograd::Tape`) API; the result is an [`InferencePlan`].
#[derive(Debug)]
pub struct InferencePlanner {
    slots: Vec<Slot>,
    buf_lens: Vec<usize>,
    buf_dims: Vec<Vec<usize>>,
    scratch_len: usize,
    ops: Vec<InferOp>,
    /// One route decision per planned conv, in op order.
    tuned: Vec<ConvRouteDecision>,
    /// Decisions already measured this compile, keyed by conv shape, so
    /// repeated layers (DenseNet blocks) are timed once.
    tune_cache: Vec<((Conv2dGeometry, usize), ConvRouteDecision)>,
}

/// Static spatial-extent crossover for the per-conv kernel choice when
/// tuning is off ([`TunePolicy::Off`]): outputs of at least this many
/// pixels run the fused direct kernel, smaller ones the im2col GEMM.
/// Measured once on the zoo (forward_bench) with the scalar GEMM; the
/// default [`TunePolicy::Measure`] re-measures per machine and per conv
/// shape instead, because the crossover moves with the SIMD level and
/// cache sizes (it is what mis-routed densenet-small at 64x64).
const DIRECT_CONV_MIN_PIXELS: usize = 4096;

impl InferencePlanner {
    /// Starts a plan whose input slot is a `[c, h, w]` image buffer.
    pub fn new(input: InputSpec) -> Self {
        let mut p = InferencePlanner {
            slots: Vec::new(),
            buf_lens: Vec::new(),
            buf_dims: Vec::new(),
            scratch_len: 0,
            ops: Vec::new(),
            tuned: Vec::new(),
            tune_cache: Vec::new(),
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
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let out = self.new_slot(vec![out_c, oh, ow]);
        let cols_len = in_channels * kernel * kernel * oh * ow;
        let k = in_channels * kernel * kernel;
        let packed = gemm::pack_a(weight.data(), out_c, k);
        // Route choice: measured per unique conv shape (cached within
        // this compile), or the static pixel-count heuristic when tuning
        // is off. Both routes are bit-identical, so this only moves time.
        let decision = match self
            .tune_cache
            .iter()
            .find(|((g, oc), _)| *g == geom && *oc == out_c)
        {
            Some((_, d)) => d.clone(),
            None => {
                let d = match tune::policy() {
                    TunePolicy::Off => ConvRouteDecision::unmeasured(
                        out_c,
                        k,
                        oh * ow,
                        oh * ow >= DIRECT_CONV_MIN_PIXELS,
                    ),
                    TunePolicy::Measure => {
                        tune::tune_conv_route(weight.data(), bias.data(), &packed, &geom, out_c)
                    }
                };
                self.tune_cache.push(((geom, out_c), d.clone()));
                d
            }
        };
        let direct = decision.direct;
        self.tuned.push(decision);
        if !direct {
            self.scratch_len = self.scratch_len.max(cols_len);
        }
        self.ops.push(InferOp::Conv2d {
            x: self.buf(x),
            out: self.buf(out),
            packed,
            lanes: ConvLanes::new(weight.data(), bias.data(), out_c, k),
            weight: weight.data().to_vec(),
            bias: bias.data().to_vec(),
            geom,
            out_c,
            cols_len,
            direct,
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
    /// im2col scratch floats needed by the largest non-direct conv.
    scratch_len: usize,
    pub(crate) output_buf: usize,
    /// Per-conv route decisions (op order), recorded by the tuner.
    tuned: Vec<ConvRouteDecision>,
}

impl InferencePlan {
    /// Compiles `net` into a flat plan, snapshotting its current weights.
    pub fn compile(net: &ConvNet) -> Self {
        let mut p = InferencePlanner::new(net.input_spec());
        let input = p.input_slot();
        let out = net.stack().plan(&mut p, input);
        assert_eq!(
            p.dims(out),
            &[net.num_classes()],
            "network output slot is not a [num_classes] logit vector"
        );
        InferencePlan {
            input: net.input_spec(),
            num_classes: net.num_classes(),
            output_buf: p.buf(out),
            ops: p.ops,
            buf_lens: p.buf_lens,
            buf_dims: p.buf_dims,
            scratch_len: p.scratch_len,
            tuned: p.tuned,
        }
    }

    /// Expected input geometry.
    pub fn input_spec(&self) -> InputSpec {
        self.input
    }

    /// The tuner's per-conv route decisions, in op order — one entry per
    /// planned convolution. Empty for conv-free plans (the MLP).
    pub fn tuner_report(&self) -> &[ConvRouteDecision] {
        &self.tuned
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
            scratch: vec![0.0; self.scratch_len],
            // Pre-grown to the blocked GEMM's fixed panel capacity so the
            // first query is as allocation-free as the rest.
            pack_buf: vec![
                0.0;
                if self.scratch_len > 0 {
                    gemm::KC * gemm::NC
                } else {
                    0
                }
            ],
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
        let ForwardWorkspace {
            bufs,
            scratch,
            pack_buf,
        } = ws;
        bufs[0].copy_from_slice(image.data());
        for op in &self.ops {
            // Per-layer timing hook: the guard records call count and
            // elapsed nanoseconds on drop. With telemetry off both the
            // guard and this call compile to nothing.
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
                    packed,
                    weight,
                    bias,
                    geom,
                    out_c,
                    cols_len,
                    direct,
                    ..
                } => {
                    let (xb, ob) = buf_pair(bufs, *x, *out);
                    if *direct {
                        let full = Rect::full(geom.out_h(), geom.out_w());
                        ops::conv2d_region_into(xb, weight, bias, geom, *out_c, full, ob);
                    } else {
                        let cols = &mut scratch[..*cols_len];
                        ops::im2col_into(xb, geom, cols);
                        let area = geom.out_h() * geom.out_w();
                        // Blocked, panel-packed GEMM — bit-identical to
                        // the naive `matmul_into` it replaced (see
                        // `oppsla_tensor::gemm`).
                        gemm::matmul_packed_into(packed, cols, area, pack_buf, ob);
                        for oc in 0..*out_c {
                            let b = bias[oc];
                            for v in &mut ob[oc * area..(oc + 1) * area] {
                                *v += b;
                            }
                        }
                    }
                }
                InferOp::Linear {
                    x,
                    out,
                    weight_t,
                    bias,
                    in_f,
                    out_f,
                } => {
                    let (xb, ob) = buf_pair(bufs, *x, *out);
                    gemm::linear_nt_into(xb, weight_t, *in_f, *out_f, ob);
                    for (o, &bv) in ob.iter_mut().zip(bias) {
                        *o += bv;
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
                InferOp::Add { x, y, out } => {
                    {
                        let (xb, ob) = buf_pair(bufs, *x, *out);
                        ob.copy_from_slice(xb);
                    }
                    let (yb, ob) = buf_pair(bufs, *y, *out);
                    for (o, &v) in ob.iter_mut().zip(yb) {
                        *o += v;
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
/// across queries is the point. `scratch` holds the im2col buffer for the
/// largest GEMM-path conv — empty when every conv runs the fused direct
/// kernel (e.g. none, or all large feature maps).
#[derive(Debug)]
pub struct ForwardWorkspace {
    pub(crate) bufs: Vec<Vec<f32>>,
    scratch: Vec<f32>,
    /// B-panel packing scratch for the blocked GEMM (fixed `KC·NC`
    /// capacity; empty when every conv runs the direct kernel).
    pack_buf: Vec<f32>,
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

    #[test]
    #[should_panic(expected = "geometry disagrees")]
    fn rejects_wrong_image_geometry() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 2, &mut rng);
        let engine = InferenceEngine::new(&net);
        engine.scores(&Tensor::zeros([3, 16, 16]));
    }
}
