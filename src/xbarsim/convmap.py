"""Dense mapping of 4-D convolutions onto crossbar VMMs.

Each 3-D kernel (one output channel) is unrolled to one crossbar column;
the convolution window slides over the input feature map and feeds one VMM
per output position. Row order is channel-major, then kernel row, then
kernel column, shared by `unroll_kernel` and `window_matrix`.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError


@dataclass
class ConvSpec:
    """Geometry and weights of one convolution (or 1x1 fully-connected) layer."""

    kernel_h: int
    kernel_w: int
    in_channels: int
    out_channels: int
    stride: int = 1
    padding: int = 0
    weights: np.ndarray | None = None   # (kh, kw, in_c, out_c)

    def __post_init__(self):
        for name in ("kernel_h", "kernel_w", "in_channels", "out_channels", "stride"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.padding < 0:
            raise ValidationError("padding must be >= 0")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            expect = (self.kernel_h, self.kernel_w, self.in_channels, self.out_channels)
            if self.weights.shape != expect:
                raise ValidationError(
                    f"weight shape {self.weights.shape} != {expect}")

    @property
    def unrolled_rows(self):
        return self.kernel_h * self.kernel_w * self.in_channels

    def output_shape(self, in_h, in_w):
        oh = (in_h + 2 * self.padding - self.kernel_h) // self.stride + 1
        ow = (in_w + 2 * self.padding - self.kernel_w) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValidationError(
                f"kernel {self.kernel_h}x{self.kernel_w} does not fit "
                f"{in_h}x{in_w} input with padding {self.padding}")
        return oh, ow


@dataclass
class FeatureMap:
    """(H, W, C) non-negative activation tensor."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3:
            raise ValidationError(f"feature map must be 3-D (H, W, C), got {self.data.shape}")

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def channels(self):
        return self.data.shape[2]


def unroll_kernel(spec: ConvSpec):
    """Unroll 4-D weights to a (kh*kw*in_c) x out_c matrix, channel-major rows."""
    if spec.weights is None:
        raise ValidationError("ConvSpec has no weights to unroll")
    # (kh, kw, in_c, out_c) -> (in_c, kh, kw, out_c) -> rows x cols
    w = np.transpose(spec.weights, (2, 0, 1, 3))
    return w.reshape(spec.unrolled_rows, spec.out_channels).copy()


def window_matrix(fm: FeatureMap, spec: ConvSpec):
    """All convolution-window input vectors as one (out_h*out_w, kh*kw*in_c)
    matrix in raster order, zero-padded at borders."""
    if fm.channels != spec.in_channels:
        raise ValidationError(
            f"feature map has {fm.channels} channels, spec expects {spec.in_channels}")
    oh, ow = spec.output_shape(fm.height, fm.width)
    p, s = spec.padding, spec.stride
    padded = np.pad(fm.data, ((p, p), (p, p), (0, 0)))
    # read-only (y, x, channel, kernel row, kernel column) views of every
    # window; np.array copies the strided selection once into a new array in
    # that C order, which the reshape then only views
    windows = sliding_window_view(padded, (spec.kernel_h, spec.kernel_w),
                                  axis=(0, 1))
    return np.array(windows[::s, ::s][:oh, :ow], order="C").reshape(
        oh * ow, spec.unrolled_rows)


def conv_reference(fm: FeatureMap, spec: ConvSpec):
    """Exact dense convolution: window matrix times unrolled kernel."""
    oh, ow = spec.output_shape(fm.height, fm.width)
    out = window_matrix(fm, spec) @ unroll_kernel(spec)
    return FeatureMap(out.reshape(oh, ow, spec.out_channels))


def conv_reference_loops(fm: FeatureMap, spec: ConvSpec):
    """Naive 6-loop convolution oracle (slow; tests only)."""
    oh, ow = spec.output_shape(fm.height, fm.width)
    p = spec.padding
    padded = np.pad(fm.data, ((p, p), (p, p), (0, 0)))
    out = np.zeros((oh, ow, spec.out_channels))
    for oy in range(oh):
        for ox in range(ow):
            for oc in range(spec.out_channels):
                acc = 0.0
                for ky in range(spec.kernel_h):
                    for kx in range(spec.kernel_w):
                        for ic in range(spec.in_channels):
                            acc += (padded[oy * spec.stride + ky, ox * spec.stride + kx, ic]
                                    * spec.weights[ky, kx, ic, oc])
                out[oy, ox, oc] = acc
    return FeatureMap(out)

