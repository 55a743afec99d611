"""Error metrics and synthetic kernel/input generators."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# fixed histogram bin edges for relative-error distributions (last bin
# collects everything >= 10% of output range)
HIST_EDGES = np.concatenate([np.linspace(0.0, 0.1, 51), [np.inf]])


def relative_error(actual, ideal, output_range):
    """|actual - ideal| / output_range, elementwise."""
    if output_range <= 0.0:
        raise ValidationError(f"output_range must be > 0, got {output_range}")
    return np.abs(np.asarray(actual, dtype=float) - np.asarray(ideal, dtype=float)) / output_range


def output_range(ideal):
    """Ideal output range (max - min) over an evaluation set."""
    ideal = np.asarray(ideal, dtype=float)
    return float(ideal.max() - ideal.min())


def bit_accuracy(rel_err):
    """Effective output resolution in bits: log2(1/rel_err + 1).

    rel_err == 0 has no finite resolution; callers report it as "exact".
    """
    if rel_err <= 0.0:
        raise ValidationError(f"bit_accuracy needs rel_err > 0, got {rel_err}")
    return float(np.log2(1.0 / rel_err + 1.0))


@dataclass
class RelErrorStats:
    """Aggregate relative-error statistics over one evaluation set."""

    mean: float
    worst: float
    histogram: np.ndarray   # counts per HIST_EDGES bin
    sample_count: int
    output_range: float

    @classmethod
    def from_outputs(cls, actual, ideal, out_range=None):
        ideal = np.asarray(ideal, dtype=float)
        if out_range is None:
            out_range = output_range(ideal)
        rel = relative_error(actual, ideal, out_range).ravel()
        hist, _ = np.histogram(rel, bins=HIST_EDGES)
        return cls(mean=float(rel.mean()), worst=float(rel.max()),
                   histogram=hist, sample_count=rel.size,
                   output_range=float(out_range))

    def to_dict(self):
        return {"mean": self.mean, "worst": self.worst,
                "sample_count": self.sample_count,
                "output_range": self.output_range,
                "histogram": self.histogram.tolist()}


def gen_kernel(kernel_type, shape, seed, dead_zone=0.2, zero_fraction=0.5):
    """Synthetic 4-D convolution weights (kh, kw, in_c, out_c).

    Type 1: zero-mean Gaussian. Type 2: Gaussian with values inside
    (-dead_zone*sigma, dead_zone*sigma) re-drawn. Type 3: ternary
    {-1, 0, +1} with the given zero fraction.
    """
    if kernel_type not in (1, 2, 3):
        raise ValidationError(f"kernel_type must be 1, 2, or 3, got {kernel_type}")
    rng = np.random.default_rng(seed)
    if kernel_type == 1:
        return rng.normal(0.0, 1.0, size=shape)
    if kernel_type == 2:
        w = rng.normal(0.0, 1.0, size=shape)
        cut = dead_zone  # sigma = 1
        bad = np.abs(w) < cut
        while bad.any():
            w[bad] = rng.normal(0.0, 1.0, size=int(bad.sum()))
            bad = np.abs(w) < cut
        return w
    if not 0.0 <= zero_fraction <= 1.0:
        raise ValidationError(f"zero_fraction must be in [0, 1], got {zero_fraction}")
    p_nz = (1.0 - zero_fraction) / 2.0
    return rng.choice([-1.0, 0.0, 1.0], size=shape, p=[p_nz, zero_fraction, p_nz])


def gen_input(shape, sparsity, seed):
    """Non-negative uniform feature data with exactly round(sparsity*n) zeros."""
    if not 0.0 <= sparsity <= 1.0:
        raise ValidationError(f"sparsity must be in [0, 1], got {sparsity}")
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    flat = rng.uniform(1e-6, 1.0, size=n)
    n_zero = int(round(sparsity * n))
    if n_zero:
        flat[rng.choice(n, size=n_zero, replace=False)] = 0.0
    return flat.reshape(shape)
