"""Ideal uniform quantizer models for input DACs and ramping-counter ADCs."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_int, is_int, is_number

MIN_BITS, MAX_BITS = 2, 16
# calibrated ADC full scale over the largest sample current
ADC_HEADROOM = 1.05


def check_bits(bits):
    """Reject a quantizer width that is not None (no quantizer) or an integer
    in [MIN_BITS, MAX_BITS]; return it."""
    if bits is not None and not (is_int(bits) and MIN_BITS <= bits <= MAX_BITS):
        raise ValidationError(
            f"bits must be an integer in [{MIN_BITS}, {MAX_BITS}] or None, got {bits!r}")
    return bits


@dataclass
class DacSpec:
    """Input DAC: uniform levels over [0, v_max] volts; None disables it."""

    bits: int | None
    v_max: float
    clip_count: int = field(default=0, compare=False)

    def __post_init__(self):
        check_bits(self.bits)
        check_int(self.clip_count, "DAC clip_count")
        if not is_number(self.v_max):
            raise ValidationError(f"DAC range must be finite, got v_max={self.v_max}")
        if self.v_max <= 0.0:
            raise ValidationError(f"need v_max > 0, got {self.v_max}")


@dataclass
class AdcSpec:
    """Ramping ADC: uniform levels over [i_min, i_max] amperes; None disables it.

    One reference range per crossbar (the ramp is shared across columns).
    Out-of-range samples clamp; `clip_count` tallies them.
    """

    bits: int | None
    i_max: float
    i_min: float = 0.0
    clip_count: int = field(default=0, compare=False)

    def __post_init__(self):
        check_bits(self.bits)
        check_int(self.clip_count, "ADC clip_count")
        if not (is_number(self.i_min) and is_number(self.i_max)):
            raise ValidationError(
                f"ADC range must be finite, got [{self.i_min}, {self.i_max}]")
        if self.i_min < 0.0 or self.i_max <= self.i_min:
            raise ValidationError(f"need i_max > i_min >= 0, got [{self.i_min}, {self.i_max}]")


def _quantize(x, lo, hi, bits, spec):
    """lo + floor((clip(x) - lo) / lsb + 0.5) lsb, the nearest level with
    halves rounding up, clipped into one new array and rounded in place; a
    0-d x gives a scalar."""
    x = np.asarray(x, dtype=float)
    spec.clip_count += int(np.count_nonzero((x < lo) | (x > hi)))
    lsb = (hi - lo) / (2 ** bits - 1)
    q = np.clip(x, lo, hi, out=np.empty_like(x))
    q -= lo
    q /= lsb
    q += 0.5
    np.floor(q, out=q)
    q *= lsb
    q += lo
    return q[()]


def dac_quantize(v, spec: DacSpec):
    """Quantize voltages onto the DAC grid; identity when disabled."""
    if spec is None or spec.bits is None:
        return np.asarray(v, dtype=float)
    return _quantize(v, 0.0, spec.v_max, spec.bits, spec)


def adc_quantize(i, spec: AdcSpec):
    """Quantize currents onto the ADC grid (reconstructed code * LSB)."""
    if spec is None or spec.bits is None:
        return np.asarray(i, dtype=float)
    return _quantize(i, spec.i_min, spec.i_max, spec.bits, spec)


def calibrate_adc_range(bits, sample_currents) -> AdcSpec:
    """ADC reference range from observed column currents: [0, ADC_HEADROOM * max]."""
    sample_currents = np.asarray(sample_currents, dtype=float)
    if sample_currents.size == 0:
        raise ValidationError("cannot calibrate ADC range from empty samples")
    if not np.isfinite(sample_currents).all():
        raise ValidationError("cannot calibrate ADC range from non-finite samples")
    peak = float(sample_currents.max())
    if peak <= 0.0:
        raise ValidationError("cannot calibrate ADC range from all-zero samples")
    return AdcSpec(bits=bits, i_min=0.0, i_max=ADC_HEADROOM * peak)
