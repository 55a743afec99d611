"""Crossbar physical configuration."""

from dataclasses import dataclass, asdict

from .errors import ValidationError

# Default device/array parameters: R_on = 15 kOhm, R_off = 300 kOhm,
# 1 Ohm wire segments and terminal resistances, 0.2 V sensing range.
DEFAULT_G_MIN = 1.0 / 300_000.0
DEFAULT_G_MAX = 1.0 / 15_000.0
DEFAULT_R_WIRE = 1.0
DEFAULT_R_IN = 1.0
DEFAULT_R_OUT = 1.0
DEFAULT_V_SENSE_MAX = 0.2


@dataclass(frozen=True)
class CrossbarConfig:
    """Physical parameters of one crossbar instance.

    ``rows`` x ``cols`` 1T1M cells, device conductance in [g_min, g_max]
    siemens, one ``r_wire`` segment between adjacent cross-points plus one
    segment from the edge cross-point to the terminal resistance. Inputs
    drive rows at the west edge through ``r_in``; columns sink at the south
    edge into ground through ``r_out``. The select transistor is lumped as
    a series ``r_transistor_on``.
    """

    rows: int
    cols: int
    g_min: float = DEFAULT_G_MIN
    g_max: float = DEFAULT_G_MAX
    r_wire: float = DEFAULT_R_WIRE
    r_in: float = DEFAULT_R_IN
    r_out: float = DEFAULT_R_OUT
    r_transistor_on: float = 0.0
    v_sense_max: float = DEFAULT_V_SENSE_MAX

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValidationError(f"rows/cols must be positive, got {self.rows}x{self.cols}")
        if not (0.0 < self.g_min < self.g_max):
            raise ValidationError(f"need 0 < g_min < g_max, got g_min={self.g_min}, g_max={self.g_max}")
        for name in ("r_wire", "r_in", "r_out", "r_transistor_on"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.v_sense_max <= 0.0:
            raise ValidationError(f"v_sense_max must be > 0, got {self.v_sense_max}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValidationError(f"unknown crossbar config keys: {sorted(extra)}")
        missing = {"rows", "cols"} - set(d)
        if missing:
            raise ValidationError(f"crossbar config missing keys: {sorted(missing)}")
        return cls(**d)
