"""Small statistics and naming rules shared by the benchmark and its tests."""
from __future__ import annotations

import math
import re

# a metric name: starts with a letter or digit, at most 64 of [A-Za-z0-9_.-]
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# a unit: at most 16 of [A-Za-z0-9_/%.-]
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# minimum number of samples that must lie above a reported percentile
TAIL_SAMPLES = 10


def valid_metric_name(name: str) -> bool:
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation between
    order statistics, the same rule as ``numpy.percentile``'s default."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n sorted samples rank strictly above the q-th percentile's
    interpolation position (n - 1) * q / 100."""
    return n - 1 - math.floor((n - 1) * q / 100.0) if n else 0


def supported(n: int, q: float) -> bool:
    """A percentile is reported only with at least TAIL_SAMPLES samples
    beyond it: p90 needs 92 samples, p99 needs 902."""
    return samples_beyond(n, q) >= TAIL_SAMPLES


def tail_percentile(values, q: float) -> float:
    """``percentile`` that refuses a tail the sample count cannot support."""
    if not supported(len(values), q):
        raise ValueError(f"p{q:g} needs at least {TAIL_SAMPLES} samples beyond it; "
                         f"{len(values)} samples give {samples_beyond(len(values), q)}")
    return percentile(values, q)


def bit_differences(a: dict, b: dict) -> list[str]:
    """Keys whose float values differ in any bit between two results
    (NaN equals NaN); a key missing from either side counts as differing."""
    differ = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            differ.append(key)
        elif float(a[key]).hex() != float(b[key]).hex():
            differ.append(key)
    return differ
