"""A fixed reference computation that measures how fast the machine is right now.

On a shared VM the speed of one CPU moves by 30-45% from minute to minute
as neighbours come and go, and every timing of the benchmark moves with
it. The reference is a plain-numpy tanh-RNN encode and attention decode of
fixed size and seed, the same mix of Python dispatch and tiny numpy calls
as the engine, written here so that no change to ``spi`` can change it.
Timing it next to each measured call gives that call's speed factor.
"""
from __future__ import annotations

import time

import numpy as np

CALLS = 10              # reference passes per probe, about 4 ms in all
NOMINAL_S = 4.0e-3      # probe time that counts as speed factor 1

_rng = np.random.default_rng(20230602)
_EMBED = _rng.normal(size=(64, 32)) * 0.1
_WX = _rng.normal(size=(32, 64)) * 0.1
_WH = _rng.normal(size=(64, 64)) * 0.1
_ATT = _rng.normal(size=(64, 32)) * 0.1
_V = _rng.normal(size=32) * 0.1
_OUT = _rng.normal(size=(64, 64)) * 0.1
_TOKENS = [int(t) for t in _rng.integers(0, 64, size=17)]


def _reference_pass() -> float:
    h = np.zeros(64)
    states = []
    for tok in _TOKENS:
        h = np.tanh(_EMBED[tok] @ _WX + h @ _WH)
        states.append(h)
    slots = np.array(states)
    proj = slots @ _ATT
    total = 0.0
    for tok in _TOKENS[:10]:
        scores = np.tanh(proj + h[:32]) @ _V
        weights = np.exp(scores - scores.max())
        ctx = (weights / weights.sum()) @ slots
        h = np.tanh(_EMBED[tok] @ _WX + ctx @ _WH)
        logits = h @ _OUT
        total += float(logits[tok] - logits.max() - np.log(np.exp(logits - logits.max()).sum()))
    return total


def probe() -> float:
    """Seconds the reference takes now."""
    start = time.perf_counter()
    for _ in range(CALLS):
        _reference_pass()
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Speed factor of a call timed between two probes: above 1 when the
    machine runs slower than nominal. Divide the call's time by it."""
    return (before + after) / (2.0 * NOMINAL_S)
