"""Summary statistics shared by the end-to-end and per-layer reports."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail value


def tail_level(count: int) -> Optional[float]:
    """Highest quantile level that leaves at least TAIL_BEYOND samples beyond it."""
    if count <= TAIL_BEYOND:
        return None
    return (count - TAIL_BEYOND) / count


def weighted_quantile(values: Sequence[float], weights: Sequence[float], q: float) -> float:
    """Quantile q of weighted samples, interpolated linearly between the
    midpoints of the samples' weight intervals.  Two samples of nearly equal
    value that swap places between runs then barely move the result."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    mids, acc = [], 0.0
    for _, w in pairs:
        mids.append((acc + w / 2) / total)
        acc += w
    if q <= mids[0]:
        return pairs[0][0]
    for (v0, _), (v1, _), m0, m1 in zip(pairs, pairs[1:], mids, mids[1:]):
        if q <= m1:
            return v0 + (v1 - v0) * (q - m0) / (m1 - m0)
    return pairs[-1][0]


def quantile(values: Sequence[float], q: float) -> float:
    return weighted_quantile(values, [1.0] * len(values), q)


def _per_input(keys: Sequence[Tuple], values: Sequence[float]) -> Dict:
    """stratum -> input -> values; a key is (stratum, input)."""
    out: Dict = defaultdict(lambda: defaultdict(list))
    for (stratum, inp), v in zip(keys, values):
        out[stratum][inp].append(v)
    return out


def mix_weights(keys: Sequence[Tuple]) -> List[float]:
    """Weight each job so that every stratum, and within it every input,
    counts equally however often it ran."""
    grouped = _per_input(keys, [0.0] * len(keys))
    return [1.0 / (len(grouped[s]) * len(grouped[s][i])) for s, i in keys]


def mix_throughput(keys: Sequence[Tuple], seconds: Sequence[float]) -> float:
    """Jobs per second at the mix in which every stratum, and within it
    every input, gets equally many jobs."""
    grouped = _per_input(keys, seconds)
    total = sum(sum(sum(ts) / len(ts) for ts in by_input.values()) / len(by_input)
                for by_input in grouped.values())
    return len(grouped) / total


def loglog_slope(points: Iterable[Tuple[str, int, float]]) -> Tuple[Optional[float], Dict[str, float]]:
    """Growth exponent of time against n.

    points are (family, n, seconds).  Returns the exponent pooled over
    families (each family keeps its own constant factor) and one exponent per
    family; a family needs two distinct n to contribute.
    """
    by_family: Dict[str, Dict[int, List[float]]] = defaultdict(lambda: defaultdict(list))
    for family, n, t in points:
        if t > 0:
            by_family[family][n].append(t)
    num = den = 0.0
    per_family: Dict[str, float] = {}
    for family, by_n in by_family.items():
        if len(by_n) < 2:
            continue
        xs = [math.log(n) for n in by_n]
        ys = [math.log(quantile(ts, 0.5)) for ts in by_n.values()]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        fnum = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        fden = sum((x - mx) ** 2 for x in xs)
        per_family[family] = fnum / fden
        num += fnum
        den += fden
    return (num / den if den else None), per_family
