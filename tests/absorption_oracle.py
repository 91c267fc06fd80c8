"""The polar absorption trigger that the per-maximal lookup tables
replaced, kept verbatim as the differential reference for them.

``oracle_find_absorption(domain, bits, phase)`` scans points in index
order, then the maximals through each point, then the hyperplanes of
each maximal, on big-int masks; ``classify._find_absorption`` must
return the same ``(point, vertices of the point)`` or ``None``.
"""

from __future__ import annotations

from degone.domains import (
    Domain,
    coordinate_column_bits,
    coords_inside,
    vertices_within,
)
from degone.subspaces import enumerate_subspaces


def _polar_forcing_data(domain: Domain):
    """Per-maximal supports used by the absorption triggers.

    For each maximal S: the packed support of the vertices inside S, and
    for each hyperplane of S its packed support together with the mask
    of the coordinate points it contains.
    """
    data = domain._cache.get("oracle_forcing")
    if data is None:
        # a hyperplane of S is S meet H for an ambient hyperplane H not
        # containing S; on point masks that meet is an intersection
        spec = domain.polar
        cols = coordinate_column_bits(domain)
        maxes = [coords_inside(domain, s) for s in spec.isotropic_subspaces(spec.rank)]
        hyps = enumerate_subspaces(domain.field, spec.ambient_dim, spec.ambient_dim - 1)
        hyps = [coords_inside(domain, h) for h in hyps]
        in_s = [vertices_within(domain, m) for m in maxes]
        point_maxes = [
            [si for si, m in enumerate(maxes) if (m >> j) & 1] for j in range(domain.c)
        ]
        hyp_data = [
            [(vertices_within(domain, t), t) for t in {m & h for h in hyps if m & ~h}]
            for m in maxes
        ]
        data = (cols, in_s, point_maxes, hyp_data)
        domain._cache["oracle_forcing"] = data
    return data


def oracle_find_absorption(domain: Domain, bits: int, phase: int):
    """First point (canonical order) triggering the given absorption phase.

    Phase 1 absorbs a point to zero, phase 2 to one.  For k = n the
    trigger is the global one: the point's vertices all carry 1 (resp.
    0) while the function is not constant.  For k < n the trigger is the
    shape of the restriction to one maximal S through the point: all of
    p's vertices in S agree, and the disagreeing side within S is empty
    or exactly the vertex set of a hyperplane of S off p.
    """
    cols, in_s, point_maxes, hyp_data = _polar_forcing_data(domain)
    k, n = domain.params["k"], domain.params["n"]
    full = (1 << domain.v) - 1
    if phase == 2:
        bits = bits ^ full  # phase 2 is phase 1 on the complement
    if k == n:
        if bits == full:
            return None
        for j in range(domain.c):
            vp = cols[j]
            if vp and (bits & vp) == vp:
                return j, vp
        return None
    for j in range(domain.c):
        vp = cols[j]
        if vp == 0:
            continue
        for si in point_maxes[j]:
            ones_s = bits & in_s[si]
            ball = vp & in_s[si]
            if ball == 0 or (ones_s & ball) != ball:
                continue
            rest = ones_s & ~ball
            if rest == 0:
                return j, vp
            for support, inside in hyp_data[si]:
                if rest == support and not (inside >> j) & 1:
                    return j, vp
    return None


def seeded_inputs(domain: Domain, seed: int, count: int) -> list[int]:
    """``count`` functions on a polar domain, drawn from ``seed``.  Half
    start uniformly random, half from the vertices of one or two ambient
    hyperplanes (near the degree-1 functions, where little fires).  On
    every other one, one or two shapes are planted in a maximal S through
    a point p: p's vertices in S, alone, with the vertices of a
    hyperplane of S on or off p, or with one of them dropped.  Every
    other input is complemented, so that phase 2 fires as often."""
    import random

    rng = random.Random(seed)
    cols, in_s, point_maxes, hyp_data = _polar_forcing_data(domain)
    spec = domain.polar
    d = spec.ambient_dim
    sections = [
        vertices_within(domain, coords_inside(domain, h))
        for h in enumerate_subspaces(domain.field, d, d - 1)
    ]
    points = [j for j in range(domain.c) if point_maxes[j]]
    full = (1 << domain.v) - 1
    out = []
    for i in range(count):
        if i % 4 < 2:
            bits = rng.getrandbits(domain.v)
        else:
            bits = rng.choice(sections) | rng.choice((0, rng.choice(sections)))
        if i % 2:
            for _ in range(rng.choice((1, 1, 2))):
                j = rng.choice(points)
                si = rng.choice(point_maxes[j])
                shape = cols[j] & in_s[si]
                roll = rng.random()
                if roll < 0.6 and hyp_data[si]:
                    shape |= rng.choice(hyp_data[si])[0]
                elif roll < 0.7:
                    shape &= ~(1 << rng.choice(range(shape.bit_length())))
                bits = (bits & ~in_s[si]) | shape
        out.append(bits ^ full if i % 8 >= 4 else bits)
    return out


def mismatches(domain: Domain, find, inputs) -> list[tuple[int, int]]:
    """The (function, phase) pairs on which ``find`` and the oracle differ."""
    return [
        (bits, phase)
        for bits in inputs
        for phase in (1, 2)
        if find(domain, bits, phase) != oracle_find_absorption(domain, bits, phase)
    ]


def main(argv=None) -> int:
    """Run the differential on seeded inputs over one polar domain:
    ``python tests/absorption_oracle.py FORM RANK Q K SEED COUNT``."""
    import sys
    import time

    from degone.classify import _find_absorption
    from degone.domains import build_polar
    from degone.forms import standard_polar
    from degone.gf import field_spec

    form, rank, q, k, seed, count = (argv or sys.argv[1:])
    dom = build_polar(standard_polar(form, int(rank), field_spec(int(q))), int(k))
    t0 = time.monotonic()
    inputs = seeded_inputs(dom, int(seed), int(count))
    bad = mismatches(dom, _find_absorption, inputs)
    fired = sum(_find_absorption(dom, b, p) is not None for b in inputs for p in (1, 2))
    print(
        f"{form} rank {rank} q {q} k {k} (v = {dom.v}): {len(inputs)} inputs, "
        f"{fired} of {2 * len(inputs)} (input, phase) pairs fire, "
        f"{len(bad)} mismatches, {time.monotonic() - t0:.1f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
