"""Emit the degree-1 feasibility system in CPLEX LP text format.

One binary variable per vertex (f0, f1, ... in canonical vertex order),
one integer-scaled equality per kernel row of the incidence matrix, and
optionally one no-good cut per known solution.  Any 0/1 assignment
satisfying the equalities is a Boolean degree-1 function, so external
MIP solvers can attack cases beyond the built-in search; a small
assignment-file reader brings their output back for exact
re-verification.
"""

from __future__ import annotations

from .boolfn import BoolFn
from .classify import degree1_space, is_degree_one
from .domains import Domain, coordinate_column_bits


class LpError(ValueError):
    """Malformed assignment file or invalid export request."""


def _terms(coeffs) -> str:
    parts = []
    for i, a in coeffs:
        if a == 0:
            continue
        sign = "-" if a < 0 else "+"
        mag = abs(a)
        head = f"f{i}" if mag == 1 else f"{mag} f{i}"
        parts.append(f"{sign} {head}")
    if not parts:
        return "0 f0"
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else out


def export_lp(
    domain: Domain,
    known_solutions=(),
    objective: str = "feasibility",
    reduce_cuts: bool = False,
) -> str:
    """Deterministic LP text for the domain's degree-1 system.

    ``objective`` is "feasibility" (constant objective) or "max-weight".
    ``reduce_cuts`` additionally forbids, on polar domains, any point
    whose vertices are all ones or all zeros; that restricts the model
    to reduction fixed points and is deliberately incomplete (the
    constants and point-ball functions are cut away), so it is off by
    default and meant only for external exploration.
    """
    if objective not in ("feasibility", "max-weight"):
        raise LpError(f"unknown objective {objective!r}")
    v = domain.v
    lines = [f"\\ degree-1 system: {_domain_tag(domain)}"]
    if objective == "max-weight":
        lines.append("Maximize")
        lines.append(" obj: " + _terms([(i, 1) for i in range(v)]))
    else:
        lines.append("Minimize")
        lines.append(" obj: 0 f0")
    lines.append("Subject To")
    for r, coeffs in enumerate(_kernel_rows(domain)):
        lines.append(f" k{r}: " + _terms(coeffs) + " = 0")
    for c, h in enumerate(known_solutions):
        if not domain.compatible(h.domain):
            raise LpError("cut function lives on a different domain")
        # sum_{h=0} f_i + sum_{h=1} (1 - f_i) >= 1
        coeffs = [(i, -1 if h.value(i) else 1) for i in range(v)]
        lines.append(f" cut{c}: " + _terms(coeffs) + f" >= {1 - h.weight}")
    if reduce_cuts and domain.family == "polar":
        cols = coordinate_column_bits(domain)
        for j, col in enumerate(cols):
            idx = [i for i in range(v) if (col >> i) & 1]
            if not idx:
                continue
            lines.append(
                f" rlo{j}: " + _terms([(i, 1) for i in idx]) + " >= 1"
            )
            lines.append(
                f" rhi{j}: "
                + _terms([(i, 1) for i in idx])
                + f" <= {len(idx) - 1}"
            )
    lines.append("Binary")
    lines.append(" " + " ".join(f"f{i}" for i in range(v)))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _kernel_rows(domain: Domain):
    """One (vertex, coefficient) list per non-pivot y, by vertex: the
    integer kernel row -dependency[y] on the pivots and scale[y] at y.
    Dependency entries sit only on pivots left of y, so y comes last."""
    space = degree1_space(domain)
    for y, scale, row in zip(
        space.nonpivot_vertices, space.scale.tolist(), space.dependency.tolist()
    ):
        yield [(p, -c) for p, c in zip(space.pivot_vertices, row) if c] + [
            (y, scale)
        ]


def _domain_tag(domain: Domain) -> str:
    parts = [domain.family] + [
        f"{k}={v}" for k, v in sorted(domain.params.items()) if k != "excluded"
    ]
    return " ".join(parts)


def expected_constraint_count(domain: Domain, num_cuts: int = 0) -> int:
    return (domain.v - degree1_space(domain).dim) + num_cuts


def read_assignment(domain: Domain, text: str) -> BoolFn:
    """Parse "name value" lines into a function; absent variables are 0.

    Values must be 0/1 up to a 1e-6 integrality slack (MIP solvers print
    things like 0.9999999).  Unknown names are rejected.
    """
    values = [0] * domain.v
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise LpError(f"line {ln}: expected 'name value'")
        name, val = fields
        if not name.startswith("f") or not name[1:].isdigit():
            raise LpError(f"line {ln}: unknown variable {name!r}")
        i = int(name[1:])
        if not 0 <= i < domain.v:
            raise LpError(f"line {ln}: variable index out of range")
        x = float(val)
        r = round(x)
        if abs(x - r) > 1e-6 or r not in (0, 1):
            raise LpError(f"line {ln}: value {val} is not 0/1")
        values[i] = int(r)
    return BoolFn.from_values(domain, values)


def verify_assignment(domain: Domain, text: str) -> tuple[BoolFn, bool]:
    """Read an external assignment and re-check it exactly."""
    fn = read_assignment(domain, text)
    return fn, is_degree_one(domain, fn)


def cut_system_infeasible(domain: Domain, cuts) -> bool:
    """Does the equality system plus the no-good cuts exclude every 0/1
    solution?  Decided by the built-in enumeration, not a MIP solver."""
    from .classify import SearchConfig, enumerate_all

    cut_bits = {c.bits for c in cuts}
    report = enumerate_all(domain, SearchConfig())
    return all(b in cut_bits for b in report.solution_bits())
