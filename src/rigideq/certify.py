"""Certificate verification and end-user rigidity / lower-bound certificates.

An annihilator Q for a universal map P proves non-membership in the image:
Q(M) != 0 means M is not of the bounded-complexity form P parameterizes.
The checks here are one-sided by design; "not certified" draws no conclusion.
"""

from __future__ import annotations

import json
import random
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .annihilator import AnnihilatorCertificate
from .generators import RigidityParams, rigidity_map
from .lincircuit import universal_graph, universal_map
from .oracle import DenseMatrix
from .poly import MultiPoly, PolyMap, poly_compose


@dataclass(frozen=True)
class PitReport:
    """Schwartz-Zippel failure bounds for a randomized identity test."""

    trials: int
    p: int
    degree_bound: int  # deg(Q) * deg(P)
    per_trial_bound: Fraction
    aggregate_bound: Fraction

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "p": self.p,
            "degree_bound": self.degree_bound,
            "per_trial_bound": [self.per_trial_bound.numerator, self.per_trial_bound.denominator],
            "aggregate_bound": [self.aggregate_bound.numerator, self.aggregate_bound.denominator],
        }

    def display(self) -> str:
        approx = float(self.aggregate_bound) if self.aggregate_bound < 1 else 1.0
        return f"failure probability <= ({self.degree_bound}/{self.p})^{self.trials} ~ {approx:.3e}"


def verify_symbolic(q: MultiPoly, pmap: PolyMap) -> bool:
    """Exact check that Q o P is the zero polynomial."""
    return poly_compose(q, pmap).is_zero()


def verify_pit(q: MultiPoly, pmap: PolyMap, trials: int, seed) -> tuple[bool, PitReport]:
    """Randomized identity test of Q o P == 0 at seeded points.

    A nonzero evaluation is conclusive (returns False); all-zero returns True
    with failure probability at most (deg(Q)*deg(P)/p)^trials.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    p = pmap.field.p
    dq, dp = q.degree(), pmap.degree()
    dd = 0 if dq == float("-inf") or dp == float("-inf") else int(dq) * int(dp)
    if p <= dd:
        warnings.warn(f"p={p} <= composed degree bound {dd}: the Schwartz-Zippel bound degenerates")
    per_trial = min(Fraction(dd, p), Fraction(1))
    report = PitReport(trials, p, dd, per_trial, per_trial**trials)
    rng = random.Random(f"{seed}:pit:{pmap.label}")
    betas = [[rng.randrange(p) for _ in range(pmap.in_arity)] for _ in range(trials)]
    if any(q.evaluate(image) for image in pmap.evaluate_many(betas).tolist()):
        return False, report
    return True, report


_RIGIDITY_LABEL = re.compile(r"^rigidity\((\d+),(\d+),(\d+)\)$")
_UNIVERSAL_LABEL = re.compile(r"^universal\((\d+),(\d+),(\d+),(\d+)\)$")


class UnverifiedCertificateError(ValueError):
    pass


def _require_labelled_map(cert: AnnihilatorCertificate, kind: str, build):
    """Refuse a certificate whose embedded map is not build(), the map its label names."""
    try:
        expected = build()
    except ValueError as exc:
        raise UnverifiedCertificateError(f"label {cert.label!r} names no {kind} map: {exc}") from exc
    if cert.pmap != expected:
        raise UnverifiedCertificateError(f"embedded map is not the {cert.label} map")


def _require_verified(cert: AnnihilatorCertificate):
    """Refuse unless the certificate claims symbolic verification, Q is nonzero
    and Q o P = 0 holds here: the stored flag alone is never trusted."""
    if not cert.verification.get("symbolic_verified"):
        raise UnverifiedCertificateError("certificate lacks symbolic verification; refusing")
    if cert.q.is_zero():
        raise UnverifiedCertificateError("certificate polynomial is zero")
    if not verify_symbolic(cert.q, cert.pmap):
        raise UnverifiedCertificateError("certificate failed symbolic re-verification")


@dataclass(frozen=True)
class RigidityCertificate:
    """Witness that Q(M) != 0 for a verified rigidity-map annihilator Q, hence
    M is (r, k)-rigid wherever the formal identity Q o P == 0 applies."""

    n: int
    r: int
    k: int
    p: int
    matrix: DenseMatrix
    annihilator: AnnihilatorCertificate
    value: int

    def to_json_dict(self) -> dict:
        return {
            "kind": "rigidity",
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "p": self.p,
            "matrix": list(self.matrix.entries),
            "value": self.value,
            "annihilator": self.annihilator.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def certify_rigid(matrix: DenseMatrix, cert: AnnihilatorCertificate):
    """RigidityCertificate when Q(M) != 0, else None ("not certified").

    The label's (n, r, k) is what gets certified, so the embedded map must be
    exactly the rigidity map that label names.
    """
    m = _RIGIDITY_LABEL.match(cert.label)
    if not m:
        raise ValueError(f"certificate is not for a rigidity map: label {cert.label!r}")
    n, r, k = map(int, m.groups())
    _require_labelled_map(cert, "rigidity", lambda: rigidity_map(RigidityParams(cert.pmap.field, n, r, k)))
    _require_verified(cert)
    if matrix.field != cert.pmap.field:
        raise ValueError("matrix and certificate over different fields")
    if (matrix.rows, matrix.cols) != (n, n):
        raise ValueError(f"matrix is {matrix.rows}x{matrix.cols}, certificate expects {n}x{n}")
    value = cert.q.evaluate(matrix.entries)
    if value == 0:
        return None
    return RigidityCertificate(n, r, k, matrix.field.p, matrix, cert, value)


@dataclass(frozen=True)
class CircuitLowerBoundCertificate:
    """Witness that Q(M) != 0 for a universal-circuit-map annihilator, hence M
    has no linear circuit within the recorded (size, depth, width) budget."""

    n: int
    s_budget: int
    L: int
    w: int
    p: int
    matrix: DenseMatrix
    annihilator: AnnihilatorCertificate
    value: int

    def to_json_dict(self) -> dict:
        return {
            "kind": "circuit-lower-bound",
            "n": self.n,
            "s_budget": self.s_budget,
            "L": self.L,
            "w": self.w,
            "p": self.p,
            "matrix": list(self.matrix.entries),
            "value": self.value,
            "annihilator": self.annihilator.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def certify_circuit_lower_bound(matrix: DenseMatrix, cert: AnnihilatorCertificate):
    """Certificate when Q(M) != 0, recording the exact excluded budget."""
    m = _UNIVERSAL_LABEL.match(cert.label)
    if not m:
        raise ValueError(f"certificate is not for a universal circuit map: label {cert.label!r}")
    n, s_budget, L, w = map(int, m.groups())
    _require_labelled_map(cert, "universal", lambda: universal_map(universal_graph(cert.pmap.field, n, s_budget, L, w)))
    _require_verified(cert)
    if matrix.field != cert.pmap.field:
        raise ValueError("matrix and certificate over different fields")
    if (matrix.rows, matrix.cols) != (n, n):
        raise ValueError(f"matrix is {matrix.rows}x{matrix.cols}, certificate expects {n}x{n}")
    # universal_map coordinates are row-major over (input i, output j)
    flat = [matrix.get(j, i) for i in range(n) for j in range(n)]
    value = cert.q.evaluate(flat)
    if value == 0:
        return None
    return CircuitLowerBoundCertificate(n, s_budget, L, w, matrix.field.p, matrix, cert, value)
