"""Certificate verification and end-user rigidity / lower-bound certificates.

An annihilator Q for a universal map P proves non-membership in the image:
Q(M) != 0 means M is not of the bounded-complexity form P parameterizes.
The checks here are one-sided by design; "not certified" draws no conclusion.
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction

from .annihilator import AnnihilatorCertificate
from .generators import bound_map, map_spec
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


class UnverifiedCertificateError(ValueError):
    pass


class _MatrixCertificate:
    """JSON of its fields, the matrix as entries and the annihilator as the
    document it was loaded from, as it is, or else built from its parts."""

    def to_json_dict(self) -> dict:
        ann = self.annihilator
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "kind": self.kind,
                "matrix": list(self.matrix.entries), "annihilator": ann.doc or ann.to_json_dict()}

    def to_json(self) -> str:
        # a fresh tree of JSON values, which holds no cycle to look for
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


@dataclass(frozen=True)
class RigidityCertificate(_MatrixCertificate):
    """Witness that Q(M) != 0 for a verified rigidity-map annihilator Q, hence
    M is (r, k)-rigid wherever the formal identity Q o P == 0 applies."""

    kind = "rigidity"
    n: int
    r: int
    k: int
    p: int
    matrix: DenseMatrix
    annihilator: AnnihilatorCertificate
    value: int


def _labelled_value(matrix: DenseMatrix, cert: AnnihilatorCertificate, name: str):
    """The label's arguments, which are what gets certified, and Q(M), once
    the label names a `name` map equal to the certificate's, the certificate
    is verified here and M is an n x n matrix over the certificate's field."""
    spec = map_spec(cert.label)
    if spec is None or spec[0] != name:
        raise ValueError(f"certificate is not for a {name} map: label {cert.label!r}")
    if cert.doc is None:  # built in memory: bound here as from_json binds a loaded one
        try:
            bound_map(cert.pmap.to_json_dict())
        except ValueError as exc:
            raise UnverifiedCertificateError(str(exc)) from exc
    # the stored flag alone is never trusted: Q is nonzero and Q o P = 0 here
    if not cert.verification.get("symbolic_verified"):
        raise UnverifiedCertificateError("certificate lacks symbolic verification; refusing")
    if cert.q.is_zero():
        raise UnverifiedCertificateError("certificate polynomial is zero")
    if not verify_symbolic(cert.q, cert.pmap):
        raise UnverifiedCertificateError("certificate failed symbolic re-verification")
    n = spec[1][0]
    if matrix.field != cert.pmap.field:
        raise ValueError("matrix and certificate over different fields")
    if (matrix.rows, matrix.cols) != (n, n):
        raise ValueError(f"matrix is {matrix.rows}x{matrix.cols}, certificate expects {n}x{n}")
    # universal_map coordinates are row-major over (input i, output j)
    entries = matrix.entries if name == "rigidity" else [matrix.get(j, i) for i in range(n) for j in range(n)]
    return spec[1], cert.q.evaluate(entries)


def certify_rigid(matrix: DenseMatrix, cert: AnnihilatorCertificate):
    """RigidityCertificate when Q(M) != 0, else None ("not certified")."""
    (n, r, k), value = _labelled_value(matrix, cert, "rigidity")
    return RigidityCertificate(n, r, k, matrix.field.p, matrix, cert, value) if value else None


@dataclass(frozen=True)
class CircuitLowerBoundCertificate(_MatrixCertificate):
    """Witness that Q(M) != 0 for a universal-circuit-map annihilator, hence M
    has no linear circuit within the recorded (size, depth, width) budget."""

    kind = "circuit-lower-bound"
    n: int
    s_budget: int
    L: int
    w: int
    p: int
    matrix: DenseMatrix
    annihilator: AnnihilatorCertificate
    value: int


def certify_circuit_lower_bound(matrix: DenseMatrix, cert: AnnihilatorCertificate):
    """Certificate when Q(M) != 0, recording the exact excluded budget."""
    (n, s_budget, L, w), value = _labelled_value(matrix, cert, "universal")
    return CircuitLowerBoundCertificate(n, s_budget, L, w, matrix.field.p, matrix, cert, value) if value else None
