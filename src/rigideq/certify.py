"""Certificates and their verification: the annihilator certificate that
solve writes, and the rigidity / lower-bound certificates built on it.

An annihilator Q for a universal map P proves non-membership in the image:
Q(M) != 0 means M is not of the bounded-complexity form P parameterizes.
The checks here are one-sided by design; "not certified" draws no conclusion.
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .generators import bound_map, map_spec
from .oracle import DenseMatrix
from .poly import MultiPoly, PolyMap, poly_compose

DEGREE_SEARCH_CAP = 64  # the largest D a certificate may record, and so solve may search
MAX_RESAMPLE_ROUNDS = 4  # the most sampled rounds solve takes at one D
_CERT_KEYS = {"kind", "label", "p", "map", "D", "mode", "seed", "Q", "verification"}
_COUNTS = {"symbolic": ("kernel_dim", "rows"), "sampled": ("kernel_dim", "rows", "rounds")}  # per mode


@dataclass(frozen=True)
class AnnihilatorCertificate:
    """A nonzero Q with Q o P == 0, plus how it was found and verified."""

    pmap: PolyMap
    q: MultiPoly
    degree: int
    mode: str
    seed: int
    verification: dict
    # the document from_json read; None when built in memory or by dataclasses.replace
    doc: dict | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def label(self) -> str:
        return self.pmap.label

    def to_json_dict(self) -> dict:
        return {
            "kind": "annihilator",
            "label": self.pmap.label,
            "p": self.pmap.field.p,
            "map": self.pmap.to_json_dict(),
            "D": self.degree,
            "mode": self.mode,
            "seed": self.seed,
            "Q": self.q.to_json_dict(),
            "verification": self.verification,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AnnihilatorCertificate":
        """from_json of the document's JSON text: the same checks, number types included."""
        return cls.from_json(json.dumps(doc))

    @classmethod
    def from_json(cls, text: str) -> "AnnihilatorCertificate":
        """The certificate of a document with exactly the fields and values solve
        writes. A map labelled in the grammar is bound by comparison and never
        parsed (generators.bound_map). Floats are refused as they are read and
        the one boolean is symbolic_verified, so == compares only ints."""
        doc = json.loads(text, parse_float=_refuse_float, parse_constant=_refuse_float)
        if set(doc) != _CERT_KEYS or doc["kind"] != "annihilator" or doc["mode"] not in _COUNTS:
            raise ValueError("not an annihilator certificate with the fields and a mode that solve writes")
        v, counts = doc["verification"], _COUNTS[doc["mode"]]
        if not isinstance(v, dict) or set(v) != {"symbolic_verified", *counts} or v["symbolic_verified"] is not True:
            raise ValueError(f"verification record {v!r} does not fit a {doc['mode']} certificate")
        if not all(type(v[k]) is int and v[k] >= 1 for k in counts) or v.get("rounds", 1) > MAX_RESAMPLE_ROUNDS:
            raise ValueError(f"need positive int counts and rounds <= {MAX_RESAMPLE_ROUNDS}: {v}")
        if type(doc["p"]) is not int or type(doc["D"]) is not int or type(doc["seed"]) is not int:
            raise TypeError(f"certificate p, D and seed must be ints: {doc['p']!r}, {doc['D']!r}, {doc['seed']!r}")
        pmap = bound_map(doc["map"])
        if pmap is None:
            pmap = PolyMap.from_json_dict(doc["map"])
        elif text.count("true") != 1 or "false" in text:
            raise TypeError("a JSON boolean stands where a certificate holds a number")
        q = MultiPoly.from_json_dict(doc["Q"])
        if q.to_json_dict() != doc["Q"]:
            raise ValueError("Q is not written canonically: residues in [1, p) in graded lex order")
        # bounds deg Q, and with it the cost of every check of Q o P
        if not 1 <= doc["D"] <= DEGREE_SEARCH_CAP or q.degree() > doc["D"]:
            raise ValueError(f"need deg Q <= D in 1..{DEGREE_SEARCH_CAP}: D={doc['D']}, deg Q={q.degree()}")
        if doc["p"] != pmap.field.p or doc["label"] != pmap.label:
            raise ValueError("certificate p or label contradicts its map")
        if q.field != pmap.field or q.nvars != pmap.out_arity:
            raise ValueError("Q does not fit the map: wrong field or number of variables")
        cert = cls(pmap=pmap, q=q, degree=doc["D"], mode=doc["mode"], seed=doc["seed"], verification=v)
        object.__setattr__(cert, "doc", doc)
        return cert


def _refuse_float(text: str):
    raise TypeError(f"certificate numbers are integers, not {text}")


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
