"""Command-line front end.

Exit-code protocol: 0 success, 1 not certified, 2 no annihilator in the
searched degree range, 3 resource refusal, 4 verification failure, 64 usage
or input error (a bad command, flag or flag value included).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from .annihilator import ResourceLimitError, SolverConfig, VerificationError, find_annihilator
from .certify import (
    AnnihilatorCertificate,
    certify_circuit_lower_bound,
    certify_rigid,
    verify_pit,
    verify_symbolic,
    UnverifiedCertificateError,
)
from .field import PrimeField
from .generators import MAP_GRAMMAR, map_spec, parse_map_spec
from .oracle import (
    OracleCostError,
    is_rigid_bruteforce,
    parse_matrix,
    parse_tensor,
    tensor_rank_bruteforce,
)
from .poly import PolyMap

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_NONE_IN_RANGE = 2
EXIT_RESOURCE = 3
EXIT_VERIFICATION = 4
EXIT_USAGE = 64


def _load_map(args) -> PolyMap:
    if args.map is not None:
        if not args.prime:
            raise ValueError("--map needs --prime")
        return parse_map_spec(PrimeField(args.prime), args.map)
    with open(args.infile) as fh:
        doc = json.load(fh)
    try:
        pmap = PolyMap.from_json_dict(doc)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"unreadable map file: {exc!r}") from exc
    if args.prime and pmap.field.p != args.prime:
        raise ValueError(f"map file has p={pmap.field.p}, --prime says {args.prime}")
    return pmap


def _emit(doc: str, out: str | None):
    """Write doc to the file out, or to stdout.

    An existing file is overwritten in place and then cut at the end of doc,
    never truncated to zero first: on ext4 (auto_da_alloc) closing a file
    that was truncated to zero flushes its data to disk, which took 50-110 ms
    a write on a virtual disk against microseconds in place. A target that
    is not a regular file (/dev/null, a FIFO, a terminal) is only written
    to; it cannot be truncated.
    """
    if not out:
        sys.stdout.write(doc)
        return
    with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(doc)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def cmd_genmap(args) -> int:
    pmap = _load_map(args)
    _emit(json.dumps(pmap.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n", args.out)
    deg = pmap.degree()
    print(f"map {pmap.label}: {pmap.in_arity} -> {pmap.out_arity}, degree {deg}, p={pmap.field.p}", file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    pmap = _load_map(args)
    cfg = SolverConfig(mode=args.mode, d_min=args.dmin, d_max=args.dmax, seed=args.seed)
    cert = find_annihilator(pmap, cfg)
    if cert is None:
        print(f"no annihilator of degree <= {args.dmax} for {pmap.label}", file=sys.stderr)
        return EXIT_NONE_IN_RANGE
    _emit(cert.to_json(), args.out)
    print(f"annihilator for {pmap.label}: D={cert.degree}, {len(cert.q)} terms, mode={cert.mode}", file=sys.stderr)
    return EXIT_OK


def _load_cert(path: str) -> AnnihilatorCertificate:
    with open(path) as fh:
        text = fh.read()
    try:
        return AnnihilatorCertificate.from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise VerificationError(f"unreadable certificate: {exc!r}") from exc


def cmd_certify(args) -> int:
    cert = _load_cert(args.cert)
    with open(args.infile) as fh:
        matrix = parse_matrix(fh.read())
    name = (map_spec(cert.label) or ("",))[0]
    if name == "rigidity":
        result, kind = certify_rigid(matrix, cert), "rigidity"
    elif name == "universal":
        result, kind = certify_circuit_lower_bound(matrix, cert), "circuit lower bound"
    else:
        print(f"cannot certify with a {cert.label} annihilator", file=sys.stderr)
        return EXIT_VERIFICATION
    if result is None:
        print(f"not certified: Q(M) = 0 (no {kind} conclusion)", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    _emit(result.to_json(), args.out)
    print(f"certified ({kind}): Q(M) = {result.value} != 0", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    cert = _load_cert(args.cert)
    if cert.q.is_zero():
        print("verification failed: Q is zero", file=sys.stderr)
        return EXIT_VERIFICATION
    if not verify_symbolic(cert.q, cert.pmap):
        print("verification failed: Q o P != 0", file=sys.stderr)
        return EXIT_VERIFICATION
    ok = True
    if args.trials:
        ok, report = verify_pit(cert.q, cert.pmap, args.trials, args.seed)
        print(report.display(), file=sys.stderr)
    if not ok:
        print("verification failed: nonzero PIT evaluation", file=sys.stderr)
        return EXIT_VERIFICATION
    checked = ["Q != 0", "Q o P = 0 exactly"]
    if map_spec(cert.label):
        checked.append("the map is its label's")
        unchecked = ""
    else:
        unchecked = f"; the label {cert.label!r} is not in the map grammar and was not checked"
    if args.trials:
        checked.append(f"{args.trials} PIT trials")
    carried = ", ".join(f"{k}={v}" for k, v in sorted(cert.verification.items()) if k != "symbolic_verified")
    print(f"certificate for {cert.label} verified (D={cert.degree}): checked {', '.join(checked)}{unchecked}; "
          f"solver claims carried, not checked: {carried}", file=sys.stderr)
    return EXIT_OK


def cmd_oracle(args) -> int:
    with open(args.infile) as fh:
        text = fh.read()
    if args.rigid is not None:
        r, s = map(int, args.rigid.split(","))
        matrix = parse_matrix(text)
        verdict = is_rigid_bruteforce(matrix, r, s)
        print(f"matrix is {'({},{})-rigid'.format(r, s) if verdict else 'not ({},{})-rigid'.format(r, s)} over F_{matrix.field.p}")
        return EXIT_OK if verdict else EXIT_NOT_CERTIFIED
    tensor = parse_tensor(text)
    result = tensor_rank_bruteforce(tensor, args.tensor_rank)
    if result is None:
        print(f"tensor rank > {args.tensor_rank} over F_{tensor.field.p}")
        return EXIT_NOT_CERTIFIED
    print(f"tensor rank = {result} over F_{tensor.field.p}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits EXIT_USAGE: its own 2 is this
    protocol's "no annihilator in range". Subcommand parsers are this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parse_args keeps
    no state between calls, and building it costs more than a small certify."""
    parser = _Parser(prog="rigideq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_map_args(sp):
        sp.add_argument("--prime", "-p", type=int, default=None, help="field modulus")
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--map", help=f"map spec: {MAP_GRAMMAR}")
        source.add_argument("--in", dest="infile", help="serialized map JSON file")

    sp = sub.add_parser("genmap", help="construct a universal map and serialize it")
    add_map_args(sp)
    sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("solve", help="find an annihilating polynomial")
    add_map_args(sp)
    sp.add_argument("--dmin", type=int, default=1)
    sp.add_argument("--dmax", type=int, default=3)
    sp.add_argument("--mode", choices=["symbolic", "sampled"], default="symbolic")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="certificate output path (default: stdout)")

    sp = sub.add_parser("certify", help="certify a matrix rigid / circuit-hard via an annihilator")
    sp.add_argument("--in", dest="infile", required=True, help="matrix file: 'p rows cols' then entries")
    sp.add_argument("--cert", required=True, help="annihilator certificate JSON")
    sp.add_argument("--out", help="output certificate path (default: stdout)")

    sp = sub.add_parser("verify", help="re-check a certificate end-to-end")
    sp.add_argument("--cert", required=True)
    sp.add_argument("--trials", type=int, default=0, help="extra randomized PIT trials")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("oracle", help="brute-force rigidity / tensor-rank verdicts")
    sp.add_argument("--in", dest="infile", required=True, help="matrix ('p rows cols') or tensor ('p n d') file")
    check = sp.add_mutually_exclusive_group(required=True)
    check.add_argument("--rigid", help="check (r,s)-rigidity, e.g. --rigid 1,1")
    check.add_argument("--tensor-rank", type=int, default=None, help="search tensor rank up to RMAX")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "genmap": cmd_genmap,
        "solve": cmd_solve,
        "certify": cmd_certify,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (ResourceLimitError, OracleCostError) as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (VerificationError, UnverifiedCertificateError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
