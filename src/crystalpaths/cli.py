"""Command-line interface: compute and verify.

Commands
--------
kostka       classical or level-restricted generating polynomial
verify       alternating Weyl sum against the direct path count
verify-zero  formal level-zero evaluation plus its pairing certificate
straighten   normalize a signed Schur symbol

Exit codes: 0 on success or verified equality, 1 on a genuine mathematical
inequality, 2 on validation errors.  All JSON output is deterministic for a
fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .bosonic import commutation_hypothesis_warnings, identity_report
from .kostka import CrystalSpec, kostka_classical, kostka_level
from .signature import CertificateError
from .tableaux import RectShape
from .weights import LevelWeight, fundamental_vector, vadd

SCHEMA_VERSION = 1

_SELECTOR_TERM = re.compile(r"^(\d*)L(\d+)$")


def parse_weight_selector(text: str, n: int, name: str = "weight") -> LevelWeight:
    """Parse symbolic fundamental-weight sums such as L0, 2L0, or L0+L2.

    Raw coordinate vectors are rejected; the symbolic form fixes the lift
    from classical to affine weights unambiguously.
    """
    level = 0
    finite = (0,) * n
    for term in text.replace(" ", "").split("+"):
        match = _SELECTOR_TERM.match(term)
        if not match:
            raise ValueError(
                "%s selector %r is not of the form [coeff]L<index>" % (name, text)
            )
        coeff = int(match.group(1)) if match.group(1) else 1
        index = int(match.group(2))
        if index >= n:
            raise ValueError(
                "%s selector %r uses node %d, outside 0..%d" % (name, text, index, n - 1)
            )
        level += coeff
        finite = vadd(finite, tuple(coeff * x for x in fundamental_vector(index, n)))
    return LevelWeight(level, finite, 0)


def _read(name: str, form: str, parse, text: str):
    """parse(text), with a ValueError reworded to name the option or key and its form."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError("%s must be %s, got %r" % (name, form, text)) from None


def parse_shapes(text: str) -> tuple[RectShape, ...]:
    text = text.strip()
    if not text:
        return ()
    form = "KxL with positive integers K and L"
    return tuple(_read("--shapes", form, RectShape.parse, part) for part in text.split(","))


def parse_partition(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _spec_json(spec: CrystalSpec) -> dict:
    out = {"n": spec.n, "shapes": [[s.rows, s.cols] for s in spec.shapes]}
    if spec.level is not None:
        out["level"] = spec.level
    for key, weight in (("Lambda", spec.lam), ("LambdaPrime", spec.lam_prime)):
        if weight is not None:
            out[key] = {"level": weight.level, "finite": list(weight.finite)}
    if spec.b0_shape is not None:
        out["b0"] = [spec.b0_shape.rows, spec.b0_shape.cols]
    return out


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n")
        return
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if key.endswith("polynomial") and isinstance(value, list):
            lines.append("%s:" % key)
            if not value:
                lines.append("  (zero)")
            for exp, coeff in value:
                lines.append("  q^%-4d %d" % (exp, coeff))
        else:
            lines.append("%-18s %s" % (key + ":", value))
    sys.stdout.write("\n".join(lines) + "\n")


def _build_spec(args) -> CrystalSpec:
    lam = parse_weight_selector(args.Lambda, args.n, "Lambda") if args.Lambda else None
    lam_prime = parse_weight_selector(args.LambdaPrime, args.n, "LambdaPrime") if args.LambdaPrime else None
    b0 = _read("--b0", "KxL with positive integers K and L", RectShape.parse, args.b0) if args.b0 else None
    return CrystalSpec(args.n, parse_shapes(args.shapes), args.level, lam, lam_prime, b0)


def cmd_kostka(args) -> int:
    if not args.Lambda and not getattr(args, "lam", None):
        raise ValueError("kostka needs either --lambda or --level with --Lambda")
    if args.Lambda is not None and args.lam is not None:
        raise ValueError("kostka takes --lambda (classical) or --Lambda (level-restricted), not both")
    spec = _build_spec(args)  # checked before --lambda is read, so a fault of the spec is reported first
    payload = {"schema": SCHEMA_VERSION, "command": "kostka", "spec": _spec_json(spec)}
    if args.Lambda:
        payload["mode"] = "level"
        poly = kostka_level(spec)
    else:
        target = _read("--lambda", "comma-separated integers", parse_partition, args.lam)
        payload["mode"], payload["lambda"] = "classical", list(target)
        poly = kostka_classical(spec, target)
    payload["polynomial"] = list(poly.pairs())
    payload["path_count"] = poly(1)
    _emit(payload, args.format)
    return 0


def cmd_verify(args) -> int:
    spec = _build_spec(args)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "spec": _spec_json(spec),
        **identity_report(spec, kostka_level(spec), args.widen_check),
        "warnings": commutation_hypothesis_warnings(spec),
    }
    _emit(payload, args.format)
    return 0 if payload["equal"] else 1


def cmd_verify_zero(args) -> int:
    from .pairing import level_zero_identity, level_zero_pairing

    shapes = parse_shapes(args.shapes)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify-zero",
        "spec": _spec_json(CrystalSpec(args.n, shapes)),
        **level_zero_identity(args.n, shapes),
    }
    if shapes:
        pairing = level_zero_pairing(args.n, shapes)
        payload["pairing_size"] = pairing["pairing_size"]
        payload["pairing_summands"] = pairing["summand_count"]
    _emit(payload, args.format)
    return 0 if payload["equal"] else 1


def cmd_straighten(args) -> int:
    assignments = {}
    for token in args.assignments:
        if "=" not in token:
            raise ValueError("straighten arguments look like n=3 l=2 alpha=1,0,-1")
        key, _, value = token.partition("=")
        if key not in ("n", "l", "alpha"):
            raise ValueError("straighten takes the keys n, l and alpha, not %r" % key)
        if key in assignments:
            raise ValueError("straighten key %r is given twice" % key)
        assignments[key] = value
    missing = {"n", "l", "alpha"} - set(assignments)
    if missing:
        raise ValueError("straighten is missing %s" % ", ".join(sorted(missing)))
    n = _read("n", "an integer", int, assignments["n"])
    level = _read("l", "an integer", int, assignments["l"])
    alpha = _read("alpha", "comma-separated integers", parse_partition, assignments["alpha"])
    if len(alpha) != n:
        raise ValueError("alpha has %d entries, expected n=%d" % (len(alpha), n))
    from .straighten import SchurSymbol, normalize

    outcome = normalize(SchurSymbol(alpha, level))
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "straighten",
        "n": n,
        "level": level,
        "alpha": list(alpha),
        "result": "zero"
        if outcome is None
        else {"sign": outcome[0], "qpow": outcome[1], "beta": list(outcome[2])},
    }
    _emit(payload, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalpaths",
        description="Exact generating polynomials of restricted paths and their "
        "alternating Weyl-sum evaluations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True, help="rank (alphabet size)")
        p.add_argument("--shapes", default="", help="comma list of KxL factor shapes, leftmost first")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--cache-dir",
                       help="accepted for compatibility and ignored: nothing is persisted")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility and ignored: every scan runs in-process")

    k = sub.add_parser("kostka", help="generating polynomial of restricted paths")
    common(k)
    k.add_argument("--lambda", dest="lam", help="classical weight, e.g. 2,1,0")
    k.add_argument("--level", type=int, default=None)
    k.add_argument("--Lambda", help="restriction weight selector, e.g. L0 or 2L0 or L0+L1")
    k.add_argument("--LambdaPrime", help="produced weight selector; defaults to Lambda")
    k.add_argument("--b0", help="override KxL shape of the grading crystal")
    k.set_defaults(func=cmd_kostka)

    v = sub.add_parser("verify", help="alternating sum against the direct path count")
    common(v)
    v.add_argument("--level", type=int, required=True)
    v.add_argument("--Lambda", required=True)
    v.add_argument("--LambdaPrime")
    v.add_argument("--b0")
    v.add_argument(
        "--widen-check",
        action="store_true",
        help="also report the lattice box widened by 2, where every sum is stable",
    )
    v.set_defaults(func=cmd_verify)

    z = sub.add_parser("verify-zero", help="formal level-zero evaluation and pairing")
    common(z)
    z.set_defaults(func=cmd_verify_zero)

    st = sub.add_parser("straighten", help="normalize a signed Schur symbol")
    st.add_argument("assignments", nargs="+", metavar="key=value",
                    help="n=<rank> l=<level> alpha=a1,a2,...")
    st.add_argument("--format", choices=("json", "table"), default="json")
    st.set_defaults(func=cmd_straighten)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be at least 1")
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write("validation error: %s\n" % exc)
        return 2
    except CertificateError as exc:
        sys.stderr.write("certificate failed: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
