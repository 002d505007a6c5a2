"""Record the exact answer of every spec in the benchmark's pools.

    python3 bench/record.py            # rewrites bench/pools.json

Each answer is confirmed by a second route before it is written, and a spec
whose answer is trivial is refused:

* level and straightening specs: direct count (``kostka_level``) =
  alternating Weyl sum (``bosonic_report``) = straightening route
  (``bosonic_via_straightening``), and the polynomial is nonzero;
* ``verify`` specs additionally record the widened certificate and the
  commutation warnings that ``crystalpaths verify --widen-check`` prints;
* classical specs: the q=1 value equals ``multiplicity_oracle``, and is
  nonzero;
* level-zero specs: the alternating sum is 0, the pairing cancels, the
  identity and the pairing count the same summands, there are some, and the
  pairing matches them two by two.
"""

from __future__ import annotations

import json
import sys

import workloads

def verify(n, level, shapes, lam, lam_prime=None):
    return {"kind": "verify", "n": n, "level": level, "shapes": shapes,
            "Lambda": lam, "LambdaPrime": lam_prime}


def level(n, lvl, shapes, lam, lam_prime=None):
    return {"kind": "level", "n": n, "level": lvl, "shapes": shapes,
            "Lambda": lam, "LambdaPrime": lam_prime}


def straightened(n, lvl, shapes, lam):
    return {"kind": "straighten", "n": n, "level": lvl, "shapes": shapes,
            "Lambda": lam, "LambdaPrime": lam}


def classical(n, shapes, lam):
    return {"kind": "classical", "n": n, "shapes": shapes, "lambda": lam}


def zero(n, shapes):
    return {"kind": "level_zero", "n": n, "shapes": shapes}


def ones(k, shape="1x1"):
    return ",".join([shape] * k)


# Strata: the variants of a stratum share rank, level and factor multiset,
# and differ only in factor order or in weights of the same kind (vacuum or
# not), so that they cost about the same and every seed's draw costs the same.
STRATA = {
    "verify_cli": {
        "n2_l1_vacuum": [verify(2, 1, ones(8), "L0")],
        "n2_l2_mixed": [verify(2, 2, s, "L0+L1", "2L0") for s in (
            "1x2,1x1,1x2,1x1,1x1", "1x1,1x2,1x1,1x1,1x2", "1x2,1x2,1x1,1x1,1x1")],
        "n3_l1_vacuum": [verify(3, 1, ones(6), "L0")],
        "n3_l2_homog": [verify(3, 2, ones(6), lam) for lam in ("L0+L1", "L0+L2", "L1+L2")],
        "n3_l2_mixed": [verify(3, 2, s, "2L0", "L1+L2") for s in (
            "2x1,1x1,1x2,1x1", "1x1,2x1,1x1,1x2", "1x2,1x1,2x1,1x1")],
        "n3_l2_2x2": [verify(3, 2, s, "2L0") for s in (
            "2x2,1x1,1x1", "1x1,2x2,1x1", "1x1,1x1,2x2")],
        "n4_l1_homog": [verify(4, 1, ones(6), lam, lp) for lam, lp in (
            ("L1", "L3"), ("L2", "L0"), ("L3", "L1"))],
        "n4_l2_mixed": [verify(4, 2, s, "L0+L2", "L0+L1") for s in (
            "2x1,1x1,1x1,2x1,1x1", "1x1,2x1,1x1,2x1,1x1", "2x1,2x1,1x1,1x1,1x1")],
    },
    "restricted": {
        "n2_l2_x12": [level(2, 2, ones(12), lam) for lam in ("L0+L1", "2L1")],
        "n3_l2_x8_vacuum": [level(3, 2, ones(8), "2L0", lp) for lp in ("L0+L2", "2L1")],
        "n4_l2_x7": [level(4, 2, ones(7), "L1+L3", lp) for lp in ("L1+L2", "L0+L3")],
        "n3_l2_1x2": [level(3, 2, s, "L0+L1", "L0+L2") for s in (
            "1x2,1x2,1x2,1x2,1x1,1x1", "1x2,1x1,1x2,1x2,1x1,1x2", "1x1,1x2,1x2,1x1,1x2,1x2")],
        "n4_l2_2x1": [level(4, 2, s, "L0+L1") for s in (
            "2x1,1x1,2x1,1x1,2x1", "2x1,2x1,2x1,1x1,1x1", "1x1,2x1,2x1,2x1,1x1")],
        "n3_classical": [classical(3, ones(8), lam) for lam in ("4,2,2", "3,3,2", "4,3,1")],
        "n4_classical": [classical(4, ones(7), lam) for lam in ("3,2,1,1", "2,2,2,1", "4,1,1,1")],
    },
    "level_zero": {
        "n5_two": [zero(5, s) for s in ("2x1,3x1", "3x1,2x1")],
        "n5_three": [zero(5, s) for s in ("3x1,1x1,1x1", "1x1,3x1,1x1", "1x1,1x1,3x1")],
        "n4_three": [zero(4, s) for s in ("3x1,3x1,2x1", "3x1,2x1,3x1", "2x1,3x1,3x1")],
        "n4_2x1": [zero(4, "2x1,2x1,2x1,2x1")],
        # the straightening certificate: one Schur symbol normalized per
        # content fibre of a column product with few paths
        "n5_straighten": [straightened(5, 2, ones(5), "L0+L%d" % k) for k in range(1, 5)],
    },
}


class Refused(RuntimeError):
    pass


def require(condition: bool, what: str, spec: dict):
    if not condition:
        raise Refused("%s fails for %s" % (what, json.dumps(spec)))


def answer(spec: dict) -> dict:
    from crystalpaths import bosonic, kostka

    kind = spec["kind"]
    if kind in ("verify", "level", "straighten"):
        cs = workloads.crystal_spec(spec)
        direct = kostka.kostka_level(cs)
        report = bosonic.bosonic_report(cs)
        require(bool(direct), "nonzero polynomial", spec)
        require(report.polynomial == direct, "alternating sum = direct count", spec)
        require(bosonic.bosonic_via_straightening(cs) == direct, "straightening = direct count", spec)
        if kind != "verify":
            return workloads.normalized({"polynomial": direct.pairs()})
        widened = bosonic.bosonic_report(cs, widen=2)
        require(widened.polynomial == direct, "widened sum is stable", spec)
        return workloads.normalized({
            "lhs_polynomial": report.polynomial.pairs(),
            "rhs_polynomial": direct.pairs(),
            "equal": True,
            "summand_count": report.summand_count,
            "truncation_bound": report.truncation_bound,
            "widen_certificate": {"widened_bound": widened.truncation_bound, "stable": True},
            "warnings": bosonic.commutation_hypothesis_warnings(cs),
        })
    if kind == "classical":
        from crystalpaths.cli import parse_partition

        cs = workloads.crystal_spec(spec)
        lam = parse_partition(spec["lambda"])
        poly = kostka.kostka_classical(cs, lam)
        require(bool(poly), "nonzero polynomial", spec)
        require(poly(1) == kostka.multiplicity_oracle(cs, lam), "q=1 count = multiplicity oracle", spec)
        return workloads.normalized({"polynomial": poly.pairs()})
    if kind == "level_zero":
        out = workloads.run_in_process(spec)
        require(out["equal"] and out["lhs_polynomial"] == [], "level-zero sum vanishes", spec)
        require(out["cancels"], "pairing cancels", spec)
        require(out["summand_count"] > 0, "non-vacuous certificate", spec)
        require(out["pairing_summands"] == out["summand_count"], "identity and pairing agree", spec)
        require(2 * out["pairing_size"] == out["summand_count"], "pairing is perfect", spec)
        return out
    raise ValueError("unknown spec kind %r" % kind)


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    pools = {}
    for workload, strata in STRATA.items():
        pools[workload] = {"strata": []}
        for name, specs in strata.items():
            variants = []
            for k, spec in enumerate(specs):
                spec = {key: value for key, value in spec.items() if value is not None}
                variants.append({"id": "%s/%d" % (name, k), "spec": spec, "answer": answer(spec)})
                print("recorded", variants[-1]["id"], file=sys.stderr)
            pools[workload]["strata"].append({"name": name, "variants": variants})
    with open(workloads.POOLS, "w", encoding="utf-8") as fh:
        json.dump(pools, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
