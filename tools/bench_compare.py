#!/usr/bin/env python3
"""Compare perf_driver BENCH_*.json documents and gate regressions.

Usage:
    bench_compare.py --baseline DIR --candidate DIR [options]
    bench_compare.py --validate-only --candidate DIR
    bench_compare.py --self-test

Modes:
    --validate-only   only schema-check the candidate documents
    --self-test       run the embedded unit tests and exit
    (default)         validate both sides, then compare each scenario

Schema policy: chisel.bench.v1 is additive.  Documents may carry
fields beyond REQUIRED_FIELDS; extras are warned about but never fail
validation, so a baseline captured before a field existed still
compares against a candidate that reports it.

Comparison rules (per scenario):
    * config_fingerprint must match -- two documents with different
      fingerprints measured different workloads, and comparing them
      would be meaningless; this is a hard error, not a skip.
    * ops_per_sec: candidate/baseline must be >= --threshold.
    * p99_ns: candidate must be <= baseline / --threshold (latency may
      grow by the reciprocal of the allowed throughput shrink).
    * accesses_per_op: candidate must be <= baseline * --access-slack;
      skipped when either side is 0 (tracing compiled out).
    * bytes_per_route (optional; lookup_dfz reports it): candidate must
      be <= baseline * (1 + BYTES_SLACK); skipped unless both sides
      carry it.

Exit status: 0 all good, 1 validation failure or regression, 2 usage.
"""

import argparse
import json
import os
import sys

SCHEMA = "chisel.bench.v1"
SCENARIOS = ["lookup", "lookup_dfz", "update", "concurrent",
             "concurrent_update"]

REQUIRED_FIELDS = {
    "schema": str,
    "scenario": str,
    "commit": str,
    "config_fingerprint": str,
    "quick": bool,
    "table_size": int,
    "ops": int,
    "threads": int,
    "ops_per_sec": (int, float),
    "p50_ns": int,
    "p95_ns": int,
    "p99_ns": int,
    "accesses_per_op": (int, float),
}

# Optional fields: checked for type when present, never required.
OPTIONAL_FIELDS = {
    "bytes_per_route": (int, float),
}

# Memory per route may grow by at most this share over the baseline.
# Resident bytes of one build vary by a few pages between runs, far
# less than this.
BYTES_SLACK = 0.10


def fail(msg):
    print(f"bench_compare: FAIL: {msg}")
    return False


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: FAIL: cannot load {path}: {e}")
        return None


def validate(doc, path):
    ok = True
    for field, kind in REQUIRED_FIELDS.items():
        if field not in doc:
            ok = fail(f"{path}: missing field '{field}'")
        elif not isinstance(doc[field], kind) or (
            kind is int and isinstance(doc[field], bool)
        ):
            ok = fail(
                f"{path}: field '{field}' has type "
                f"{type(doc[field]).__name__}"
            )
    if doc.get("schema") not in (None, SCHEMA):
        ok = fail(f"{path}: schema '{doc['schema']}' != '{SCHEMA}'")
    if isinstance(doc.get("ops_per_sec"), (int, float)) and not (
        doc["ops_per_sec"] > 0
    ):
        ok = fail(f"{path}: ops_per_sec must be > 0")

    for field, kind in OPTIONAL_FIELDS.items():
        if field in doc and (
            not isinstance(doc[field], kind) or isinstance(doc[field], bool)
        ):
            ok = fail(
                f"{path}: field '{field}' has type "
                f"{type(doc[field]).__name__}"
            )

    known = set(REQUIRED_FIELDS) | set(OPTIONAL_FIELDS)
    for field in sorted(set(doc) - known):
        # Additive schema: tolerate, but say so -- a typo'd required
        # field shows up here right next to its "missing" failure.
        print(
            f"bench_compare: note: {path}: extra field "
            f"'{field}' (additive, tolerated)"
        )
    return ok


def compare(scenario, base, cand, args):
    ok = True
    if base["config_fingerprint"] != cand["config_fingerprint"]:
        return fail(
            f"{scenario}: config fingerprint mismatch "
            f"({base['config_fingerprint']} vs "
            f"{cand['config_fingerprint']}) -- refusing to compare "
            "different workloads"
        )

    ratio = cand["ops_per_sec"] / base["ops_per_sec"]
    print(
        f"bench_compare: {scenario:<10} ops/s "
        f"{base['ops_per_sec']:14.0f} -> {cand['ops_per_sec']:14.0f} "
        f"({ratio:6.2%})"
    )
    if ratio < args.threshold:
        ok = fail(
            f"{scenario}: throughput regressed to {ratio:.2%} of "
            f"baseline (floor {args.threshold:.2%})"
        )

    if base["p99_ns"] > 0:
        allowed = base["p99_ns"] / args.threshold
        if cand["p99_ns"] > allowed:
            ok = fail(
                f"{scenario}: p99 regressed {base['p99_ns']} -> "
                f"{cand['p99_ns']} ns (ceiling {allowed:.0f})"
            )

    if base["accesses_per_op"] > 0 and cand["accesses_per_op"] > 0:
        ceiling = base["accesses_per_op"] * args.access_slack
        if cand["accesses_per_op"] > ceiling:
            ok = fail(
                f"{scenario}: accesses/op regressed "
                f"{base['accesses_per_op']:.2f} -> "
                f"{cand['accesses_per_op']:.2f} "
                f"(ceiling {ceiling:.2f})"
            )

    if "bytes_per_route" in base and "bytes_per_route" in cand:
        ceiling = base["bytes_per_route"] * (1 + BYTES_SLACK)
        print(
            f"bench_compare: {scenario:<10} B/route "
            f"{base['bytes_per_route']:14.1f} -> "
            f"{cand['bytes_per_route']:14.1f}"
        )
        if cand["bytes_per_route"] > ceiling:
            ok = fail(
                f"{scenario}: bytes/route regressed "
                f"{base['bytes_per_route']:.1f} -> "
                f"{cand['bytes_per_route']:.1f} (ceiling {ceiling:.1f})"
            )
    return ok


def self_test():
    """Embedded unit tests for the schema/compare rules.  @return 0/1."""
    import copy

    base_doc = {
        "schema": SCHEMA,
        "scenario": "concurrent",
        "commit": "deadbeef",
        "config_fingerprint": "14da8d1c",
        "quick": True,
        "table_size": 5000,
        "ops": 400000,
        "threads": 3,
        "ops_per_sec": 1_000_000.0,
        "p50_ns": 1000,
        "p95_ns": 2000,
        "p99_ns": 4000,
        "accesses_per_op": 0,
    }

    class Args:
        threshold = 0.75
        access_slack = 1.05

    failures = []

    def check(name, got, want):
        tag = "ok" if got == want else "FAIL"
        print(f"self-test: {tag:<4} {name}")
        if got != want:
            failures.append(name)

    doc = copy.deepcopy(base_doc)
    check("valid doc validates", validate(doc, "t"), True)

    doc = copy.deepcopy(base_doc)
    doc["brand_new_scalar"] = 7
    check("additive scalar tolerated", validate(doc, "t"), True)

    doc = copy.deepcopy(base_doc)
    doc["brand_new_block"] = {"gauge": "any"}
    check("additive object tolerated", validate(doc, "t"), True)

    doc = copy.deepcopy(base_doc)
    del doc["p99_ns"]
    check("missing required field rejected", validate(doc, "t"), False)

    doc = copy.deepcopy(base_doc)
    doc["ops"] = True
    check("bool-as-int rejected", validate(doc, "t"), False)

    doc = copy.deepcopy(base_doc)
    doc["ops_per_sec"] = 0
    check("zero throughput rejected", validate(doc, "t"), False)

    good = copy.deepcopy(base_doc)
    check("identical docs compare clean",
          compare("t", base_doc, good, Args), True)

    slow = copy.deepcopy(base_doc)
    slow["ops_per_sec"] = base_doc["ops_per_sec"] * 0.5
    check("10x-ish regression caught",
          compare("t", base_doc, slow, Args), False)

    lat = copy.deepcopy(base_doc)
    lat["p99_ns"] = base_doc["p99_ns"] * 10
    check("p99 regression caught",
          compare("t", base_doc, lat, Args), False)

    other = copy.deepcopy(base_doc)
    other["config_fingerprint"] = "ffffffff"
    check("fingerprint mismatch refused",
          compare("t", base_doc, other, Args), False)

    richer = copy.deepcopy(base_doc)
    richer["brand_new_block"] = {"gauge": 5}
    check("candidate with extra field compares vs bare baseline",
          validate(richer, "t") and compare("t", base_doc, richer, Args),
          True)

    sized = copy.deepcopy(base_doc)
    sized["bytes_per_route"] = 80.0
    check("bytes_per_route validates", validate(sized, "t"), True)

    bad_type = copy.deepcopy(sized)
    bad_type["bytes_per_route"] = "80"
    check("string bytes_per_route rejected", validate(bad_type, "t"), False)

    within = copy.deepcopy(sized)
    within["bytes_per_route"] = 80.0 * (1 + BYTES_SLACK) - 0.1
    check("bytes_per_route within slack passes",
          compare("t", sized, within, Args), True)

    bloated = copy.deepcopy(sized)
    bloated["bytes_per_route"] = 80.0 * (1 + BYTES_SLACK) + 0.1
    check("bytes_per_route regression caught",
          compare("t", sized, bloated, Args), False)

    check("bytes_per_route absent from baseline is skipped",
          compare("t", base_doc, bloated, Args), True)

    if failures:
        print(f"bench_compare: self-test FAILED: {failures}")
        return 1
    print("bench_compare: self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--baseline", help="directory with baseline JSONs")
    ap.add_argument("--candidate", help="directory with new JSONs")
    ap.add_argument(
        "--scenarios",
        default=",".join(SCENARIOS),
        help="comma-separated subset to check",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.75,
        help="minimum allowed candidate/baseline throughput ratio",
    )
    ap.add_argument(
        "--access-slack",
        type=float,
        default=1.05,
        help="maximum allowed accesses/op growth factor",
    )
    ap.add_argument(
        "--validate-only",
        action="store_true",
        help="schema-check the candidate documents, no comparison",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the embedded unit tests and exit",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.candidate:
        ap.error("--candidate is required unless --self-test")
    if not args.validate_only and not args.baseline:
        ap.error("--baseline is required unless --validate-only")

    scenarios = [s for s in args.scenarios.split(",") if s]
    unknown = set(scenarios) - set(SCENARIOS)
    if unknown:
        ap.error(f"unknown scenario(s): {', '.join(sorted(unknown))}")

    ok = True
    for scenario in scenarios:
        name = f"BENCH_{scenario}.json"
        cand = load(os.path.join(args.candidate, name))
        if cand is None or not validate(cand, name):
            ok = False
            continue
        if args.validate_only:
            print(f"bench_compare: {name}: schema OK")
            continue
        base = load(os.path.join(args.baseline, name))
        if base is None or not validate(base, f"baseline/{name}"):
            ok = False
            continue
        if not compare(scenario, base, cand, args):
            ok = False

    if ok:
        print("bench_compare: OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
