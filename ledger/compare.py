"""Compare two ledgers: ``python3 -m ledger.compare A.json B.json``.

One row per (workload, end-to-end metric): both medians, how far B is
from A relative to A (positive = worse, whichever way the metric
counts), the metric's bound from ``BENCHMARK.json`` and a verdict:

``same``        B is within the bound of A
``better``      B beats A by more than the bound
``worse``       B trails A by more than the bound
``unresolved``  a side's interquartile spread exceeds the bound, so the
                two cannot be told apart -- unless every value of B is
                better than every value of A, which is ``better``, or the
                two sides hold the very same values, which is ``same``

Per-layer metrics have no bound; rows that differ are listed without a
verdict.  Exits 1 if any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys

from ledger.run import load_contract


def spread(stats: dict) -> float:
    """Interquartile range as a share of the median."""
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) if stats["median"] else 0.0


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[str, float]:
    """``(verdict, relative change)`` for one metric; ``a`` and ``b`` are
    ``{median, q1, q3, n[, values]}``.  The change is signed so that
    positive means B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"])
    change = sign * (b["median"] - a["median"]) / base if base else 0.0
    if max(spread(a), spread(b)) > bound:
        va, vb = a.get("values"), b.get("values")
        if va and va == vb:  # exact metrics of the same seeds: nothing to resolve
            return "same", change
        if va and vb and max(sign * v for v in vb) < min(sign * v for v in va):
            return "better", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(a: dict, b: dict, contract: dict) -> tuple[list[tuple], list[tuple]]:
    """Rows for the end-to-end table and for the per-layer differences."""
    rows, layer_rows = [], []
    for spec in contract["workloads"]:
        name = spec["name"]
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            rows.append((name, "-", None, None, None, None, "unresolved"))
            continue
        for metric in contract["end_to_end"]:
            ma, mb = wa["end_to_end"].get(metric["name"]), wb["end_to_end"].get(metric["name"])
            if ma is None or mb is None:
                rows.append((name, metric["name"], None, None, None, metric["bound"], "unresolved"))
                continue
            what, change = verdict(ma, mb, metric["bound"], metric["better"])
            rows.append((name, metric["name"], ma["median"], mb["median"], change,
                         metric["bound"], what))
        for key in sorted(wa["per_layer"].keys() | wb["per_layer"].keys()):
            va = wa["per_layer"].get(key, {}).get("value")
            vb = wb["per_layer"].get(key, {}).get("value")
            if va != vb:
                layer_rows.append((name, key, va, vb))
    return rows, layer_rows


def _num(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(open(path).read()) for path in argv)
    for label, ledger in (("A", a), ("B", b)):
        if ledger["host"].get("noisy"):
            print(f"NOISY: ledger {label} was taken on a loaded host")
    rows, layer_rows = compare(a, b, load_contract())
    print(f"{'workload':18s} {'metric':14s} {'A':>12s} {'B':>12s} {'B vs A':>9s} {'bound':>7s}  verdict")
    for name, metric, ma, mb, change, bound, what in rows:
        rel = "-" if change is None else f"{change:+.4f}"
        print(f"{name:18s} {metric:14s} {_num(ma):>12s} {_num(mb):>12s} {rel:>9s} "
              f"{_num(bound):>7s}  {what}")
    if layer_rows:
        print("\nper-layer metrics that differ (no bound, no verdict):")
        for name, key, va, vb in layer_rows:
            print(f"{name:18s} {key:38s} {_num(va):>14s} {_num(vb):>14s}")
    bad = sum(1 for row in rows if row[-1] in ("worse", "unresolved"))
    print(f"\n{len(rows)} rows, {bad} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
