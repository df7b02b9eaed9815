"""Self-time table by layer from a span file of a traced run.

    python3 bench/breakdown.py bench/out/trace-<workload>.jsonl [--spans] [--all]

A span's self time is its duration minus the part its direct children
cover; a layer is a span name without its last part (``filestore`` for
``filestore.save_state_chunks``).  ``client`` is the time the driver
observed, so its self time is what no named layer accounts for, and
``gateway.socket`` is time observed over the wire, which only the server
could split.  The table covers the timed phase; ``--all`` adds set-up,
warm-up and the final checks.  ``--spans`` lists span names, not layers.
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            outer = spans[parent]
            own[parent] -= max(
                0.0, min(span["end"], outer["end"]) - max(span["start"], outer["start"]))
    return own


def table(spans: list[dict], by_span: bool = False,
          everything: bool = False) -> list[tuple[str, int, float]]:
    """``(layer, calls, self seconds)`` rows, the largest first."""
    totals: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        if not (everything or span["timed"]):
            continue
        key = span["name"] if by_span else span["name"].rsplit(".", 1)[0]
        entry = totals.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return sorted(
        ((key, calls, seconds) for key, (calls, seconds) in totals.items()),
        key=lambda row: -row[2])


def attributed_share(spans: list[dict]) -> float:
    """Self time of the named layers as a share of client-observed time,
    over the timed phase."""
    own = self_times(spans)
    client = sum(s["end"] - s["start"] for s in spans
                 if s["timed"] and s["name"].startswith("client."))
    layers = sum(seconds for span, seconds in zip(spans, own)
                 if span["timed"]
                 and not span["name"].startswith(("client.", "gateway.socket.")))
    return layers / client if client else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="a bench/out/trace-<workload>.jsonl file")
    parser.add_argument("--spans", action="store_true", help="one row per span name")
    parser.add_argument("--all", action="store_true",
                        help="include set-up, warm-up and the final checks")
    args = parser.parse_args()
    spans = load(args.trace)
    if not spans:
        sys.exit(f"{args.trace}: no spans")
    rows = table(spans, by_span=args.spans, everything=args.all)
    total = sum(seconds for _key, _calls, seconds in rows)
    operations = sum(1 for span in spans
                     if span["parent"] is None and (args.all or span["timed"]))
    print(f"{spans[0]['workload']}: {len(spans)} spans, "
          f"{operations} client operations in the table")
    print(f"  {'layer':<34} {'calls':>8} {'self ms':>12} {'share':>8}")
    for key, calls, seconds in rows:
        print(f"  {key:<34} {calls:>8} {seconds * 1e3:>12.1f} {seconds / total:>8.1%}")
    print(f"  named layers cover {attributed_share(spans):.1%} of client-observed time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
