"""Figure 11: median time-to-recover (TTR) across approaches.

Panels: MobileNetV2 and ResNet-152, fully and partially updated, CO-512.
Expected shapes (Section 4.4):

* BA TTR constant across use cases (independent snapshots);
* PUA TTR staircases in the paper: +1 recovery level per U_3 iteration,
  resetting to base+1 at U_2; partial updates recover faster than full
  updates;
* MPA TTR staircases far above both (it replays training).

The PUA staircase is the paper's recursion made visible: recover the base,
then apply the update, once per level.  Here every PUA model is its own
recovery base — its manifest names every layer, the unchanged ones by its
base's chunks (DESIGN.md §11, §16) — so a recover reads one document and
one manifest and PUA TTR is flat in lineage depth *by construction*:
``recovery_depth`` (the levels a recover resolved) is 0 for every PUA
model, asserted exactly, and the lineage depth (``ModelManager.lineage``'s
length minus one, what the paper's steps count) is the table's column,
with the least-squares slope of PUA TTR over it reported beside it.
"""

import statistics

import pytest

from repro.core.schema import APPROACHES
from repro.distsim import STANDARD, SharedStores, run_evaluation_flow

from conftest import Report, chain_config, fmt_ms, get_chain

PANELS = [
    ("a", "mobilenetv2", "fully_updated"),
    ("b", "resnet152", "fully_updated"),
    ("c", "mobilenetv2", "partially_updated"),
    ("d", "resnet152", "partially_updated"),
]


def measure_panel(workdir, architecture: str, relation: str):
    chain = get_chain(chain_config(architecture, relation, u3_dataset="co512"))
    panel = {}
    depths = {}
    for approach in APPROACHES:
        stores = SharedStores.at(workdir / f"fig11-{architecture}-{relation}-{approach}")
        metrics = run_evaluation_flow(approach, chain, STANDARD, stores)
        panel[approach] = metrics.median_ttr()
        depths[approach] = {r.use_case: r.recovery_depth for r in metrics.records}
    return panel, depths


def expected_pua_depth(use_case: str) -> int:
    """U_1 is the root; U_2 derives from it; U_3-b-n is n levels above U_b."""
    if use_case == "U_1":
        return 0
    if use_case == "U_2":
        return 1
    _, branch, iteration = use_case.split("-")
    return int(branch) - 1 + int(iteration)


def ms_per_level(ttr: dict, depths: dict) -> float:
    """Least-squares slope of TTR over lineage depth, in ms per level."""
    return statistics.linear_regression(
        [depths[u] for u in ttr], [ttr[u] * 1e3 for u in ttr]).slope


def test_fig11_ttr_report(benchmark, bench_workdir):
    benchmark.pedantic(lambda: _report(bench_workdir), rounds=1, iterations=1)


def _report(bench_workdir):
    report = Report("fig11", "Median time-to-recover across approaches (paper Fig. 11)")
    for panel_id, architecture, relation in PANELS:
        panel, depths = measure_panel(bench_workdir, architecture, relation)
        use_cases = [u for u in panel["baseline"] if u != "U_2"]
        report.line(f"({panel_id}) {relation} {architecture}, CO-512")
        lineage = {u: expected_pua_depth(u) for u in panel["param_update"]}
        report.table(
            ["use case", "lineage depth"] + list(APPROACHES),
            [
                [u, lineage[u]]
                + [fmt_ms(panel[a][u]) for a in APPROACHES]
                for u in use_cases
            ],
        )
        pua_depths = depths["param_update"]
        report.line(
            f"PUA: {ms_per_level(panel['param_update'], lineage):+.2f} ms per "
            f"lineage level (depth 0 -> {max(lineage.values())})"
        )
        report.line()

        # BA constant
        ba_values = [panel["baseline"][u] for u in use_cases]
        assert max(ba_values) < 3 * min(ba_values), "BA TTR must stay ~constant"
        assert set(depths["baseline"].values()) == {0}
        # no PUA staircase: every PUA model is its own recovery base
        assert set(pua_depths.values()) == {0}
        # the MPA replays one training per level: its TTR still climbs
        branch1 = [panel["provenance"][f"U_3-1-{n}"] for n in range(1, 5)]
        assert branch1[-1] > branch1[0], "provenance TTR must grow along U_3-1"
        # MPA dominates
        assert panel["provenance"]["U_3-2-4"] > panel["param_update"]["U_3-2-4"]
        assert panel["provenance"]["U_3-2-4"] > panel["baseline"]["U_3-2-4"]
    report.write()
