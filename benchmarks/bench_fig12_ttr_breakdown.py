"""Figure 12: baseline TTR breakdown per architecture (U_3-1-3).

The paper decomposes baseline recovery into *load*, *recover*, and
*check-hash* (the >1 s environment check is excluded from the figure) and
finds every step grows with the parameter count — except GoogLeNet, whose
*recover* step peaks because its initialization routine is ~7x slower than
ResNet-18's.

The paper's *recover* term is "instantiate the architecture, then load the
parameters", and the instantiation initialises every weight.  The service
no longer does that (``ArchitectureRef.build_from`` assembles a cached
skeleton, built once under ``nn.init.skip_init``, around the loaded
arrays), so the anomaly is
reproduced bench-locally: ``recover (paper)`` times ``architecture.build()``
+ ``load_state_dict`` on the recovered state, the ratio assertion stays on
it, and the service's actual term is reported beside it.
"""

import statistics
import time

import pytest

from repro.distsim import SharedStores, make_service
from repro.nn.models import list_models

from conftest import FULL_RUN, Report, chain_config, fmt_ms, get_chain, save_chain_through

REPETITIONS = 5 if FULL_RUN else 3
STEPS = ("load", "recover", "check_hash")
PAPER_RECOVER = "recover_paper"


def measure(workdir, architecture: str) -> dict[str, float]:
    chain = get_chain(chain_config(architecture))
    stores = SharedStores.at(workdir / f"fig12-{architecture}")
    service = make_service("baseline", stores)
    ids = save_chain_through(service, chain, "baseline")
    architecture = chain.config.architecture_ref()
    samples = {step: [] for step in (*STEPS, PAPER_RECOVER)}
    for _ in range(REPETITIONS):
        recovered = service.recover_model(ids["U_3-1-3"])
        for step in STEPS:
            samples[step].append(recovered.timings[step])
        state = recovered.model.state_dict()
        started = time.perf_counter()
        architecture.build().load_state_dict(state)
        samples[PAPER_RECOVER].append(time.perf_counter() - started)
    return {step: statistics.median(values) for step, values in samples.items()}


def test_fig12_breakdown_report(benchmark, bench_workdir):
    benchmark.pedantic(lambda: _report(bench_workdir), rounds=1, iterations=1)


def _report(bench_workdir):
    report = Report(
        "fig12", "Baseline TTR breakdown per architecture, env check excluded (paper Fig. 12)"
    )
    breakdowns = {name: measure(bench_workdir, name) for name in list_models()}
    report.table(
        ["model", "load", "recover (paper)", "recover (service)", "check hash",
         "total (paper)", "total (service)"],
        [
            [
                name,
                fmt_ms(b["load"]),
                fmt_ms(b[PAPER_RECOVER]),
                fmt_ms(b["recover"]),
                fmt_ms(b["check_hash"]),
                fmt_ms(b["load"] + b[PAPER_RECOVER] + b["check_hash"]),
                fmt_ms(sum(b[step] for step in STEPS)),
            ]
            for name, b in breakdowns.items()
        ],
    )

    # shape checks: ResNet family ordered by size, on the paper's terms and
    # on the service's; GoogLeNet's recover peak on the paper's
    for recover in (PAPER_RECOVER, "recover"):
        totals = {
            name: b["load"] + b[recover] + b["check_hash"]
            for name, b in breakdowns.items()
        }
        assert totals["resnet18"] < totals["resnet50"] < totals["resnet152"]
        assert totals["mobilenetv2"] < totals["resnet152"]
    ratio = breakdowns["googlenet"][PAPER_RECOVER] / breakdowns["resnet18"][PAPER_RECOVER]
    assert ratio > 1.2, (
        "GoogLeNet's paper-faithful recover step (initialised build + load) "
        f"must peak vs ResNet-18 (init-routine cost); measured ratio {ratio:.2f}"
    )
    paper_excess = breakdowns["googlenet"][PAPER_RECOVER] - breakdowns["resnet18"][PAPER_RECOVER]
    service_excess = breakdowns["googlenet"]["recover"] - breakdowns["resnet18"]["recover"]
    report.line(
        f"GoogLeNet's paper-faithful recover step is {ratio:.1f}x ResNet-18's "
        f"(+{fmt_ms(paper_excess)}) despite having fewer parameters — the paper's "
        "initialization-routine anomaly.  The service builds without "
        f"initialising: its recover step exceeds ResNet-18's by {fmt_ms(service_excess)}, "
        "which is GoogLeNet's larger module tree being constructed, not its "
        "initializer — the anomaly's cause is gone from the recover path."
    )
    report.write()
