"""Table 2: the evaluation architectures — parameter counts and sizes.

Regenerates the paper's Table 2 at ``scale=1.0`` (exact parameter counts)
and benchmarks *initialised* model construction time, which also exposes
GoogLeNet's disproportionately slow initialization routine — the paper's
Figure 12 anomaly.  (A recover no longer pays it: the service assembles a
skeleton built once under ``nn.init.skip_init``; ``bench_fig12_ttr_breakdown``
reports both.)
"""

import pytest

from repro.nn.models import (
    MODEL_REGISTRY,
    create_model,
    freeze_for_partial_update,
    list_models,
)

from conftest import Report


def test_table2_report(benchmark):
    benchmark.pedantic(_table2_report, rounds=1, iterations=1)


def _table2_report():
    report = Report("table2", "Selected model architectures (paper Table 2)")
    rows = []
    for name in list_models():
        spec = MODEL_REGISTRY[name]
        model = create_model(name, seed=0)
        params = model.num_parameters()
        freeze_for_partial_update(model)
        partial = model.num_parameters(trainable_only=True)
        size_mb = sum(v.nbytes for v in model.state_dict().values()) / 1e6
        rows.append(
            [
                name,
                f"{params:,}",
                f"{spec.paper_params:,}",
                f"{partial:,}",
                f"{spec.paper_partial_params:,}",
                f"{size_mb:.1f} MB",
                f"{spec.paper_size_mb} MB",
            ]
        )
        assert params == spec.paper_params
        assert partial == spec.paper_partial_params
    report.table(
        ["model", "#params", "paper", "part.updated", "paper", "size", "paper"],
        rows,
    )
    report.write()


@pytest.mark.parametrize("name", list_models())
def test_model_construction_time(benchmark, name):
    """Initialised construction cost per architecture (GoogLeNet's init is
    the outlier the paper calls out in Figure 12)."""
    benchmark.pedantic(lambda: create_model(name, seed=0), rounds=3, iterations=1)
