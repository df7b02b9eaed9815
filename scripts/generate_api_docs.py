#!/usr/bin/env python3
"""Generate docs/API.md from the package's public surface.

Introspects every ``repro`` subpackage's ``__all__`` and writes one
reference entry per public name (signature + first docstring paragraph).
Run after changing the public API::

    python scripts/generate_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

MODULES = [
    "repro.nn",
    "repro.nn.functional",
    "repro.nn.models",
    "repro.nn.schedulers",
    "repro.nn.serialization",
    "repro.nn.rng",
    "repro.nn.testing",
    "repro.docstore",
    "repro.filestore",
    "repro.cluster",
    "repro.cluster.health",
    "repro.cluster.antientropy",
    "repro.errors",
    "repro.faults",
    "repro.retry",
    "repro.deadline",
    "repro.obs",
    "repro.gateway",
    "repro.wire",
    "repro.core",
    "repro.distsim",
    "repro.importer",
    "repro.workloads",
    "repro.cli",
]


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return paragraph


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def render_module(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", ""]
    intro = first_paragraph(module)
    if intro:
        lines += [intro, ""]
    names = getattr(module, "__all__", None)
    if not names:
        return lines
    for name in names:
        obj = getattr(module, name, None)
        if obj is None or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj):
            lines.append(f"### `{name}{signature_of(obj)}`")
            lines.append("")
            summary = first_paragraph(obj)
            if summary:
                lines += [summary, ""]
            methods = [
                (method_name, method)
                for method_name, method in inspect.getmembers(obj, inspect.isfunction)
                if not method_name.startswith("_") and method.__qualname__.startswith(obj.__name__)
            ]
            for method_name, method in methods:
                summary = first_paragraph(method)
                if summary:
                    lines.append(f"- `{method_name}{signature_of(method)}` — {summary}")
            if methods:
                lines.append("")
        elif callable(obj):
            lines.append(f"### `{name}{signature_of(obj)}`")
            lines.append("")
            summary = first_paragraph(obj)
            if summary:
                lines += [summary, ""]
        else:
            lines.append(f"### `{name}` (constant)")
            lines.append("")
    return lines


def main() -> None:
    out = [
        "# API reference",
        "",
        "Generated by `scripts/generate_api_docs.py` from the public",
        "`__all__` surface and docstrings — regenerate after API changes.",
        "",
    ]
    for module_name in MODULES:
        out.extend(render_module(module_name))
    target = Path(__file__).parent.parent / "docs" / "API.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text("\n".join(out) + "\n")
    print(f"wrote {target} ({len(out)} lines)")


if __name__ == "__main__":
    main()
