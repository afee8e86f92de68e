"""Generate docs/API.md from the package's public API.

Walks every ``repro`` subpackage, collects the public names exported via
``__all__`` (falling back to non-underscore module members), and emits a
markdown reference with each item's signature and docstring summary.

Run with:  python scripts/generate_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import re

PACKAGES = [
    "repro",
    "repro.core",
    "repro.engine",
    "repro.markov",
    "repro.games",
    "repro.analysis",
    "repro.experiments",
    "repro.params",
    "repro.runner",
    "repro.fabric",
    "repro.utils",
]

OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"


def summary_line(obj) -> str:
    """First non-empty docstring line of an object (or a placeholder)."""
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    for line in doc.splitlines():
        stripped = line.strip()
        if stripped:
            return stripped
    return "(undocumented)"


def signature_of(obj) -> str:
    """Best-effort signature string, with process-specific reprs removed.

    Callable defaults render as ``<function mean at 0x...>``; the memory
    address changes every run, which would make regeneration
    nondeterministic — strip it down to the bare function name.
    """
    try:
        signature = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""
    return re.sub(r"<function (\w+) at 0x[0-9a-f]+>", r"\1", signature)


def describe(name: str, obj) -> list[str]:
    """Markdown lines describing one public item."""
    lines: list[str] = []
    if inspect.isclass(obj):
        lines.append(f"### `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(summary_line(obj))
        methods = []
        for method_name, member in inspect.getmembers(obj):
            if method_name.startswith("_"):
                continue
            if (inspect.isfunction(member) or inspect.ismethod(member)) \
                    and member.__qualname__.startswith(obj.__name__ + "."):
                methods.append(
                    f"- `{method_name}{signature_of(member)}` — "
                    f"{summary_line(member)}")
        if methods:
            lines.append("")
            lines.extend(methods)
    elif inspect.isfunction(obj):
        lines.append(f"### `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(summary_line(obj))
    else:
        lines.append(f"### `{name}`")
        lines.append("")
        lines.append(summary_line(obj))
    lines.append("")
    return lines


def main() -> None:
    out: list[str] = [
        "# API reference",
        "",
        "Generated by `scripts/generate_api_docs.py` — regenerate after "
        "changing any public signature.",
        "",
    ]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in dir(module) if not n.startswith("_")]
        names = [n for n in names if n != "__version__"]
        if not names:
            continue
        out.append(f"## `{package_name}`")
        out.append("")
        out.append(summary_line(module))
        out.append("")
        for name in names:
            obj = getattr(module, name)
            if inspect.ismodule(obj):
                continue
            out.extend(describe(name, obj))
    OUTPUT.parent.mkdir(exist_ok=True)
    OUTPUT.write_text("\n".join(out) + "\n")
    print(f"wrote {OUTPUT} ({len(out)} lines)")


if __name__ == "__main__":
    main()
