"""Deterministic JSON emission, comparison, and schema validation.

Every CLI command funnels its payload through :func:`dumps` so that repeated
invocations with identical inputs produce byte-identical output: keys are
sorted, indentation is fixed, exact scalars are rendered as strings, and a
single trailing newline is appended.  Floating-point values appear only in
the numeric (parabolic-dynamics) payloads and use Python's shortest-repr
float formatting, which is itself deterministic.

:func:`dumps` is the package's one JSON emitter: a recursive writer that
converts toolkit objects as :func:`to_jsonable` does while it writes, and
whose output is byte-identical to ``json.dumps(to_jsonable(payload),
sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False) + "\n"``,
the call it replaces (with an indent, ``json.dumps`` runs its pure-Python
encoder).  :func:`to_jsonable` serves the comparison and the validation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, List

from .scalars import GaussianRational
from .towers import FieldElement

_FLOAT_REL_TOL = 1e-9
_FLOAT_ABS_TOL = 1e-12


def to_jsonable(obj: Any) -> Any:
    """Recursively convert toolkit objects into plain JSON-serializable data.

    Exact scalars become strings; complex floats become ``[re, im]`` pairs;
    objects exposing ``to_json`` are converted through it.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (GaussianRational, FieldElement)):
        return str(obj)
    if hasattr(obj, "to_json"):
        return to_jsonable(obj.to_json())
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(payload: Any) -> str:
    """Serialize a payload deterministically (sorted keys, fixed layout).

    NaN and infinities are not JSON, so a payload holding one raises
    ``ValueError`` instead of producing an unreadable document; a value
    :func:`to_jsonable` cannot convert raises ``TypeError``.
    """
    out: List[str] = []
    _write(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj: Any, out: List[str], newline: str) -> None:
    """Append the JSON text of ``obj`` to ``out``.  ``newline`` is a line
    break and the indentation of the line ``obj`` starts on."""
    t = type(obj)
    if t is dict or t is list or t is tuple:
        _write_container(obj, out, newline)
    # the rest in the order of to_jsonable, subclasses included
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("Out of range float values are not JSON compliant: "
                             + repr(obj))
        out.append(float.__repr__(obj))
    elif isinstance(obj, complex):
        _write_container([obj.real, obj.imag], out, newline)
    elif isinstance(obj, (Fraction, GaussianRational, FieldElement)):
        out.append(_quote(str(obj)))
    elif hasattr(obj, "to_json"):
        _write(obj.to_json(), out, newline)
    elif isinstance(obj, (dict, list, tuple)):
        _write_container(obj, out, newline)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _write_container(obj, out: List[str], newline: str) -> None:
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = newline + "  "
    if isinstance(obj, dict):
        # keys become strings as in to_jsonable, a later duplicate winning
        items = {str(k): v for k, v in obj.items()}
        sep = "{" + inner
        for key in sorted(items):
            out.append(sep)
            out.append(_quote(key))
            out.append(": ")
            _write(items[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")


def _floats_close(a: float, b: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=_FLOAT_REL_TOL, abs_tol=_FLOAT_ABS_TOL)


def diff_json(expected: Any, actual: Any, path: str = "$") -> List[str]:
    """Field-by-field comparison of two JSON-able documents.

    Returns a list of human-readable mismatch descriptions (empty when the
    documents agree).  Non-float leaves must match exactly; float leaves are
    compared with a tight relative tolerance so that serialization round
    trips cannot produce spurious diffs.
    """
    diffs: List[str] = []
    _diff(to_jsonable(expected), to_jsonable(actual), path, diffs)
    return diffs


def _diff(expected: Any, actual: Any, path: str, diffs: List[str]) -> None:
    """Append the mismatches of two plain JSON documents to ``diffs``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(expected):
            if key not in actual:
                diffs.append(f"{path}.{key}: missing from actual output")
            else:
                _diff(expected[key], actual[key], f"{path}.{key}", diffs)
        for key in sorted(actual):
            if key not in expected:
                diffs.append(f"{path}.{key}: unexpected key (value {actual[key]!r})")
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            diffs.append(f"{path}: length {len(actual)} != expected {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff(e, a, f"{path}[{i}]", diffs)
        return
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) \
                and not isinstance(expected, bool) and not isinstance(actual, bool) \
                and _floats_close(float(expected), float(actual)):
            return
        diffs.append(f"{path}: {actual!r} != expected {expected!r}")
        return
    if type(expected) is not type(actual) or expected != actual:
        diffs.append(f"{path}: {actual!r} != expected {expected!r}")


def schema_names() -> List[str]:
    """Names of the JSON schemas shipped with the package."""
    root = resources.files("folsing") / "schemas"
    return sorted(p.name[:-len(".json")] for p in root.iterdir()
                  if p.name.endswith(".json"))


def load_schema(name: str) -> dict:
    """Load a shipped schema by name (without the ``.json`` suffix)."""
    root = resources.files("folsing") / "schemas"
    return json.loads((root / f"{name}.json").read_text(encoding="utf-8"))


def validate(payload: Any, schema_name: str) -> None:
    """Validate a payload against a shipped schema.

    Raises ``jsonschema.ValidationError`` on mismatch.  The jsonschema
    dependency is imported lazily so the core library does not require it.
    """
    import jsonschema

    jsonschema.validate(to_jsonable(payload), load_schema(schema_name))
