"""Span tracer that times the subent layers from outside.

The tracer wraps every public subent function the workloads reach (and the
``__post_init__`` validators of ``SubspaceBasis`` and ``Projector``) and
records one span per call: name, parent span, execution id, start and end
in nanoseconds.  ``cli.py`` and ``__init__.py`` import with ``from .x import
y``, so every ``subent.*`` namespace that bound a wrapped function is
patched, not only the defining module.  Nothing under ``src/`` is edited:
``uninstall`` restores every attribute it replaced.

Spans live in a flat ``array('q')`` while the benchmark runs and are
aggregated (count, self time, inclusive time per span name and execution)
at the end.  Self time is a span's duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter_ns

# Public functions wrapped per layer: every one the workloads reach, so that
# no layer's time is counted as its caller's self time.  Names a later
# refactor removes are skipped and listed in ``missing``.
WRAPPED = {
    "cli": ("main",),
    "io": (
        "load_subspace_document",
        "parse_subspace_document",
        "basis_document",
        "projector_document",
        "dumps_json",
        "result_document",
        "result_csv",
        "result_table",
    ),
    "linalg": ("hermitian_eigenvalues", "gram_schmidt"),
    "spaces": ("validate_projector", "projector_from_basis"),
    "schmidt": ("realign", "reduced_superop", "schmidt_string", "measures"),
    "majorization": ("compare", "sort_chain"),
    "catalog": (
        "antisymmetric_subspace",
        "symmetric_subspace",
        "antisym_string_closed",
        "sym_string_closed",
        "closed_measures",
        "spin_operators",
        "spin_x_operator",
        "spin_projector",
        "spin_string_closed",
        "limiting_string",
        "hydrogen_level",
    ),
    "verify": (
        "verify_antisym",
        "verify_sym",
        "verify_spin",
        "verify_hydrogen",
        "hydrogen_chain_expected",
    ),
}
WRAPPED_INITS = (("spaces", "SubspaceBasis"), ("spaces", "Projector"))

CLI_ROOT = "cli.main"
_FIELDS = 5  # name id, parent index, execution id, start ns, end ns


def _count_gram_schmidt(tracer, args, kwargs, result):
    vectors = args[0] if args else kwargs["vectors"]
    tracer.count("gs_vectors_in", len(vectors))
    tracer.count("gs_vectors_kept", len(result))


def _count_parse(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("parse_bytes", os.path.getsize(path))


def _count_emit(tracer, args, kwargs, result):
    if not tracer.under_cli():
        tracer.count("emit_bytes", len(result.encode("utf-8")))


COUNTERS = {
    "linalg.gram_schmidt": _count_gram_schmidt,
    "io.load_subspace_document": _count_parse,
    "io.dumps_json": _count_emit,
}


class Tracer:
    """Records spans around the wrapped subent functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.stack: list[int] = []
        self.exec_id = -1
        self.counters: dict[tuple[int, str], int] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, value: int) -> None:
        k = (self.exec_id, key)
        self.counters[k] = self.counters.get(k, 0) + int(value)

    def under_cli(self) -> bool:
        cli_id = self._name_ids.get(CLI_ROOT)
        return any(self.spans[i * _FIELDS] == cli_id for i in self.stack)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans) // _FIELDS
            spans.extend((nid, stack[-1] if stack else -1, self.exec_id, 0, 0))
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx * _FIELDS + 3] = t0
                spans[idx * _FIELDS + 4] = t1
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every subent namespace; call ``uninstall`` to undo."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            m for key, m in sys.modules.items()
            if key == "subent" or key.startswith("subent.")
        ]
        for layer, names in WRAPPED.items():
            module = sys.modules.get(f"subent.{layer}")
            for attr in names:
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{layer}.{attr}")
                    continue
                wrapper = self._wrapper_for(f"{layer}.{attr}", original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapper)
        for layer, cls_name in WRAPPED_INITS:
            cls = getattr(sys.modules.get(f"subent.{layer}"), cls_name, None)
            init = getattr(cls, "__post_init__", None)
            if init is None:
                self.missing.append(f"{layer}.{cls_name}.__post_init__")
                continue
            name = f"{layer}.{cls_name}.__post_init__"
            self._patch(cls, "__post_init__", self._wrapper_for(name, init))

    def _wrapper_for(self, name: str, original):
        if name not in self._wrappers:
            self._wrappers[name] = self._wrap(name, original)
        return self._wrappers[name]

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- aggregation ------------------------------------------------------

    def aggregate(self) -> dict[int, dict[str, list[int]]]:
        """Per execution: span key -> [count, self ns, inclusive ns].

        io spans under ``cli.main`` get the key suffix ``@cli`` so that the
        rendering of CLI results is kept apart from document emission.
        """
        s = self.spans
        n = len(s) // _FIELDS
        cli_id = self._name_ids.get(CLI_ROOT, -1)
        child_ns = [0] * n
        in_cli = [False] * n
        for i in range(n):
            parent = s[i * _FIELDS + 1]
            if parent >= 0:
                child_ns[parent] += s[i * _FIELDS + 4] - s[i * _FIELDS + 3]
                in_cli[i] = in_cli[parent] or s[parent * _FIELDS] == cli_id
        out: dict[int, dict[str, list[int]]] = {}
        for i in range(n):
            base = i * _FIELDS
            name = self.names[s[base]]
            if in_cli[i] and name.startswith("io."):
                name += "@cli"
            dur = s[base + 4] - s[base + 3]
            row = out.setdefault(s[base + 2], {}).setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += dur - child_ns[i]
            row[2] += dur
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as a tab-separated line, with a header."""
        s = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\texecution\tstart_ns\tend_ns\n")
            for i in range(len(s) // _FIELDS):
                b = i * _FIELDS
                fh.write(
                    f"{i}\t{self.names[s[b]]}\t{s[b + 1]}\t{s[b + 2]}"
                    f"\t{s[b + 3]}\t{s[b + 4]}\n"
                )
