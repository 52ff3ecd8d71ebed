"""Outside-in layer tracing for the benchmark.

The traced run wraps the public function at each module boundary of
`trajcurate` from here, so the package itself carries no tracing code. A
wrapper is installed wherever the function is looked up at call time: the
defining module's attribute, every other `trajcurate` module that bound the
same object with `from ... import`, and the class dict for methods. Each call
appends one span (name, start, end, parent) to an in-memory list; nothing is
written until the run ends. `Tracer.uninstall` puts every original back.

Spans the benchmark opens itself with `Tracer.span` ("setup", "item") are the
roots that per-layer figures are grouped by.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, qualified name) of every traced boundary. `nn` and `tensor` are
# reached only through the model methods listed here, which stand in for them.
BOUNDARIES = (
    ("sim", "render"), ("sim", "rollout"), ("sim", "replay"),
    ("synthgen", "sample_candidates"), ("synthgen", "remap_frames"),
    ("dataset", "scripted_expert"), ("dataset", "write_episode"),
    ("dataset", "read_episode"),
    ("encoder", "pretrain_encoder"), ("encoder", "EncoderModel.encode"),
    ("probe", "build_pairs"), ("probe", "train_probe"),
    ("probe", "score_sample"), ("probe", "ProbeModel.forward"),
    ("idm", "train_idm"), ("idm", "label_video"), ("idm", "IdmModel.velocity"),
    ("flow", "euler_sample"), ("flow", "train_fm"),
    ("optim", "AdamW.step"),
    ("checkpoint", "save_checkpoint"), ("checkpoint", "load_checkpoint"),
)
BOUNDARY_NAMES = tuple(f"{m}.{q}" for m, q in BOUNDARIES)


def _path_arg(args, kwargs, position):
    return kwargs.get("path", args[position] if len(args) > position else None)


# Amounts recorded at a boundary after its span closes: rows per IDM
# velocity call, frames per video, file bytes written or read, probe epochs.
AMOUNTS = {
    "idm.IdmModel.velocity": lambda args, kwargs, result: len(args[1]),
    "idm.label_video": lambda a, k, r: len(a[0]),
    "synthgen.remap_frames": lambda a, k, r: len(a[0]),
    "probe.score_sample": lambda a, k, r: len(a[0].video),
    "dataset.write_episode": lambda a, k, r: os.path.getsize(_path_arg(a, k, 1)),
    "dataset.read_episode": lambda a, k, r: os.path.getsize(_path_arg(a, k, 0)),
    "checkpoint.save_checkpoint": lambda a, k, r: os.path.getsize(_path_arg(a, k, 0)),
    "probe.train_probe": lambda a, k, r: len(r[1].val_bce),
}


@dataclass
class Span:
    name: str
    start: int                 # perf_counter_ns
    end: int
    parent: int | None         # index into the span list
    ok: bool = True            # False when the call raised
    amount: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int, ok: bool = True) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        span.ok = ok
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok)

    def _wrap(self, name: str, fn):
        amount = AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, ok=False)
                raise
            span = self._close(idx)
            if amount is not None:
                span.amount = float(amount(args, kwargs, result))
            return result

        traced.__bench_traced__ = True
        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, qualname in BOUNDARIES:
            module = importlib.import_module(f"trajcurate.{module_name}")
            name = f"{module_name}.{qualname}"
            owner, _, attr = qualname.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "trajcurate" or n.startswith("trajcurate."))]


def traced_leftovers() -> list[str]:
    """Every place in the package that still holds a tracing wrapper."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if getattr(value, "__bench_traced__", False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, "__bench_traced__", False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


# -- arithmetic over spans -------------------------------------------------------


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            parent = spans[s.parent]
            lo, hi = max(s.start, parent.start), min(s.end, parent.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def roots(spans: list[Span]) -> list[int]:
    """Index of each span's outermost ancestor (parents precede children)."""
    out: list[int] = []
    for i, s in enumerate(spans):
        out.append(i if s.parent is None else out[s.parent])
    return out


def covered_time(spans: list[Span], names, within: set[int]) -> int:
    """Time spent inside spans named in `names`, counting nested ones once,
    over spans whose root is in `within`."""
    names = set(names)
    root = roots(spans)
    total = 0
    for i, s in enumerate(spans):
        if s.name not in names or root[i] not in within:
            continue
        p, nested = s.parent, False
        while p is not None:
            if spans[p].name in names:
                nested = True
                break
            p = spans[p].parent
        if not nested:
            total += s.end - s.start
    return total


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-boundary figures: calls and self ms per timed item, self ms per
    set-up, and the median inclusive ms per call over set-ups and items.
    Spans outside both, such as input generation, count nowhere."""
    root = roots(spans)
    selfs = self_times(spans)
    items = {i for i, s in enumerate(spans) if s.parent is None and s.name == "item"}
    setups = {i for i, s in enumerate(spans) if s.parent is None and s.name == "setup"}
    n_items, n_setups = max(len(items), 1), max(len(setups), 1)
    item_ns = sum(spans[i].end - spans[i].start for i in items)

    calls: dict[str, int] = defaultdict(int)
    self_item: dict[str, int] = defaultdict(int)
    self_setup: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    amounts: dict[str, float] = defaultdict(float)
    setup_amounts: dict[str, float] = defaultdict(float)
    ok_calls: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        if s.name not in BOUNDARY_NAMES:
            continue
        if root[i] in items or root[i] in setups:
            durations[s.name].append(s.end - s.start)
        if root[i] in items:
            calls[s.name] += 1
            ok_calls[s.name] += s.ok
            self_item[s.name] += selfs[i]
            amounts[s.name] += s.amount
        elif root[i] in setups:
            self_setup[s.name] += selfs[i]
            setup_amounts[s.name] += s.amount

    out: dict[str, float] = {}
    for name in BOUNDARY_NAMES:
        out[f"{name}.calls"] = calls[name] / n_items
        out[f"{name}.self_ms"] = self_item[name] / 1e6 / n_items
        out[f"{name}.setup_self_ms"] = self_setup[name] / 1e6 / n_setups
        out[f"{name}.ms_per_call_p50"] = (statistics.median(durations[name]) / 1e6
                                          if durations[name] else 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    velocity, label = "idm.IdmModel.velocity", "idm.label_video"
    in_label = sum(1 for i, s in enumerate(spans)
                   if s.name == velocity and root[i] in items
                   and _has_ancestor(spans, i, label))
    out["idm.velocity_calls_per_label"] = ratio(in_label, calls[label])
    out["idm.rows_per_velocity_call"] = ratio(amounts[velocity], calls[velocity])
    out["sim.frames_rendered_per_item"] = calls["sim.render"] / n_items
    expert = "dataset.scripted_expert"
    out["dataset.expert_success_ratio"] = ratio(ok_calls[expert], calls[expert])
    out["dataset.bytes_written"] = amounts["dataset.write_episode"] / n_items
    out["dataset.bytes_read"] = amounts["dataset.read_episode"] / n_items
    probe_calls = [s for s in spans if s.name == "probe.train_probe"]
    out["probe.epochs_run"] = ratio(sum(s.amount for s in probe_calls), len(probe_calls))
    out["checkpoint.bytes"] = setup_amounts["checkpoint.save_checkpoint"] / n_setups

    shares = {
        "share.idm_velocity": ("idm.IdmModel.velocity",),
        "share.render_remap": ("sim.render", "synthgen.remap_frames"),
        "share.trainfm_pretrain": ("flow.train_fm", "encoder.pretrain_encoder"),
    }
    for key, names in shares.items():
        out[key] = ratio(covered_time(spans, names, items), item_ns)
    return out


def write_spans(spans: list[Span], path) -> None:
    """One JSON array per line: name, start ns, end ns, parent index, ok, amount."""
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps([s.name, s.start, s.end, s.parent, s.ok, s.amount]) + "\n")
