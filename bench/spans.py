"""In-memory span tracer that wraps package functions from outside.

Each traced function is replaced, at every module attribute that refers to
it, by a wrapper that records a span: name, start, end, parent span and
thread.  Callers look the name up at call time, so the wrapper sees every
call without any change to the package.  A name that no longer exists is
listed in `missing` and its metrics are reported as absent; installing the
tracer never raises.

Spans opened on a pool thread of `parallel_map` take the enclosing
`parallel_map` span as their parent.  Each task the pool runs gets a span of
its own, marked as a task and named after the caller of `parallel_map`, so
work done directly in the task body (the Monte Carlo blocks, the per-chunk
outcome loop) is charged to the calling layer.

Self time is the part of a span's duration that none of its children
covers.  Where spans on several threads are open at once, each instant is
split equally among them, so the self times of all spans add up to the
time the root spans cover.
"""

import functools
import importlib
import pkgutil
import threading
import time

#: Span name -> (module, attribute) where the function is defined.
TARGETS = {
    "cli.main": ("atomsampler.cli", "main"),
    "scenarios.load_bundle": ("atomsampler.scenarios", "load_bundle"),
    "scenarios.load_hom_params": ("atomsampler.scenarios", "load_hom_params"),
    "fock.basis_array": ("atomsampler.fock", "basis_array"),
    "permanent.glynn": ("atomsampler.permanent", "permanent_glynn"),
    "sampling.output_distribution": ("atomsampler.sampling", "output_distribution"),
    "sampling.outcome_probability": ("atomsampler.sampling", "outcome_probability"),
    "sampling.draw_samples": ("atomsampler.sampling", "draw_samples"),
    "interferometer.haar_random_unitary": ("atomsampler.interferometer", "haar_random_unitary"),
    "interferometer.clements_decompose": ("atomsampler.interferometer", "clements_decompose"),
    "exactsim.benchmark_vs_model": ("atomsampler.exactsim", "benchmark_vs_model"),
    "exactsim.run_circuit": ("atomsampler.exactsim", "run_circuit"),
    "exactsim.apply_layer": ("atomsampler.exactsim", "apply_layer"),
    "exactsim.apply_decay": ("atomsampler.exactsim", "apply_decay"),
    "exactsim.build_decay_diagonal": ("atomsampler.exactsim", "build_decay_diagonal"),
    "lossmodel.r_nisq": ("atomsampler.lossmodel", "r_nisq"),
    "lossmodel.r_photonic": ("atomsampler.lossmodel", "r_photonic"),
    "lossmodel.r_classical": ("atomsampler.lossmodel", "r_classical"),
    "lossmodel.crossover": ("atomsampler.lossmodel", "crossover"),
    "lossmodel.excluded_occupancy_mass": ("atomsampler.lossmodel", "excluded_occupancy_mass"),
    "lossmodel.p_step_twobody": ("atomsampler.lossmodel", "p_step_twobody"),
    "hom.hom_monte_carlo": ("atomsampler.hom", "hom_monte_carlo"),
    "hom.fit_bunching": ("atomsampler.hom", "fit_bunching"),
    "parallel.parallel_map": ("atomsampler.parallel", "parallel_map"),
}

PARALLEL_MAP = "parallel.parallel_map"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _glynn_size(args, kwargs, result):
    return _arg(args, kwargs, 0, "a").shape[0]


def _hom_trials(args, kwargs, result):
    return int(_arg(args, kwargs, 1, "trials"))


def _basis_dim(args, kwargs, result):
    return int(result.shape[0])


def _outcome_count(args, kwargs, result):
    return len(result.outcomes)


#: Span name -> function of (args, kwargs, result) giving one number per call.
#: A hook that fails marks the number as absent for that call.
HOOKS = {
    "permanent.glynn": _glynn_size,
    "hom.hom_monte_carlo": _hom_trials,
    "fock.basis_array": _basis_dim,
    "sampling.output_distribution": _outcome_count,
}


class Span:
    __slots__ = ("sid", "name", "parent", "thread", "start", "end", "value", "cpu", "task")

    def __init__(self, sid, name, parent, thread, start, task=False):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = None
        self.value = None
        self.cpu = None
        self.task = task

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Wraps the functions in TARGETS and records one span per call."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, task=False, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].sid
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident(),
                        time.perf_counter(), task)
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        if name == PARALLEL_MAP:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if len(args) < 2 or not callable(args[0]):
                    # unknown calling convention: time the call, leave tasks alone
                    span = tracer._open(name)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._close(span)
                task_fn, items, rest = args[0], list(args[1]), args[2:]
                stack = tracer._stack()
                caller = stack[-1].name if stack else name
                span = tracer._open(name)
                span.value = len(items)
                cpu0 = time.process_time()

                def task(item):
                    inner = tracer._open(caller, task=True, parent=span.sid)
                    try:
                        return task_fn(item)
                    finally:
                        tracer._close(inner)

                try:
                    return fn(task, items, *rest, **kwargs)
                finally:
                    span.cpu = time.process_time() - cpu0
                    tracer._close(span)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                try:
                    span.value = hook(args, kwargs, result)
                except Exception:  # a changed signature or result: value absent
                    span.value = None
            return result
        return wrapper

    def install(self):
        """Wrap every target at each module attribute that refers to it."""
        package = importlib.import_module("atomsampler")
        modules = [package]
        for info in pkgutil.iter_modules(package.__path__, "atomsampler."):
            if info.name.endswith(".__main__"):
                continue
            try:
                modules.append(importlib.import_module(info.name))
            except Exception:  # an unimportable module hides its names only
                continue
        for name, (module_name, attr) in TARGETS.items():
            module = next((m for m in modules if m.__name__ == module_name), None)
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def absent(self, name):
        module_name, attr = TARGETS[name]
        return f"{module_name}.{attr}" in self.missing

    def self_times(self, lo, hi):
        """Self time of every span, clipped to the interval [lo, hi].

        Returns a list indexed by span id.
        """
        spans = [s for s in self.spans if s.end is not None]
        events = []
        for s in spans:
            events.append((s.start, 1, s.sid))
            events.append((s.end, 0, -s.sid))
        # ends before starts at equal times; parents open before children
        # and close after them
        events.sort()
        open_children = {}
        leaves = set()
        self_s = [0.0] * len(self.spans)
        by_id = self.spans
        last = None
        for t, kind, key in events:
            if last is not None and leaves:
                a, b = max(last, lo), min(t, hi)
                if b > a:
                    share = (b - a) / len(leaves)
                    for sid in leaves:
                        self_s[sid] += share
            last = t
            if kind == 1:
                span = by_id[key]
                open_children[key] = 0
                leaves.add(key)
                parent = span.parent
                if parent is not None and parent in open_children:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                sid = -key
                span = by_id[sid]
                del open_children[sid]
                leaves.discard(sid)
                parent = span.parent
                if parent is not None and parent in open_children:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
        return self_s

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,thread,name,task,start,end,value\n")
            for s in self.spans:
                fh.write(
                    f"{s.sid},{'' if s.parent is None else s.parent},{s.thread},"
                    f"{s.name},{int(s.task)},{s.start!r},{s.end!r},"
                    f"{'' if s.value is None else s.value}\n"
                )


LAYERS = ("cli", "scenarios", "fock", "permanent", "sampling", "interferometer",
          "exactsim", "lossmodel", "hom", "parallel")


def layer_metrics(tracer, lo, hi):
    """Per-layer metrics of one traced run; None marks an absent name.

    `lo` and `hi` bound the timed interval; self times are clipped to it,
    durations (`.s`) are not, so set-up calls still show in them.
    """
    self_s = tracer.self_times(lo, hi)
    calls, selfsum = {}, {}
    for span in tracer.spans:
        if span.end is None:
            continue
        selfsum[span.name] = selfsum.get(span.name, 0.0) + self_s[span.sid]
        if not span.task:
            calls.setdefault(span.name, []).append(span)

    def spans_of(name):
        return None if tracer.absent(name) else calls.get(name, [])

    def count(name):
        s = spans_of(name)
        return None if s is None else len(s)

    def total(name, *more):
        groups = [spans_of(n) for n in (name, *more)]
        if any(g is None for g in groups):
            return None
        return sum(span.duration for g in groups for span in g)

    def own(name):
        return None if tracer.absent(name) else selfsum.get(name, 0.0)

    def values(name):
        s = spans_of(name)
        if s is None or any(span.value is None for span in s):
            return None
        return [span.value for span in s]

    def ratio(a, b):
        if a is None or b is None:
            return None
        return a / b if b else 0.0

    out = {}
    out["fock.basis_array.calls"] = count("fock.basis_array")
    out["fock.basis_array.s"] = total("fock.basis_array")
    dims = values("fock.basis_array")
    out["fock.basis_dim"] = None if dims is None else max(dims, default=0)

    out["permanent.glynn.calls"] = count("permanent.glynn")
    out["permanent.glynn.s"] = total("permanent.glynn")
    out["permanent.glynn.us_per_call"] = ratio(
        None if out["permanent.glynn.s"] is None else 1e6 * out["permanent.glynn.s"],
        out["permanent.glynn.calls"],
    )
    sizes = values("permanent.glynn")
    out["permanent.glynn.ops_computed"] = (
        None if sizes is None else sum(n * 2 ** (n - 1) for n in sizes)
    )

    out["sampling.output_distribution.self_s"] = own("sampling.output_distribution")
    outcomes = values("sampling.output_distribution")
    out["sampling.outcomes"] = None if outcomes is None else sum(outcomes)
    out["sampling.draw_samples.s"] = total("sampling.draw_samples")
    out["sampling.outcome_probability.self_s"] = own("sampling.outcome_probability")

    out["interferometer.haar_random_unitary.s"] = total("interferometer.haar_random_unitary")
    out["interferometer.clements_decompose.calls"] = count("interferometer.clements_decompose")
    out["interferometer.clements_decompose.s"] = total("interferometer.clements_decompose")

    runs = spans_of("exactsim.run_circuit")
    out["exactsim.run_circuit.calls"] = None if runs is None else len(runs)
    if runs is None:
        out["exactsim.run_circuit.first_s"] = out["exactsim.run_circuit.warm_p50_s"] = None
    else:
        runs = sorted(runs, key=lambda s: s.start)
        warm = sorted(s.duration for s in runs[1:])
        out["exactsim.run_circuit.first_s"] = runs[0].duration if runs else 0.0
        out["exactsim.run_circuit.warm_p50_s"] = (
            (warm[(len(warm) - 1) // 2] + warm[len(warm) // 2]) / 2 if warm else 0.0
        )
    out["exactsim.apply_layer.calls"] = count("exactsim.apply_layer")
    out["exactsim.apply_layer.self_s"] = own("exactsim.apply_layer")
    out["exactsim.apply_decay.s"] = total("exactsim.apply_decay")
    out["exactsim.build_decay_diagonal.calls"] = count("exactsim.build_decay_diagonal")
    out["exactsim.build_decay_diagonal.s"] = total("exactsim.build_decay_diagonal")

    out["lossmodel.r_nisq.calls"] = count("lossmodel.r_nisq")
    out["lossmodel.crossover.s"] = total("lossmodel.crossover")
    out["lossmodel.excluded_occupancy_mass.s"] = total("lossmodel.excluded_occupancy_mass")
    out["lossmodel.p_step_twobody.s"] = total("lossmodel.p_step_twobody")

    out["hom.hom_monte_carlo.s"] = total("hom.hom_monte_carlo")
    trials = values("hom.hom_monte_carlo")
    out["hom.mc_trials_per_s"] = ratio(
        None if trials is None else sum(trials), out["hom.hom_monte_carlo.s"]
    )
    out["hom.fit_bunching.s"] = total("hom.fit_bunching")

    maps = spans_of(PARALLEL_MAP)
    out["parallel.parallel_map.calls"] = None if maps is None else len(maps)
    out["parallel.parallel_map.items"] = (
        None if maps is None else sum(s.value or 0 for s in maps)
    )
    out["parallel.parallel_map.s"] = total(PARALLEL_MAP)
    out["parallel.parallel_map.cpu_per_wall"] = (
        None if maps is None
        else ratio(sum(s.cpu or 0.0 for s in maps), sum(s.duration for s in maps))
    )

    out["scenarios.load.s"] = total("scenarios.load_bundle", "scenarios.load_hom_params")
    out["cli.main.self_s"] = own("cli.main")

    attributed = 0.0
    for layer in LAYERS:
        names = [n for n in TARGETS if n.split(".")[0] == layer]
        if all(tracer.absent(n) for n in names):
            out[f"{layer}.self_s"] = None
            continue
        value = sum(v for n, v in selfsum.items() if n.split(".")[0] == layer)
        out[f"{layer}.self_s"] = value
        attributed += value
    out["trace.wall_s"] = hi - lo
    out["trace.unattributed_s"] = (hi - lo) - attributed
    return out
