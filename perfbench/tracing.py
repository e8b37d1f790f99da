"""Spans recorded from outside the engine.

The tracer replaces module attributes (`voicehand.commands.stft_power`)
and instance attributes (`network.layers[0].forward`) with wrappers that
time the call, and puts the originals back on `uninstall`. A span is
(id, parent, op, name, tag, start_ns, end_ns); spans of one op (a clip, a
stream window, a training step) share `op`. Spans stay in memory until
`write_jsonl` at the end of a run.
"""

import json
import time
import types
from collections import Counter, defaultdict

import numpy as np

ns = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._next_id = 0
        self._stack = []  # open spans: (id, tag, name, parent, op, start_ns)
        self._patches = []

    # -- spans ---------------------------------------------------------
    def begin(self, name, tag=""):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, tag, name, parent, self.op, ns()))
        return span_id

    def end(self):
        end = ns()
        span_id, tag, name, parent, op, start = self._stack.pop()
        self.spans.append((span_id, parent, op, name, tag, start, end))

    def add(self, name, start, end, tag=""):
        """Record a span whose interval the caller measured itself."""
        self.spans.append((self._next_id, None, self.op, name, tag, start, end))
        self._next_id += 1

    @property
    def tag(self):
        """Tag of the innermost open span, inherited by layer spans."""
        return self._stack[-1][1] if self._stack else ""

    @property
    def open_name(self):
        """Name of the innermost open span."""
        return self._stack[-1][2] if self._stack else ""

    # -- patching ------------------------------------------------------
    def wrap(self, owner, attr, name, tag=None, after=None, new_op=False):
        """Replace owner.attr with a timed wrapper.

        `name` and `tag` may be strings or functions of (args, kwargs);
        a tag of None inherits the enclosing span's. `after(args, kwargs,
        result)` runs outside the span, for counting. `new_op` starts a
        new op id at each call.
        """
        original = getattr(owner, attr)
        own_attr = isinstance(owner, types.ModuleType) or attr in vars(owner)

        def wrapper(*args, **kwargs):
            if new_op:
                self.op += 1
            span_name = name(args, kwargs) if callable(name) else name
            span_tag = tag(args, kwargs) if callable(tag) else (self.tag if tag is None else tag)
            self.begin(span_name, span_tag)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own_attr))

    def uninstall(self):
        while self._patches:
            owner, attr, original, own_attr = self._patches.pop()
            if own_attr:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- summaries -----------------------------------------------------
    def self_times(self):
        """Span id -> duration minus the time its children cover."""
        child_ns = defaultdict(int)
        for span_id, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        return {s[0]: (s[6] - s[5]) - child_ns[s[0]] for s in self.spans}

    def summary(self):
        """(name, tag) -> dict of call count and inclusive/self ms stats."""
        selfs = self.self_times()
        groups = defaultdict(lambda: ([], []))
        for span_id, _, _, name, tag, start, end in self.spans:
            incl, own = groups[(name, tag)]
            incl.append((end - start) / 1e6)
            own.append(selfs[span_id] / 1e6)
        out = {}
        for key, (incl, own) in groups.items():
            incl, own = np.asarray(incl), np.asarray(own)
            out[key] = {
                "calls": len(incl),
                "p50_ms": float(np.median(incl)),
                "p99_ms": float(np.percentile(incl, 99)),
                "self_p50_ms": float(np.median(own)),
                "total_ms": float(incl.sum()),
                "self_total_ms": float(own.sum()),
            }
        return out

    def write_jsonl(self, path):
        keys = ("id", "parent", "op", "name", "tag", "start_ns", "end_ns")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def metric_key(name, tag):
    """Span (name, tag) to its metric name: ("layers.conv1.fwd", "b1") ->
    "layers.conv1.fwd_ms.b1"."""
    return f"{name}_ms.{tag}" if tag else f"{name}_ms"


def nbytes(obj):
    """Bytes held by the arrays in a nested tuple/list structure."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(o) for o in obj)
    return 0


def wrap_network(tracer, network):
    """Spans for Network.forward/backward and every layer's forward and
    backward. Network spans carry a tag naming the batch size and mode
    (`b1`, `b64`), which the layer spans inside them inherit; inference
    at batch > 1 is named `infer` rather than `fwd`."""

    def forward_name(args, kwargs):
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "infer")
        return "network.infer" if mode == "infer" and len(args[0]) > 1 else "network.forward"

    def batch_tag(args, kwargs):
        return f"b{len(args[0])}"

    def count_trace(args, kwargs, result):
        trace = result[1]
        if trace is not None:
            tracer.counts[f"trace_bytes.b{len(args[0])}"] = nbytes(trace.caches)

    tracer.wrap(network, "forward", forward_name, batch_tag, after=count_trace)
    tracer.wrap(network, "backward", "network.backward", lambda a, k: f"b{len(a[0].probs)}")

    for layer in network.layers:
        def layer_forward_name(args, kwargs, layer=layer):
            kind = "infer" if tracer.open_name == "network.infer" else "fwd"
            return f"layers.{layer.name}.{kind}"

        after = None
        if layer is network.layers[0]:
            def after(args, kwargs, result):
                out = result[0]
                tracer.counts["conv1_cols"] += out.shape[0] * out.shape[2]
        tracer.wrap(layer, "forward", layer_forward_name, after=after)

        after = None
        if layer is network.layers[0]:
            def after(args, kwargs, result):
                tracer.counts["conv1_dx_bytes"] = nbytes(result[0])
        tracer.wrap(layer, "backward", f"layers.{layer.name}.bwd", after=after)
