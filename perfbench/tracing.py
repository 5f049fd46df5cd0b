"""Span tracing of fedsc from the outside, and the per-layer metrics.

``Tracer.installed`` replaces each public function at the name its caller
binds (``fedsc.federation.forward_features`` and so on) with a wrapper that
records a span: id, name, start, end, parent span and run id.  Spans stay
in memory until ``write`` saves them.  Clients trained on a thread pool
record their spans on their own thread; a span opened on a thread with no
open span of its own takes the main thread's innermost open span (the
round) as its parent.

A few wrappers also note what only the call's arguments show: which round
and client trained, whether the client consumed prototypes, payload sizes,
and which reports each collaboration build received.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

import fedsc.cli as fcli
import fedsc.data as fdata
import fedsc.federation as ffed

# (module, attribute, span name); the module is the caller's namespace
TRACED = (
    (ffed, "run_round", "federation.run_round"),
    (ffed, "run_client", "federation.run_client"),
    (ffed, "aggregate_models", "federation.aggregate_models"),
    (ffed, "forward_features", "model.forward_features"),
    (ffed, "backward", "model.backward"),
    (ffed, "sgd_step", "model.sgd_step"),
    (ffed, "evaluate_accuracy", "model.evaluate_accuracy"),
    (ffed, "total_loss", "losses.total_loss"),
    (ffed, "compute_normalizers", "losses.compute_normalizers"),
    (ffed, "build_collaboration", "prototypes.build_collaboration"),
    (ffed, "prototypes_from_features", "prototypes.prototypes_from_features"),
    (ffed, "partition_dataset", "data.partition"),
    (fdata, "generate_gaussian_blobs", "data.generate"),
    (fdata, "split_holdout", "data.split"),
    (fcli, "generate_gaussian_blobs", "data.generate"),
    (fcli, "split_holdout", "data.split"),
    (fcli, "save_dataset", "data.save"),
    (fcli, "load_dataset", "data.load"),
)


def _nbytes(arrays) -> int:
    return sum(a.nbytes for a in arrays)


class Tracer:
    """Spans and call notes of one traced experiment, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.clients: list[dict] = []  # one note per run_client call
        self.builds: list[dict] = []   # one note per build_collaboration call
        self.bytes_io = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._notes = {
            "federation.run_client": self._note_client,
            "prototypes.build_collaboration": self._note_build,
            "data.save": self._note_file,
            "data.load": self._note_file,
        }

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def _wrap(self, fn, name):
        note = self._notes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name in TRACED:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _note_client(self, args, kwargs, update):
        global_params, dataset, config, round_index = args[:4]
        relational = args[4] if len(args) > 4 else kwargs.get("relational")
        consistent = args[5] if len(args) > 5 else kwargs.get("consistent")
        uses = (config.algorithm == "fedsc" and relational is not None
                and consistent is not None)
        down = _nbytes(global_params.weights().values())
        if uses:
            down += _nbytes((relational.r, relational.valid,
                             consistent.o, consistent.present))
        up = _nbytes(update.params.weights().values()) + _nbytes(
            (update.prototypes.vectors, update.prototypes.present,
             dataset.class_counts))
        self.clients.append({
            "round": round_index, "client": dataset.client_id,
            "relational": id(relational) if uses else None,
            "down": down, "up": up,
        })

    def _note_build(self, args, kwargs, collaboration):
        last_trained = {}
        for note in self.clients:
            last_trained[note["client"]] = note["round"]
        current = self.clients[-1]["round"] if self.clients else 0
        owners = [s.owner for s in args[0]]
        self.builds.append({
            "round": current,
            "relational": id(collaboration.relational),
            "ages": [current - last_trained.get(k, current) for k in owners],
        })

    def _note_file(self, args, kwargs, result):
        self.bytes_io += os.path.getsize(args[0])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}))
                fh.write("\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, times and ratios derived from one traced experiment."""
    by_name = defaultdict(list)
    children = defaultdict(float)  # span id -> summed duration of its children
    for span_id, name, start, end, parent in tracer.spans:
        by_name[name].append((span_id, start, end, parent))
        children[parent] += end - start

    def durations(name):
        return [end - start for _, start, end, _ in by_name[name]]

    def self_time(name):
        return sum(end - start - children[span_id]
                   for span_id, start, end, _ in by_name[name])

    def per_call(name, scale):
        d = durations(name)
        return scale * sum(d) / len(d) if d else 0.0

    out = {}
    for name in ("model.forward_features", "model.backward", "model.sgd_step",
                 "losses.total_loss"):
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.us_per_call"] = per_call(name, 1e6)
        out[f"{name}.total_ms"] = 1e3 * sum(durations(name))
    out["model.evaluate_accuracy.ms_per_call"] = per_call("model.evaluate_accuracy", 1e3)
    out["losses.compute_normalizers.calls"] = len(by_name["losses.compute_normalizers"])
    out["losses.compute_normalizers.ms_per_call"] = per_call(
        "losses.compute_normalizers", 1e3)

    builds = durations("prototypes.build_collaboration")
    consumed = {(note["round"], note["relational"]) for note in tracer.clients
                if note["relational"] is not None}
    used = sum((b["round"] + 1, b["relational"]) in consumed for b in tracer.builds)
    ages = [age for b in tracer.builds for age in b["ages"]]
    out["prototypes.build_collaboration.calls"] = len(builds)
    out["prototypes.build_collaboration.ms_per_call"] = per_call(
        "prototypes.build_collaboration", 1e3)
    out["prototypes.build_collaboration.ms_max"] = 1e3 * max(builds, default=0.0)
    out["prototypes.build_collaboration.total_ms"] = 1e3 * sum(builds)
    out["prototypes.build_collaboration.used_share"] = (
        used / len(tracer.builds) if tracer.builds else 0.0)
    out["prototypes.reports_in"] = (
        len(ages) / len(tracer.builds) if tracer.builds else 0.0)
    out["prototypes.report_age_rounds"] = statistics.fmean(ages) if ages else 0.0
    out["prototypes.prototypes_from_features.us_per_call"] = per_call(
        "prototypes.prototypes_from_features", 1e6)

    rounds = by_name["federation.run_round"]
    clients_of = defaultdict(list)
    for span_id, start, end, parent in by_name["federation.run_client"]:
        clients_of[parent].append((start, end))
    phase = [max(e for _, e in clients_of[r]) - min(s for s, _ in clients_of[r])
             for r, *_ in rounds if clients_of[r]]
    round_total = sum(end - start for _, start, end, _ in rounds)
    busy = sum(durations("federation.run_client"))
    out["federation.run_client.calls"] = len(by_name["federation.run_client"])
    out["federation.run_client.ms_per_call"] = per_call("federation.run_client", 1e3)
    out["federation.run_client.total_ms"] = 1e3 * busy
    out["federation.run_client.self_ms"] = 1e3 * self_time("federation.run_client")
    out["federation.client_phase_ms"] = 1e3 * statistics.fmean(phase) if phase else 0.0
    out["federation.client_overlap"] = busy / sum(phase) if phase else 0.0
    out["federation.aggregate_models.ms_per_call"] = per_call(
        "federation.aggregate_models", 1e3)
    out["federation.server_share"] = (
        1.0 - sum(phase) / round_total if round_total else 0.0)
    num_rounds = max(len(rounds), 1)
    out["federation.uplink_bytes_per_round"] = sum(
        n["up"] for n in tracer.clients) / num_rounds
    out["federation.downlink_bytes_per_round"] = sum(
        n["down"] for n in tracer.clients) / num_rounds

    for part in ("generate", "split", "partition", "save", "load"):
        out[f"data.{part}_ms"] = 1e3 * sum(durations(f"data.{part}"))
    out["data.bytes_io"] = tracer.bytes_io
    out["cli.generate_ms"] = 1e3 * sum(durations("cli.generate"))
    out["cli.run_ms"] = 1e3 * sum(durations("cli.run"))
    out["cli.overhead_ms"] = 1e3 * (self_time("cli.generate") + self_time("cli.run"))
    return out
