"""Span tracing for the benchmark's traced run, installed from outside the package.

`Tracer.install()` wraps the public functions and methods of every digilock
module (crypto, wire, protocol, sim, store, explore, cli). A function bound
into other modules through ``from .x import y`` is replaced in every module
namespace that holds it, so ``sha256`` is traced whether protocol, sim, store
or explore calls it. Methods are wrapped on their class.

Each wrapped call inside an op records a span (id, name, start, end, parent,
op id). Spans are kept in memory up to a cap and written out at the end; the
per-name totals (calls, self time, inclusive time, counters) cover every op.
Self time is the span's duration minus the part its child spans cover.

The wrapper itself costs time. `calibrate()` measures that cost, split into
the part that lands inside a span and the part that lands in its parent, and
`corrected_*` subtract it, so per-call times read close to untraced ones.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

from digilock import cli, crypto, explore, protocol, sim, store, wire
from digilock.crypto import AuthFailure

MODULES = (crypto, wire, protocol, sim, store, explore, cli)
MAX_SPANS = 100_000  # spans kept for the spans file; totals cover every op
CALIBRATE_ROUNDS = 9
CALIBRATE_CALLS = 2000

# layer -> public module-level functions; the span name is "<layer>.<function>"
FUNCTIONS = {
    "crypto": (crypto, ("sha256", "prf", "xor_digests", "fresh_nonce", "seal", "unseal", "ct_equal")),
    "wire": (wire, ("encode_fields", "decode_fields")),
    "protocol": (
        protocol,
        (
            "register_user", "user_begin_session", "locker_verify_auth",
            "locker_verify_provider", "locker_build_challenge",
            "user_process_challenge", "locker_verify_ack", "locker_check_timeout",
            "user_digest", "locker_key", "session_key", "ack_digest",
            "user_id_bytes", "phrase_bytes",
        ),
    ),
    "sim": (
        sim,
        (
            "flip_field_bit", "adversary_try_open_challenge", "seed_world",
            "drive_session", "run_honest_session", "run_repudiation_scenario",
            "run_replay_scenario", "run_impersonation_scenario",
            "run_tamper_scenario", "run_scenario", "outcome_matches_expectation",
        ),
    ),
    "store": (store, ("vault_key",)),
    "explore": (explore, ("enumerate_small_traces",)),
    "cli": (
        cli,
        ("main", "build_parser", "cmd_provision", "cmd_register", "cmd_access", "cmd_vault", "cmd_simulate"),
    ),
}

# (class, method, span name); every class that defines the method itself
METHODS = (
    (crypto.SeededRng, "take", "crypto.rng_take"),
    (crypto.SystemRng, "take", "crypto.rng_take"),
    (wire.Message, "__post_init__", "wire.message_new"),
    (wire.Message, "encode", "wire.encode"),
    (wire.Message, "decode", "wire.decode"),
    (sim.Trace, "record", "sim.trace_record"),
    (sim.Simulation, "pump", "sim.pump"),
    (sim.Simulation, "post", "sim.post"),
    (sim.Simulation, "inject", "sim.inject"),
    (sim.Simulation, "send_all", "sim.send_all"),
    (sim.UserActor, "begin", "sim.user_begin"),
    (sim.UserActor, "handle", "sim.actor_handle"),
    (sim.ProviderActor, "handle", "sim.actor_handle"),
    (sim.ImpersonatingProvider, "handle", "sim.actor_handle"),
    (sim.ReplaySeat, "handle", "sim.actor_handle"),
    (sim.LockerActor, "handle", "sim.actor_handle"),
    (sim.LockerActor, "check_timeouts", "sim.check_timeouts"),
    (sim.RecordingTap, "intercept", "sim.tap_intercept"),
    (sim.TamperTap, "intercept", "sim.tap_intercept"),
    (store.Registry, "provision", "store.registry_provision"),
    (store.Registry, "register", "store.registry_register"),
    (store.Registry, "get_record", "store.get_record"),
    (store.LockerStore, "provision", "store.provision"),
    (store.LockerStore, "load_registry", "store.load_registry"),
    (store.LockerStore, "save_registry", "store.save_registry"),
    (store.LockerStore, "vault_put", "store.vault_put"),
    (store.LockerStore, "vault_get", "store.vault_get"),
    (store.LockerStore, "vault_list", "store.vault_list"),
)

# the protocol steps reported one by one
PROTOCOL_STEPS = (
    "register_user", "user_begin_session", "locker_verify_auth",
    "locker_verify_provider", "locker_build_challenge",
    "user_process_challenge", "locker_verify_ack",
)
_DRIVE = "sim.drive_session"
_FAILED = protocol.LockerPhase.FAILED, protocol.UserPhase.FAILED


def _step_failed(args, result, exc) -> bool:
    if exc is not None:
        return True
    session = result[-1] if isinstance(result, tuple) else result
    if getattr(session, "phase", None) not in _FAILED:
        return False
    # a timeout check on an already-failed session is not a new failure
    return not (args and getattr(args[0], "phase", None) in _FAILED)


def _count_step_failure(tracer, args, result, exc):
    if _step_failed(args, result, exc):
        tracer.count("protocol.failed_steps")


def _count_encoded(tracer, args, result, exc):
    if exc is None:
        tracer.count("wire.bytes_encoded", len(result))


def _count_unseal(tracer, args, result, exc):
    if isinstance(exc, AuthFailure):
        tracer.count("crypto.unseal.failed")


def _count_records(tracer, args, result, exc):
    if exc is None:
        tracer.count("store.load_registry.records", len(result.records))


def _count_search(tracer, args, result, exc):
    if exc is None:
        tracer.count("explore.states", result.states_explored)
        tracer.count("explore.transitions", result.transitions)


HOOKS = {
    "wire.encode": _count_encoded,
    "crypto.unseal": _count_unseal,
    "store.load_registry": _count_records,
    "explore.enumerate_small_traces": _count_search,
    **{"protocol." + s: _count_step_failure for s in PROTOCOL_STEPS + ("locker_check_timeout",)},
}


class _Frame:
    __slots__ = ("sid", "child_ns", "children", "desc", "in_protocol", "under_drive")

    def __init__(self, sid, in_protocol, under_drive):
        self.sid = sid
        self.child_ns = 0
        self.children = 0
        self.desc = 0
        self.in_protocol = in_protocol
        self.under_drive = under_drive


class Stat:
    __slots__ = ("calls", "errors", "self_ns", "incl_ns", "children", "desc")

    def __init__(self):
        self.calls = self.errors = self.self_ns = self.incl_ns = 0
        self.children = self.desc = 0


class Tracer:
    """Records spans for calls made while an op is open (`begin_op`/`end_op`)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self.op_id = None
        self.bias_in_ns = 0.0
        self.bias_out_ns = 0.0
        self.drive_ns = 0.0  # corrected inclusive time of drive_session spans
        self.steps_in_drive_ns = 0.0  # ... of outermost protocol spans inside them
        self._stack: list[_Frame] = []
        self._next_sid = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        self.op_id = None

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        layer = name.partition(".")[0]
        is_drive = name == _DRIVE
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            in_protocol = layer == "protocol" or (parent is not None and parent.in_protocol)
            under_drive = is_drive or (parent is not None and parent.under_drive)
            frame = _Frame(self._next_sid, in_protocol, under_drive)
            self._next_sid += 1
            stack.append(frame)
            exc = result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = Stat()
                stat.calls += 1
                stat.self_ns += duration - frame.child_ns
                stat.incl_ns += duration
                stat.children += frame.children
                stat.desc += frame.desc
                if exc is not None:
                    stat.errors += 1
                if parent is not None:
                    parent.child_ns += duration
                    parent.children += 1
                    parent.desc += 1 + frame.desc
                corrected = self._corrected_incl(duration, frame.desc)
                if is_drive:
                    self.drive_ns += corrected
                elif (
                    layer == "protocol"
                    and parent is not None
                    and parent.under_drive
                    and not parent.in_protocol
                ):
                    self.steps_in_drive_ns += corrected
                if hook is not None:
                    hook(self, args, result, exc)
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (frame.sid, name, start, end, parent.sid if parent else None, self.op_id)
                    )
                else:
                    self.dropped += 1

        return traced

    def _corrected_incl(self, duration_ns: float, desc: int) -> float:
        return duration_ns - self.bias_in_ns - desc * (self.bias_in_ns + self.bias_out_ns)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every instrumented function and method; `uninstall` undoes it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.calibrate()
        for layer, (module, names) in FUNCTIONS.items():
            for fname in names:
                original = getattr(module, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for mod in MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapped)
        for cls, method, name in METHODS:
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            self._undo.append((cls, method, raw))
            setattr(cls, method, patched)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def calibrate(self) -> None:
        """Measure the wrapper's own cost per span, inside and outside it."""
        calls = CALIBRATE_CALLS

        def leaf():
            return None

        traced_leaf = self.wrap("calibrate.leaf", leaf)

        def parent():
            for _ in range(calls):
                traced_leaf()

        traced_parent = self.wrap("calibrate.parent", parent)
        inner, outer = [], []
        for _ in range(CALIBRATE_ROUNDS):
            start = time.perf_counter_ns()
            for _ in range(calls):
                pass
            empty_ns = (time.perf_counter_ns() - start) / calls
            start = time.perf_counter_ns()
            for _ in range(calls):
                leaf()
            call_ns = (time.perf_counter_ns() - start) / calls - empty_ns
            self.stats.clear()
            self.begin_op("calibrate")
            traced_parent()
            self.op_id = None
            leaf_stat = self.stats["calibrate.leaf"]
            parent_stat = self.stats["calibrate.parent"]
            # a leaf span holds the real call plus the inside cost; the
            # parent's self time holds its loop, its own inside cost and the
            # outside cost of each child
            b_in = leaf_stat.self_ns / leaf_stat.calls - call_ns
            inner.append(b_in)
            outer.append((parent_stat.self_ns - b_in) / calls - empty_ns)
        self.bias_in_ns = statistics.median(inner)
        self.bias_out_ns = max(0.0, statistics.median(outer))
        self.stats.clear()
        self.spans.clear()
        self.dropped = 0
        self._next_sid = 0

    # -- results -------------------------------------------------------------

    def corrected_self_ns(self, name: str) -> float:
        stat = self.stats.get(name)
        if stat is None:
            return 0.0
        raw = stat.self_ns - stat.calls * self.bias_in_ns - stat.children * self.bias_out_ns
        return max(0.0, raw)

    def corrected_incl_ns(self, name: str) -> float:
        stat = self.stats.get(name)
        if stat is None:
            return 0.0
        return max(0.0, stat.incl_ns - stat.calls * self.bias_in_ns
                   - stat.desc * (self.bias_in_ns + self.bias_out_ns))

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def names(self, layer: str) -> list[str]:
        return [n for n in self.stats if n.partition(".")[0] == layer]

    def write_spans(self, path: Path, meta: dict) -> None:
        """Write a header line, then one JSON array per span:
        [id, name, start_ns, end_ns, parent_id, op_id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            **meta,
            "spans": len(self.spans),
            "dropped_spans": self.dropped,
            "bias_in_ns": self.bias_in_ns,
            "bias_out_ns": self.bias_out_ns,
            "totals": {
                name: {
                    "calls": s.calls,
                    "errors": s.errors,
                    "self_ns": s.self_ns,
                    "incl_ns": s.incl_ns,
                    "corrected_self_ns": round(self.corrected_self_ns(name)),
                    "corrected_incl_ns": round(self.corrected_incl_ns(name)),
                }
                for name, s in sorted(self.stats.items())
            },
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
