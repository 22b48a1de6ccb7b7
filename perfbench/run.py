"""digilock benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run builds the workload's fixture several times (the
median build time is ``setup_s``), then runs ops back to back for
``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` it runs
ops untraced for half the time and traced for the other half, reports the
per-layer metrics from the traced half, and writes the spans to
``.perfbench_out/``. Every op checks its own output; a failed check counts
in ``failed``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

End-to-end times are reported at a reference machine speed. On a shared
host, other tenants can slow the CPU by a third or more for minutes at a
time, and every wall time moves with them. So between ops, about every
0.1 s, the run times a fixed pure-Python kernel (hashing, dataclass copies,
dicts, JSON) that no digilock code touches. Each op's latency, each set-up
time and each stretch of wall time between two samples is scaled by 1 ms
over the mean of the two kernel times around it: a figure reads as it would
on a machine where the kernel takes 1 ms. The raw wall-clock values are
printed beside them and saved with the result. Per-layer metrics are raw.
``failed_ratio`` is printed too; in the result it is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, replace
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("sessions", "attack-mix", "model-search", "store-cli")
COLD_IMPORT_SPAWNS = 7
REFERENCE_EVERY_S = 0.1
REFERENCE_NS = 1_000_000  # the kernel time that scaled times are reported at


@dataclass(frozen=True)
class _KernelState:
    serial: int
    last: tuple
    seen: frozenset


def reference_kernel() -> int:
    """Fixed work, independent of digilock, that tracks the machine's speed.

    It mixes what the workloads do: hashing, frozen-dataclass copies,
    hashing of tuples and frozensets, dict inserts and lookups, and JSON.
    """
    table = {}
    state = _KernelState(0, (), frozenset())
    for i in range(300):
        raw = i.to_bytes(4, "big")
        digest = hashlib.sha256(raw).digest()
        state = replace(state, serial=i, last=(digest, i), seen=state.seen | {i % 40})
        table[state] = (i, raw, [i])
    for key in list(table)[:200]:
        table.get(key)
    blob = json.dumps({str(key.serial): value[0] for key, value in table.items()})
    return len(json.loads(blob))


class Reference:
    """Times `reference_kernel` at most every REFERENCE_EVERY_S seconds."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []  # kernel times
        self.starts_ns: list[int] = []  # when each sample was taken
        self._last = -math.inf

    def sample(self) -> None:
        # a collection of the workload's heap must not land in the kernel
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            reference_kernel()
            self.samples_ns.append(time.perf_counter_ns() - start)
            self.starts_ns.append(start)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()

    @property
    def mean_ns(self) -> float:
        return statistics.mean(self.samples_ns)

    def around(self, index: int) -> float:
        """Mean of the samples taken just before and just after a span of
        work that started when `index` samples had been taken."""
        after = self.samples_ns[min(index, len(self.samples_ns) - 1)]
        return (self.samples_ns[index - 1] + after) / 2

    def scaled_ns(self, end_ns: int) -> float:
        """Time from the first sample to `end_ns` at reference speed, each
        stretch between samples scaled by the samples around it."""
        total = 0.0
        for index in range(1, len(self.starts_ns) + 1):
            stop = self.starts_ns[index] if index < len(self.starts_ns) else end_ns
            total += (stop - self.starts_ns[index - 1]) * REFERENCE_NS / self.around(index)
        return total


def percentile(sorted_values: list, p: float) -> float:
    """Percentile of an ascending list, interpolated between the two nearest
    ranks. A nearest rank would jump with the op count: the 90th percentile
    of 19 searches is the second largest, of 20 the third largest."""
    pos = (len(sorted_values) - 1) * p / 100
    low = math.floor(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (pos - low)


class Loop:
    """Result of one closed-loop measurement."""

    def __init__(self) -> None:
        # compact arrays (8 bytes an op): the harness's own memory shows in
        # peak_rss_mb, and a list of ints would grow it with the op count
        self.latencies_ns = array("f")
        self.samples_before = array("I")  # reference samples taken before each op
        self.peak_rss_mb = 0.0
        self.failed = 0
        self.wall_s = 0.0
        self.end_ns = 0
        self.reference = Reference()

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s


def measure(workload, *, seconds=None, max_ops=None, tracer=None, first_op=0, keep=None) -> Loop:
    """Run ops back to back until `seconds` pass or `max_ops` are done.

    Only `workload.run` is inside an op's latency; preparing inputs and
    checking outputs count toward wall time, and so does sampling the
    reference kernel. `keep(result, latency_ns)` may record what it needs
    from each op that passed its check.
    """
    loop = Loop()
    loop.reference.sample()
    clock = time.perf_counter_ns
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else math.inf
    i = first_op
    while True:
        job = workload.prepare(i)
        if tracer is not None:
            tracer.begin_op(i)
        error = result = None
        t0 = clock()
        try:
            result = workload.run(job)
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        loop.latencies_ns.append(t1 - t0)
        loop.samples_before.append(len(loop.reference.samples_ns))
        ok = False
        if error is None:
            try:
                ok = workload.check(job, result)
            except Exception as exc:  # a check that cannot read the output fails the op
                error = exc
        if not ok:
            if loop.failed == 0:
                print(f"# op {i} failed: {job!r}", file=sys.stderr)
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)
            loop.failed += 1
        elif keep is not None:
            keep(result, t1 - t0)
        loop.reference.maybe_sample()
        i += 1
        if loop.ops == max_ops or time.perf_counter() >= deadline:
            break
    loop.wall_s = time.perf_counter() - start
    loop.end_ns = time.perf_counter_ns()
    # read before the percentiles are computed, whose lists grow with the op count
    loop.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return loop


def timed_setups(workload, reference: Reference) -> list[float]:
    """Build the fixture `setup_repeats` times, sampling the reference around
    each build; the last build is kept. Returns each build's time in s."""
    times = []
    for _ in range(workload.setup_repeats):
        workload.close()  # removing the previous build is not part of set-up
        reference.sample()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    reference.sample()
    return times


def latency_metrics(latencies_ns: list, prefix: str = "") -> dict:
    lat = sorted(latencies_ns)
    return {
        f"{prefix}latency_p{p}_ms": (percentile(lat, p) / 1e6, "ms") for p in (50, 90, 99)
    }


def end_to_end(loop: Loop, setup_s: list[float], setup_reference: Reference) -> tuple[dict, dict]:
    """The end-to-end metrics at reference speed, and beside them the raw
    wall-clock values and the 99th percentile.

    The 99th percentile is printed but not a metric of the result: the tail
    comes from stalls of the shared host that do not scale with its speed,
    and its run-to-run spread reached a fifth of its median.
    """
    reference = loop.reference
    scaled_setup_s = [
        t * REFERENCE_NS / setup_reference.around(k + 1) for k, t in enumerate(setup_s)
    ]
    scaled_lat = latency_metrics([
        lat * REFERENCE_NS / reference.around(k)
        for lat, k in zip(loop.latencies_ns, loop.samples_before)
    ])
    metrics = {
        "ops_per_s": (loop.ops / (reference.scaled_ns(loop.end_ns) / 1e9), "1/s"),
        "latency_p50_ms": scaled_lat["latency_p50_ms"],
        "latency_p90_ms": scaled_lat["latency_p90_ms"],
        "setup_s": (statistics.median(scaled_setup_s), "s"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }
    extra = {
        "latency_p99_ms": scaled_lat["latency_p99_ms"],
        "latency_samples": (loop.ops, "count"),
        "raw_ops_per_s": (loop.ops_per_s, "1/s"),
        **latency_metrics(loop.latencies_ns, prefix="raw_"),
        "raw_setup_s": (statistics.median(setup_s), "s"),
        "reference_ms": (reference.mean_ns / 1e6, "ms"),
        "reference_samples": (len(reference.samples_ns), "count"),
    }
    return metrics, extra


def cold_import_ms() -> float:
    """Median time to import digilock.cli in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter_ns(); "
        "import digilock.cli; print((time.perf_counter_ns() - t) / 1e6)"
    )
    samples = []
    for _ in range(COLD_IMPORT_SPAWNS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def per_layer(tracer, workload, untraced: Loop, traced: Loop, searches: list) -> dict:
    """Per-layer metrics of the traced half; zero where a layer did no work."""
    import tracer as tracing

    ops = traced.ops
    us = lambda ns: ns / 1e3 / ops  # noqa: E731
    ms = lambda ns: ns / 1e6 / ops  # noqa: E731
    per_op = lambda n: n / ops  # noqa: E731
    self_ns = tracer.corrected_self_ns
    layer_ns = lambda layer: sum(self_ns(n) for n in tracer.names(layer))  # noqa: E731
    counters = tracer.counters
    crypto_calls = sum(tracer.calls(n) for n in tracer.names("crypto"))
    unseals = tracer.calls("crypto.unseal")
    transitions = counters.get("explore.transitions", 0)
    states = counters.get("explore.states", 0)
    searches_traced = tracer.calls("explore.enumerate_small_traces")
    steps_ns = tracer.steps_in_drive_ns
    m = {
        "crypto.self_us_per_op": (us(layer_ns("crypto")), "us"),
        "crypto.calls_per_op": (per_op(crypto_calls), "count"),
        "crypto.sha256.calls_per_op": (per_op(tracer.calls("crypto.sha256")), "count"),
        "crypto.unseal.fail_ratio": (
            counters.get("crypto.unseal.failed", 0) / unseals if unseals else 0.0, "ratio"),
        "wire.self_us_per_op": (us(layer_ns("wire")), "us"),
        "wire.bytes_encoded_per_op": (per_op(counters.get("wire.bytes_encoded", 0)), "B"),
        "wire.decode_per_transition": (
            tracer.calls("wire.decode") / transitions if transitions else 0.0, "ratio"),
        "protocol.self_us_per_op": (us(layer_ns("protocol")), "us"),
        "protocol.failed_steps_per_op": (per_op(counters.get("protocol.failed_steps", 0)), "count"),
        "sim.self_us_per_op": (us(layer_ns("sim")), "us"),
        "sim.hops_per_op": (per_op(tracer.calls("sim.post") + tracer.calls("sim.inject")), "count"),
        "sim.overhead_ratio": (tracer.drive_ns / steps_ns if steps_ns else 0.0, "ratio"),
        "store.self_ms_per_op": (ms(layer_ns("store")), "ms"),
        "store.load_registry.records_per_call": (
            counters.get("store.load_registry.records", 0) / tracer.calls("store.load_registry")
            if tracer.calls("store.load_registry") else 0.0, "count"),
        "store.registry_bytes": (
            workload.registry_bytes() if hasattr(workload, "registry_bytes") else 0, "B"),
        "explore.self_ms_per_op": (ms(layer_ns("explore")), "ms"),
        "explore.states": (states / searches_traced if searches_traced else 0.0, "count"),
        "explore.transitions": (
            transitions / searches_traced if searches_traced else 0.0, "count"),
        "explore.dedupe_ratio": (states / transitions if transitions else 0.0, "ratio"),
        "explore.states_per_s": (
            statistics.median(s / (t / 1e9) for s, t in searches) if searches else 0.0, "1/s"),
        "cli.self_ms_per_op": (ms(layer_ns("cli")), "ms"),
        "cli.cold_import_ms": (cold_import_ms() if workload.name == "store-cli" else 0.0, "ms"),
        # each half at its own reference speed, so a drift between them cancels
        "trace.overhead_ratio": (
            untraced.ops_per_s * untraced.reference.mean_ns
            / (traced.ops_per_s * traced.reference.mean_ns), "ratio"),
    }
    for name in ("sha256", "prf", "seal", "unseal", "xor_digests", "rng_take"):
        m[f"crypto.{name}.self_us_per_op"] = (us(self_ns(f"crypto.{name}")), "us")
    for name in ("encode", "decode", "message_new"):
        m[f"wire.{name}.calls_per_op"] = (per_op(tracer.calls(f"wire.{name}")), "count")
        m[f"wire.{name}.self_us_per_op"] = (us(self_ns(f"wire.{name}")), "us")
    for step in tracing.PROTOCOL_STEPS:
        m[f"protocol.{step}.self_us_per_op"] = (us(self_ns(f"protocol.{step}")), "us")
    for name in ("trace_record", "pump", "actor_handle", "seed_world"):
        m[f"sim.{name}.self_us_per_op"] = (us(self_ns(f"sim.{name}")), "us")
    for name in ("load_registry", "save_registry", "vault_put", "vault_get", "vault_list"):
        m[f"store.{name}.self_ms_per_op"] = (ms(self_ns(f"store.{name}")), "ms")
    return m


def run_metadata(args, ops: int) -> dict:
    sha = None  # a checkout without .git has no commit; src_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30,
            ).stdout.strip() or None
        except OSError:
            pass
    tree = hashlib.sha256()
    for path in sorted((SRC / "digilock").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "git_sha": sha,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def report(args, metrics: dict, extra: dict, attempted, failed, correct, meta: dict) -> None:
    print("# meta " + json.dumps(meta, sort_keys=True))
    width = max(len(n) for n in (*metrics, *extra))
    for name, (value, unit) in extra.items():
        print(f"# {name:<{width}} {value:>14.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<13} {name:<{width}} {value:>14.6g} {unit}")
    ratio = failed / attempted
    print(f"{args.workload:<13} {'failed_ratio':<{width}} {ratio:>14.6g} ratio ({failed}/{attempted})")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    saved = {"meta": meta, "extra": {n: v for n, (v, _) in extra.items()}, **result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "digilock" / "__init__.py").is_file():
        print(f"error: no digilock sources under {SRC}", file=sys.stderr)
        return 2

    import workloads

    if not Path(workloads.store.__file__).resolve().is_relative_to(SRC):
        print(f"error: digilock imported from outside {SRC}", file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, work)
    searches: list = []  # (states, ns) of each untraced search, for explore.states_per_s
    setup_reference = Reference()
    extra: dict = {}
    try:
        setup_s = timed_setups(workload, setup_reference)
        if args.trace == 0:
            loop = measure(workload, seconds=args.seconds)
            metrics, extra = end_to_end(loop, setup_s, setup_reference)
            attempted, failed, correct = loop.ops, loop.failed, loop.failed == 0
        else:
            import tracer as tracing

            keep = None
            if args.workload == "model-search":
                keep = lambda r, ns: searches.append((r.states_explored, ns))  # noqa: E731
            untraced = measure(workload, seconds=args.seconds / 2, keep=keep)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(
                    workload, seconds=args.seconds / 2, tracer=tracer, first_op=untraced.ops
                )
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, workload, untraced, traced, searches)
            extra["reference_ms_untraced"] = (untraced.reference.mean_ns / 1e6, "ms")
            extra["reference_ms_traced"] = (traced.reference.mean_ns / 1e6, "ms")
            attempted = untraced.ops + traced.ops
            failed = untraced.failed + traced.failed
            correct = failed == 0
            for name in sorted(tracer.stats):
                calls = tracer.calls(name)
                print(
                    f"# span {name:<40} calls/op {calls / traced.ops:>10.4g}"
                    f"  self us/call {tracer.corrected_self_ns(name) / calls / 1e3:>9.4g}"
                    f"  incl us/call {tracer.corrected_incl_ns(name) / calls / 1e3:>9.4g}"
                )
            tracer.write_spans(
                OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                {"workload": args.workload, "seed": args.seed, "traced_ops": traced.ops},
            )
    finally:
        workload.close()
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    report(args, metrics, extra, attempted, failed, correct, run_metadata(args, attempted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
