"""Run one perfbench workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload write_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that prints the per-layer metrics, with
spans kept in memory and written to ``.perfbench_out/`` at the end.  The
last line of standard output is always one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the generated streams' hashes, per-phase failure
accounting and the host-noise record (steal ticks, CPU seconds per
process, wall time).  A run whose correctness gate fails prints
``"correct": false`` with no metrics and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402 - needs the path above
    END_TO_END_UNITS,
    HELD_OUT_SEED,
    OUT,
    PER_LAYER_UNITS,
    SRC,
    WORK,
    GateFailure,
    HostRecord,
    Phases,
    Tracer,
)
import layers  # noqa: E402

WORKLOADS = ("cold_batch", "write_mix")
#: Tolerance on (correction + push + pack) / outside-timed build.
BUILD_PHASE_TOLERANCE = 0.05


class Context:
    """What a workload needs from the harness: its arguments, the tracer,
    the failure accounting and the host record."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.scale = args.scale
        self.tracer = Tracer(self.trace)
        self.phases = Phases()
        self.host = HostRecord()
        self.notes: dict = {}
        self.streams: dict[str, str] = {}
        self._counter = None
        self._counted = 0
        #: Cap on events replayed in-process by a traced run.
        self.replay_limit = 4000 if args.scale >= 1.0 else 400

    def repeats(self, count: int) -> int:
        """Set-up repetitions: one in a traced run (it reports no
        ``setup_s``) and at the tiny self-test scale."""
        return 1 if self.trace or self.scale < 1.0 else count

    def instrument(self) -> None:
        """Wrap every layer boundary (traced runs only)."""
        if self.trace and self._counter is None:
            self._counter = layers.instrument(self.tracer)

    def uninstrument(self) -> None:
        """Remove the wrappers again, e.g. for an untraced comparison slice."""
        self.tracer.unwrap_all()
        if self._counter is not None:
            self._counter.restore()
            self._counted += self._counter.calls
            self._counter = None

    @property
    def push_calls(self) -> int:
        """``push_frontier`` calls seen while instrumented."""
        return self._counted + (self._counter.calls if self._counter else 0)

    def check_build_phases(self, metrics: dict) -> None:
        share = layers.build_phase_share(metrics)
        self.notes["build_phase_share"] = round(share, 4)
        if abs(share - 1.0) > BUILD_PHASE_TOLERANCE:
            raise GateFailure(
                f"build phases sum to {share:.3f} of the outside-timed build"
            )


def _load_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {SRC / 'repro'} is missing; run "
            "from the root of a repro checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset stand-in scale (1.0 is the benchmark; the self-test "
        "uses a tiny scale)",
    )
    return parser.parse_args(argv)


def _emit(line: dict) -> None:
    print(json.dumps(line, separators=(",", ":"), sort_keys=False), flush=True)


def main(argv=None) -> int:
    args = _parse(argv)
    _load_program()
    import importlib

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    # Keep every temporary file of this process inside the checkout too.
    os.environ["TMPDIR"] = str(WORK / "tmp")
    ctx = Context(args)
    module = importlib.import_module(args.workload)
    metrics: dict = {}
    error = None
    try:
        ctx.instrument()
        metrics = module.run(ctx)
    except GateFailure as exc:
        error = f"correctness gate failed: {exc}"
    except Exception:  # noqa: BLE001 - report, never print numbers
        error = traceback.format_exc()
    finally:
        ctx.uninstrument()
        shutil.rmtree(WORK, ignore_errors=True)

    _emit({"streams": ctx.streams, "held_out_seed": HELD_OUT_SEED,
           "seed": args.seed})
    _emit({"phases": ctx.phases.as_dict(), "notes": ctx.notes})
    _emit({"host": ctx.host.as_dict()})
    if ctx.trace and error is None:
        path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        ctx.tracer.dump(path)
        _emit({"trace_file": str(path.relative_to(OUT.parent)),
               "spans": len(ctx.tracer.spans)})
    failed = ctx.phases.failed()
    if error is None and failed:
        error = f"{failed} operation(s) failed outside expected windows"
    units = PER_LAYER_UNITS if ctx.trace else END_TO_END_UNITS
    if error is None and set(metrics) != set(units):
        error = (f"metrics missing {sorted(set(units) - set(metrics))}, "
                 f"unknown {sorted(set(metrics) - set(units))}")
    if error is not None:
        print(error, file=sys.stderr)
        _emit({"correct": False, "attempted": max(1, ctx.phases.attempted()),
               "failed": max(1, failed), "metrics": {}})
        return 1
    _emit({
        "correct": True,
        "attempted": ctx.phases.attempted(),
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
