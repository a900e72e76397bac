"""Harness self-test at a tiny scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` and the harness agree on every metric name and unit;
* every workload, untraced and traced, at a tiny dataset scale, passes its
  correctness gate and prints every end-to-end (untraced) or per-layer
  (traced) metric, each with its unit and a finite value, in the one-line
  result the contract asks for;
* the correctness gates fail when fed a perturbed answer.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402 - needs the path above
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    SRC,
    GateFailure,
    Phases,
    check_answer,
)

#: Every workload prints every end-to-end metric untraced and every
#: per-layer metric traced.
WORKLOADS = ("cold_batch", "write_mix")
SCALE = "0.3"


def check_spec(problems: list[str]) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END_UNITS:
        problems.append(f"end_to_end units differ: {declared} vs {END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != PER_LAYER_UNITS:
        problems.append("per_layer units differ from the harness")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness")


def check_runs(problems: list[str]) -> None:
    for workload in WORKLOADS:
        for trace, units in enumerate((END_TO_END_UNITS, PER_LAYER_UNITS)):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace),
                "--scale", SCALE,
            ]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=600, cwd=HERE.parent)
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{label}: gate or failures: {result}")
            metrics = result["metrics"]
            for name, unit in units.items():
                if name not in metrics:
                    problems.append(f"{label}: {name} missing")
                    continue
                if metrics[name]["unit"] != unit:
                    problems.append(f"{label}: {name} has unit {metrics[name]['unit']}")
                if not math.isfinite(metrics[name]["value"]):
                    problems.append(f"{label}: {name} is {metrics[name]['value']}")
            extra = set(metrics) - set(units)
            if extra:
                problems.append(f"{label}: unknown metrics {sorted(extra)}")
            print(f"ok  {label}: {len(metrics)} metrics", flush=True)


def _raises(problems: list[str], label: str, call) -> None:
    try:
        call()
    except GateFailure:
        print(f"ok  gate rejects {label}", flush=True)
        return
    problems.append(f"gate accepted {label}")


def check_gates(problems: list[str]) -> None:
    """Feed the gates answers perturbed by 2ε and expect a failure."""
    sys.path.insert(0, str(SRC))
    import cold_batch
    import write_mix
    from repro.engine import BackendConfig
    from repro.evaluation.traffic import TrafficEvent
    from repro.service import (
        ServiceConfig,
        SimRankService,
        SingleSourceQuery,
        TopKQuery,
    )
    from common import reference_value, truth_matrix

    service = SimRankService(ServiceConfig(
        scale=float(SCALE), seed=0,
        backend_config=BackendConfig(epsilon=cold_batch.EPSILON),
    ))
    session = service.open_dataset(cold_batch.DATASET)
    truth = truth_matrix(session.graph)
    node = 3
    for query in (SingleSourceQuery(cold_batch.DATASET, node=node),
                  TopKQuery(cold_batch.DATASET, node=node, k=cold_batch.K)):
        served = service.execute(query)
        # The unperturbed answer passes.
        check_answer(query.kind, node, served.value, truth,
                     cold_batch.EPSILON + 1e-9, "selftest")
        index = session.engine().backend.index
        if served.value != reference_value(query.kind, node, index, cold_batch.K):
            problems.append(f"{query.kind}: served differs from the reference")
        bump = 2 * cold_batch.EPSILON
        if query.kind == "single_source":
            bad = list(served.value)
            bad[0] += bump if bad[0] < 0.5 else -bump
        else:
            bad = [dict(item) for item in served.value]
            bad[0]["score"] -= bump
        _raises(problems, f"a perturbed {query.kind} vs truth",
                lambda b=bad, q=query: check_answer(
                    q.kind, node, b, truth, cold_batch.EPSILON + 1e-9, "selftest"))
        # cold_batch's own gate over one answered request.
        perturbed = dataclasses.replace(served, value=bad)
        event = TrafficEvent(index=0, phase="steady", query=query)
        ctx = types.SimpleNamespace(seed=0, phases=Phases())
        _raises(problems, f"a perturbed served {query.kind} in cold_batch",
                lambda p=perturbed, e=event: cold_batch._gate(ctx, service, [(e, p)]))
    before = service.execute(SingleSourceQuery(cold_batch.DATASET, node=node)).value
    after = list(before)
    after[0] += 2 * write_mix.EPSILON
    _raises(problems, "a post-recovery answer past eps_stale",
            lambda: write_mix._match(before, after, write_mix.EPSILON, node))
    service.close_all()


def main() -> int:
    problems: list[str] = []
    check_spec(problems)
    check_gates(problems)
    check_runs(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("all checks passed" if not problems else
                          f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
