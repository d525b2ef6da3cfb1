"""Serve-path benchmark: one command, three workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload udp-small --seed 1 --seconds 10 --trace 0

Each run starts the service fresh in its own process (``server.py``),
drives one workload from this single client process, checks every
output, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics.  ``--trace 1`` spends half the time on
an untraced run and half on a run with span tracing installed in the
service process, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced).  The line before the last is a full
report: environment, sample counts, failed checks by name.  Why each
workload exists and which layer metric should move which end-to-end
metric is in ``README.md`` next to this file.

Exit status: 0 when every check passed, 1 when an output check failed,
2 when the program cannot be found or the run could not be carried out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build() -> bool:
    """Build the compiled kernel if it is stale; True when it loads."""
    probe = ("import sys; sys.path.insert(0, 'src'); "
             "from repro.core import flatstate; "
             "print(int(bool(flatstate.COMPILED)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"importing the program failed:\n{done.stderr}")
    return done.stdout.strip() == "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return fail("the program's source (src/repro) is not here; run from "
                    "the repository root")
    sys.path.insert(0, SRC)
    import harness
    from drivers import RUNNERS

    if args.workload not in RUNNERS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"expected one of {sorted(RUNNERS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    os.makedirs(harness.WORKDIR, exist_ok=True)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": harness.git_revision(),
        "src_sha256": harness.src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    try:
        env["compiled_kernel"] = build()
        harness.pin_client()
        run = RUNNERS[args.workload]
        ctl = os.path.join(harness.WORKDIR, "setup.ctl")
        setup = harness.measure_setup(args.workload, ctl,
                                      harness.SETUP_SPAWNS)
        tag = f"{args.workload}-{args.seed}-{os.getpid()}"
        if args.trace:
            base = run(args.seed, args.seconds / 2, False, tag)
            traced = run(args.seed, args.seconds / 2, True, tag)
            outcome = traced
            outcome.fail(base.errors)
            outcome.attempted += base.attempted
            outcome.layers["trace.overhead_cpu_us_per_pkt"] = (
                traced.metrics["cpu_us_per_pkt"] - base.metrics["cpu_us_per_pkt"])
            for name in harness.LATENCY:
                outcome.layers[f"lat.{name}"] = base.metrics[name]
            outcome.info["untraced"] = base.metrics
            outcome.info["traced"] = dict(traced.metrics)
        else:
            outcome = run(args.seed, args.seconds, False, tag)
    except (harness.RunError, OSError, RuntimeError, subprocess.SubprocessError,
            KeyError, ValueError) as exc:
        return fail(f"run could not be carried out: {type(exc).__name__}: {exc}")
    outcome.metrics["setup_s"] = statistics.median(setup)

    if args.trace:
        names = harness.PER_LAYER
        metrics = {name: {"value": outcome.layers.get(name, 0.0),
                          "unit": harness.layer_unit(name)} for name in names}
    else:
        metrics = {name: {"value": outcome.metrics[name], "unit": unit}
                   for name, unit in harness.END_TO_END}
    report = {
        "env": env,
        "measured": outcome.metrics,
        "setup_samples_s": setup,
        "errors": outcome.errors,
        "info": outcome.info,
    }
    shown = dict(metrics)
    if not args.trace:
        # The ungated latency figures are printed too, marked as such.
        shown.update({f"{name} (ungated)": {"value": outcome.metrics[name],
                                             "unit": unit}
                      for name, unit in harness.MEASURED
                      if name not in metrics})
    for name, metric in shown.items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    for name, count in sorted(outcome.errors.items()):
        print(f"CHECK FAILED {name}: {count}")
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if not outcome.errors else 1


if __name__ == "__main__":
    sys.exit(main())
