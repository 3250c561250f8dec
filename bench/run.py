#!/usr/bin/env python3
"""gradsteer benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --all [--seed N] [--seconds S]

With ``--workload`` it runs one workload and prints, as the last line of its
output, one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json (end-to-end ones with ``--trace 0``,
per-layer ones with ``--trace 1``). Lines above it show every metric by name
and unit, the environment and the result fingerprint. ``--all`` runs every
workload untraced and then traced, and prints all of it as one report.

Each workload run happens in a fresh ``worker.py`` process, one at a time.
Everything a run writes goes under ``bench/_runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "_runs"
REFERENCE = BENCH / "reference.json"
sys.path.insert(0, str(ROOT / "src"))

# workload -> (command, shipped config)
WORKLOADS = {
    "fit_grid": ("fit", "configs/michaelis_menten.cfg"),
    "fit_basis": ("fit", "configs/michaelis_menten_basis.cfg"),
    "gradcheck": ("gradcheck", "configs/michaelis_menten.cfg"),
}
# The fits' run-length knob. Outer iteration 1 holds the cold first follower
# solve; a cap of 2 keeps one warm-started outer iteration, so the leader
# layer is measured on every fit while a run stays under a minute.
FIT_MAX_OUTER = 2
FIT_OUTPUTS = ("report.json", "trajectory.csv", "controls.csv",
               "fit_plot.svg", "residuals_plot.svg")
SETUP_PROBES = 5
PHI_RTOL = 1e-12
DRIFT_FLAG = 1e-10
RUN_LIMIT_S = 170.0       # a run must end within 180 s

# name -> unit, in report order; the first three are the bounded metrics
E2E_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_rate": "ratio",
    "phi_gap": "1", "merit": "1", "converged": "0/1",
    "gradcheck_max_rel_err": "1",
}
BOUNDED_E2E = ("wall_s", "setup_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# workload configs

def write_config(workload: str, seed: int, out_dir: Path, path: Path) -> Path:
    """The shipped config with only the output dir, the absolute data path
    and the run-length knob (max_outer for fits, seed for gradcheck)
    changed."""
    command, shipped = WORKLOADS[workload]
    text = (ROOT / shipped).read_text(encoding="utf-8")
    data = re.search(r"^data\s*=\s*(\S+)", text, re.M)
    if data is None:
        raise BenchError(f"{shipped}: no data key")
    knobs = {"data": str((ROOT / shipped).parent.joinpath(data.group(1)).resolve()),
             "out_dir": str(out_dir)}
    if command == "fit":
        knobs["max_outer"] = str(FIT_MAX_OUTER)
    else:
        knobs["seed"] = str(seed)
    for key, value in knobs.items():
        text, n = re.subn(rf"^{key}\s*=[^#\n]*", f"{key} = {value} ", text,
                          flags=re.M)
        if n != 1:
            raise BenchError(f"{shipped}: expected one {key!r} line, found {n}")
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# correctness gate and fingerprint

def _load_public_api():
    import gradsteer
    from gradsteer import cli
    return gradsteer, cli


def gate_fit(code: int, out_dir: Path, config: Path) -> dict:
    """Exit 0, every output written, finite theta/J1/J2, and the report's
    Phi equal to validation_phi(theta) recomputed through the public API.
    A failed fit has no outputs to trust, so `valid` equals `ok`."""
    gradsteer, cli = _load_public_api()

    def failed(reason):
        return {"ok": False, "valid": False, "reason": reason}

    if code != 0:
        return failed(f"exit code {code}")
    missing = [f for f in FIT_OUTPUTS
               if not (out_dir / f).is_file() or (out_dir / f).stat().st_size == 0]
    if missing:
        return failed(f"missing outputs {missing}")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    theta = [float(x) for x in report["theta"]]
    if not all(math.isfinite(x) for x in theta + [report["J1"], report["J2"]]):
        return failed("non-finite theta, J1 or J2")
    cfg = cli.parse_config(config)
    validation = cfg.split.validation(cli.ingest_csv(cfg.data_path))
    phi = gradsteer.validation_phi(cfg.model, theta, validation, cfg.loss_scale)
    if abs(phi - report["Phi"]) > PHI_RTOL * abs(phi):
        return failed(f"report Phi {report['Phi']!r} != recomputed {phi!r}")
    z, mu = cfg.solver.z, cfg.solver.mu
    hit_cap = (not report["converged"]
               and report["outer_iterations"] >= cfg.solver.max_outer)
    return {
        "ok": True, "valid": True, "reason": "",
        "report": report,
        "fingerprint": {"theta": theta, "Phi": report["Phi"], "J1": report["J1"],
                        "J2": report["J2"],
                        "outer_iterations": report["outer_iterations"],
                        "converged": report["converged"], "hit_cap": hit_cap},
        "metrics": {"phi_gap": abs(report["Phi"] - z),
                    "merit": report["J1"] + 0.5 * mu * (report["Phi"] - z) ** 2,
                    "converged": int(report["converged"])},
    }


# numpy 2 writes a float64 scalar's repr as "np.float64(x)"; the gate reads
# the value and reports the cell format as a warning instead of a crash
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def gate_gradcheck(code: int, out_dir: Path) -> dict:
    """Passes on exit 0 with every gradcheck.csv row within the command's own
    per-functional tolerance. The outputs are `valid` when every row is a
    finite number and the exit code says fail exactly when a row is above
    tolerance: a certification that fails but reports so correctly."""
    _, cli = _load_public_api()
    if code not in (cli.EXIT_OK, cli.EXIT_GRADCHECK):
        return {"ok": False, "valid": False, "reason": f"exit code {code}"}
    path = out_dir / "gradcheck.csv"
    lines = path.read_text(encoding="utf-8").splitlines()[1:] if path.is_file() else []
    if not lines:
        return {"ok": False, "valid": False, "reason": "gradcheck.csv missing or empty"}
    tol = {"follower": cli.FOLLOWER_CHECK_TOL, "leader": cli.LEADER_CHECK_TOL}
    worst = {name: 0.0 for name in tol}
    numpy_cells = 0
    above = []
    for line in lines:
        functional, direction, _, _, cell = line.split(",")
        numpy_repr = _NUMPY_REPR.fullmatch(cell)
        numpy_cells += numpy_repr is not None
        rel = float(numpy_repr.group(1) if numpy_repr else cell)
        if not math.isfinite(rel):
            return {"ok": False, "valid": False,
                    "reason": f"non-finite rel error in {line!r}"}
        if rel > tol[functional]:
            above.append(f"{functional} direction {direction}: {rel:.3e} "
                         f"> {tol[functional]}")
        worst[functional] = max(worst[functional], rel)
    valid = (code == cli.EXIT_GRADCHECK) == bool(above)
    reason = "; ".join(above) if above else ("" if valid else f"exit code {code}")
    return {"ok": code == cli.EXIT_OK and valid, "valid": valid, "reason": reason,
            "warning": (f"gradcheck.csv: {numpy_cells} rel_error cells written "
                        "as numpy reprs, not plain numbers") if numpy_cells else "",
            "fingerprint": {f"max_rel_err_{k}": v for k, v in worst.items()},
            "metrics": {"gradcheck_max_rel_err": max(worst.values())}}


def gate(workload: str, code: int, out_dir: Path, config: Path) -> dict:
    if WORKLOADS[workload][0] == "fit":
        return gate_fit(code, out_dir, config)
    return gate_gradcheck(code, out_dir)


def drift(fingerprint: dict, reference) -> float:
    """Largest relative difference between two fingerprints; a changed flag
    or count reads 1."""
    worst = 0.0
    for key, ref in reference.items():
        new = fingerprint.get(key)
        pairs = zip(new, ref) if isinstance(ref, list) else [(new, ref)]
        for a, b in pairs:
            a, b = float(a), float(b)
            scale = max(abs(a), abs(b))
            if scale:
                worst = max(worst, abs(a - b) / scale)
    return worst


def reference_for(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)
    if workload == "gradcheck" and ref is not None:
        ref = ref.get(str(seed))
    return ref


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    threads = {k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or "unknown",
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
    }


# ---------------------------------------------------------------------------
# running

def run_worker(mode: str, config: Path, work_dir: Path, deadline: float,
               command: str = "") -> dict:
    work_dir.mkdir(parents=True, exist_ok=True)
    result = work_dir / f"{mode}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), mode, str(config), str(result)]
    if command:
        argv.append(command)
    with open(work_dir / f"{mode}.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            return {"worker_error": "timed out"}
    if proc.returncode != 0 or not result.is_file():
        return {"worker_error": f"worker exit code {proc.returncode}"}
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """All reps of one benchmark run, with their gates and metrics."""
    command = WORKLOADS[workload][0]
    run_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup = []
    if not trace:
        probe_cfg = write_config(workload, seed, run_dir / "probe_out",
                                 run_dir / "probe.cfg")
        for i in range(SETUP_PROBES + 1):     # the first one warms caches
            probe = run_worker("setup", probe_cfg, run_dir / f"probe{i}", deadline)
            if "worker_error" in probe:
                raise BenchError(f"set-up probe failed: {probe['worker_error']}")
            if i:
                setup.append(probe["setup_s"])

    reps = []
    start = time.monotonic()
    while True:
        rep_dir = run_dir / f"rep{len(reps)}"
        rep_dir.mkdir()
        config = write_config(workload, seed, rep_dir / "out", rep_dir / "run.cfg")
        t0 = time.monotonic()
        rec = run_worker("trace" if trace else "run", config, rep_dir, deadline,
                         command)
        if "worker_error" in rec:
            rec["gate"] = {"ok": False, "valid": False,
                           "reason": rec["worker_error"]}
        else:
            rec["gate"] = gate(workload, rec["exit_code"], rep_dir / "out", config)
        rec["dir"] = str(rep_dir)
        reps.append(rec)
        last = time.monotonic() - t0
        now = time.monotonic()
        if (trace or "worker_error" in rec or now - start + last > seconds
                or now + last > deadline):
            break
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "setup": setup, "reps": reps}


def summarize(run: dict) -> dict:
    """Counts, every end-to-end metric (None where a metric does not apply),
    fingerprint and drift of one run's reps. `failed` counts reps whose
    operation failed; `invalid` counts reps whose outputs are wrong."""
    reps = run["reps"]
    valid = [r for r in reps if r["gate"]["valid"]]
    timed = [r for r in reps if "wall_s" in r]
    out = {
        "attempted": len(reps),
        "failed": sum(not r["gate"]["ok"] for r in reps),
        "invalid": len(reps) - len(valid),
        "failures": [r["gate"]["reason"] for r in reps if not r["gate"]["ok"]],
        "warnings": sorted({r["gate"]["warning"] for r in valid
                            if r["gate"].get("warning")}),
    }
    e2e = dict.fromkeys(E2E_UNITS)
    if timed:
        e2e["wall_s"] = statistics.median(r["wall_s"] for r in timed)
        e2e["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in timed)
    if run["setup"]:
        e2e["setup_s"] = statistics.median(run["setup"])
    e2e["fail_rate"] = out["failed"] / out["attempted"]
    if valid:
        e2e.update(valid[-1]["gate"]["metrics"])
        fp = valid[-1]["gate"]["fingerprint"]
        ref = reference_for(run["workload"], run["seed"])
        out["fingerprint"] = fp
        out["drift"] = drift(fp, ref) if ref is not None else None
        out["drift_flag"] = out["drift"] is not None and out["drift"] > DRIFT_FLAG
    out["end_to_end"] = e2e
    if run["trace"] and timed and "trace" in timed[0]:
        out["per_layer"] = traced_metrics(timed[0])
    return out


def traced_metrics(rep: dict) -> dict:
    from tracer import Tracer, layer_metrics
    tracer = Tracer.from_record(rep["trace"])
    out_dir = Path(rep["dir"]) / "out"
    output_bytes = (sum(f.stat().st_size for f in out_dir.iterdir() if f.is_file())
                    if out_dir.is_dir() else 0)
    gate_result = rep["gate"]
    hit_cap = gate_result.get("fingerprint", {}).get("hit_cap", False)
    metrics = layer_metrics(tracer, rep["wall_s"], gate_result.get("report"),
                            hit_cap, rep["import_s"], output_bytes, rep["micro"])
    if tracer.missing:
        print(f"warning: traced names not found: {tracer.missing}")
    return metrics


# ---------------------------------------------------------------------------
# output

def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:28s} {_fmt(metrics.get(name)):>14s}  {unit}")


def print_run(summary: dict, run: dict) -> None:
    from tracer import PER_LAYER_UNITS
    print(f"== {run['workload']} seed={run['seed']} trace={run['trace']}: "
          f"{summary['attempted']} attempted, {summary['failed']} failed, "
          f"{summary['invalid']} with wrong outputs")
    for reason in summary["failures"]:
        print(f"  FAILED: {reason}")
    for warning in summary["warnings"]:
        print(f"  warning: {warning}")
    if run["trace"]:
        print_metrics("per-layer metrics (traced run):",
                      summary.get("per_layer", {}), PER_LAYER_UNITS)
    else:
        print_metrics("end-to-end metrics:", summary["end_to_end"], E2E_UNITS)
    if "fingerprint" in summary:
        d = summary["drift"]
        flag = " DRIFT ABOVE 1e-10" if summary["drift_flag"] else ""
        print(f"fingerprint: {json.dumps(summary['fingerprint'])}")
        print("fingerprint drift vs reference: "
              + ("no reference for this seed" if d is None else f"{d:.3g}") + flag)


def result_line(summary: dict, trace: bool) -> str:
    from tracer import PER_LAYER_UNITS
    if trace:
        source, units = summary.get("per_layer", {}), PER_LAYER_UNITS
    else:
        source = summary["end_to_end"]
        units = {k: E2E_UNITS[k] for k in BOUNDED_E2E}
    metrics = {name: {"value": source.get(name), "unit": unit}
               for name, unit in units.items()}
    correct = summary["invalid"] == 0 and all(
        m["value"] is not None for m in metrics.values())
    return json.dumps({"correct": correct, "attempted": summary["attempted"],
                       "failed": summary["failed"], "metrics": metrics})


def check_checkout() -> None:
    needed = [ROOT / "src" / "gradsteer" / "cli.py"] + sorted(
        {ROOT / cfg for _, cfg in WORKLOADS.values()})
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a gradsteer checkout, missing {missing}")


def one(workload: str, seed: int, seconds: float, trace: bool,
        deadline: float) -> tuple:
    run = run_workload(workload, seed, seconds, trace, deadline)
    summary = summarize(run)
    summary["environment"] = environment()
    (RUNS / f"{workload}-seed{seed}-trace{int(trace)}" / "result.json").write_text(
        json.dumps({"run": run, "summary": summary}, default=str), encoding="utf-8")
    return run, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        check_checkout()
        if args.all:
            return report_all(args.seed, args.seconds)
        deadline = time.monotonic() + RUN_LIMIT_S
        run, summary = one(args.workload, args.seed, args.seconds,
                           bool(args.trace), deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"environment: {json.dumps(summary['environment'])}")
    print_run(summary, run)
    print(result_line(summary, bool(args.trace)))
    return 0


def report_all(seed: int, seconds: float) -> int:
    print(f"environment: {json.dumps(environment())}")
    for workload in WORKLOADS:
        walls = {}
        for trace in (False, True):
            deadline = time.monotonic() + RUN_LIMIT_S
            run, summary = one(workload, seed, seconds, trace, deadline)
            print_run(summary, run)
            walls[trace] = summary["end_to_end"]["wall_s"]
        if walls[False] and walls[True]:
            print(f"measured trace overhead (traced / untraced wall_s - 1, "
                  f"one run each): {walls[True] / walls[False] - 1:.4f}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
