"""One benchmark process: a set-up probe, or one run of a gradsteer command.

    python3 bench/worker.py setup CONFIG RESULT_JSON
    python3 bench/worker.py run   CONFIG RESULT_JSON COMMAND
    python3 bench/worker.py trace CONFIG RESULT_JSON COMMAND

`setup` times importing gradsteer, parsing the config and loading its CSV.
`run` imports gradsteer, then times ``gradsteer.cli.main([COMMAND, CONFIG])``
as a user runs it. `trace` does the same with the tracer installed, restores
every wrapped name, and then runs the layer microbenchmarks. The result is
written as JSON; the command's own output goes to this process's stdout.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MICRO_BATCHES = 7
MICRO_CALLS = 1000
MICRO_SWEEPS = 3


def setup_probe(config: str) -> dict:
    start = time.perf_counter()
    from gradsteer import cli
    cfg = cli.parse_config(config)
    cli.ingest_csv(cfg.data_path)
    return {"setup_s": time.perf_counter() - start}


def run_command(config: str, command: str, traced: bool) -> dict:
    start = time.perf_counter()
    import gradsteer.cli
    import_s = time.perf_counter() - start
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        code = gradsteer.cli.main([command, config])
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    out = {"exit_code": code, "import_s": import_s, "wall_s": wall_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["trace"] = tracer.to_record()
        out["micro"] = microbench(config)
    return out


def _per_call_us(call, n: int = MICRO_CALLS) -> float:
    """Median over batches of the mean time of one call, after a warm-up."""
    for _ in range(n):
        call()
    times = []
    for _ in range(MICRO_BATCHES):
        start = time.perf_counter()
        for _ in range(n):
            call()
        times.append((time.perf_counter() - start) / n * 1e6)
    return statistics.median(times)


def microbench(config: str) -> dict:
    """Gradient call, HVP, and one forward and one backward sweep on the
    configured grid from theta0, through the public functions; plus the
    per-call cost of the tracer's two wrapper kinds."""
    import numpy as np
    from gradsteer import adjoint, cli, core, models
    from tracer import Tracer, _counting_factory

    cfg = cli.parse_config(config)
    data = cli.ingest_csv(cfg.data_path)
    objective = models.Objective(cfg.model, cfg.split.train(data), cfg.loss_scale)
    theta = np.array(cfg.theta0, dtype=float)
    direction = np.ones_like(theta) / np.sqrt(theta.size)
    grad = models.gradient_function(objective)
    hvp = models.hvp_function(objective)

    p = cfg.partition.dimension
    zero = core.zero_grid_control(cfg.grid, p, cfg.solver.u_max)
    prob = adjoint.FollowerProblem(objective, cfg.solver.alpha, cfg.solver.beta,
                                   cfg.partition, zero, cfg.grid, theta)
    traj = adjoint.follower_forward(prob, zero)
    adjoint.follower_backward(prob, traj)
    fwd, bwd = [], []
    for _ in range(MICRO_SWEEPS):
        start = time.perf_counter()
        traj = adjoint.follower_forward(prob, zero)
        fwd.append(time.perf_counter() - start)
        start = time.perf_counter()
        adjoint.follower_backward(prob, traj)
        bwd.append(time.perf_counter() - start)

    def noop():
        return None

    box = [0]
    counted = _counting_factory(lambda: noop, box)()
    tracer = Tracer()
    spanned = tracer._span_wrapper("bench.noop", noop)
    bare_us = _per_call_us(noop, 20 * MICRO_CALLS)
    count_us = _per_call_us(counted, 20 * MICRO_CALLS) - bare_us
    span_us = _per_call_us(spanned) - bare_us

    return {
        "grad_us": _per_call_us(lambda: grad(theta)),
        "hvp_us": _per_call_us(lambda: hvp(theta, direction)),
        "forward_ms": statistics.median(fwd) * 1e3,
        "backward_ms": statistics.median(bwd) * 1e3,
        "count_wrapper_us": count_us,
        "span_wrapper_us": span_us,
    }


def main(argv) -> int:
    mode, config, result_path = argv[:3]
    if mode == "setup":
        result = setup_probe(config)
    else:
        result = run_command(config, argv[3], traced=(mode == "trace"))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
