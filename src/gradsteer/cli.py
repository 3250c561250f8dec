"""Command-line front end: config parsing, CSV ingestion, the fit/simulate/
gradcheck commands, and report/plot emission.

Config files are flat ``key = value`` text with ``#`` comments. Reports are
JSON with full-precision numbers; plots are self-contained SVG written
without any plotting dependency, so outputs are byte-stable for golden-file
comparisons (the report's timestamp field is the one exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .adjoint import gradient_check, require_finite
from .adjoint import leader_forward  # noqa: F401, a span site of bench/tracer.py
from .core import (BasisControl, ControlPartition, ControlSignal, Dataset,
                   InvalidSetting, SolverConfig, SplitSpec, TimeGrid,
                   basis_gram_matrix, zero_grid_control)
from .integrate import DivergenceError, integrate_forward
from .leader import solve_nested
from .models import (LossScale, ModelKind, Objective, SingularityError,
                     _predict_batch, gradient_function)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_GRADCHECK = 4

FOLLOWER_CHECK_TOL = 1e-5
LEADER_CHECK_TOL = 1e-5


class ConfigError(ValueError):
    """A config or data file that cannot be used; the message starts with
    the file's path, and its line where one is at fault."""


# ---------------------------------------------------------------------------
# dataset files

def _read_text(path: Path) -> str:
    """The file's UTF-8 text; a path that cannot be read as such (missing,
    a directory, other bytes) raises ConfigError with a `path:` message."""
    try:
        return path.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise ConfigError(f"{path}: no such file") from None
    except OSError as exc:  # a directory, a file without read permission
        raise ConfigError(f"{path}: {exc.strerror.lower()}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def ingest_csv(path) -> Dataset:
    """Read a two-column `w,v` CSV into a dataset, in file order."""
    path = Path(path)
    rows: List[Tuple[float, float]] = []
    lines = _read_text(path).splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if header != ["w", "v"]:
        raise ConfigError(f"{path}:1: expected header 'w,v', got {lines[0]!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 2 columns, got {len(cells)}")
        try:
            w, v = float(cells[0]), float(cells[1])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: non-numeric row {line!r}") from None
        if not (np.isfinite(w) and np.isfinite(v)):
            raise ConfigError(f"{path}:{lineno}: non-finite value in row {line!r}")
        rows.append((w, v))
    if not rows:
        raise ConfigError(f"{path}: no samples")
    table = np.array(rows)
    return Dataset(table[:, :1], table[:, 1])


# ---------------------------------------------------------------------------
# config files

@dataclass(frozen=True)
class RunConfig:
    model: ModelKind
    data_path: Path
    data: Dataset                  # the CSV at data_path, read once
    split: SplitSpec
    loss_scale: LossScale
    solver: SolverConfig
    grid: TimeGrid
    theta0: np.ndarray
    partition: ControlPartition
    start: ControlSignal           # the zero control both agents start from
    out_dir: Path
    seed: int


# SolverConfig's own defaults (the parsers take them as they are), CLI keys
_DEFAULTS = {
    **{f.name: f.default for f in fields(SolverConfig)},
    "loss_scale": "half", "control": "grid", "out_dir": "out", "seed": "0",
}

_REQUIRED = ("model", "data", "train_indices", "validation_indices",
             "T", "N_t", "theta0", "leader_mask")

# config key of each TimeGrid field; SolverConfig fields share their key names
_GRID_KEYS = {"horizon": "T", "steps": "N_t"}


def _parse_pairs(path: Path) -> Dict[str, Tuple[str, int]]:
    pairs: Dict[str, Tuple[str, int]] = {}
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = (value, lineno)
    return pairs


def parse_config(path) -> RunConfig:
    path = Path(path)
    pairs = _parse_pairs(path)
    for key in _REQUIRED:
        if key not in pairs:
            raise ConfigError(f"{path}: missing required key {key!r}")
    known = set(_REQUIRED) | set(_DEFAULTS)
    for key, (_, lineno) in pairs.items():
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")

    def get(key: str) -> Tuple[str, int]:
        if key in pairs:
            return pairs[key]
        return _DEFAULTS[key], 0

    def fail(key: str, msg: str):
        raise ConfigError(f"{path}:{get(key)[1]}: {key}: {msg}")

    def convert(key: str, kind: type = float, many: bool = False):
        """The key's value as a float, an int or a member of an Enum `kind`,
        or as a comma-separated list of numbers; floats must be finite."""
        text, _ = get(key)
        try:
            vals = [kind(c) for c in text.split(",")] if many else [kind(text)]
        except ValueError:
            if issubclass(kind, Enum):
                fail(key, f"must be one of {', '.join(m.value for m in kind)}; "
                          f"got {text!r}")
            article, noun = ("a", "number") if kind is float else ("an", "integer")
            fail(key, f"not a comma-separated {noun} list: {text!r}" if many
                 else f"not {article} {noun}: {text!r}")
        if kind is float and not all(np.isfinite(vals)):
            fail(key, "must be finite")
        return vals if many else vals[0]

    model = convert("model", ModelKind)
    loss_scale = convert("loss_scale", LossScale)
    theta0 = np.array(convert("theta0", many=True))
    # data files hold one input column, so a linear model has one parameter
    n_params = 1 if model is ModelKind.LINEAR else 2
    if len(theta0) != n_params:
        fail("theta0", f"{model.value} takes {n_params} values, got {len(theta0)}")

    leader_mask = convert("leader_mask", many=True)
    if len(leader_mask) != len(theta0):
        fail("leader_mask", "length must match theta0")
    train = convert("train_indices", int, many=True)
    val = convert("validation_indices", int, many=True)

    # each type checks its own ranges (SolverConfig's fields read as the type
    # of their defaults); a violation is reported at its key's line
    try:
        solver = SolverConfig(**{f.name: convert(f.name, type(f.default))
                                 for f in fields(SolverConfig)})
        grid = TimeGrid(convert("T"), convert("N_t", int))
        partition = ControlPartition(leader_mask)
        # config files count samples from 1; an index below 1 is refused
        # with the other out-of-range ones, by check_bounds below
        split = SplitSpec([i - 1 for i in train], [i - 1 for i in val])
    except InvalidSetting as exc:
        fail(_GRID_KEYS.get(exc.name, exc.name), exc.rule)

    control_text, _ = get("control")
    words = control_text.split()
    basis_size = 0
    if words[0] == "basis" and len(words) == 2 and words[1].isdecimal():
        basis_size = int(words[1])
    if basis_size < 1 and words != ["grid"]:
        fail("control", "must be 'grid' or 'basis K' with K a positive "
                        f"integer, e.g. 'basis 12'; got {control_text!r}")
    # the follower's step solves with the Gram matrix of the node-sampled
    # basis; K polynomials of degree below K are linearly dependent at the
    # grid's N_t + 1 distinct nodes, so that matrix singular, iff K > N_t + 1.
    # Below that bound it can still be singular in floating point, so it is
    # refused at matrix_rank's default tolerance, with the 1-norm condition
    # number: cond_1 * K * eps >= 1
    if basis_size > grid.steps + 1:
        fail("control", f"the {basis_size} basis functions are linearly "
                        f"dependent at the grid's {grid.steps + 1} nodes")
    if basis_size and (np.linalg.cond(basis_gram_matrix(grid, basis_size), 1)
                       * basis_size * np.finfo(float).eps >= 1):
        fail("control", f"the {basis_size} basis functions are numerically "
                        f"dependent at the grid's {grid.steps + 1} nodes")
    p = partition.dimension
    start = (BasisControl(grid, np.zeros((basis_size, p)), solver.u_max)
             if basis_size else zero_grid_control(grid, p, solver.u_max))

    seed = convert("seed", int)
    if seed < 0:
        fail("seed", "must be at least 0")

    data_path = path.parent / get("data")[0]  # an absolute path stays as it is
    data = ingest_csv(data_path)
    try:
        split.check_bounds(data)
    except InvalidSetting as exc:
        fail(exc.name, f"{exc.rule} of {data_path}")
    out_text, _ = get("out_dir")

    return RunConfig(model=model, data_path=data_path, data=data, split=split,
                     loss_scale=loss_scale, solver=solver, grid=grid,
                     theta0=theta0, partition=partition, start=start,
                     out_dir=Path(out_text), seed=seed)


# ---------------------------------------------------------------------------
# problem assembly

def _prepare(config_path, out_dir: Optional[Path]):
    """(config, output directory, training objective, validation objective
    Phi) of a command; the output directory, `out_dir` or the config's, is
    created."""
    cfg = parse_config(config_path)
    out = Path(out_dir) if out_dir is not None else cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    objective = Objective(cfg.model, cfg.split.train(cfg.data), cfg.loss_scale)
    validation = Objective(cfg.model, cfg.split.validation(cfg.data),
                           cfg.loss_scale)
    return cfg, out, objective, validation


# ---------------------------------------------------------------------------
# SVG plotting (self-contained, deterministic output)

_SVG_W, _SVG_H = 640, 480
_MARGIN = 56


def _scaler(lo: float, hi: float, out_lo: float, out_hi: float):
    span = hi - lo if hi > lo else 1.0
    return lambda v: out_lo + (v - lo) / span * (out_hi - out_lo)


def _svg(title: str, xlab: str, ylab: str, body: List[str]) -> str:
    """An SVG page: the title, a white page, both axes with their labels,
    then the plot's own marks `body`, one element per line."""
    x0, y0 = _MARGIN, _SVG_H - _MARGIN
    x1, y1 = _SVG_W - _MARGIN, _MARGIN
    frame = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<title>{title}</title>',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_SVG_H - 12}" '
        f'text-anchor="middle" font-size="14">{xlab}</text>',
        f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">'
        f'{ylab}</text>',
    ]
    return "\n".join(frame + body + ["</svg>"]) + "\n"


def fit_plot_svg(data: Dataset, model: ModelKind, theta) -> str:
    """Scatter of the data with the fitted curve sampled at 200 points."""
    w = data.inputs[:, 0]
    v = data.outputs
    ws = np.linspace(w.min(), w.max(), 200)
    vs = _predict_batch(model, np.asarray(theta, dtype=float), ws[:, None])
    ylo = min(v.min(), vs.min())
    yhi = max(v.max(), vs.max())
    to_x = _scaler(w.min(), w.max(), _MARGIN, _SVG_W - _MARGIN)
    to_y = _scaler(ylo, yhi, _SVG_H - _MARGIN, _MARGIN)
    points = " ".join(f"{to_x(a):.2f},{to_y(b):.2f}" for a, b in zip(ws, vs))
    body = [f'<polyline points="{points}" fill="none" stroke="#1f6fb2" '
            f'stroke-width="1.5"/>']
    for a, b in zip(w, v):
        body.append(f'<circle cx="{to_x(a):.2f}" cy="{to_y(b):.2f}" r="4" '
                    f'fill="#c23b22"/>')
    return _svg("data and fitted curve", "input", "output", body)


def residuals_plot_svg(residuals) -> str:
    """Residual per sample index, with a zero reference line."""
    eps = np.asarray(residuals, dtype=float)
    lim = max(float(np.abs(eps).max()), 1e-12) * 1.15
    to_x = _scaler(0.5, len(eps) + 0.5, _MARGIN, _SVG_W - _MARGIN)
    to_y = _scaler(-lim, lim, _SVG_H - _MARGIN, _MARGIN)
    zero_y = to_y(0.0)
    body = [f'<line x1="{_MARGIN}" y1="{zero_y:.2f}" '
            f'x2="{_SVG_W - _MARGIN}" y2="{zero_y:.2f}" '
            f'stroke="#888888" stroke-dasharray="4 3"/>']
    for i, e in enumerate(eps, start=1):
        x, y = to_x(float(i)), to_y(float(e))
        body.append(f'<line x1="{x:.2f}" y1="{zero_y:.2f}" x2="{x:.2f}" '
                    f'y2="{y:.2f}" stroke="#1f6fb2"/>')
        body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#c23b22"/>')
    return _svg("residuals per sample", "sample index", "residual", body)


# ---------------------------------------------------------------------------
# output files

def _node_table(grid: TimeGrid, **tables: np.ndarray) -> str:
    """One CSV row per grid node: the time, then each (nodes, p) table's
    columns, headed <name>_1 .. <name>_p in keyword order."""
    header = ["t"] + [f"{name}_{j + 1}" for name, table in tables.items()
                      for j in range(table.shape[1])]
    lines = [",".join(header)] + [
        ",".join(map(repr, row.tolist()))
        for row in np.column_stack([grid.nodes, *tables.values()])]
    return "\n".join(lines) + "\n"


def _write_outputs(out: Path, files: Dict[str, str]) -> None:
    """Write each text in `files` to its name under `out`, in order, as UTF-8;
    a failed write unlinks those before it and re-raises, naming its file."""
    for i, (name, text) in enumerate(files.items()):
        try:
            (out / name).write_text(text, encoding="utf-8")
        except OSError as exc:
            for done in list(files)[:i]:
                (out / done).unlink(missing_ok=True)
            raise OSError(exc.errno, exc.strerror, str(out / name)) from None


# ---------------------------------------------------------------------------
# commands

def run_fit(config_path, out_dir: Optional[Path] = None) -> int:
    cfg, out, objective, validation = _prepare(config_path, out_dir)
    report = solve_nested(cfg.solver, objective, validation, cfg.partition,
                          cfg.theta0, cfg.start)

    # residuals y - h(x) over the whole dataset, with sample (m-1 divisor)
    # std; the split's two non-empty parts give it at least two rows. h may
    # overflow at a row in neither split, which only this evaluates, and
    # finite residuals may spread too far for their square. A finite mean
    # means that every residual is finite
    with np.errstate(over="ignore", invalid="ignore"):
        eps = cfg.data.outputs - _predict_batch(cfg.model, report.theta_final,
                                                cfg.data.inputs)
        mean, std = require_finite([float(eps.mean()), float(eps.std(ddof=1))],
                                   "residual")

    payload = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "model": cfg.model.value,
        "loss_scale": cfg.loss_scale.value,
        "theta": [float(x) for x in report.theta_final],
        "converged": report.converged,
        "outer_iterations": report.outer_iterations,
        "J1": report.J1_value,
        "J2": report.J2_value,
        "Phi": report.Phi_value,
        "z": cfg.solver.z,
        "residuals": {"mean": mean, "std": std, "values": eps.tolist()},
        "history": [asdict(h) for h in report.history],
    }
    _write_outputs(out, {
        "report.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
        "trajectory.csv": _node_table(cfg.grid, theta=report.trajectory.states),
        "controls.csv": _node_table(cfg.grid, u1=report.u1.node_values(),
                                    u2=report.u2.node_values()),
        "fit_plot.svg": fit_plot_svg(cfg.data, cfg.model, report.theta_final),
        "residuals_plot.svg": residuals_plot_svg(eps),
    })
    print(f"theta = {[float(x) for x in report.theta_final]}, "
          f"Phi = {report.Phi_value:.6g}, converged = {report.converged}")
    return EXIT_OK


def run_simulate(config_path, out_dir: Optional[Path] = None) -> int:
    """Integrate the plain (uncontrolled) training gradient flow."""
    cfg, out, objective, _ = _prepare(config_path, out_dir)
    traj = integrate_forward(gradient_function(objective),
                             cfg.start.stage_values(), cfg.theta0, cfg.grid)
    _write_outputs(out, {"trajectory.csv": _node_table(cfg.grid,
                                                       theta=traj.states)})
    endpoint = [float(x) for x in traj.terminal_state]
    print(f"uncontrolled endpoint theta(T) = {endpoint}")
    return EXIT_OK


def run_gradcheck(config_path, out_dir: Optional[Path] = None,
                  corruption: float = 0.0) -> int:
    """Adjoint-vs-finite-difference certification on the configured problem
    and its own grid. The adjoint differentiates the discrete RK4 sweep, so
    the two agree to rounding and difference truncation at any step size.
    It perturbs grid controls even on a `basis K` config, where it certifies
    the grid-control gradient of the same problem: the basis coefficient
    gradient is checked only by the test TestControlGradients::
    test_basis_coefficient_gradient. The perturbed pairs, four per direction,
    run as the lanes of one sweep (`adjoint.gradient_check`). It certifies the
    unclamped gradient, so its table does not depend on `u_max`.
    """
    cfg, out, objective, validation = _prepare(config_path, out_dir)
    records = gradient_check(objective, validation, cfg.partition, cfg.theta0,
                             cfg.grid, cfg.solver, seed=cfg.seed,
                             corruption=corruption)
    _write_outputs(out, {"gradcheck.csv": "".join(
        ["functional,direction,fd,adjoint,rel_error\n"]
        + [f"{r['functional']},{r['direction']},{r['fd']!r},"
           f"{r['adjoint']!r},{r['rel_error']!r}\n" for r in records])})
    # a NaN comparison passes no `<=` test, and is the worst one
    tol = {"follower": FOLLOWER_CHECK_TOL, "leader": LEADER_CHECK_TOL}
    bad = [r for r in records if not r["rel_error"] <= tol[r["functional"]]]
    worst = max(records, key=lambda r: (np.isnan(r["rel_error"]),
                                        r["rel_error"]))
    print(f"gradcheck: {len(records)} comparisons, worst rel error "
          f"{worst['rel_error']:.3e} ({worst['functional']} "
          f"direction {worst['direction']})")
    if bad:
        print(f"gradcheck FAILED: {len(bad)} comparisons above tolerance",
              file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradsteer",
        description="Parameter estimation by steering a training gradient "
                    "flow with leader/follower optimal controls.")
    parser.add_argument("--out", type=Path, default=None,
                        help="override the config's output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("fit", "run the nested solver and write reports"),
                           ("simulate", "integrate the uncontrolled gradient flow"),
                           ("gradcheck", "verify adjoint gradients against "
                                         "finite differences")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("config", type=Path)
    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return EXIT_OK
    try:
        if args.command == "fit":
            return run_fit(args.config, args.out)
        if args.command == "simulate":
            return run_simulate(args.config, args.out)
        return run_gradcheck(args.config, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # an output directory or file that cannot be made
        print(f"error: {exc.filename}: {exc.strerror.lower()}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, SingularityError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
