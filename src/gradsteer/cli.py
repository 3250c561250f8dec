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
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .adjoint import gradient_check, run_forward
from .adjoint import leader_forward  # noqa: F401, a span site of bench/tracer.py
from .core import (BasisControl, ControlPartition, Dataset, InvalidSetting,
                   SolverConfig, SplitSpec, TerminalMode, TimeGrid,
                   make_time_grid, zero_grid_control)
from .integrate import DivergenceError
from .leader import residual_stats, solve_nested
from .models import (LossScale, ModelKind, Objective, SingularityError,
                     _predict_batch)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_GRADCHECK = 4

FOLLOWER_CHECK_TOL = 1e-5
LEADER_CHECK_TOL = 1e-5


class ConfigError(ValueError):
    pass


class CsvError(ValueError):
    pass


# ---------------------------------------------------------------------------
# dataset files

def _read_text(path: Path, error: type) -> str:
    """The file's UTF-8 text; a path that cannot be read as such (missing,
    a directory, other bytes) raises `error` with a `path:` message."""
    try:
        return path.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise error(f"{path}: no such file") from None
    except OSError as exc:  # a directory, a file without read permission
        raise error(f"{path}: {exc.strerror.lower()}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def ingest_csv(path) -> Dataset:
    """Read a two-column `w,v` CSV into a dataset, in file order."""
    path = Path(path)
    inputs: List[float] = []
    outputs: List[float] = []
    lines = _read_text(path, CsvError).splitlines()
    if not lines:
        raise CsvError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if header != ["w", "v"]:
        raise CsvError(f"{path}:1: expected header 'w,v', got {lines[0]!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise CsvError(f"{path}:{lineno}: expected 2 columns, got {len(cells)}")
        try:
            w, v = float(cells[0]), float(cells[1])
        except ValueError:
            raise CsvError(f"{path}:{lineno}: non-numeric row {line!r}") from None
        if not (np.isfinite(w) and np.isfinite(v)):
            raise CsvError(f"{path}:{lineno}: non-finite value in row {line!r}")
        inputs.append(w)
        outputs.append(v)
    if not inputs:
        raise CsvError(f"{path}: no samples")
    return Dataset(np.array(inputs)[:, None], np.array(outputs))


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
    basis_size: int                # coefficients per control, 0 for grid
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
    for lineno, raw in enumerate(_read_text(path, ConfigError).split("\n"),
                                 start=1):
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
        lineno = pairs[key][1] if key in pairs else 0
        raise ConfigError(f"{path}:{lineno}: {key}: {msg}")

    def convert(key: str, kind: type = float, many: bool = False):
        """The key's value as a float or int, or as a comma-separated list
        of them; floats must be finite."""
        text, _ = get(key)
        article, noun = ("a", "number") if kind is float else ("an", "integer")
        try:
            vals = [kind(c) for c in text.split(",")] if many else [kind(text)]
        except ValueError:
            fail(key, f"not a comma-separated {noun} list: {text!r}" if many
                 else f"not {article} {noun}: {text!r}")
        if kind is float and not all(np.isfinite(vals)):
            fail(key, "must be finite")
        return vals if many else vals[0]

    model_name, _ = get("model")
    try:
        model = ModelKind(model_name)
    except ValueError:
        fail("model", f"unknown model {model_name!r}")
    theta0 = np.array(convert("theta0", many=True))
    # data files hold one input column, so a linear model has one parameter
    n_params = 1 if model is ModelKind.LINEAR else 2
    if len(theta0) != n_params:
        fail("theta0", f"{model.value} takes {n_params} values, got {len(theta0)}")

    scale_name, _ = get("loss_scale")
    try:
        loss_scale = LossScale(scale_name)
    except ValueError:
        fail("loss_scale", f"must be one of half, one; got {scale_name!r}")

    mode_name, _ = get("terminal_mode")
    try:
        terminal_mode = TerminalMode(mode_name)
    except ValueError:
        fail("terminal_mode", f"must be one of penalty, paper_fixed; got {mode_name!r}")

    # SolverConfig and TimeGrid check their own ranges; a violation is
    # reported at the line of the key it names
    try:
        solver = SolverConfig(
            **{key: convert(key) for key in ("alpha", "beta", "gamma1",
                                            "eps_tol", "inner_tol", "z", "mu",
                                            "u_max")},
            max_outer=convert("max_outer", int),
            max_inner=convert("max_inner", int),
            terminal_mode=terminal_mode)
        grid = make_time_grid(convert("T"), convert("N_t", int))
    except InvalidSetting as exc:
        fail(_GRID_KEYS.get(exc.name, exc.name), exc.rule)

    leader_mask = np.array(convert("leader_mask", many=True))
    if len(leader_mask) != len(theta0):
        fail("leader_mask", "length must match theta0")
    try:
        partition = ControlPartition(leader_mask)
    except ValueError as exc:
        fail("leader_mask", str(exc))

    train = convert("train_indices", int, many=True)
    val = convert("validation_indices", int, many=True)
    for key, idx in (("train_indices", train), ("validation_indices", val)):
        if any(i < 1 for i in idx):
            fail(key, "sample indices are 1-based")
    try:
        split = SplitSpec(tuple(i - 1 for i in train), tuple(i - 1 for i in val))
    except InvalidSetting as exc:
        fail(exc.name, exc.rule)
    except ValueError as exc:
        fail("train_indices", str(exc))

    control_text, _ = get("control")
    parts = control_text.split()
    basis_size = 0
    if parts[0] == "basis":
        try:
            (count,) = parts[1:]
            basis_size = int(count) if count.isdigit() else 0
        except ValueError:  # no count, several, or a digit int() cannot read
            pass
        if basis_size < 1:
            fail("control", "basis needs a positive coefficient count, e.g. 'basis 12'")
    elif parts != ["grid"]:
        fail("control", f"must be 'grid' or 'basis K'; got {control_text!r}")

    seed = convert("seed", int)
    if seed < 0:
        fail("seed", "must be at least 0")

    data_text, _ = get("data")
    data_path = Path(data_text)
    if not data_path.is_absolute():
        data_path = path.parent / data_path
    data = ingest_csv(data_path)
    try:
        split.check_bounds(data)
    except InvalidSetting as exc:
        fail(exc.name, f"{exc.rule} of {data_path}")
    out_text, _ = get("out_dir")

    return RunConfig(model=model, data_path=data_path, data=data, split=split,
                     loss_scale=loss_scale, solver=solver, grid=grid,
                     theta0=theta0, partition=partition, basis_size=basis_size,
                     out_dir=Path(out_text), seed=seed)


# ---------------------------------------------------------------------------
# problem assembly

def _load_problem(cfg: RunConfig):
    objective = Objective(cfg.model, cfg.split.train(cfg.data), cfg.loss_scale)
    return objective, cfg.split.validation(cfg.data)


def _initial_control(cfg: RunConfig):
    """The zero control of the configured kind: both agents start from it,
    and `simulate` integrates the flow it leaves uncontrolled."""
    p = cfg.partition.dimension
    if cfg.basis_size:
        return BasisControl(cfg.grid, np.zeros((cfg.basis_size, p)),
                            u_max=cfg.solver.u_max)
    return zero_grid_control(cfg.grid, p, cfg.solver.u_max)


# ---------------------------------------------------------------------------
# SVG plotting (self-contained, deterministic output)

_SVG_W, _SVG_H = 640, 480
_MARGIN = 56


def _svg_open(title: str) -> List[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<title>{title}</title>',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]


def _scaler(lo: float, hi: float, out_lo: float, out_hi: float):
    span = hi - lo if hi > lo else 1.0

    def to_px(v: float) -> float:
        return out_lo + (v - lo) / span * (out_hi - out_lo)

    return to_px


def _svg_axes(parts: List[str], xlab: str, ylab: str) -> None:
    x0, y0 = _MARGIN, _SVG_H - _MARGIN
    x1, y1 = _SVG_W - _MARGIN, _MARGIN
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{_SVG_H - 12}" '
                 f'text-anchor="middle" font-size="14">{xlab}</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
                 f'font-size="14" transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">'
                 f'{ylab}</text>')


def write_fit_plot(path, data: Dataset, model: ModelKind, theta) -> None:
    """Scatter of the data with the fitted curve sampled at 200 points."""
    w = data.inputs[:, 0]
    v = data.outputs
    ws = np.linspace(w.min(), w.max(), 200)
    vs = _predict_batch(model, np.asarray(theta, dtype=float), ws[:, None])
    ylo = min(v.min(), vs.min())
    yhi = max(v.max(), vs.max())
    to_x = _scaler(w.min(), w.max(), _MARGIN, _SVG_W - _MARGIN)
    to_y = _scaler(ylo, yhi, _SVG_H - _MARGIN, _MARGIN)
    parts = _svg_open("data and fitted curve")
    _svg_axes(parts, "input", "output")
    points = " ".join(f"{to_x(a):.2f},{to_y(b):.2f}" for a, b in zip(ws, vs))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" '
                 f'stroke-width="1.5"/>')
    for a, b in zip(w, v):
        parts.append(f'<circle cx="{to_x(a):.2f}" cy="{to_y(b):.2f}" r="4" '
                     f'fill="#c23b22"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def write_residuals_plot(path, residuals) -> None:
    """Residual per sample index, with a zero reference line."""
    eps = np.asarray(residuals, dtype=float)
    idx = np.arange(1, len(eps) + 1)
    lim = max(float(np.abs(eps).max()), 1e-12) * 1.15
    to_x = _scaler(0.5, len(eps) + 0.5, _MARGIN, _SVG_W - _MARGIN)
    to_y = _scaler(-lim, lim, _SVG_H - _MARGIN, _MARGIN)
    parts = _svg_open("residuals per sample")
    _svg_axes(parts, "sample index", "residual")
    zero_y = to_y(0.0)
    parts.append(f'<line x1="{_MARGIN}" y1="{zero_y:.2f}" '
                 f'x2="{_SVG_W - _MARGIN}" y2="{zero_y:.2f}" '
                 f'stroke="#888888" stroke-dasharray="4 3"/>')
    for i, e in zip(idx, eps):
        x, y = to_x(float(i)), to_y(float(e))
        parts.append(f'<line x1="{x:.2f}" y1="{zero_y:.2f}" x2="{x:.2f}" '
                     f'y2="{y:.2f}" stroke="#1f6fb2"/>')
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#c23b22"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# output files

def _write_node_table(path, grid: TimeGrid, **tables: np.ndarray) -> None:
    """One CSV row per grid node: the time, then each (nodes, p) table's
    columns, headed <name>_1 .. <name>_p in keyword order."""
    header = ["t"] + [f"{name}_{j + 1}" for name, table in tables.items()
                      for j in range(table.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in zip(grid.nodes, np.hstack(list(tables.values()))):
            fh.write(",".join(repr(float(x)) for x in (t, *row)) + "\n")


# ---------------------------------------------------------------------------
# commands

def run_fit(config_path, out_dir: Optional[Path] = None) -> int:
    cfg = parse_config(config_path)
    out = Path(out_dir) if out_dir is not None else cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    objective, validation = _load_problem(cfg)

    report = solve_nested(cfg.solver, objective, validation, cfg.partition,
                          cfg.theta0, _initial_control(cfg))

    stats = residual_stats(cfg.model, report.theta_final, cfg.data)

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
        "residuals": {"mean": stats.mean, "std": stats.std,
                      "values": list(stats.residuals)},
        "history": [
            {"J1": h.j1, "J2": h.j2, "Phi": h.phi,
             "leader_grad_norm": h.leader_grad_norm,
             "follower_grad_norm": h.follower_grad_norm,
             "gamma1_used": h.gamma1_used, "gamma2_used": h.gamma2_used}
            for h in report.history
        ],
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_node_table(out / "trajectory.csv", cfg.grid,
                      theta=report.trajectory.states)
    _write_node_table(out / "controls.csv", cfg.grid,
                      u1=report.u1.node_values(), u2=report.u2.node_values())
    write_fit_plot(out / "fit_plot.svg", cfg.data, cfg.model, report.theta_final)
    write_residuals_plot(out / "residuals_plot.svg", stats.residuals)
    print(f"theta = {[float(x) for x in report.theta_final]}, "
          f"Phi = {report.Phi_value:.6g}, converged = {report.converged}")
    return EXIT_OK


def run_simulate(config_path, out_dir: Optional[Path] = None) -> int:
    """Integrate the plain (uncontrolled) training gradient flow."""
    cfg = parse_config(config_path)
    out = Path(out_dir) if out_dir is not None else cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    objective, _ = _load_problem(cfg)
    traj = run_forward(objective, _initial_control(cfg).stage_values(),
                       cfg.theta0, cfg.grid)
    _write_node_table(out / "trajectory.csv", cfg.grid, theta=traj.states)
    endpoint = [float(x) for x in traj.terminal_state]
    print(f"uncontrolled endpoint theta(T) = {endpoint}")
    return EXIT_OK


def run_gradcheck(config_path, out_dir: Optional[Path] = None,
                  corruption: float = 0.0) -> int:
    """Adjoint-vs-finite-difference certification on the configured problem
    and its own grid. The adjoint differentiates the discrete RK4 sweep, so
    the two agree to rounding and difference truncation at any step size.
    """
    cfg = parse_config(config_path)
    out = Path(out_dir) if out_dir is not None else cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    objective, validation = _load_problem(cfg)
    records = gradient_check(objective, validation, cfg.partition, cfg.theta0,
                             cfg.grid, cfg.solver, seed=cfg.seed,
                             n_directions=20, corruption=corruption)
    with open(out / "gradcheck.csv", "w", encoding="utf-8") as fh:
        fh.write("functional,direction,fd,adjoint,rel_error\n")
        for r in records:
            fh.write(f"{r['functional']},{r['direction']},{r['fd']!r},"
                     f"{r['adjoint']!r},{r['rel_error']!r}\n")
    tol = {"follower": FOLLOWER_CHECK_TOL, "leader": LEADER_CHECK_TOL}
    bad = [r for r in records if r["rel_error"] > tol[r["functional"]]]
    worst = max(records, key=lambda r: r["rel_error"])
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
    except (ConfigError, CsvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, SingularityError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
