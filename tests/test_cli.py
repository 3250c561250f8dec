import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gradsteer import (BasisControl, GridControl, LossScale, SolverConfig,
                       TimeGrid)
from gradsteer.cli import (ConfigError, EXIT_CONFIG, EXIT_DIVERGED,
                           EXIT_GRADCHECK, EXIT_OK, ingest_csv, main,
                           parse_config, run_fit, run_gradcheck, run_simulate)
from gradsteer.core import basis_gram_matrix

from conftest import REPO, TABLE_V, TABLE_W

DATA_CSV = REPO / "data" / "michaelis_menten.csv"
GOLDEN_CFG = REPO / "configs" / "michaelis_menten.cfg"
SEED_3_TABLE_SHA256 = \
    "8cb5b1bb1f5120018656a4f7c8d3259f4a7dd02359ae32fb14fc5d43adee1cc2"


# both agents frozen at their zero start: the follower's cap of one iteration
# returns it, and an eps_tol above the leader's first residual (2.68 for this
# problem) leaves the leader converged without a step
FROZEN = {"max_inner": "1", "eps_tol": "10.0"}


def write_config(path: Path, **overrides) -> Path:
    """Small, fast Michaelis-Menten configuration for CLI tests."""
    base = {
        "model": "michaelis_menten",
        "data": str(DATA_CSV),
        "train_indices": "1,3,5,7",
        "validation_indices": "2,4,6",
        "loss_scale": "half",
        "alpha": "0.01", "beta": "0.1",
        "gamma1": "0.01",
        "eps_tol": "1e-5", "inner_tol": "1e-5",
        "z": "0.005", "mu": "100.0",
        "T": "0.75", "N_t": "400",
        "u_max": "10.0",
        "theta0": "3.9, 0.0178",
        "leader_mask": "1,0",
        "control": "grid",
        "max_outer": "3", "max_inner": "60",
        "out_dir": "out",
        "seed": "0",
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items() if v is not None]
    cfg = path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg


def assert_zero_start(parsed, size: int) -> None:
    """The parsed config's start is the zero control of `size` basis
    functions, or a grid control for size 0, on its grid and with its u_max."""
    start = parsed.start
    p = parsed.partition.dimension
    if size:
        assert type(start) is BasisControl
        assert start.coefficients.shape == (size, p)
        assert not start.coefficients.any()
    else:
        assert type(start) is GridControl
        assert start.values.shape == (parsed.grid.steps + 1, p)
        assert not start.values.any()
    assert start.grid == parsed.grid
    assert start.u_max == parsed.solver.u_max


def shipped_config(tmp_path: Path, name: str, **overrides) -> Path:
    """The shipped config `name` with an absolute data path and the given
    keys set."""
    text = (REPO / "configs" / name).read_text(encoding="utf-8")
    overrides["data"] = DATA_CSV
    for key, value in overrides.items():
        text, n = re.subn(rf"^{key}\s*=[^#\n]*", f"{key} = {value}", text,
                          flags=re.M)
        assert n == 1
    cfg = tmp_path / name
    cfg.write_text(text, encoding="utf-8")
    return cfg


class TestIngestCsv:
    def test_table_file(self):
        data = ingest_csv(DATA_CSV)
        assert len(data) == 7
        assert data.inputs[0, 0] == 0.3330
        assert data.outputs[0] == 3.6360

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such file"):
            ingest_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "zero.csv"
        f.write_bytes(b"")
        with pytest.raises(ConfigError, match="zero.csv: empty file"):
            ingest_csv(f)

    def test_blank_rows_skipped(self, tmp_path):
        # blank and whitespace-only rows anywhere after the header are skipped
        header, *rows = DATA_CSV.read_text().splitlines()
        f = tmp_path / "blanks.csv"
        f.write_text("\n".join([header, "", rows[0], "   ", *rows[1:4], "\t",
                                "", *rows[4:], " "]) + "\n")
        data, clean = ingest_csv(f), ingest_csv(DATA_CSV)
        assert np.array_equal(data.inputs, clean.inputs)
        assert np.array_equal(data.outputs, clean.outputs)

    def test_no_samples(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("w,v\n")
        with pytest.raises(ConfigError, match="no samples"):
            ingest_csv(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="h.csv:1"):
            ingest_csv(f)

    def test_non_numeric_row_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("w,v\n0.1,abc\n")
        with pytest.raises(ConfigError, match="bad.csv:2"):
            ingest_csv(f)

    @pytest.mark.parametrize("row", ["0.5,nan", "0.7,inf", "-inf,1.0"])
    def test_non_finite_cell_names_line(self, tmp_path, capsys, row):
        f = tmp_path / "nf.csv"
        f.write_text(f"w,v\n0.1,0.2\n{row}\n0.3,0.4\n")
        with pytest.raises(ConfigError, match=f"nf.csv:3: non-finite"):
            ingest_csv(f)
        cfg = write_config(tmp_path, data=str(f), train_indices="1",
                           validation_indices="2")
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        assert f"{f}:3: " in capsys.readouterr().err

    def test_wrong_column_count(self, tmp_path):
        f = tmp_path / "cols.csv"
        f.write_text("w,v\n0.1,0.2,0.3\n")
        with pytest.raises(ConfigError, match="2 columns"):
            ingest_csv(f)

    def test_roundtrip_exact(self, tmp_path, table_data):
        out = tmp_path / "rt.csv"
        out.write_text("w,v\n" + "".join(
            f"{float(x)!r},{float(y)!r}\n"
            for x, y in zip(table_data.inputs[:, 0], table_data.outputs)))
        back = ingest_csv(out)
        assert np.array_equal(back.inputs, table_data.inputs)
        assert np.array_equal(back.outputs, table_data.outputs)


class TestParseConfig:
    def test_golden_config(self):
        cfg = parse_config(GOLDEN_CFG)
        assert cfg.grid.steps == 2000
        assert cfg.solver.mu == 1e5
        assert cfg.loss_scale.value == "one"
        assert cfg.split.train_indices == (0, 2, 4, 6)
        assert np.array_equal(cfg.partition.leader_mask, [1.0, 0.0])

    def test_missing_required_key(self, tmp_path):
        cfg = write_config(tmp_path, model=None)
        with pytest.raises(ConfigError, match="model"):
            parse_config(cfg)

    def test_unknown_key_has_line(self, tmp_path, capsys):
        # gamma2, u1_init, u2_init and terminal_mode are retired keys
        for key in ("bogus_key", "gamma2", "u1_init", "u2_init",
                    "terminal_mode"):
            cfg = write_config(tmp_path)
            with open(cfg, "a") as fh:
                fh.write(f"{key} = 1\n")
            message = f":{len(cfg.read_text().splitlines())}: unknown key '{key}'"
            with pytest.raises(ConfigError, match=message):
                parse_config(cfg)
            assert main(["fit", str(cfg)]) == EXIT_CONFIG
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("alpha 0.02", "expected 'key = value'"),
        ("beta =", "empty key or value"),
        ("alpha = 0.02", "duplicate key 'alpha'"),  # alpha is set above
    ], ids=["no_equals", "empty_value", "duplicate"])
    def test_malformed_line_has_line(self, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path)
        with open(cfg, "a") as fh:
            fh.write(f"{line}\n# a comment after it\n")
        message = f":{len(cfg.read_text().splitlines()) - 1}: {message}"
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)
        assert main(["fit", str(cfg)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("alpha", "-0.5"), ("beta", "0"), ("gamma1", "1.5"),
        ("eps_tol", "0"), ("z", "-0.1"), ("mu", "-3"), ("N_t", "1"),
        ("T", "-2"), ("u_max", "0"), ("theta0", "1,not_a_number"),
        ("leader_mask", "1,2"), ("control", "fourier"),
        ("control", "basis ²"),  # a digit that int() cannot read
        ("loss_scale", "double"), ("train_indices", "0,1"),
        # index sets hold each sample once
        ("train_indices", "1,1,3,5,7"), ("validation_indices", "2,4,4"),
        # retired keys, refused whatever their value
        ("gamma2", "-1"), ("u1_init", "99"), ("terminal_mode", "penalty"),
        ("leader_mask", "1,0,0"),  # one entry more than theta0
        ("seed", "-1"),
    ])
    def test_invariant_violations_rejected(self, tmp_path, key, value):
        # the message names the key, at the line that sets it
        cfg = write_config(tmp_path, **{key: value})
        line = cfg.read_text().splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ConfigError, match=f":{line}: .*{key}"):
            parse_config(cfg)

    def test_line_precise_message(self, tmp_path):
        cfg = write_config(tmp_path)
        lines = cfg.read_text().splitlines()
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("alpha"))
        lines[idx] = "alpha = -1"
        cfg.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f":{idx + 1}: alpha"):
            parse_config(cfg)

    @pytest.mark.parametrize("control,size", [
        ("grid", 0), ("basis 12", 12),
        ("basis  12", 12),  # words split on any run of whitespace
    ])
    def test_control_values(self, tmp_path, control, size):
        cfg = write_config(tmp_path, control=control)
        assert_zero_start(parse_config(cfg), size)

    @pytest.mark.parametrize("size", [12, 10])
    def test_dependent_basis_rejected(self, tmp_path, capsys, size):
        # more functions than the 9 nodes of N_t = 8: the follower's Gram
        # matrix is singular, so the config is refused at its control line
        assert np.linalg.matrix_rank(basis_gram_matrix(TimeGrid(1.5, 8), size)) == 9
        control = f"basis {size}"
        cfg = shipped_config(tmp_path, "michaelis_menten_basis.cfg", N_t=8,
                             control=control)
        line = cfg.read_text().splitlines().index(f"control = {control}") + 1
        message = f":{line}: control: .* linearly dependent at the grid's 9 nodes"
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)
        assert main(["fit", str(cfg)]) == EXIT_CONFIG
        assert re.search(message, capsys.readouterr().err)

    def test_basis_up_to_node_count_accepted(self, tmp_path):
        assert np.linalg.matrix_rank(basis_gram_matrix(TimeGrid(1.5, 8), 9)) == 9
        cfg = shipped_config(tmp_path, "michaelis_menten_basis.cfg", N_t=8,
                             control="basis 9")
        assert_zero_start(parse_config(cfg), 9)

    def test_numerically_dependent_basis_rejected(self, tmp_path, capsys):
        # 38 functions at the 41 nodes of N_t = 40 pass the K <= N_t + 1
        # rule, but their Gram matrix is rank-deficient in floating point
        assert np.linalg.matrix_rank(basis_gram_matrix(TimeGrid(1.5, 40), 38)) < 38
        cfg = shipped_config(tmp_path, "michaelis_menten_basis.cfg", N_t=40,
                             control="basis 38")
        line = cfg.read_text().splitlines().index("control = basis 38") + 1
        message = (f":{line}: control: the 38 basis functions are numerically "
                   "dependent at the grid's 41 nodes")
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)
        assert main(["fit", str(cfg)]) == EXIT_CONFIG
        assert re.search(message, capsys.readouterr().err)

    def test_numerically_independent_basis_accepted(self, tmp_path):
        assert np.linalg.matrix_rank(basis_gram_matrix(TimeGrid(1.5, 40), 37)) == 37
        cfg = shipped_config(tmp_path, "michaelis_menten_basis.cfg", N_t=40,
                             control="basis 37")
        assert_zero_start(parse_config(cfg), 37)

    def test_grid_rule_names_its_key(self, tmp_path):
        cfg = write_config(tmp_path, N_t="1")
        idx = cfg.read_text().splitlines().index("N_t = 1")
        with pytest.raises(ConfigError, match=f":{idx + 1}: N_t: must be at least 2"):
            parse_config(cfg)

    def test_overlapping_split_rejected(self, tmp_path):
        cfg = write_config(tmp_path, train_indices="1,2", validation_indices="2,3")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_comments_and_blanks_ok(self, tmp_path):
        cfg = write_config(tmp_path)
        text = "# leading comment\n\n" + cfg.read_text() + "\n# trailing\n"
        cfg.write_text(text)
        parse_config(cfg)

    def test_required_keys_only_take_defaults(self, tmp_path):
        cfg = tmp_path / "minimal.cfg"
        cfg.write_text(f"model = michaelis_menten\ndata = {DATA_CSV}\n"
                       "train_indices = 1,3,5,7\nvalidation_indices = 2,4,6\n"
                       "T = 0.75\nN_t = 400\ntheta0 = 3.9, 0.0178\n"
                       "leader_mask = 1,0\n", encoding="utf-8")
        parsed = parse_config(cfg)
        assert parsed.solver == SolverConfig()
        assert parsed.loss_scale is LossScale.HALF
        assert_zero_start(parsed, 0)  # a grid control
        assert (parsed.out_dir, parsed.seed) == (Path("out"), 0)


class TestRunFit:
    def test_outputs_and_exit(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o1"
        assert run_fit(cfg, out) == EXIT_OK
        for name in ("report.json", "trajectory.csv", "controls.csv",
                     "fit_plot.svg", "residuals_plot.svg"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert len(report["theta"]) == 2
        assert report["outer_iterations"] == len(report["history"])
        assert len(report["residuals"]["values"]) == 7

    def test_deterministic_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_fit(cfg, out1)
        run_fit(cfg, out2)

        def strip_ts(p: Path):
            return [ln for ln in (p / "report.json").read_text().splitlines()
                    if '"timestamp"' not in ln]

        assert strip_ts(out1) == strip_ts(out2)
        for name in ("trajectory.csv", "controls.csv", "fit_plot.svg",
                     "residuals_plot.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_gamma_zero_not_converged(self, tmp_path):
        cfg = write_config(tmp_path, **FROZEN)
        out = tmp_path / "oz"
        assert run_fit(cfg, out) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False  # the follower stopped at its cap
        assert report["outer_iterations"] == 1
        first = report["history"][0]
        assert first["leader_grad_norm"] < float(FROZEN["eps_tol"])
        assert first["gamma1_used"] == first["gamma2_used"] == 0.0

    def test_divergent_config_exit_3(self, tmp_path, capsys):
        # at w = 1000 the linear flow's rate is -1e6: its RK4 step at
        # dt = 0.02 is far outside the stability region, and the state
        # overflows at step 18
        csv = tmp_path / "stiff.csv"
        csv.write_text("w,v\n1000,1e30\n1000,1e30\n")
        cfg = write_config(tmp_path, model="linear", data=str(csv),
                           train_indices="1", validation_indices="2",
                           theta0="1.0", leader_mask="1", T="1.0", N_t="50")
        code = main(["--out", str(tmp_path / "dv"), "fit", str(cfg)])
        assert code == EXIT_DIVERGED
        assert "non-finite state at t=0.36 (step 18)" in capsys.readouterr().err


class TestReportResiduals:
    def test_outputs_minus_fit(self, tmp_path):
        # report.json's residuals are y - h(x) at the reported theta over the
        # whole dataset, bitwise, with numpy's mean and sample std
        cfg = write_config(tmp_path)
        assert run_fit(cfg, tmp_path / "o") == EXIT_OK
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        theta = report["theta"]
        w, v = np.array(TABLE_W), np.array(TABLE_V)
        eps = v - theta[0] * w / (theta[1] + w)
        residuals = report["residuals"]
        assert residuals["values"] == eps.tolist()
        assert residuals["mean"] == eps.mean()
        assert residuals["std"] == eps.std(ddof=1)

    def test_perfect_fit(self, tmp_path):
        # zero outputs and a zero start: every gradient vanishes, theta stays
        # at zero and fits each sample exactly
        csv = tmp_path / "zero.csv"
        csv.write_text("w,v\n0.5,0.0\n1.0,0.0\n2.0,0.0\n")
        cfg = write_config(tmp_path, model="linear", data=str(csv),
                           train_indices="1,3", validation_indices="2",
                           theta0="0.0", leader_mask="1")
        assert run_fit(cfg, tmp_path / "o") == EXIT_OK
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["theta"] == [0.0]
        assert report["residuals"] == {"mean": 0.0, "std": 0.0,
                                       "values": [0.0, 0.0, 0.0]}


class TestGoldenFit:
    # frozen report values of the small config for both control kinds (3
    # outer iterations), and of the two shipped configs at max_outer = 2, the
    # benchmark's fit workloads; a change to the solver's arithmetic or its
    # order of operations moves them
    GOLDEN = {
        "grid": ([3.8650927085490725, 0.01732237487656885],
                 0.003699321835916024, 5.636879272023238,
                 0.05636895820863399),
        "basis 4": ([3.871569981772874, 0.017407093610953713],
                    0.0035369548142296712, 5.657508702399101,
                    0.05657525251234326),
        "michaelis_menten.cfg": ([3.8619272680909313, 0.0172809738552032],
                                 0.00756286000889196, 11.005770567857388,
                                 0.11005847612067621),
        "michaelis_menten_basis.cfg": (
            [3.872077946796343, 0.01741332794586015],
            0.007048954309958246, 11.050988229130693, 0.11051065266903815),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_report_values(self, tmp_path, case):
        theta, phi, j1, j2 = self.GOLDEN[case]
        if case.endswith(".cfg"):
            config, outer = shipped_config(tmp_path, case, max_outer=2), 2
        else:
            config, outer = write_config(tmp_path, control=case), 3
        out = tmp_path / "o"
        assert run_fit(config, out) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["theta"] == pytest.approx(theta, rel=1e-12)
        assert report["Phi"] == pytest.approx(phi, rel=1e-12)
        assert report["J1"] == pytest.approx(j1, rel=1e-12)
        assert report["J2"] == pytest.approx(j2, rel=1e-12)
        assert report["outer_iterations"] == outer
        assert report["converged"] is False


class TestRunSimulate:
    def test_linear_decay(self, tmp_path):
        # training on (w, v) = (1, 0) gives theta' = -theta, so 50 RK4 steps
        # of dt = 0.02 multiply theta0 = 2 by R(-0.02)^50, where R is RK4's
        # stability polynomial
        csv = tmp_path / "lin.csv"
        csv.write_text("w,v\n1.0,0.0\n1.0,0.0\n")
        cfg = write_config(tmp_path, model="linear", data=str(csv),
                           train_indices="1", validation_indices="2",
                           theta0="2.0", leader_mask="0", T="1.0", N_t="50")
        out = tmp_path / "sim"
        assert run_simulate(cfg, out) == EXIT_OK
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,theta_1"
        last = float(rows[-1].split(",")[1])
        z = -0.02
        r = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert last == pytest.approx(2.0 * r**50, rel=1e-14)

    def test_repeatable(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_simulate(cfg, out1)
        run_simulate(cfg, out2)
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()

    def test_basis_start_simulates_as_grid(self, tmp_path):
        # the shipped configs differ in their control (and out_dir); both
        # start from the zero control, so both integrate the uncontrolled
        # flow, byte for byte
        grid_cfg = shipped_config(tmp_path, "michaelis_menten.cfg")
        basis_cfg = shipped_config(tmp_path, "michaelis_menten_basis.cfg")
        grid_out, basis_out = tmp_path / "sg", tmp_path / "sb"
        assert run_simulate(grid_cfg, grid_out) == EXIT_OK
        assert run_simulate(basis_cfg, basis_out) == EXIT_OK
        assert (grid_out / "trajectory.csv").read_bytes() == \
            (basis_out / "trajectory.csv").read_bytes()

    def test_matches_degenerate_fit_bitwise(self, tmp_path):
        cfg = write_config(tmp_path, **FROZEN)
        sim_out, fit_out = tmp_path / "sd", tmp_path / "fd"
        run_simulate(cfg, sim_out)
        run_fit(cfg, fit_out)
        assert (sim_out / "trajectory.csv").read_bytes() == \
            (fit_out / "trajectory.csv").read_bytes()


class TestRunGradcheck:
    def test_passes_and_writes_table(self, tmp_path):
        cfg = write_config(tmp_path, N_t="300", mu="100.0")
        out = tmp_path / "gc"
        assert run_gradcheck(cfg, out) == EXIT_OK
        lines = (out / "gradcheck.csv").read_text().splitlines()
        assert lines[0] == "functional,direction,fd,adjoint,rel_error"
        assert len(lines) == 41  # 20 directions x 2 functionals
        for line in lines[1:]:
            functional, direction, *numbers = line.split(",")
            assert functional in ("follower", "leader")
            int(direction)
            assert all(np.isfinite(float(cell)) for cell in numbers), line

    def test_corruption_fails(self, tmp_path, capsys):
        # a NaN corruption makes every comparison NaN, which must fail too
        cfg = write_config(tmp_path, N_t="300", mu="100.0")
        out = tmp_path / "gcf"
        for corruption in (1e-2, float("nan")):
            assert run_gradcheck(cfg, out, corruption=corruption) \
                == EXIT_GRADCHECK
        assert "worst rel error nan" in capsys.readouterr().out

    def test_shipped_config_seed_3(self, tmp_path):
        # the shipped reference config on its own grid (N_t = 2000, mu = 1e5):
        # seed 3 draws the controls and directions that an adjoint of the
        # continuous costate equation got wrong by more than the tolerance.
        # The table is pinned byte for byte: the lanes must reproduce one
        # forward sweep per candidate float for float. The digest holds for
        # one numpy build, since numpy's cos and BLAS's dot round
        # differently across CPUs
        cfg = shipped_config(tmp_path, GOLDEN_CFG.name, seed=3)
        assert main(["--out", str(tmp_path / "gc"), "gradcheck", str(cfg)]) \
            == EXIT_OK
        table = (tmp_path / "gc" / "gradcheck.csv").read_bytes()
        assert hashlib.sha256(table).hexdigest() == SEED_3_TABLE_SHA256

    def test_table_does_not_depend_on_u_max(self, tmp_path):
        # the check certifies the unclamped gradient, so it runs, holds and
        # writes the same table at any bound: u_max = 0.3 is below the
        # seed-0 base pair's peak, 1e-5 below the difference step
        tables = []
        for u_max in ("10.0", "0.3", "1e-5"):
            cfg = shipped_config(tmp_path, GOLDEN_CFG.name, seed=0,
                                 u_max=u_max)
            out = tmp_path / f"gc_{u_max}"
            assert main(["--out", str(out), "gradcheck", str(cfg)]) == EXIT_OK
            tables.append((out / "gradcheck.csv").read_bytes())
        assert tables[1] == tables[0] and tables[2] == tables[0]


class TestMain:
    def test_version(self, capsys):
        assert main(["version"]) == EXIT_OK
        from gradsteer import __version__
        assert capsys.readouterr().out.strip() == __version__

    def test_config_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model = michaelis_menten\n")
        assert main(["fit", str(bad)]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_missing_config_exit(self, tmp_path):
        assert main(["fit", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG

    @pytest.mark.parametrize("which,kind", [("config", "directory"),
                                            ("data", "directory"),
                                            ("config", "latin-1"),
                                            ("data", "latin-1")])
    def test_unreadable_input_exit(self, tmp_path, capsys, which, kind):
        # a directory, or a file that is not UTF-8, is a config error that
        # names the path, not a traceback
        csv = tmp_path / "data.csv"
        csv.write_bytes(DATA_CSV.read_bytes())
        cfg = write_config(tmp_path, data=str(csv))
        target = cfg if which == "config" else csv
        if kind == "directory":
            target.unlink()
            target.mkdir()
        else:
            target.write_bytes(target.read_bytes() + b"# caf\xe9\n")
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {target}: ")

    def test_split_index_beyond_data(self, tmp_path, capsys):
        # the dataset has 7 rows; the message names the key and the 1-based
        # index as written
        cfg = write_config(tmp_path, validation_indices="2,4,9")
        line = cfg.read_text().splitlines().index("validation_indices = 2,4,9")
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{cfg}:{line + 1}: validation_indices: sample 9 " in err

    def test_split_overlap_at_second_set(self, tmp_path, capsys):
        # a sample in both sets is reported at the set that names it second
        cfg = write_config(tmp_path, train_indices="1,2",
                           validation_indices="2,3")
        line = cfg.read_text().splitlines().index("validation_indices = 2,3")
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{cfg}:{line + 1}: validation_indices: sample 2 " in err

    @pytest.mark.parametrize("overrides", [
        {"theta0": "nan, 0.02"},
        {"theta0": "3.8, 0.02, 1.0", "leader_mask": "1,0,0"},
        {"model": "linear", "theta0": "3.8, 0.02"},
    ])
    def test_bad_theta0_names_its_line(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        idx = next(i for i, ln in enumerate(cfg.read_text().splitlines())
                   if ln.startswith("theta0"))
        assert main(["fit", str(cfg)]) == EXIT_CONFIG
        assert f"{cfg}:{idx + 1}: theta0: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "gradcheck"])
    def test_overflowing_cost_exit_3(self, tmp_path, capsys, command):
        # the states stay finite, but |theta|^2 at theta0 = 1.5e154 exceeds
        # the largest float, so both costs overflow
        cfg = write_config(tmp_path, model="linear", theta0="1.5e154",
                           leader_mask="0", mu="0")
        assert main(["--out", str(tmp_path / "o"), command, str(cfg)]) \
            == EXIT_DIVERGED
        assert capsys.readouterr().err == "solver failure: non-finite cost\n"

    @staticmethod
    def residual_rows_config(tmp_path: Path, last_w: str) -> Path:
        """A linear copy of the shipped config on three rows, the last of
        them, at input `last_w`, in neither split; its fit gives theta
        1.2644."""
        data = tmp_path / "rows.csv"
        data.write_text(f"w,v\n0.1,1.0\n0.2,1.2\n{last_w},5.0\n",
                        encoding="utf-8")
        cfg = shipped_config(tmp_path, "michaelis_menten.cfg", model="linear",
                             train_indices="1", validation_indices="2",
                             theta0="1.0", leader_mask="1", mu="1", N_t="200",
                             max_outer="2")
        cfg.write_text(cfg.read_text(encoding="utf-8").replace(
            f"data = {DATA_CSV}", f"data = {data}"), encoding="utf-8")
        return cfg

    def test_overflowing_residual_exit_3(self, tmp_path, capsys):
        # only the report's residuals evaluate h at the third row, and
        # h = 1.2644 * 1.5e308 overflows
        cfg = self.residual_rows_config(tmp_path, "1.5e308")
        out = tmp_path / "o"
        assert main(["--out", str(out), "fit", str(cfg)]) == EXIT_DIVERGED
        assert capsys.readouterr().err == \
            "solver failure: non-finite residual\n"
        assert not (out / "report.json").exists()

    def test_overflowing_residual_spread_exit_3(self, tmp_path, capsys):
        # at w = 1e308 every residual is finite, but the square in their
        # std overflows; the report would hold "std": Infinity
        cfg = self.residual_rows_config(tmp_path, "1e308")
        out = tmp_path / "o"
        assert main(["--out", str(out), "fit", str(cfg)]) == EXIT_DIVERGED
        assert capsys.readouterr().err == \
            "solver failure: non-finite residual\n"
        assert not (out / "report.json").exists()

    def test_retired_model_kind_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model="exponential")
        line = cfg.read_text().splitlines().index("model = exponential") + 1
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:{line}: model: must be one of "
            "michaelis_menten, linear; got 'exponential'")

    @pytest.mark.parametrize("command", ["fit", "simulate", "gradcheck"])
    @pytest.mark.parametrize("case", ["existing file", "under a file",
                                      "directory output"])
    def test_unusable_output_path_exit(self, tmp_path, capsys, command, case):
        # --out names a file, or a path under one, or the command's output
        # file is a directory: a config error that names the path, not a
        # traceback
        cfg = write_config(tmp_path, N_t="50", **FROZEN)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = {"existing file": blocker, "under a file": blocker / "out",
               "directory output": tmp_path / "o"}[case]
        target = out
        if case == "directory output":
            target = out / ("gradcheck.csv" if command == "gradcheck"
                            else "trajectory.csv")
            target.mkdir(parents=True)
        assert main(["--out", str(out), command, str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {target}: ")

    def test_out_override(self, tmp_path):
        cfg = write_config(tmp_path, N_t="200", T="0.5", max_outer="1")
        target = tmp_path / "elsewhere"
        assert main(["--out", str(target), "simulate", str(cfg)]) == EXIT_OK
        assert (target / "trajectory.csv").exists()
