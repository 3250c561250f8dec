import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsteer import (BasisControl, ControlPartition, Dataset, GridControl,
                       SolverConfig, SplitSpec, TimeGrid,
                       zero_grid_control)
from gradsteer.adjoint import FollowerProblem, combined_stage_controls
from gradsteer.cli import parse_config
from gradsteer.core import InvalidSetting

from conftest import REPO


def constant_control(grid, value):
    """A grid control holding `value` at every node."""
    return GridControl(grid, np.tile(np.asarray(value, dtype=float),
                                     (grid.steps + 1, 1)))


class TestTimeGrid:
    def test_nodes_small(self):
        grid = TimeGrid(1.5, 3)
        assert np.array_equal(grid.nodes, [0.0, 0.5, 1.0, 1.5])

    def test_dt(self):
        assert TimeGrid(1.5, 150).dt == 0.01

    def test_endpoint_exact(self):
        grid = TimeGrid(1.5, 150)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 1.5
        assert np.all(np.diff(grid.nodes) > 0)

    @pytest.mark.parametrize("T,n", [(0.0, 10), (-1.0, 10), (1.0, 1), (1.0, 0)])
    def test_invalid_arguments(self, T, n):
        with pytest.raises(ValueError):
            TimeGrid(T, n)

    def test_nodes_immutable(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            grid.nodes[0] = 1.0


class TestControlEvaluation:
    def test_grid_constant(self):
        grid = TimeGrid(2.0, 10)
        u = constant_control(grid, [3.0, -1.0])
        assert np.allclose(u.node_values(), [3.0, -1.0])
        assert np.allclose(u.stage_values(), [3.0, -1.0])

    def test_basis_constant_term(self):
        grid = TimeGrid(1.5, 8)
        coeffs = np.zeros((3, 2))
        coeffs[0] = [1.0, 0.0]  # phi_1 is identically one
        u = BasisControl(grid, coeffs)
        assert np.allclose(u.node_values(), [1.0, 0.0])
        assert np.allclose(u.stage_values(), [1.0, 0.0])

    def test_grid_midpoint_interpolation(self):
        grid = TimeGrid(1.0, 10)
        values = np.zeros((11, 2))
        values[1] = [1.0, 1.0]
        u = GridControl(grid, values)
        # stage 1 is the midpoint of interval 0, between nodes 0 and 1
        assert np.allclose(u.stage_values()[1], [0.5, 0.5])

    def test_off_grid_rejected(self):
        own, other = TimeGrid(1.0, 8), TimeGrid(1.0, 16)
        part = ControlPartition([1.0, 0.0])
        for u in (zero_grid_control(own, 2), BasisControl(own, np.ones((3, 2)))):
            for pair in ((u, zero_grid_control(other, 2)),
                         (zero_grid_control(other, 2), u)):
                with pytest.raises(ValueError,
                                   match="8 steps.*16 steps|16 steps.*8 steps"):
                    combined_stage_controls(*pair, part)

    def test_follower_problem_off_its_control_grid_rejected(self,
                                                            mm_train_half):
        # the problem's grid restates u1's: another is refused where the
        # problem is built, not at its first sweep
        own, other = TimeGrid(1.0, 8), TimeGrid(1.0, 16)
        with pytest.raises(ValueError, match="steps=16.*steps=8"):
            FollowerProblem(mm_train_half, 0.01, 0.1,
                            ControlPartition([1.0, 0.0]),
                            zero_grid_control(own, 2), other, [3.9, 0.02])

    def test_node_count_validated(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            GridControl(grid, np.zeros((4, 2)))

    def test_amplitude_validated_at_construction(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            GridControl(grid, np.full((5, 1), 99.0), u_max=1.0)

    @given(st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_basis_clamped_everywhere(self, coeffs):
        grid = TimeGrid(1.0, 16)
        u = BasisControl(grid, np.array(coeffs)[:, None], u_max=2.0)
        assert np.abs(u.stage_values()).max() <= 2.0
        assert np.abs(u.node_values()).max() <= 2.0


class TestPartition:
    def test_mask_selection(self):
        grid = TimeGrid(1.0, 4)
        part = ControlPartition(np.array([1.0, 0.0]))
        u1 = constant_control(grid, [3.0, 3.0])
        u2 = constant_control(grid, [5.0, 5.0])
        assert np.allclose(combined_stage_controls(u1, u2, part), [3.0, 5.0])

    def test_zero_controls(self):
        grid = TimeGrid(1.0, 4)
        part = ControlPartition([1.0, 0.0])
        z = zero_grid_control(grid, 2)
        assert np.array_equal(combined_stage_controls(z, z, part),
                              np.zeros((2 * grid.steps + 1, 2)))

    def test_overlapping_masks_rejected(self):
        # a fractional leader mask would share its coordinate with the follower
        with pytest.raises(ValueError):
            ControlPartition(np.array([0.5, 0.0]))

    def test_mask_rule_names_its_key(self):
        with pytest.raises(InvalidSetting) as err:
            ControlPartition([1.0, 2.0])
        assert (err.value.name, err.value.rule) == ("leader_mask",
                                                     "must be binary")

    def test_follower_mask_is_complement(self):
        part = ControlPartition([1.0, 0.0, 1.0])
        assert np.array_equal(part.follower_mask, [0.0, 1.0, 0.0])
        assert np.all(part.leader_mask * part.follower_mask == 0.0)
        assert np.all(part.leader_mask + part.follower_mask == 1.0)

    def test_dimension_mismatch(self):
        # 1-coordinate controls would broadcast against the 2-coordinate masks
        grid = TimeGrid(1.0, 4)
        part = ControlPartition([1.0, 0.0])
        for d1, d2 in ((3, 3), (1, 1), (2, 1), (1, 2)):
            with pytest.raises(ValueError, match="dimension"):
                combined_stage_controls(constant_control(grid, [3.0] * d1),
                                        constant_control(grid, [5.0] * d2),
                                        part)

    @given(st.lists(st.booleans(), min_size=1, max_size=6),
           st.lists(st.floats(-4, 4), min_size=6, max_size=6),
           st.lists(st.floats(-4, 4), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_completeness(self, mask_bits, a_vals, b_vals):
        p = len(mask_bits)
        part = ControlPartition(np.array(mask_bits, dtype=float))
        grid = TimeGrid(1.0, 4)
        a = np.array(a_vals[:p])
        b = np.array(b_vals[:p])
        out = combined_stage_controls(constant_control(grid, a),
                                      constant_control(grid, b), part)
        for j in range(p):
            expected = a[j] if mask_bits[j] else b[j]
            assert out[:, j] == pytest.approx(expected)


class TestCallerArraysStayWriteable:
    # each value type freezes its own copy, never the array it was given

    def test_constructors_copy(self):
        grid = TimeGrid(1.0, 4)
        x, y = np.ones((3, 1)), np.arange(3.0)
        values, coeffs = np.zeros((5, 2)), np.zeros((3, 2))
        mask = np.array([1.0, 0.0])
        data = Dataset(x, y)
        own = [data.inputs, data.outputs, GridControl(grid, values).values,
               BasisControl(grid, coeffs).coefficients,
               ControlPartition(mask).leader_mask]
        assert all(given.flags.writeable for given in (x, y, values, coeffs, mask))
        assert not any(arr.flags.writeable for arr in own)

    def test_config_theta0_survives_problem(self, mm_train_half):
        cfg = parse_config(REPO / "configs" / "michaelis_menten.cfg")
        prob = FollowerProblem(mm_train_half, 0.01, 0.1, cfg.partition,
                               zero_grid_control(cfg.grid, 2), cfg.grid,
                               cfg.theta0)
        assert cfg.theta0.flags.writeable
        assert not prob.theta0.flags.writeable
        assert np.array_equal(prob.theta0, cfg.theta0)


class TestDatasetAndSplit:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1)), np.zeros(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan]]), np.array([1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 1)), np.zeros(0))

    def test_split_disjoint(self):
        with pytest.raises(ValueError):
            SplitSpec((0, 1), (1, 2))

    def test_split_bounds(self, table_data):
        spec = SplitSpec((0, 9), (1,))
        with pytest.raises(ValueError):
            spec.train(table_data)

    @pytest.mark.parametrize("train,val,key,sample", [
        ((0, 9), (1,), "train_indices", 10),
        ((0, 2), (1, 7), "validation_indices", 8),
        ((-1, 2), (1,), "train_indices", 0),
    ])
    def test_check_bounds_names_key_and_sample(self, table_data, train, val,
                                               key, sample):
        # table_data has 7 rows; the rule names the sample 1-based
        with pytest.raises(InvalidSetting) as err:
            SplitSpec(train, val).check_bounds(table_data)
        assert err.value.name == key
        assert err.value.rule == f"sample {sample} is outside the 7 rows"

    @pytest.mark.parametrize("train,val,key,rule", [
        ((0, 1), (2, 1), "validation_indices",
         "sample 2 is also in train_indices"),
        ((), (1,), "train_indices", "must name at least one sample"),
        ((0,), (), "validation_indices", "must name at least one sample"),
    ])
    def test_split_rule_names_its_key(self, train, val, key, rule):
        with pytest.raises(InvalidSetting) as err:
            SplitSpec(train, val)
        assert (err.value.name, err.value.rule) == (key, rule)

    def test_split_selects(self, table_data):
        spec = SplitSpec((0, 2), (1,))
        train = spec.train(table_data)
        assert len(train) == 2
        assert train.inputs[1, 0] == table_data.inputs[2, 0]


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"beta": -1.0}, {"gamma1": 1.5}, {"gamma1": 0.0},
        {"eps_tol": 0.0}, {"inner_tol": -1e-9}, {"z": -0.1}, {"mu": -1.0},
        {"max_outer": 0}, {"max_inner": 0}, {"u_max": 0.0},
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
