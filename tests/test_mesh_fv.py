from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from rpickle.errors import ConfigError, SingularSystemError, SolveConvergenceError
from rpickle import mesh_fv as mf

import oracles


def retagged(mesh, tag):
    """The same mesh with every boundary face tagged ``tag``."""
    return replace(mesh, boundary_tags=np.full(mesh.boundary_cells.shape[0], tag))


def all_neumann(nx, ny, lx=1.0, ly=1.0):
    return retagged(mf.build_structured_mesh(nx, ny, lx, ly), "neumann")


def all_dirichlet(nx, ny, lx=1.0, ly=1.0):
    return retagged(mf.build_structured_mesh(nx, ny, lx, ly), "dirichlet")


class TestStructuredMesh:
    def test_two_by_two_counts(self):
        mesh = mf.build_structured_mesh(2, 2)
        assert mesh.n_cells == 4
        assert mesh.face_cells.shape[0] == 4
        assert mesh.boundary_cells.shape[0] == 8

    @pytest.mark.parametrize("nx,ny", [(1, 1), (3, 1), (4, 3), (7, 5)])
    def test_face_counts(self, nx, ny):
        mesh = mf.build_structured_mesh(nx, ny)
        assert mesh.face_cells.shape[0] == nx * (ny - 1) + ny * (nx - 1)
        assert mesh.boundary_cells.shape[0] == 2 * (nx + ny)

    def test_square_cell_transmissibilities(self):
        mesh = mf.build_structured_mesh(3, 1, 3.0, 1.0)
        np.testing.assert_allclose(mesh.face_trans, 1.0)
        # half-cell boundary transmissibility area/distance = 1 / 0.5
        np.testing.assert_allclose(
            mesh.boundary_areas[:2] / mesh.boundary_distances[:2], 2.0
        )

    def test_centers_row_major(self):
        mesh = mf.build_structured_mesh(3, 2, 3.0, 2.0)
        np.testing.assert_allclose(mesh.cell_centers[0], [0.5, 0.5])
        np.testing.assert_allclose(mesh.cell_centers[2], [2.5, 0.5])
        np.testing.assert_allclose(mesh.cell_centers[3], [0.5, 1.5])
        np.testing.assert_allclose(mesh.cell_areas, 1.0)

    def test_default_tags(self):
        mesh = mf.build_structured_mesh(4, 4)
        west = mesh.boundary_labels == "west"
        north = mesh.boundary_labels == "north"
        assert set(mesh.boundary_tags[west]) == {"dirichlet"}
        assert set(mesh.boundary_tags[north]) == {"neumann"}

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            mf.build_structured_mesh(0, 3)
        with pytest.raises(ConfigError):
            mf.build_structured_mesh(2, 2, lx=-1.0)

    def test_rejects_unknown_boundary_tag(self):
        with pytest.raises(ConfigError, match="robin"):
            retagged(mf.build_structured_mesh(2, 2), "robin")


class TestResidual:
    def test_constant_u_all_neumann_zero_flux(self):
        mesh = all_neumann(4, 3)
        bc = mf.BoundaryConditions(neumann_fluxes=np.zeros(mesh.neumann_index.size))
        rng = np.random.default_rng(0)
        r = mf.FlowOperator(mesh, bc).residual(rng.normal(size=12), np.full(12, 2.7))
        np.testing.assert_allclose(r, 0.0, atol=1e-14)

    def test_linear_profile_strip_is_exact(self):
        mesh = mf.build_structured_mesh(3, 1, 3.0, 1.0)
        bc = mf.boundary_values(mesh, {"west": 0.0, "east": 1.0, "south": 0.0, "north": 0.0})
        u = mesh.cell_centers[:, 0] / 3.0
        r = mf.FlowOperator(mesh, bc).residual(np.full(3, 0.4), u)
        np.testing.assert_allclose(r, 0.0, atol=1e-14)

    def test_matches_dense_oracle(self):
        mesh = mf.build_structured_mesh(16, 16)
        x, ycoord = mesh.cell_centers.T
        y = x + ycoord
        u = np.sin(np.pi * x) * np.sin(np.pi * ycoord)
        bc = mf.boundary_values(mesh, {"west": 1.0, "east": 0.0, "south": 0.7, "north": -0.3})
        r = mf.FlowOperator(mesh, bc).residual(y, u)
        dirichlet, neumann = oracles.bc_by_face(mesh, bc)
        expected = oracles.dense_residual(mesh, y, u, dirichlet, neumann)
        np.testing.assert_allclose(r, expected, atol=1e-12)

    def test_superposition_in_u(self):
        mesh = mf.build_structured_mesh(5, 4)
        rng = np.random.default_rng(3)
        y = rng.normal(size=mesh.n_cells)
        u1, u2 = rng.normal(size=(2, mesh.n_cells))
        bc = mf.boundary_values(mesh, {"west": 0.5, "east": -0.5, "south": 0.1, "north": 0.0})
        op = mf.FlowOperator(mesh, bc)
        r0 = op.residual(y, np.zeros(mesh.n_cells))
        r1 = op.residual(y, u1)
        r2 = op.residual(y, u2)
        r12 = op.residual(y, 2.0 * u1 - 3.0 * u2)
        np.testing.assert_allclose(r12 - r0, 2.0 * (r1 - r0) - 3.0 * (r2 - r0), atol=1e-11)

    def test_shape_validation(self):
        mesh = mf.build_structured_mesh(2, 2)
        bc = mf.boundary_values(mesh, {"west": 0, "east": 0, "south": 0, "north": 0})
        with pytest.raises(ConfigError):
            mf.FlowOperator(mesh, bc).residual(np.zeros(3), np.zeros(4))

    def test_bc_count_validation(self):
        mesh = mf.build_structured_mesh(2, 2)
        bad = mf.BoundaryConditions(dirichlet_values=np.zeros(1), neumann_fluxes=np.zeros(4))
        with pytest.raises(ConfigError, match="dirichlet"):
            bad.validate(mesh)


@settings(deadline=None, max_examples=200)
@given(
    yi=st.floats(-20, 20),
    yj=st.floats(-20, 20),
    shift=st.floats(-5, 5),
)
def test_harmonic_face_transmissivity_properties(yi, yj, shift):
    k = mf.face_transmissivity(yi, yj)
    assert k == mf.face_transmissivity(yj, yi)
    ti, tj = np.exp(yi), np.exp(yj)
    assert min(ti, tj) * (1 - 1e-12) <= k <= max(ti, tj) * (1 + 1e-12)
    np.testing.assert_allclose(
        mf.face_transmissivity(yi + shift, yj + shift), np.exp(shift) * k, rtol=1e-12
    )


class TestSolveForward:
    def test_constant_dirichlet_gives_constant_head(self):
        mesh = all_dirichlet(5, 3)
        bc = mf.boundary_values(mesh, {s: 2.5 for s in ("west", "east", "south", "north")})
        u = mf.FlowOperator(mesh, bc).solve(np.random.default_rng(1).normal(size=15))
        np.testing.assert_allclose(u, 2.5, atol=1e-10)

    def test_strip_linear_profile(self):
        mesh = mf.build_structured_mesh(8, 1, 8.0, 1.0)
        bc = mf.boundary_values(mesh, {"west": 1.0, "east": 0.0, "south": 0.0, "north": 0.0})
        u = mf.FlowOperator(mesh, bc).solve(np.full(8, -0.3))
        np.testing.assert_allclose(u, 1.0 - mesh.cell_centers[:, 0] / 8.0, atol=1e-12)

    def test_matches_dense_oracle(self):
        mesh = mf.build_structured_mesh(8, 8)
        rng = np.random.default_rng(42)
        y = rng.normal(scale=0.8, size=mesh.n_cells)
        bc = mf.boundary_values(mesh, {"west": 1.0, "east": 0.0, "south": 0.05, "north": -0.05})
        u = mf.FlowOperator(mesh, bc).solve(y)
        dirichlet, neumann = oracles.bc_by_face(mesh, bc)
        a, b = oracles.dense_forward_system(mesh, y, dirichlet, neumann)
        np.testing.assert_allclose(u, np.linalg.solve(a, b), atol=1e-10)

    def test_solution_zeroes_residual(self):
        mesh = mf.build_structured_mesh(6, 5)
        rng = np.random.default_rng(7)
        y = rng.normal(size=mesh.n_cells)
        bc = mf.boundary_values(mesh, {"west": 0.2, "east": 1.2, "south": 0.0, "north": 0.3})
        op = mf.FlowOperator(mesh, bc)
        r = op.residual(y, op.solve(y))
        assert np.max(np.abs(r)) <= 1e-10

    def test_all_neumann_is_singular(self):
        mesh = all_neumann(3, 3)
        bc = mf.BoundaryConditions(neumann_fluxes=np.zeros(12))
        with pytest.raises(SingularSystemError):
            mf.FlowOperator(mesh, bc).solve(np.zeros(9))


class TestDerivatives:
    def setup_method(self):
        self.mesh = mf.build_structured_mesh(5, 5)
        rng = np.random.default_rng(11)
        self.y = rng.normal(scale=0.7, size=self.mesh.n_cells)
        self.u = rng.normal(size=self.mesh.n_cells)
        self.bc = mf.boundary_values(
            self.mesh, {"west": 1.0, "east": 0.0, "south": 0.2, "north": -0.1}
        )
        self.op = mf.FlowOperator(self.mesh, self.bc)

    def test_jacobians_match_finite_differences(self):
        dr_dy, dr_du = self.op.jacobians(self.y, self.u)
        fd_y = oracles.fd_jacobian(
            lambda v: self.op.residual(v, self.u), self.y
        )
        fd_u = oracles.fd_jacobian(
            lambda v: self.op.residual(self.y, v), self.u
        )
        scale = np.linalg.norm(fd_y)
        assert np.linalg.norm(dr_dy.toarray() - fd_y) <= 1e-6 * scale
        assert np.linalg.norm(dr_du.toarray() - fd_u) <= 1e-6 * np.linalg.norm(fd_u)

    def test_du_rows_sum_to_zero_all_neumann(self):
        mesh = all_neumann(4, 4)
        bc = mf.BoundaryConditions(neumann_fluxes=np.zeros(16))
        rng = np.random.default_rng(2)
        _, dr_du = mf.FlowOperator(mesh, bc).jacobians(rng.normal(size=16), rng.normal(size=16))
        np.testing.assert_allclose(np.asarray(dr_du.sum(axis=1)).ravel(), 0.0, atol=1e-13)

    def test_constant_shift_scales_du_jacobian(self):
        shift = 0.8
        _, dr_du = self.op.jacobians(self.y, self.u)
        _, dr_du_shift = self.op.jacobians(self.y + shift, self.u)
        np.testing.assert_allclose(
            dr_du_shift.toarray(), np.exp(shift) * dr_du.toarray(), rtol=1e-12, atol=1e-14
        )

    def test_vjp_matches_jacobians(self):
        w = np.random.default_rng(4).normal(size=self.mesh.n_cells)
        dr_dy, dr_du = self.op.jacobians(self.y, self.u)
        gy, gu = self.op.vjp(self.y, self.u, w)
        np.testing.assert_allclose(gy, dr_dy.T @ w, atol=1e-12)
        np.testing.assert_allclose(gu, dr_du.T @ w, atol=1e-12)

    def test_hessian_contractions_match_finite_differences(self):
        w = np.random.default_rng(9).normal(size=self.mesh.n_cells)
        h_yy, h_yu = self.op.hessian_contract(self.y, self.u, w)

        def weighted_grad_y(y, u):
            return self.op.vjp(y, u, w)[0]

        fd_yy = oracles.fd_jacobian(lambda v: weighted_grad_y(v, self.u), self.y)
        fd_yu = oracles.fd_jacobian(lambda v: weighted_grad_y(self.y, v), self.u)
        assert np.linalg.norm(h_yy.toarray() - fd_yy) <= 1e-6 * max(1.0, np.linalg.norm(fd_yy))
        assert np.linalg.norm(h_yu.toarray() - fd_yu) <= 1e-6 * max(1.0, np.linalg.norm(fd_yu))
        # symmetry of the weighted sum in the y block
        np.testing.assert_allclose(h_yy.toarray(), h_yy.toarray().T, atol=1e-12)


def assert_identical(a, b):
    """Equal values, and for sparse matrices an equal pattern too."""
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    elif hasattr(a, "indptr"):
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)
    else:
        assert np.array_equal(a, b)


class TestFlowOperator:
    def setup_method(self):
        self.mesh = mf.build_structured_mesh(6, 4, 1.5, 1.0)
        self.bc = mf.boundary_values(
            self.mesh, {"west": 1.0, "east": 0.0, "south": 0.2, "north": -0.1}
        )

    def test_reused_operator_matches_fresh_operators(self):
        op = mf.FlowOperator(self.mesh, self.bc)
        rng = np.random.default_rng(21)
        for _ in range(4):
            y, u, w = (rng.normal(scale=0.8, size=self.mesh.n_cells) for _ in range(3))
            calls = (
                lambda o: o.residual(y, u),
                lambda o: o.vjp(y, u, w),
                lambda o: o.jacobians(y, u),
                lambda o: o.hessian_contract(y, u, w),
                lambda o: o.solve(y),
            )
            for call in calls:
                reused = call(op)
                assert_identical(reused, call(mf.FlowOperator(self.mesh, self.bc)))
                # scribbling over a result must not reach the operator
                for part in reused if isinstance(reused, tuple) else (reused,):
                    if hasattr(part, "indptr"):
                        part.indices[:] = 0
                        part.data[:] = np.nan
                    else:
                        part[:] = np.nan

    def test_all_neumann_operator_evaluates_but_cannot_solve(self):
        mesh = all_neumann(3, 3)
        op = mf.FlowOperator(mesh, mf.BoundaryConditions(neumann_fluxes=np.zeros(12)))
        np.testing.assert_allclose(op.residual(np.zeros(9), np.ones(9)), 0.0, atol=1e-14)
        with pytest.raises(SingularSystemError):
            op.solve(np.zeros(9))

    def test_rejects_bad_shapes_and_counts(self):
        op = mf.FlowOperator(self.mesh, self.bc)
        n = self.mesh.n_cells
        with pytest.raises(ConfigError, match="w must have shape"):
            op.vjp(np.zeros(n), np.zeros(n), np.zeros(n - 1))
        with pytest.raises(ConfigError, match="y must have shape"):
            op.solve(np.zeros(n + 1))
        with pytest.raises(ConfigError, match="dirichlet"):
            mf.FlowOperator(self.mesh, mf.BoundaryConditions(neumann_fluxes=self.bc.neumann_fluxes))


def shuffled(mesh, seed):
    """The same mesh with its cells renumbered by a random permutation."""
    new_label = np.random.default_rng(seed).permutation(mesh.n_cells)
    old_cell = np.argsort(new_label)
    return mf.Mesh(
        cell_centers=mesh.cell_centers[old_cell],
        cell_areas=mesh.cell_areas[old_cell],
        face_cells=new_label[mesh.face_cells],
        face_trans=mesh.face_trans,
        boundary_cells=new_label[mesh.boundary_cells],
        boundary_areas=mesh.boundary_areas,
        boundary_distances=mesh.boundary_distances,
        boundary_tags=mesh.boundary_tags,
        boundary_labels=mesh.boundary_labels,
    )


SIDES = {"west": 1.0, "east": 0.0, "south": 0.2, "north": -0.1}


class TestBandSolve:
    @pytest.mark.parametrize(
        "mesh",
        [
            mf.build_structured_mesh(8, 8),
            mf.build_structured_mesh(32, 32),
            mf.build_structured_mesh(23, 5, 4.6, 1.0),
            shuffled(mf.build_structured_mesh(12, 7), seed=3),
            mf.build_structured_mesh(70, 70),
        ],
        ids=["8x8", "32x32", "23x5", "12x7-shuffled", "70x70"],
    )
    def test_matches_superlu(self, mesh):
        bc = mf.boundary_values(mesh, SIDES)
        op = mf.FlowOperator(mesh, bc)
        rng = np.random.default_rng(mesh.n_cells)
        zero = np.zeros(mesh.n_cells)
        for _ in range(3):
            y = rng.normal(scale=1.0, size=mesh.n_cells)
            a = op.jacobians(y, zero)[1]
            reference = spla.spsolve(a.tocsc(), -op.residual(y, zero))
            u = op.solve(y)
            assert np.max(np.abs(u - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_ordering_narrows_the_band(self):
        mesh = mf.build_structured_mesh(23, 5)
        bc = mf.boundary_values(mesh, SIDES)
        op = mf.FlowOperator(mesh, bc)
        a = op.jacobians(np.zeros(mesh.n_cells), np.zeros(mesh.n_cells))[1].tocoo()
        assert np.max(np.abs(a.row - a.col)) == 23
        assert op.half_bandwidth == 6
        for seed in range(5):
            assert mf.FlowOperator(shuffled(mesh, seed), bc).half_bandwidth <= 6

    def test_band_path_never_calls_superlu(self, monkeypatch):
        mesh = mf.build_structured_mesh(32, 32)
        op = mf.FlowOperator(mesh, mf.boundary_values(mesh, SIDES))

        def refuse(a, b):
            raise AssertionError("spsolve called")

        monkeypatch.setattr(spla, "spsolve", refuse)
        y = np.random.default_rng(4).normal(size=mesh.n_cells)
        u = op.solve(y)
        assert np.max(np.abs(op.residual(y, u))) <= 1e-10

    def test_single_isolated_cell_has_empty_band(self):
        op = mf.FlowOperator(all_neumann(1, 1), mf.BoundaryConditions(neumann_fluxes=np.zeros(4)))
        assert op.half_bandwidth == 0
        np.testing.assert_array_equal(op.residual(np.zeros(1), np.ones(1)), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_raises(self, bad):
        mesh = mf.build_structured_mesh(8, 8)
        op = mf.FlowOperator(mesh, mf.boundary_values(mesh, SIDES))
        y = np.zeros(mesh.n_cells)
        y[27] = bad
        with pytest.raises(SolveConvergenceError):
            op.solve(y)


class TestMisfitVjp:
    """The fused misfit-and-adjoint evaluation against residual followed by vjp."""

    @pytest.mark.parametrize(
        "mesh",
        [
            mf.build_structured_mesh(8, 8),
            mf.build_structured_mesh(32, 32),
            shuffled(mf.build_structured_mesh(12, 7), seed=3),
        ],
        ids=["8x8", "32x32", "12x7-shuffled"],
    )
    def test_matches_residual_then_vjp(self, mesh):
        op = mf.FlowOperator(mesh, mf.boundary_values(mesh, SIDES))
        rng = np.random.default_rng(mesh.n_cells + 1)
        rows = 6
        y, u, omega = (rng.normal(scale=0.8, size=(rows, mesh.n_cells)) for _ in range(3))
        w = rng.normal(size=(rows, mesh.n_cells))
        batch, residual, vjp = op.misfit_vjp(y, u, omega), op.residual(y, u), op.vjp(y, u, w)
        for r in range(rows):
            m = op.residual(y[r], u[r]) - omega[r]
            want = (m, *op.vjp(y[r], u[r], m))
            assert_identical(op.misfit_vjp(y[r], u[r], omega[r]), want)
            # every row of a batch rounds exactly as the same field alone
            assert_identical(tuple(part[r] for part in batch), want)
            assert_identical(residual[r], op.residual(y[r], u[r]))
            assert_identical(tuple(part[r] for part in vjp), op.vjp(y[r], u[r], w[r]))

    @pytest.mark.parametrize("nx", [8, 32])
    def test_one_row_and_regrown_batches(self, nx):
        # A one-row batch is summed as its one field; a batch after a larger
        # one reuses a prefix of the larger one's row-offset cells, and a
        # larger one after that rebuilds them.
        mesh = mf.build_structured_mesh(nx, nx)
        op = mf.FlowOperator(mesh, mf.boundary_values(mesh, SIDES))
        rng = np.random.default_rng(nx)
        y, u, omega = (rng.normal(scale=0.8, size=(7, mesh.n_cells)) for _ in range(3))
        for rows in (1, 5, 2, 7, 1):
            batch = op.misfit_vjp(y[:rows], u[:rows], omega[:rows])
            residual = op.residual(y[:rows], u[:rows])
            vjp = op.vjp(y[:rows], u[:rows], omega[:rows])
            for r in range(rows):
                assert_identical(tuple(part[r] for part in batch), op.misfit_vjp(y[r], u[r], omega[r]))
                assert_identical(residual[r], op.residual(y[r], u[r]))
                assert_identical(tuple(part[r] for part in vjp), op.vjp(y[r], u[r], omega[r]))

    def test_rejects_mismatched_fields(self):
        mesh = mf.build_structured_mesh(4, 3)
        op = mf.FlowOperator(mesh, mf.boundary_values(mesh, SIDES))
        n = mesh.n_cells
        with pytest.raises(ConfigError, match="y and u must have shape"):
            op.misfit_vjp(np.zeros((2, n)), np.zeros(n), 0.0)
        with pytest.raises(ConfigError, match="y and u must have shape"):
            op.misfit_vjp(np.zeros(n + 1), np.zeros(n + 1), 0.0)
        with pytest.raises(ConfigError, match="w must have shape"):
            op.vjp(np.zeros((2, n)), np.zeros((2, n)), np.zeros(n))
        with pytest.raises(ConfigError, match=r"y and u must have shape \(12,\), got \(2, 12\)"):
            op.jacobians(np.zeros((2, n)), np.zeros((2, n)))


class TestSerialization:
    def test_field_csv_roundtrip(self, tmp_path):
        mesh = mf.build_structured_mesh(3, 3)
        values = np.random.default_rng(0).normal(size=9)
        path = tmp_path / "field.csv"
        mf.save_field_csv(path, mesh, values, name="y", meta={"seed": 7})
        assert path.read_text().startswith("# seed=7\n")
        np.testing.assert_array_equal(mf.load_field_csv(path, mesh), values)

    @pytest.mark.parametrize(
        "cells, message",
        [((0, 0, 2), "each once"), ((0, 1, 3), "each once"), ((-1, 0, 1), "each once")],
    )
    def test_field_csv_rejects_repeated_or_missing_cells(self, tmp_path, cells, message):
        # A repeated cell used to leave another cell uninitialized and a gap
        # used to raise IndexError; both are bad input, reported as such.
        path = tmp_path / "field.csv"
        rows = [f"{c},0.5,0.5,{2.5 + c}" for c in cells]
        path.write_text("\n".join(["cell,x,y,y", *rows]) + "\n")
        with pytest.raises(ConfigError, match=message):
            mf.load_field_csv(path, mf.build_structured_mesh(3, 1))

    @pytest.mark.parametrize("row", ["1,0.5,0.5,nan", "1,0.5,0.5,inf", "1,0.5,0.5,abc", "one,0.5,0.5,1.0"])
    def test_field_csv_rejects_non_finite_or_non_numeric(self, tmp_path, row):
        path = tmp_path / "field.csv"
        path.write_text(f"cell,x,y,y\n0,0.5,0.5,1.0\n{row}\n")
        with pytest.raises(ConfigError, match="field.csv"):
            mf.load_field_csv(path, mf.build_structured_mesh(3, 1))

    def test_field_csv_rejects_short_row(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("cell,x,y,y\n0,0.5,0.5,1.0\n1,0.5\n")
        with pytest.raises(ConfigError, match="fewer than 4 columns"):
            mf.load_field_csv(path, mf.build_structured_mesh(3, 1))
