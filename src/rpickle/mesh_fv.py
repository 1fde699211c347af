"""Cell-centered finite volumes for 2-D steady Darcy flow.

The unknown is the hydraulic head ``u`` on a mesh of quadrilateral cells; the
coefficient is the log-transmissivity ``y`` (one value per cell, transmissivity
``T = exp(y)``).  Fluxes use a two-point approximation: each interior face
``(i, j)`` carries a geometric transmissibility ``tau = area / distance`` and
an effective face transmissivity equal to the harmonic mean of the two cell
transmissivities.  Dirichlet faces use the half-cell transmissibility
``T_cell * area / distance`` with ``distance`` from cell center to the face.
Neumann faces prescribe the outward Darcy flux density ``q = -(T du/dn)``;
positive values push fluid out of the domain.

The cell balance residual is

    R_i = sum_faces tau_f k_f (u_i - u_j)
        + sum_dirichlet tau_b T_i (u_i - u_D)
        + sum_neumann q A_b

so ``R(y, u) = 0`` is discrete mass conservation.  Besides the residual the
module provides its exact first derivatives (sparse Jacobians in ``y`` and
``u``), adjoint products, and second-derivative contractions against a weight
vector, which downstream modules assemble into loss gradients, sampling
corrections, and Laplace Hessians.

All of these live on :class:`FlowOperator`, built once per mesh and boundary
conditions.  It keeps what does not change between evaluations (face
incidence and transmissibilities, Dirichlet and Neumann terms, and the
sparsity pattern of the Jacobians with the index that scatters face terms
into it), so a caller that evaluates many fields, such as the optimizer or the
Monte Carlo head prior, holds one operator.  The module functions
(:func:`assemble_residual`, :func:`solve_forward`, ...) build a fresh
operator per call and give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import csv
import json

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, SingularSystemError, SolveConvergenceError
from .seeding import float_token

__all__ = [
    "Mesh",
    "BoundaryConditions",
    "build_structured_mesh",
    "boundary_values",
    "face_transmissivity",
    "FlowOperator",
    "assemble_residual",
    "solve_forward",
    "residual_jacobians",
    "residual_vjp",
    "residual_hessian_contract",
    "mesh_to_json",
    "mesh_from_json",
    "save_field_csv",
    "load_field_csv",
]

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# Largest system handed to the sparse direct solver; bigger meshes fall back
# to preconditioned conjugate gradients.
DIRECT_SOLVE_LIMIT = 10_000


@dataclass(frozen=True)
class Mesh:
    """Cell-centered mesh with face connectivity.

    Attributes
    ----------
    cell_centers : (n_cells, 2) float array
        Cell center coordinates.
    cell_areas : (n_cells,) float array
        Cell areas, strictly positive.
    face_cells : (n_faces, 2) int array
        Interior faces as (i, j) cell pairs, i != j.
    face_trans : (n_faces,) float array
        Geometric face transmissibility ``area / center_distance``.
    boundary_cells : (n_boundary, ) int array
        Owning cell of each boundary face.
    boundary_areas, boundary_distances : (n_boundary,) float arrays
        Face area and cell-center-to-face distance.
    boundary_tags : (n_boundary,) str array
        Condition type per face, ``"dirichlet"`` or ``"neumann"``.
    boundary_labels : (n_boundary,) str array
        Free-form face labels (e.g. "west"); used to attach values by side.
    """

    cell_centers: np.ndarray
    cell_areas: np.ndarray
    face_cells: np.ndarray
    face_trans: np.ndarray
    boundary_cells: np.ndarray
    boundary_areas: np.ndarray
    boundary_distances: np.ndarray
    boundary_tags: np.ndarray
    boundary_labels: np.ndarray

    def __post_init__(self):
        coerce = {
            "cell_centers": np.float64,
            "cell_areas": np.float64,
            "face_cells": np.int64,
            "face_trans": np.float64,
            "boundary_cells": np.int64,
            "boundary_areas": np.float64,
            "boundary_distances": np.float64,
        }
        for name, dtype in coerce.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        for name in ("boundary_tags", "boundary_labels"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=str))
        self._validate()

    def _validate(self):
        n = self.n_cells
        if self.cell_centers.ndim != 2 or self.cell_centers.shape[1] != 2:
            raise ConfigError("cell_centers must have shape (n_cells, 2)")
        if np.any(self.cell_areas <= 0):
            raise ConfigError("cell_areas must be strictly positive")
        if self.face_cells.size and (
            self.face_cells.min() < 0 or self.face_cells.max() >= n
        ):
            raise ConfigError("face_cells reference cells outside the mesh")
        if np.any(self.face_cells[:, 0] == self.face_cells[:, 1]):
            raise ConfigError("interior faces must join two distinct cells")
        if np.any(self.face_trans <= 0):
            raise ConfigError("face_trans must be strictly positive")
        if self.boundary_cells.size and (
            self.boundary_cells.min() < 0 or self.boundary_cells.max() >= n
        ):
            raise ConfigError("boundary_cells reference cells outside the mesh")
        if np.any(self.boundary_areas <= 0) or np.any(self.boundary_distances <= 0):
            raise ConfigError("boundary areas and distances must be strictly positive")
        bad = set(self.boundary_tags) - {DIRICHLET, NEUMANN}
        if bad:
            raise ConfigError(f"unknown boundary tags: {sorted(bad)}")
        lengths = {
            self.boundary_cells.shape[0],
            self.boundary_areas.shape[0],
            self.boundary_distances.shape[0],
            self.boundary_tags.shape[0],
            self.boundary_labels.shape[0],
        }
        if len(lengths) != 1:
            raise ConfigError("boundary arrays must share one length")

    @property
    def n_cells(self) -> int:
        return self.cell_centers.shape[0]

    @property
    def n_interior_faces(self) -> int:
        return self.face_cells.shape[0]

    @property
    def n_boundary_faces(self) -> int:
        return self.boundary_cells.shape[0]

    @property
    def dirichlet_index(self) -> np.ndarray:
        """Indices into the boundary arrays holding Dirichlet faces."""
        return np.flatnonzero(self.boundary_tags == DIRICHLET)

    @property
    def neumann_index(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_tags == NEUMANN)

    def neighbor_matrix(self) -> sp.csr_matrix:
        """Row-stochastic face-adjacency averaging matrix (self excluded).

        Row i holds ``1/deg(i)`` at each cell sharing a face with i.  Cells
        with no neighbor (single-cell mesh) keep their own value.
        """
        i, j = self.face_cells[:, 0], self.face_cells[:, 1]
        rows = np.concatenate([i, j])
        cols = np.concatenate([j, i])
        data = np.ones(rows.shape[0])
        adj = sp.csr_matrix((data, (rows, cols)), shape=(self.n_cells, self.n_cells))
        deg = np.asarray(adj.sum(axis=1)).ravel()
        inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
        mat = sp.diags(inv) @ adj
        isolated = np.flatnonzero(deg == 0)
        if isolated.size:
            mat = (mat + sp.csr_matrix(
                (np.ones(isolated.size), (isolated, isolated)),
                shape=mat.shape,
            )).tocsr()
        return sp.csr_matrix(mat)


@dataclass(frozen=True)
class BoundaryConditions:
    """Values for tagged boundary faces.

    ``dirichlet_values[k]`` belongs to the k-th Dirichlet face in mesh
    boundary order (``mesh.dirichlet_index``); ``neumann_fluxes`` likewise for
    Neumann faces.  Neumann fluxes are outward Darcy flux densities, positive
    out of the domain.
    """

    dirichlet_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    neumann_fluxes: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(
            self, "dirichlet_values", np.atleast_1d(np.asarray(self.dirichlet_values, dtype=np.float64))
        )
        object.__setattr__(
            self, "neumann_fluxes", np.atleast_1d(np.asarray(self.neumann_fluxes, dtype=np.float64))
        )

    def validate(self, mesh: Mesh) -> None:
        """Check value counts against the mesh tagging (one value per face)."""
        nd, nn = mesh.dirichlet_index.size, mesh.neumann_index.size
        if self.dirichlet_values.shape[0] != nd:
            raise ConfigError(
                f"dirichlet_values has {self.dirichlet_values.shape[0]} entries, "
                f"mesh has {nd} dirichlet faces"
            )
        if self.neumann_fluxes.shape[0] != nn:
            raise ConfigError(
                f"neumann_fluxes has {self.neumann_fluxes.shape[0]} entries, "
                f"mesh has {nn} neumann faces"
            )


_DEFAULT_SIDES = {"west": DIRICHLET, "east": DIRICHLET, "south": NEUMANN, "north": NEUMANN}


def build_structured_mesh(
    nx: int,
    ny: int,
    lx: float = 1.0,
    ly: float = 1.0,
    side_tags: dict[str, str] | None = None,
) -> Mesh:
    """Build an nx-by-ny uniform rectangle mesh on [0, lx] x [0, ly].

    Cells are ordered row-major with x fastest: cell ``iy*nx + ix`` has center
    ``((ix + 0.5) dx, (iy + 0.5) dy)``.  Interior faces are listed vertical
    (constant-x) first, then horizontal, each in row-major order.  Boundary
    faces come in side order west, east, south, north and are tagged per
    ``side_tags`` (default: Dirichlet on west/east, Neumann on south/north).
    """
    if nx < 1 or ny < 1:
        raise ConfigError("nx and ny must be at least 1")
    if lx <= 0 or ly <= 0:
        raise ConfigError("lx and ly must be positive")
    tags = dict(_DEFAULT_SIDES)
    if side_tags:
        unknown = set(side_tags) - set(tags)
        if unknown:
            raise ConfigError(f"unknown mesh sides: {sorted(unknown)}")
        tags.update(side_tags)
    for side, tag in tags.items():
        if tag not in (DIRICHLET, NEUMANN):
            raise ConfigError(f"side {side!r} has unknown tag {tag!r}")

    dx, dy = lx / nx, ly / ny
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    centers = np.column_stack([(ix.ravel() + 0.5) * dx, (iy.ravel() + 0.5) * dy])
    areas = np.full(nx * ny, dx * dy)

    pairs = []
    trans = []
    for row in range(ny):  # vertical faces between (ix, row) and (ix+1, row)
        base = row * nx
        for col in range(nx - 1):
            pairs.append((base + col, base + col + 1))
            trans.append(dy / dx)
    for row in range(ny - 1):  # horizontal faces between rows
        base = row * nx
        for col in range(nx):
            pairs.append((base + col, base + col + nx))
            trans.append(dx / dy)
    face_cells = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    face_trans = np.asarray(trans)

    b_cells, b_areas, b_dist, b_tags, b_labels = [], [], [], [], []

    def add_side(cells, area, dist, label):
        for c in cells:
            b_cells.append(c)
            b_areas.append(area)
            b_dist.append(dist)
            b_tags.append(tags[label])
            b_labels.append(label)

    add_side([row * nx for row in range(ny)], dy, dx / 2, "west")
    add_side([row * nx + nx - 1 for row in range(ny)], dy, dx / 2, "east")
    add_side(list(range(nx)), dx, dy / 2, "south")
    add_side([(ny - 1) * nx + col for col in range(nx)], dx, dy / 2, "north")

    return Mesh(
        cell_centers=centers,
        cell_areas=areas,
        face_cells=face_cells,
        face_trans=face_trans,
        boundary_cells=np.asarray(b_cells, dtype=np.int64),
        boundary_areas=np.asarray(b_areas),
        boundary_distances=np.asarray(b_dist),
        boundary_tags=np.asarray(b_tags),
        boundary_labels=np.asarray(b_labels),
    )


def boundary_values(mesh: Mesh, side_values: dict[str, float]) -> BoundaryConditions:
    """Build boundary values from a per-label map (Dirichlet heads, Neumann fluxes)."""
    missing = set(np.unique(mesh.boundary_labels)) - set(side_values)
    if missing:
        raise ConfigError(f"missing boundary values for sides: {sorted(missing)}")
    per_face = np.array([side_values[label] for label in mesh.boundary_labels])
    bc = BoundaryConditions(
        dirichlet_values=per_face[mesh.dirichlet_index],
        neumann_fluxes=per_face[mesh.neumann_index],
    )
    bc.validate(mesh)
    return bc


def face_transmissivity(y_i, y_j):
    """Harmonic mean of cell transmissivities ``exp(y_i)``, ``exp(y_j)``.

    Evaluated as ``exp((y_i + y_j)/2) / cosh((y_i - y_j)/2)``, which is
    symmetric by construction and avoids overflow for large contrasts.
    """
    y_i = np.asarray(y_i, dtype=np.float64)
    y_j = np.asarray(y_j, dtype=np.float64)
    return np.exp((y_i + y_j) / 2) / np.cosh((y_i - y_j) / 2)


class FlowOperator:
    """The discrete Darcy operator of one mesh and one set of boundary values.

    Everything that depends only on the mesh and the boundary conditions is
    computed once, at construction: face endpoints and geometric
    transmissibilities, the Dirichlet cells with their half-cell
    transmissibilities and head values, the Neumann load, and the CSR
    pattern shared by ``dR/du``, ``dR/dy`` and the Hessian contractions,
    with the index that scatters face and Dirichlet terms into its data.
    The methods then take only fields, so repeated evaluations (optimizer
    steps, Monte Carlo forward solves) pay for arithmetic alone and keep no
    state between calls.

    Every sum into a cell or matrix slot adds its terms in one fixed order,
    starting from zero: faces by their ``i`` end, faces by their ``j`` end,
    Dirichlet faces, Neumann faces.  That is the order in which ``np.add.at``
    or a COO-to-CSR assembly would add the same terms, so the rounding is
    theirs too.
    """

    def __init__(self, mesh: Mesh, bc: BoundaryConditions):
        bc.validate(mesh)
        self.n_cells = n = mesh.n_cells
        i, j = mesh.face_cells[:, 0], mesh.face_cells[:, 1]
        d_idx, n_idx = mesh.dirichlet_index, mesh.neumann_index
        d = mesh.boundary_cells[d_idx]
        self._i, self._j, self._d = i, j, d
        self._tau = mesh.face_trans
        self._tau_b = mesh.boundary_areas[d_idx] / mesh.boundary_distances[d_idx]
        self._u_d = bc.dirichlet_values
        self._neumann_load = bc.neumann_fluxes * mesh.boundary_areas[n_idx]
        self._cells = np.concatenate([i, j, d, mesh.boundary_cells[n_idx]])
        self._face_cells = self._cells[: 2 * i.size + d.size]
        self._boundary_cells = self._cells[2 * i.size :]

        keys = np.unique(np.concatenate([i * n + i, i * n + j, j * n + i, j * n + j, d * n + d]))
        self._indices = (keys % n).astype(np.int32)
        self._indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))]).astype(np.int32)
        ii, ij, ji, jj, dd = (
            np.searchsorted(keys, rows * n + cols) for rows, cols in ((i, i), (i, j), (j, i), (j, j), (d, d))
        )
        # COO entry orders: rows (i, i, j, j) x cols (i, j, i, j) for the
        # Jacobians and the mixed Hessian block, (i, j, i, j) x (i, j, j, i)
        # for the (y, y) block.
        self._slots = np.concatenate([ii, ij, ji, jj, dd])
        self._slots_yy = np.concatenate([ii, jj, ij, ji, dd])

    def _check(self, **fields):
        n = self.n_cells
        out = []
        for name, value in fields.items():
            value = np.asarray(value, dtype=np.float64)
            if value.shape != (n,):
                raise ConfigError(f"{name} must have shape ({n},), got {value.shape}")
            out.append(value)
        return out

    def _faces(self, y):
        """Per-face transmissivity ``k`` and its logistic log-derivative weights.

        ``dk/dy_i = k s_i``, ``dk/dy_j = k s_j`` and ``s_i + s_j = 1``.
        """
        yi, yj = y[self._i], y[self._j]
        k = face_transmissivity(yi, yj)
        # s_i = T_j / (T_i + T_j), written as a logistic in y_j - y_i for stability
        s_i = 1.0 / (1.0 + np.exp(yi - yj))
        return k, s_i, 1.0 - s_i

    def _sum(self, cells, terms):
        return np.bincount(cells, weights=np.concatenate(terms), minlength=self.n_cells)

    def _matrix(self, slots, terms) -> sp.csr_matrix:
        data = np.bincount(slots, weights=np.concatenate(terms), minlength=self._indices.size)
        n = self.n_cells
        return sp.csr_matrix((data, self._indices.copy(), self._indptr.copy()), shape=(n, n))

    def residual(self, y, u) -> np.ndarray:
        """The cell-balance residual R(y, u)."""
        y, u = self._check(y=y, u=u)
        i, j, d = self._i, self._j, self._d
        flux = self._tau * face_transmissivity(y[i], y[j]) * (u[i] - u[j])
        dirichlet = self._tau_b * np.exp(y[d]) * (u[d] - self._u_d)
        return self._sum(self._cells, [flux, -flux, dirichlet, self._neumann_load])

    def jacobians(self, y, u) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """Exact sparse Jacobians (dR/dy, dR/du) at (y, u)."""
        y, u = self._check(y=y, u=u)
        i, j, d = self._i, self._j, self._d
        k, s_i, s_j = self._faces(y)
        tau = self._tau
        du = u[i] - u[j]
        tk = tau * k
        # dR/dy: d(flux)/dy_i = tau k s_i du, rows i (+) and j (-)
        gi = tau * k * s_i * du
        gj = tau * k * s_j * du
        kd = np.exp(y[d])
        dr_dy = self._matrix(self._slots, [gi, gj, -gi, -gj, self._tau_b * kd * (u[d] - self._u_d)])
        # dR/du: face stencil [[tk, -tk], [-tk, tk]]
        dr_du = self._matrix(self._slots, [tk, -tk, -tk, tk, self._tau_b * kd])
        return dr_dy, dr_du

    def vjp(self, y, u, w) -> tuple[np.ndarray, np.ndarray]:
        """Adjoint products ``((dR/dy)^T w, (dR/du)^T w)`` without forming matrices."""
        y, u, w = self._check(y=y, u=u, w=w)
        i, j, d = self._i, self._j, self._d
        k, s_i, s_j = self._faces(y)
        tau = self._tau
        du = u[i] - u[j]
        dw = w[i] - w[j]
        wkd = w[d] * self._tau_b * np.exp(y[d])
        gy = self._sum(self._face_cells, [tau * k * s_i * du * dw, tau * k * s_j * du * dw, wkd * (u[d] - self._u_d)])
        gu = self._sum(self._face_cells, [tau * k * dw, -tau * k * dw, wkd])
        return gy, gu

    def hessian_contract(self, y, u, w) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """Weighted second derivatives ``(sum_i w_i d2R_i/dydy, sum_i w_i d2R_i/dydu)``.

        The residual is linear in ``u``, so the (u, u) block vanishes; the two
        returned sparse matrices are the only nonzero blocks of
        ``sum_i w_i Hess(R_i)`` (the (u, y) block is the transpose of the second).
        """
        y, u, w = self._check(y=y, u=u, w=w)
        i, j, d = self._i, self._j, self._d
        k, s_i, s_j = self._faces(y)
        tau = self._tau
        du = u[i] - u[j]
        dw = w[i] - w[j]
        wkd = w[d] * self._tau_b * np.exp(y[d])

        # Second derivatives of the harmonic mean:
        #   d2k/dy_i2 = k s_i (s_i - s_j), d2k/dy_j2 = k s_j (s_j - s_i),
        #   d2k/dy_i dy_j = 2 k s_i s_j   (their sum is k, matching k(y+c) = e^c k)
        wface = dw * tau * du
        kii = k * s_i * (s_i - s_j)
        kjj = k * s_j * (s_j - s_i)
        kij = 2 * k * s_i * s_j
        h_yy = self._matrix(
            self._slots_yy, [wface * kii, wface * kjj, wface * kij, wface * kij, wkd * (u[d] - self._u_d)]
        )
        # Mixed block: d2(flux)/dy_a du_i = tau k s_a, du_j enters with minus
        ci = dw * tau * k * s_i
        cj = dw * tau * k * s_j
        h_yu = self._matrix(self._slots, [ci, -ci, cj, -cj, wkd])
        return h_yy, h_yu

    def solve(self, y, tol: float = 1e-10, method: str = "auto") -> np.ndarray:
        """Solve R(y, u) = 0 for the head field u.

        Uses a sparse direct factorization up to 10^4 cells and Jacobi-
        preconditioned conjugate gradients above (``method`` forces one or the
        other).  The returned solution satisfies
        ``max|R| <= tol * max(1, max|b|)`` or :class:`SolveConvergenceError` is
        raised with the achieved residual.
        """
        (y,) = self._check(y=y)
        if self._d.size == 0:
            raise SingularSystemError(
                "forward solve needs at least one dirichlet face; "
                "an all-neumann problem fixes u only up to a constant"
            )
        if method not in ("auto", "direct", "cg"):
            raise ConfigError(f"unknown solve method {method!r}")
        # R is affine in u, so R(y, u) = A u - b with A = dR/du and b = -R(y, 0).
        # The face fluxes vanish at u = 0, which leaves the boundary terms in b.
        tk = self._tau * face_transmissivity(y[self._i], y[self._j])
        kd = self._tau_b * np.exp(y[self._d])
        a = self._matrix(self._slots, [tk, -tk, -tk, tk, kd])
        b = -self._sum(self._boundary_cells, [kd * (0.0 - self._u_d), self._neumann_load])
        scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
        if method == "direct" or (method == "auto" and self.n_cells <= DIRECT_SOLVE_LIMIT):
            u = spla.spsolve(a, b)
        else:
            inv_diag = 1.0 / a.diagonal()
            precond = spla.LinearOperator(a.shape, matvec=lambda v: inv_diag * v)
            u, _ = spla.cg(a, b, rtol=1e-14, atol=tol * scale / 10, maxiter=20 * self.n_cells, M=precond)
        achieved = float(np.max(np.abs(a @ u - b)))
        if not np.isfinite(achieved) or achieved > tol * scale:
            raise SolveConvergenceError(
                f"forward solve residual {achieved:.3e} exceeds tolerance {tol * scale:.3e}"
            )
        return u


def assemble_residual(
    mesh: Mesh, y: np.ndarray, u: np.ndarray, bc: BoundaryConditions
) -> np.ndarray:
    """Evaluate the cell-balance residual R(y, u)."""
    return FlowOperator(mesh, bc).residual(y, u)


def solve_forward(
    mesh: Mesh,
    y: np.ndarray,
    bc: BoundaryConditions,
    tol: float = 1e-10,
    method: str = "auto",
) -> np.ndarray:
    """Solve R(y, u) = 0 for the head field u; see :meth:`FlowOperator.solve`."""
    return FlowOperator(mesh, bc).solve(y, tol=tol, method=method)


def residual_jacobians(
    mesh: Mesh, y: np.ndarray, u: np.ndarray, bc: BoundaryConditions
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Exact sparse Jacobians (dR/dy, dR/du) at (y, u)."""
    return FlowOperator(mesh, bc).jacobians(y, u)


def residual_vjp(
    mesh: Mesh,
    y: np.ndarray,
    u: np.ndarray,
    bc: BoundaryConditions,
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint products ``((dR/dy)^T w, (dR/du)^T w)`` without forming matrices."""
    return FlowOperator(mesh, bc).vjp(y, u, w)


def residual_hessian_contract(
    mesh: Mesh,
    y: np.ndarray,
    u: np.ndarray,
    bc: BoundaryConditions,
    w: np.ndarray,
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Weighted second derivatives; see :meth:`FlowOperator.hessian_contract`."""
    return FlowOperator(mesh, bc).hessian_contract(y, u, w)


# ---------------------------------------------------------------------------
# Serialization


def mesh_to_json(mesh: Mesh, path) -> None:
    """Write the mesh to a JSON file (face lists as typed rows)."""
    doc = {
        "cell_centers": mesh.cell_centers.tolist(),
        "cell_areas": mesh.cell_areas.tolist(),
        "interior_faces": [
            [int(i), int(j), float(t)]
            for (i, j), t in zip(mesh.face_cells, mesh.face_trans)
        ],
        "boundary_faces": [
            [int(c), float(a), float(d), str(t), str(l)]
            for c, a, d, t, l in zip(
                mesh.boundary_cells,
                mesh.boundary_areas,
                mesh.boundary_distances,
                mesh.boundary_tags,
                mesh.boundary_labels,
            )
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def mesh_from_json(path) -> Mesh:
    with open(path) as fh:
        doc = json.load(fh)
    interior = doc["interior_faces"]
    boundary = doc["boundary_faces"]
    return Mesh(
        cell_centers=np.asarray(doc["cell_centers"], dtype=np.float64).reshape(-1, 2),
        cell_areas=doc["cell_areas"],
        face_cells=np.asarray([[r[0], r[1]] for r in interior], dtype=np.int64).reshape(-1, 2),
        face_trans=[r[2] for r in interior],
        boundary_cells=[r[0] for r in boundary],
        boundary_areas=[r[1] for r in boundary],
        boundary_distances=[r[2] for r in boundary],
        boundary_tags=[r[3] for r in boundary],
        boundary_labels=[r[4] for r in boundary],
    )


def save_field_csv(path, mesh: Mesh, values: np.ndarray, name: str = "value", meta: dict | None = None) -> None:
    """Write a per-cell field as CSV (cell, x, y, <name>) with optional # meta lines."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.n_cells,):
        raise ConfigError(f"field must have shape ({mesh.n_cells},), got {values.shape}")
    with open(path, "w", newline="") as fh:
        for key in sorted(meta) if meta else ():
            fh.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell", "x", "y", name])
        for c in range(mesh.n_cells):
            writer.writerow(
                [c, float_token(mesh.cell_centers[c, 0]), float_token(mesh.cell_centers[c, 1]), float_token(values[c])]
            )


def load_field_csv(path) -> np.ndarray:
    """Read a field written by :func:`save_field_csv`, ordered by cell index."""
    cells, vals = [], []
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    if len(header) < 4:
        raise ConfigError(f"field csv needs at least 4 columns, got {header}")
    for row in reader:
        cells.append(int(row[0]))
        vals.append(float(row[3]))
    out = np.empty(len(vals))
    out[np.asarray(cells, dtype=int)] = np.asarray(vals)
    return out
