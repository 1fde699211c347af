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
incidence and transmissibilities, Dirichlet and Neumann terms, the one
sparsity pattern of every matrix with the index that scatters face terms
into it, and, from the first forward solve on, a bandwidth-reducing ordering
of the cells for that solve), so a caller that evaluates many fields, such
as the optimizer or the Monte Carlo head prior, holds one operator.  Its
methods share one kernel of face and Dirichlet terms and, where they can,
take a batch of fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # scipy is imported where it is called, so stages that never call it never load it
    import scipy.sparse as sp

from .errors import ConfigError, SingularSystemError, SolveConvergenceError
from .seeding import float_token, read_table, write_table

__all__ = [
    "Mesh",
    "BoundaryConditions",
    "build_structured_mesh",
    "boundary_values",
    "face_transmissivity",
    "FlowOperator",
    "save_field_csv",
    "load_field_csv",
]

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# Relative residual tolerance of the forward solve.
SOLVE_TOL = 1e-10


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
        import scipy.sparse as sp
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


_SIDE_TAGS = {"west": DIRICHLET, "east": DIRICHLET, "south": NEUMANN, "north": NEUMANN}


def build_structured_mesh(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0) -> Mesh:
    """Build an nx-by-ny uniform rectangle mesh on [0, lx] x [0, ly].

    Cells are ordered row-major with x fastest: cell ``iy*nx + ix`` has center
    ``((ix + 0.5) dx, (iy + 0.5) dy)``.  Interior faces are listed vertical
    (constant-x) first, then horizontal, each in row-major order.  Boundary
    faces come in side order west, east, south, north, Dirichlet on west and
    east and Neumann on south and north.
    """
    if nx < 1 or ny < 1:
        raise ConfigError("nx and ny must be at least 1")
    if lx <= 0 or ly <= 0:
        raise ConfigError("lx and ly must be positive")

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
            b_tags.append(_SIDE_TAGS[label])
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
    computed once.  At construction: face endpoints and geometric
    transmissibilities, the Dirichlet cells with their half-cell
    transmissibilities and head values, the Neumann load, and the CSR
    pattern shared by ``dR/du``, ``dR/dy`` and the Hessian contractions,
    with the one index that scatters face and Dirichlet terms into its data.
    On the first forward solve (or the first read of ``half_bandwidth``): a
    reverse Cuthill-McKee ordering of the cells, its half-bandwidth
    ``half_bandwidth`` and the index that scatters the same terms into
    LAPACK band storage; callers that never solve never build them.  The
    methods then take only fields, so repeated evaluations (optimizer steps,
    Monte Carlo forward solves) pay for arithmetic alone.  The one other
    thing kept between calls is the row-offset index of the largest batch
    summed so far, which smaller batches reuse as a prefix; results never
    depend on it.

    One kernel gives every method the face and Dirichlet terms it uses.  One
    rule checks the fields: all of one shape, ``(n_cells,)``, or for
    :meth:`residual`, :meth:`vjp` and :meth:`misfit_vjp` ``(rows, n_cells)``,
    each row treated exactly as it would be alone.

    Every sum into a cell or matrix slot adds its terms in one fixed order,
    starting from zero: faces by their ``i`` end, faces by their ``j`` end,
    Dirichlet faces, Neumann faces.  That is the order in which ``np.add.at``
    or a COO-to-CSR assembly would add the same terms, so the rounding is
    theirs too.
    """

    def __init__(self, mesh: Mesh, bc: BoundaryConditions):
        bc.validate(mesh)
        self.n_cells = n = mesh.n_cells
        i, j = np.ascontiguousarray(mesh.face_cells.T)  # take() copies a strided index on every call
        d_idx, n_idx = mesh.dirichlet_index, mesh.neumann_index
        d = mesh.boundary_cells[d_idx]
        self._i, self._j, self._d = i, j, d
        self._tau = mesh.face_trans
        self._tau_b = mesh.boundary_areas[d_idx] / mesh.boundary_distances[d_idx]
        self._u_d = bc.dirichlet_values
        self._neumann_load = bc.neumann_fluxes * mesh.boundary_areas[n_idx]
        # The cells each per-face sum adds into: every term, the face and
        # Dirichlet terms, the boundary terms.  _row_cells keeps, per kind,
        # the row-offset cells of the largest batch summed so far.
        cells = np.concatenate([i, j, d, mesh.boundary_cells[n_idx]])
        self._cells = {"all": cells, "faces": cells[: 2 * i.size + d.size], "boundary": cells[2 * i.size :]}
        self._row_cells = {}

        keys = np.unique(np.concatenate([i * n + i, i * n + j, j * n + i, j * n + j, d * n + d]))
        self._indices = (keys % n).astype(np.int32)
        self._indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))]).astype(np.int32)
        ii, ij, ji, jj, dd = (
            np.searchsorted(keys, rows * n + cols) for rows, cols in ((i, i), (i, j), (j, i), (j, j), (d, d))
        )
        # The one COO entry order of every matrix: faces (ii, ij, ji, jj), then Dirichlet (dd).
        self._slots = np.concatenate([ii, ij, ji, jj, dd])

    @functools.cached_property
    def _band(self):
        """The forward solve's ``(order, half_bandwidth, band_slots)``, built on first use.

        Cell ``order[k]`` becomes unknown k.  In LAPACK general-band storage
        with kl = ku (kl more rows for the LU's fill), entry (r, c) of the
        reordered matrix sits in row 2 kl + r - c of column c; ``band_slots``
        takes each term of ``_slots`` straight there, as a flat index into
        the Fortran-ordered (3 kl + 1, n) array.
        """
        import scipy.sparse as sp
        from scipy.sparse.csgraph import reverse_cuthill_mckee
        n = self.n_cells
        pattern = sp.csr_matrix((np.ones(self._indices.size), self._indices, self._indptr), shape=(n, n))
        order = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        r, c = rank[np.repeat(np.arange(n), np.diff(self._indptr))], rank[self._indices]
        kl = int(np.max(np.abs(r - c), initial=0))
        return order, kl, (c * (3 * kl + 1) + 2 * kl + r - c)[self._slots]

    @property
    def half_bandwidth(self) -> int:
        """Half-bandwidth of ``dR/du`` in the forward solve's cell ordering."""
        return self._band[1]

    def _check(self, batch=False, **fields):
        """The fields as float arrays of one shape, ``(n_cells,)`` or, with ``batch``, ``(rows, n_cells)``."""
        n = self.n_cells
        values = [np.asarray(value, dtype=np.float64) for value in fields.values()]
        shape = values[0].shape
        if shape[-1:] != (n,) or len(shape) > 1 + batch or any(value.shape != shape for value in values[1:]):
            allowed = f"({n},) or (rows, {n})" if batch else f"({n},)"
            got = " and ".join(str(value.shape) for value in values)
            raise ConfigError(f"{' and '.join(fields)} must have shape {allowed}, got {got}")
        return values

    def _kernel(self, y, u=None, weights=False):
        """Face and Dirichlet terms of one field or a ``(rows, n_cells)`` batch.

        Returns ``(k, s_i, s_j, ed, du, ud)``: the face transmissivity, its
        log-derivative weights (``dk/dy_i = k s_i``, ``s_i + s_j = 1``), the
        Dirichlet cells' ``exp(y)``, the head drop ``u_i - u_j`` and the
        Dirichlet ``u - u_D``.  The weights are None unless asked for, the
        head terms without ``u``.
        """
        i, j, d = self._i, self._j, self._d
        yi, yj = y.take(i, axis=-1), y.take(j, axis=-1)
        k = face_transmissivity(yi, yj)
        ed = np.exp(y.take(d, axis=-1))
        s_i = s_j = None
        if weights:
            # s_i = T_j / (T_i + T_j), written as a logistic in y_j - y_i for stability
            s_i = 1.0 / (1.0 + np.exp(yi - yj))
            s_j = 1.0 - s_i
        return (k, s_i, s_j, ed, *((None, None) if u is None else self._drops(u)))

    def _drops(self, u):
        """The kernel's head terms: per-face drop ``u_i - u_j`` and Dirichlet offset ``u - u_D``."""
        return u.take(self._i, axis=-1) - u.take(self._j, axis=-1), u.take(self._d, axis=-1) - self._u_d

    def _sum(self, kind, terms):
        """Per-cell sums of per-face terms into the ``kind`` cells, row by row over an optional batch axis.

        A batch adds each row's terms in the same order as a single field, by
        one ``bincount`` over row-offset cells, so every row, the only row of
        a one-row batch included, rounds as it would alone.
        """
        cells, n = self._cells[kind], self.n_cells
        weights = np.concatenate(terms, axis=-1)
        if weights.ndim == 1:
            return np.bincount(cells, weights=weights, minlength=n)
        rows = weights.shape[0]
        index = self._row_cells.get(kind)
        if index is None or index.shape[0] < rows:
            index = self._row_cells[kind] = cells + n * np.arange(rows)[:, None]
        return np.bincount(index[:rows].ravel(), weights=weights.ravel(), minlength=rows * n).reshape(rows, n)

    def _matrix(self, terms) -> sp.csr_matrix:
        """The CSR matrix summed from ``[ii, ij, ji, jj, dd]`` terms at their ``_slots``."""
        import scipy.sparse as sp
        data = np.bincount(self._slots, weights=np.concatenate(terms), minlength=self._indices.size)
        n = self.n_cells
        return sp.csr_matrix((data, self._indices.copy(), self._indptr.copy()), shape=(n, n))

    def _balance(self, tk, ed, du, ud):
        """R from the kernel's terms and ``tk = tau k``."""
        flux = tk * du
        load = self._neumann_load
        if du.ndim == 2:
            load = load[None].repeat(du.shape[0], axis=0)
        return self._sum("all", [flux, -flux, self._tau_b * ed * ud, load])

    def _adjoint(self, tk, s_i, s_j, ed, du, ud, w):
        """``((dR/dy)^T w, (dR/du)^T w)`` from the kernel's terms, with ``tk = tau k``."""
        dw = w.take(self._i, axis=-1) - w.take(self._j, axis=-1)
        wkd = w.take(self._d, axis=-1) * self._tau_b * ed
        gy = self._sum("faces", [tk * s_i * du * dw, tk * s_j * du * dw, wkd * ud])
        tkdw = tk * dw
        gu = self._sum("faces", [tkdw, -tkdw, wkd])
        return gy, gu

    def residual(self, y, u) -> np.ndarray:
        """The cell-balance residual R(y, u), of one field pair or row by row over a batch."""
        y, u = self._check(batch=True, y=y, u=u)
        k, _, _, ed, du, ud = self._kernel(y, u)
        return self._balance(self._tau * k, ed, du, ud)

    def jacobians(self, y, u) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """Exact sparse Jacobians (dR/dy, dR/du) at (y, u)."""
        y, u = self._check(y=y, u=u)
        k, s_i, s_j, ed, du, ud = self._kernel(y, u, weights=True)
        tk = self._tau * k
        kd = self._tau_b * ed
        # dR/dy: d(flux)/dy_i = tau k s_i du, rows i (+) and j (-)
        gi = tk * s_i * du
        gj = tk * s_j * du
        dr_dy = self._matrix([gi, gj, -gi, -gj, kd * ud])
        # dR/du: face stencil [[tk, -tk], [-tk, tk]]
        dr_du = self._matrix([tk, -tk, -tk, tk, kd])
        return dr_dy, dr_du

    def vjp(self, y, u, w) -> tuple[np.ndarray, np.ndarray]:
        """Adjoint products ``((dR/dy)^T w, (dR/du)^T w)`` without forming matrices, batched like :meth:`residual`."""
        y, u, w = self._check(batch=True, y=y, u=u, w=w)
        k, s_i, s_j, ed, du, ud = self._kernel(y, u, weights=True)
        return self._adjoint(self._tau * k, s_i, s_j, ed, du, ud, w)

    def misfit_vjp(self, y, u, omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Misfit ``m = R(y, u) - omega`` and its adjoint products ``((dR/dy)^T m, (dR/du)^T m)``.

        Fields are batched as in :meth:`residual`; ``omega`` broadcasts.  One
        set of kernel terms feeds the residual and the adjoint, so the result
        is exactly ``residual(y, u) - omega`` and ``vjp(y, u, m)``.
        """
        y, u = self._check(batch=True, y=y, u=u)
        k, s_i, s_j, ed, du, ud = self._kernel(y, u, weights=True)
        tk = self._tau * k
        m = self._balance(tk, ed, du, ud) - omega
        return (m, *self._adjoint(tk, s_i, s_j, ed, du, ud, m))

    def hessian_contract(self, y, u, w) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """Weighted second derivatives ``(sum_i w_i d2R_i/dydy, sum_i w_i d2R_i/dydu)``.

        The residual is linear in ``u``, so the (u, u) block vanishes; the two
        returned sparse matrices are the only nonzero blocks of
        ``sum_i w_i Hess(R_i)`` (the (u, y) block is the transpose of the second).
        """
        y, u, w = self._check(y=y, u=u, w=w)
        k, s_i, s_j, ed, du, ud = self._kernel(y, u, weights=True)
        dw_tau = (w[self._i] - w[self._j]) * self._tau
        wkd = w[self._d] * self._tau_b * ed

        # Second derivatives of the harmonic mean:
        #   d2k/dy_i2 = k s_i (s_i - s_j), d2k/dy_j2 = k s_j (s_j - s_i),
        #   d2k/dy_i dy_j = 2 k s_i s_j   (their sum is k, matching k(y+c) = e^c k)
        wface = dw_tau * du
        hij = wface * (2 * k * s_i * s_j)
        h_yy = self._matrix(
            [wface * (k * s_i * (s_i - s_j)), hij, hij, wface * (k * s_j * (s_j - s_i)), wkd * ud]
        )
        # Mixed block: d2(flux)/dy_a du_i = tau k s_a, du_j enters with minus
        ci = dw_tau * k * s_i
        cj = dw_tau * k * s_j
        h_yu = self._matrix([ci, -ci, cj, -cj, wkd])
        return h_yy, h_yu

    def solve(self, y) -> np.ndarray:
        """Solve R(y, u) = 0 for the head field u.

        The solve is a LAPACK band LU (``dgbtrf``) in the reverse
        Cuthill-McKee order computed on the first solve.  The returned solution
        satisfies ``max|R(y, u)| <= SOLVE_TOL * max(1, max|b|)`` or
        :class:`SolveConvergenceError` is raised with the achieved residual,
        as it is for a singular band factor.
        """
        (y,) = self._check(y=y)
        if self._d.size == 0:
            raise SingularSystemError(
                "forward solve needs at least one dirichlet face; "
                "an all-neumann problem fixes u only up to a constant"
            )
        # R is affine in u, so R(y, u) = A u - b with A = dR/du and b = -R(y, 0).
        # The face fluxes vanish at u = 0, which leaves the boundary terms in b.
        k, _, _, ed, _, _ = self._kernel(y)
        tk = self._tau * k
        kd = self._tau_b * ed
        b = -self._sum("boundary", [kd * (0.0 - self._u_d), self._neumann_load])
        scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
        u = self._band_solve([tk, -tk, -tk, tk, kd], b)
        achieved = float(np.max(np.abs(self._balance(tk, ed, *self._drops(u)))))
        if not np.isfinite(achieved) or achieved > SOLVE_TOL * scale:
            raise SolveConvergenceError(
                f"forward solve residual {achieved:.3e} exceeds tolerance {SOLVE_TOL * scale:.3e}"
            )
        return u

    def _band_solve(self, terms, b) -> np.ndarray:
        """``A^{-1} b`` by a band LU of ``A``, summed from its ``_slots`` terms."""
        from scipy.linalg.lapack import dgbtrf, dgbtrs
        n = self.n_cells
        order, kl, band_slots = self._band
        rows = 3 * kl + 1
        band = np.bincount(band_slots, weights=np.concatenate(terms), minlength=n * rows)
        lu, piv, info = dgbtrf(band.reshape(n, rows).T, kl, kl, overwrite_ab=1)
        if info != 0:
            raise SolveConvergenceError(f"band LU of the forward system failed (dgbtrf info {info})")
        x, _ = dgbtrs(lu, kl, kl, b[order], piv, overwrite_b=1)
        u = np.empty(n)
        u[order] = x
        return u


# ---------------------------------------------------------------------------
# Serialization


def save_field_csv(path, mesh: Mesh, values: np.ndarray, name: str = "value", meta: dict | None = None) -> None:
    """Write a per-cell field as CSV (cell, x, y, <name>) with optional # meta lines."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.n_cells,):
        raise ConfigError(f"field must have shape ({mesh.n_cells},), got {values.shape}")
    cells = enumerate(zip(mesh.cell_centers, values))
    rows = ([c, float_token(x), float_token(y), float_token(v)] for c, ((x, y), v) in cells)
    write_table(path, dict(sorted((meta or {}).items())), ["cell", "x", "y", name], rows)


def load_field_csv(path, mesh: Mesh) -> np.ndarray:
    """Read a field of ``mesh`` written by :func:`save_field_csv`, ordered by cell index.

    The cell column must hold ``0 .. rows-1``, each once, in any order, one
    row per mesh cell, every value must be a finite number, and each row's
    ``x, y`` must be its cell's center exactly, as :func:`save_field_csv`
    writes it.
    """
    _, header, rows = read_table(path)
    if len(header) < 4:
        raise ConfigError(f"{path}: field csv needs at least 4 columns, got {header}")
    cells, centers, vals = [], [], []
    for row in rows:
        if len(row) < 4:
            raise ConfigError(f"{path}: field row {row} has fewer than 4 columns")
        try:
            cells.append(int(row[0]))
            centers.append((float(row[1]), float(row[2])))
            vals.append(float(row[3]))
        except ValueError as exc:
            raise ConfigError(f"{path}: field row {row}: {exc}") from None
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{path}: field values must be finite")
    cells = np.asarray(cells, dtype=int)
    if not np.array_equal(np.sort(cells), np.arange(cells.size)):
        raise ConfigError(f"{path}: cells must be 0..{cells.size - 1}, each once")
    if cells.size != mesh.n_cells:
        raise ConfigError(f"{path}: field has {cells.size} cells, the mesh has {mesh.n_cells}")
    for cell, center in zip(cells, centers):
        if center != tuple(mesh.cell_centers[cell]):
            raise ConfigError(
                f"{path}: cell {cell} is at {list(center)}, its mesh center is {mesh.cell_centers[cell].tolist()}"
            )
    out = np.empty(cells.size)
    out[cells] = vals
    return out
