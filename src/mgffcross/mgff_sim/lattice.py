"""Square-lattice discretization of a marked rectangle.

The rectangle [0,L]x[0,1] is meshed with spacing delta = 1/ny, so the
vertex grid has (ny+1) rows and (nx+1) columns with nx = round(L*ny).
Marked boundary points snap to the nearest boundary vertex along the
counterclockwise boundary walk; the walk between consecutive marked
points is one boundary arc, alternating positive and negative sign
starting with positive for (y_1 -> y_2).

Edges carry unit conductance.  The discrete Laplacian is the plain
5-point sum over neighbors, with Dirichlet rows on the boundary.

For percolation the lattice is laid out as its doubled grid: vertex
(r, c) at site (2r, 2c), its edge to the right or upper neighbour at
(2r, 2c+1) or (2r+1, 2c), and site (row, col) at flat index row*(2nx+1)+col.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from ..probability import RectanglePolygon


@dataclass
class LatticeSpec:
    """Geometry, indexing and arc labels of one mesh level."""

    R: RectanglePolygon
    ny: int
    nx: int
    delta: float
    edge_a: np.ndarray          # (nE,) int32, first endpoint of each edge
    edge_b: np.ndarray          # (nE,) int32
    arc_of: np.ndarray          # (nV,) int32, boundary arc id or -1 inside
    arc_sign: np.ndarray        # (2N,) int8, +1 positive arc, -1 negative
    marked_walk: tuple[int, ...]  # walk index of each marked point
    snap_err: float             # max distance moved when snapping marks
    walk: np.ndarray = field(repr=False, default=None)  # (P,) boundary vertex ids
    forced_sites: np.ndarray = field(repr=False, default=None)  # sites of edges inside one arc
    arc_sites: np.ndarray = field(repr=False, default=None)  # (2N,) site of each arc's first vertex

    @property
    def nv(self) -> int:
        return (self.ny + 1) * (self.nx + 1)

    @property
    def n_edges(self) -> int:
        return int(self.edge_a.shape[0])

    @property
    def narcs(self) -> int:
        return int(self.arc_sign.shape[0])

    @property
    def interior_shape(self) -> tuple[int, int]:
        return (self.ny - 1, self.nx - 1)


def _boundary_walk(ny: int, nx: int) -> np.ndarray:
    """Vertex ids along the ccw boundary starting at the origin corner."""
    ids = []
    for c in range(0, nx):                 # bottom, origin included
        ids.append(0 * (nx + 1) + c)
    for r in range(0, ny):                 # right edge upward
        ids.append(r * (nx + 1) + nx)
    for c in range(nx, 0, -1):             # top edge leftward
        ids.append(ny * (nx + 1) + c)
    for r in range(ny, 0, -1):             # left edge downward
        ids.append(r * (nx + 1) + 0)
    return np.asarray(ids, dtype=np.int64)


def build_lattice(R: RectanglePolygon, ny: int) -> LatticeSpec:
    """Mesh the rectangle at spacing 1/ny and label boundary arcs."""
    if ny < 2:
        raise ValueError("need at least 2 intervals across the height")
    nx = round(R.L * ny)
    if nx < 2:
        raise ValueError(f"aspect ratio {R.L} too thin for mesh 1/{ny}")
    delta = 1.0 / ny
    walk = _boundary_walk(ny, nx)
    P = walk.shape[0]

    # snap marked arc lengths to walk indices
    marked = []
    snap = 0.0
    for s in R.marks:
        t = (s / delta) % P
        w = int(round(t)) % P
        snap = max(snap, abs(t - round(t)) * delta)
        marked.append(w)
    if len(set(marked)) != len(marked):
        raise ValueError("marked points collide after snapping to the mesh")

    npts = len(marked)
    nv = (ny + 1) * (nx + 1)
    arc_of = np.full(nv, -1, dtype=np.int32)
    for k in range(npts):   # arc k runs from marked point k+1 to k+2 (cyclic)
        start = marked[k]
        end = marked[(k + 1) % npts]
        i = start
        while True:
            arc_of[walk[i]] = k
            i = (i + 1) % P
            if i == end:
                break
    arc_sign = np.asarray([1 if k % 2 == 0 else -1 for k in range(npts)], dtype=np.int8)

    # all nearest-neighbor edges
    cols = nx + 1
    vid = np.arange(nv).reshape(ny + 1, cols)
    ea = [vid[:, :-1].ravel(), vid[:-1, :].ravel()]
    eb = [vid[:, 1:].ravel(), vid[1:, :].ravel()]
    edge_a = np.concatenate(ea).astype(np.int32)
    edge_b = np.concatenate(eb).astype(np.int32)

    # doubled-grid sites: an edge inside one arc is held open, which
    # joins the arc into one cluster; each arc is read at its first vertex
    width = 2 * nx + 1
    ra, ca = np.divmod(edge_a.astype(np.int64), cols)
    rb, cb = np.divmod(edge_b.astype(np.int64), cols)
    inside = (arc_of[edge_a] >= 0) & (arc_of[edge_a] == arc_of[edge_b])
    forced_sites = ((ra + rb) * width + ca + cb)[inside]
    r0, c0 = np.divmod(walk[marked], cols)
    arc_sites = 2 * r0 * width + 2 * c0

    return LatticeSpec(
        R=R,
        ny=ny,
        nx=nx,
        delta=delta,
        edge_a=edge_a,
        edge_b=edge_b,
        arc_of=arc_of,
        arc_sign=arc_sign,
        marked_walk=tuple(marked),
        snap_err=snap,
        walk=walk,
        forced_sites=forced_sites,
        arc_sites=arc_sites,
    )


def open_site_image(spec: LatticeSpec, values: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """(B * (2ny+2), 2nx+1) bool image of the open edges of B trials,
    from (B, nV) field values and (B, nE) uniforms in the edge order of
    `build_lattice`: horizontal edges row by row, then vertical ones.

    Each trial is its doubled grid plus one empty row, so that the B
    blocks stacked as one image touch nowhere.  Vertex sites are on.  An
    edge site is on when its uniform lies below 1 - exp(-2ab), formed in
    place from grid slices of the endpoint values (a product <= 0 opens
    nothing, as in `edge_open_probability`), or when the edge lies inside
    one boundary arc.
    """
    B = values.shape[0]
    ny, nx = spec.ny, spec.nx
    nh = (ny + 1) * nx
    grid = values.reshape(B, ny + 1, nx + 1)
    img = np.zeros((B, 2 * ny + 2, 2 * nx + 1), dtype=bool)
    img[:, :-1:2, ::2] = True
    for p, u, sites in (
        (grid[:, :, :-1] * grid[:, :, 1:], uniforms[:, :nh], img[:, :-1:2, 1::2]),
        (grid[:, :-1, :] * grid[:, 1:, :], uniforms[:, nh:], img[:, 1:-1:2, ::2]),
    ):
        np.multiply(p, -2.0, out=p)
        np.expm1(p, out=p)
        np.negative(p, out=p)
        np.less(u.reshape(p.shape), p, out=sites)
    img.reshape(B, -1)[:, spec.forced_sites] = True
    return img.reshape(-1, 2 * nx + 1)


@dataclass
class LatticeField:
    """Field values on the full vertex grid, boundary rows exact."""

    spec: LatticeSpec
    values: np.ndarray  # (ny+1, nx+1) float64


def dirichlet_eigenvalues(spec: LatticeSpec) -> np.ndarray:
    """Eigenvalues of the interior unit-conductance Laplacian under the
    2d DST-I basis: 4 sin^2(pi j / 2ny) + 4 sin^2(pi k / 2nx)."""
    ny, nx = spec.ny, spec.nx
    j = np.arange(1, ny)
    k = np.arange(1, nx)
    lam_y = 4.0 * np.sin(np.pi * j / (2.0 * ny)) ** 2
    lam_x = 4.0 * np.sin(np.pi * k / (2.0 * nx)) ** 2
    return lam_y[:, None] + lam_x[None, :]


def _dst2(a: np.ndarray) -> np.ndarray:
    return scipy.fft.dstn(a, type=1, norm="ortho", axes=(-2, -1))


def boundary_values(spec: LatticeSpec, mu: float) -> np.ndarray:
    """(nV,) vector: +-mu on boundary vertices by arc sign, 0 inside."""
    out = np.zeros(spec.nv)
    bmask = spec.arc_of >= 0
    out[bmask] = mu * spec.arc_sign[spec.arc_of[bmask]]
    return out


def harmonic_extension(spec: LatticeSpec, mu: float) -> LatticeField:
    """Discrete-harmonic interior extension of the +-mu arc boundary data.

    Solves the Dirichlet problem with one DST-I Poisson solve: the right
    hand side collects boundary neighbors of each interior vertex.
    """
    ny, nx = spec.ny, spec.nx
    grid = boundary_values(spec, mu).reshape(ny + 1, nx + 1)
    rhs = np.zeros((ny - 1, nx - 1))
    rhs[0, :] += grid[0, 1:nx]
    rhs[-1, :] += grid[ny, 1:nx]
    rhs[:, 0] += grid[1:ny, 0]
    rhs[:, -1] += grid[1:ny, nx]
    interior = _dst2(_dst2(rhs) / dirichlet_eigenvalues(spec))
    grid[1:ny, 1:nx] = interior
    return LatticeField(spec, grid)


def interior_noise_to_field(spec: LatticeSpec, normals: np.ndarray) -> np.ndarray:
    """Zero-boundary Gaussian free field samples from white noise.

    (B, ny-1, nx-1) standard normals -> interior values.  Covariance is
    the inverse Dirichlet Laplacian with unit conductance; sampling is
    exact by scaling white noise in the DST-I eigenbasis.
    """
    return _dst2(normals / np.sqrt(dirichlet_eigenvalues(spec)))


def edge_open_probability(a, b):
    """Probability that the metric-graph excursion between values a and b
    stays one-signed on a unit edge: 1 - exp(-2ab) when a, b have the
    same strict sign, else 0.  Accepts scalars or arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    prod = a * b
    p = np.where(prod > 0, -np.expm1(-2.0 * prod), 0.0)
    if p.ndim == 0:
        return float(p)
    return p
