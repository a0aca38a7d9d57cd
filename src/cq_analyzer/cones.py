"""Linearized cones: membership, dual-cone decomposition, kernels, faces.

The linearized cone at a base point is the polyhedron
``{d : A_eq d = 0, A_in d <= 0}`` built from active gradient rows.  Zero
rows are kept on purpose: a constraint like ``x^2 <= 0`` contributes the
zero row at the origin and the cone is then the whole space, exactly as the
definition demands.

Dual-cone membership asks for coefficients ``v = sum lambda_i row_i`` with
``lambda_i >= 0`` on inequality rows and free on equality rows.  It is
solved as a tiny bound-constrained least-squares problem: free coefficients
are split into positive and negative parts and a Lawson-Hanson style
active-set iteration handles the non-negativity.  A small ridge term makes
the returned coefficient vector the minimal-Euclidean-norm element when the
solution set is a nontrivial polytope.  All operations are pure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import PointData

__all__ = [
    "LinearizedCone",
    "build_linearized_cone",
    "cone_member",
    "dual_cone_decomposition",
    "face_directions",
    "kernel_basis",
    "nonneg_lstsq",
]

_RIDGE = 1e-12


@dataclass(frozen=True)
class LinearizedCone:
    """Rows of active gradients defining {d : eq_rows d = 0, ineq_rows d <= 0}."""

    eq_rows: np.ndarray
    ineq_rows: np.ndarray
    eq_indices: tuple[int, ...]
    ineq_indices: tuple[int, ...]
    base_point: np.ndarray

    @property
    def dimension(self) -> int:
        return self.base_point.shape[0]


def build_linearized_cone(pd: PointData, active: Sequence[int]) -> LinearizedCone:
    """Copy equality rows and the rows of the active inequalities ``active``
    out of the Jacobian."""
    eq_idx = pd.equality_indices
    ineq_idx = tuple(sorted(active))
    return LinearizedCone(
        eq_rows=pd.jacobian[[i - 1 for i in eq_idx]],
        ineq_rows=pd.jacobian[[i - 1 for i in ineq_idx]],
        eq_indices=eq_idx,
        ineq_indices=ineq_idx,
        base_point=np.asarray(pd.point, dtype=float),
    )


def cone_member(c: LinearizedCone, d: Sequence[float], tol: float) -> bool:
    """Membership with per-row relative scaling tol * (1 + |row| * |d|)."""
    d = np.asarray(d, dtype=float)
    if d.shape != (c.dimension,):
        raise ValueError(f"direction has shape {d.shape}, expected ({c.dimension},)")
    dn = float(np.linalg.norm(d))
    for row in c.eq_rows:
        bound = tol * (1.0 + float(np.linalg.norm(row)) * dn)
        if abs(float(row @ d)) > bound:
            return False
    for row in c.ineq_rows:
        bound = tol * (1.0 + float(np.linalg.norm(row)) * dn)
        if float(row @ d) > bound:
            return False
    return True


def nonneg_lstsq(a: np.ndarray, b: np.ndarray):
    """Solve min |a x - b| subject to x >= 0 (Lawson-Hanson active set),
    with at most ``30 * max(n, 1)`` active-set updates.

    Parameters
    ----------
    a : (m, n) array
    b : (m,) array

    Returns
    -------
    x : (n,) array with x >= 0
    rnorm : float, residual norm at the solution
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    max_iter = 30 * max(n, 1)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = a.T @ (b - a @ x)
    tol = (
        10.0
        * np.finfo(float).eps
        * max(m, n)
        * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    )
    iters = 0
    while not passive.all() and iters < max_iter:
        candidate = np.where(~passive, w, -np.inf)
        j = int(np.argmax(candidate))
        if candidate[j] <= tol:
            break
        passive[j] = True
        while True:
            iters += 1
            cols = np.flatnonzero(passive)
            z = np.zeros(n)
            z[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            if np.min(z[cols], initial=np.inf) > 0.0:
                x = z
                break
            if iters >= max_iter:
                x = np.where(z > 0.0, z, 0.0)
                break
            # Step toward z only as far as non-negativity allows, then
            # retire every coordinate that reached the bound.
            blocking = passive & (z <= 0.0)
            denom = x - z
            ratios = np.where(denom[blocking] > 0.0, x[blocking] / np.where(
                denom[blocking] > 0.0, denom[blocking], 1.0), 0.0)
            alpha = float(np.min(ratios))
            x = x + alpha * (z - x)
            retire = blocking & (x <= 1e-12 * max(1.0, float(np.max(x, initial=0.0))))
            if not np.any(retire):
                smallest = np.flatnonzero(blocking)[int(np.argmin(x[blocking]))]
                retire = np.zeros(n, dtype=bool)
                retire[smallest] = True
            passive &= ~retire
            x[~passive] = 0.0
        w = a.T @ (b - a @ x)
    return x, float(np.linalg.norm(b - a @ x))


def _solve_cone_coefficients(c: LinearizedCone, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-norm signed coefficients lambda and the residual v - rows^T lambda.

    Free (equality) coefficients are split into positive and negative parts
    so one non-negative solve covers both conventions.  The ridge term makes
    the active-set iteration land on the minimal-norm face when the rows are
    dependent; an unregularized least-squares polish on that support then
    removes the ridge bias (the SVD solve returns the exact minimal-norm
    element of the face).  The polish is kept only if it preserves the signs
    and does not worsen the residual.
    """
    k_eq = len(c.eq_indices)
    m = k_eq + len(c.ineq_indices)
    rows = np.vstack([c.eq_rows, c.ineq_rows])
    design = np.hstack([c.eq_rows.T, -c.eq_rows.T, c.ineq_rows.T])
    n_cols = design.shape[1]
    augmented = np.vstack([design, np.sqrt(_RIDGE) * np.eye(n_cols)])
    target = np.concatenate([v, np.zeros(n_cols)])
    x, _ = nonneg_lstsq(augmented, target)
    lam = np.concatenate([x[:k_eq] - x[k_eq:2 * k_eq], x[2 * k_eq:]])
    residual = float(np.linalg.norm(v - rows.T @ lam))

    scale = max(1.0, float(np.max(np.abs(lam), initial=0.0)))
    support = [
        i for i in range(m) if i < k_eq or abs(lam[i]) > 1e-9 * scale
    ]
    if support:
        polished = np.zeros(m)
        sol, *_ = np.linalg.lstsq(rows[support].T, v, rcond=None)
        polished[support] = sol
        ok_signs = all(
            polished[i] >= -1e-12 * scale for i in range(k_eq, m)
        )
        polished[k_eq:] = np.clip(polished[k_eq:], 0.0, None)
        polished_residual = float(np.linalg.norm(v - rows.T @ polished))
        if ok_signs and polished_residual <= residual + 1e-12 * (1.0 + float(np.linalg.norm(v))):
            return polished, v - rows.T @ polished
    return lam, v - rows.T @ lam


def dual_cone_decomposition(
    c: LinearizedCone, v: Sequence[float], tol: float
) -> tuple[Optional[dict[int, float]], np.ndarray]:
    """Decompose v over the cone's rows: the coefficients ``{constraint index:
    lambda}`` (None when v is not in the dual) and the residual
    r = v - sum lambda_i row_i.

    Success means ``|r| <= tol * (1 + |v|)`` with lambda >= 0 on inequality
    rows and free on equality rows.  When the active rows are dependent the
    multiplier set is a polytope and the minimal-norm element is returned.
    When v is outside the dual cone, <row_i, r> <= 0 on inequality rows,
    = 0 on equality rows, and <v, r> = |r|^2 > 0: r lies in the cone and
    certifies that <v, d> is positive somewhere on it.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (c.dimension,):
        raise ValueError(f"vector has shape {v.shape}, expected ({c.dimension},)")
    lam, residual_vec = _solve_cone_coefficients(c, v)
    if float(np.linalg.norm(residual_vec)) > tol * (1.0 + float(np.linalg.norm(v))):
        return None, residual_vec
    return dict(zip(c.eq_indices + c.ineq_indices, lam.tolist())), residual_vec


def kernel_basis(rows: np.ndarray, tol_rank: float) -> np.ndarray:
    """Orthonormal basis of the numerical null space, one vector per row.

    Returns an (n - k, n) array whose rows are the right singular vectors
    with singular value <= tol_rank * sigma_max; an empty row set yields the
    identity basis.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a 2-d array")
    m, n = rows.shape
    if m == 0 or not np.any(rows):
        return np.eye(n)
    _, sigma, vt = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(sigma > tol_rank * sigma[0]))
    return vt[rank:]


def face_directions(
    c: LinearizedCone, count: int, tol: float
) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
    """Unit directions in the relative interior of the faces of the cone, each
    with its face's set S of inequality indices, at most ``count`` of them.

    The face F_S holds the cone members on which the rows of S vanish.  Let P
    project onto the kernel of the equality rows and the rows of S (all rows
    normalized; ``tol`` decides the kernel) and let R be the other inequality
    rows.  The min-norm point p of the convex hull of the columns P row_i^T,
    i in R (Wolfe, Math. Programming 11, 1976), is one non-negative
    least-squares solve with an extra row for sum(lambda) = 1; every row of R
    is at most -|p| on the centre d_S = -p/|p|, the largest margin any unit
    direction of F_S has.  When |p| <= tol the rows carrying lambda above tol
    join S and the solve is repeated (the closure of S).  When R is empty,
    F_S is the lineality space and gets the directions +-P e_j, duplicates
    dropped.

    Inequality rows that are equal after normalization vanish on the same
    faces, so the walk takes one row of each such group, in the order of
    their first rows, and each S lists every row of its groups.  Faces are
    visited breadth first from the closure of the empty set, the
    children of S being the closures of S + {i}, in (|S|, sorted S) order,
    and yield their directions.  Then each face adds, in the same order, the
    midpoints of two of its directions and of one of its directions and a
    child's: rows of R stay at or below -|p|/2 there, so S is unchanged, and
    a tangent cone that holds the centres but not the whole face is probed.
    A permutation of the variables permutes the directions; an empty result
    means the cone is {0}.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    n, k = c.dimension, len(c.eq_rows)
    rows = np.vstack([c.eq_rows, c.ineq_rows])
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows / np.where(norms > 0.0, norms, 1.0)    # zero rows stay zero
    groups: dict = {}                                  # row -> positions equal to it
    for i, row in enumerate(rows[k:]):
        groups.setdefault(tuple(row), []).append(i)
    members = list(groups.values())                    # in first-position order
    eq, ineq = rows[:k], rows[k:][[g[0] for g in members]]

    def close(face: frozenset) -> tuple[tuple[int, ...], list[np.ndarray]]:
        while True:
            s = sorted(face)
            basis = kernel_basis(np.vstack([eq, ineq[s]]), tol)
            rest = [i for i in range(len(ineq)) if i not in face]
            if not rest:
                lineality: list[np.ndarray] = []
                for v in basis.T @ basis:
                    norm = float(np.linalg.norm(v))
                    for e in (v / norm, -v / norm) if norm > tol else ():
                        if all(float(e @ f) <= 1.0 - 1e-12 for f in lineality):
                            lineality.append(e)
                return tuple(s), lineality
            cols = basis.T @ (basis @ ineq[rest].T)
            u, _ = nonneg_lstsq(np.vstack([cols, np.ones(len(rest))]), np.eye(n + 1)[n])
            lam = u / np.sum(u)
            p = cols @ lam
            norm = float(np.linalg.norm(p))
            if norm > tol:
                return tuple(s), [-p / norm]
            face = face | {rest[j] for j in np.flatnonzero(lam > tol)}

    faces = dict([close(frozenset())])      # closed S -> its directions
    queue, near, out = [(len(s), s) for s in faces], {}, []
    while queue:
        _, s = heapq.heappop(queue)
        out.extend((s, d) for d in faces[s])
        if len(out) >= count:
            break
        near[s] = []                        # the directions of its children
        for kid, directions in (close(frozenset(s) | {i}) for i in range(len(ineq)) if i not in s):
            near[s] += directions
            if kid not in faces:
                faces[kid] = directions
                heapq.heappush(queue, (len(kid), kid))
    for s, kids in near.items():
        for j, a in enumerate(faces[s]):
            for b in faces[s][j + 1:] + kids:
                norm = float(np.linalg.norm(a + b))
                if norm > tol and len(out) < count:
                    out.append((s, (a + b) / norm))
    return tuple(
        (tuple(c.ineq_indices[i] for i in sorted(p for g in s for p in members[g])), d)
        for s, d in out[:count]
    )
