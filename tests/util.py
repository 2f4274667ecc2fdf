"""Shared helpers and independent oracles for the test suite."""

import numpy as np

from localalg.algebra import StructureConstants
from localalg.report import Report
from localalg.torus import _lattice

PRESETS = ("dual", "trunc:3", "trunc:4", "square:2")


def r_plus_r() -> StructureConstants:
    """The split algebra R + R: basis {1, u} with u*u = u. Not local."""
    C = np.zeros((2, 2, 2))
    C[0] = np.eye(2)
    C[1, 0, 1] = 1.0
    C[1, 1] = (0.0, 1.0)
    return StructureConstants(2, ("1", "u"), C)


def poly_mul_trunc(a, b, order):
    """Truncated polynomial product: independent convolution oracle."""
    full = np.convolve(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return full[:order]


def unit_safe_point(rng, m, n, real_scale=0.8, rad_scale=0.9):
    """Random element rows with bounded real parts; safe for the corpus
    (denominators 2+x1 and 1+x1^2 stay units, 3+x1 stays positive)."""
    pt = rng.uniform(-rad_scale, rad_scale, size=(m, n))
    pt[:, 0] = rng.uniform(-real_scale, real_scale, size=m)
    return pt


def torus_value_map(coeffs, cfg, trig):
    """A trig-coefficient function as a slot-major flat map, for defect checks."""
    n, m = cfg.n, cfg.m
    B = trig.size
    U = np.asarray(coeffs, dtype=float).reshape(n, B)

    def F(flat):
        theta = np.asarray(flat, dtype=float).reshape(m, n).T.reshape(1, -1)
        return trig.values(theta)[0] @ U.T

    return F


def radical_negation_map(A: StructureConstants):
    """Map negating all radical coordinates of the first slot (a non-example)."""

    def F(flat):
        out = -np.asarray(flat[: A.n], dtype=float)
        out[0] = flat[0]
        return out

    return F


def constant_function_vectors(cfg, trig):
    """Coefficient vectors of the n constant functions e_i."""
    B = trig.size
    out = np.zeros((cfg.n, cfg.n * B))
    for i in range(cfg.n):
        out[i, i * B] = 1.0
    return out


def socle_embedding_vector(cfg, trig, socle_vec, f_coeffs):
    """Coefficients of f(transversal) * s for a socle element s.

    ``f_coeffs`` must be supported on transversal-only basis functions; the
    result is then an exact solution of the function constraints (the
    constructive half of the decomposition theorem).
    """
    B = trig.size
    out = np.zeros(cfg.n * B)
    for i in range(cfg.n):
        out[i * B:(i + 1) * B] = socle_vec[i] * f_coeffs
    return out


# -- dense oracle: the constraint systems assembled entry by entry ------------------


def _pair_blocks(trig):
    """(trig indices, local d/dtheta matrices (N, nb, nb)) per frequency pair.

    The constant comes first with a 1x1 zero derivative; each pair follows
    with the 2x2 rotation generator scaled by k_axis.
    """
    yield [0], np.zeros((trig.ncoords, 1, 1))
    for p in range(trig.npairs):
        k = trig.freqs[p].astype(float)
        D = np.zeros((trig.ncoords, 2, 2))
        D[:, 1, 0] = -k  # cos -> -k sin
        D[:, 0, 1] = k  # sin ->  k cos
        yield [1 + 2 * p, 2 + 2 * p], D


def _dense(nunk, trig, local_rows):
    """Stack every pair's local rows into one matrix; columns (unknown, trig)."""
    B = trig.size
    out = []
    for ts, D in _pair_blocks(trig):
        cols = [u * B + t for u in range(nunk) for t in ts]
        for R in local_rows(len(ts), D):
            row = np.zeros((R.shape[0], nunk * B))
            row[:, cols] = R
            out.append(row)
    return np.vstack(out)


def dense_function_constraints(cfg, trig):
    """Dense matrix of the function constraints: for every slot j and radical
    e_a, the Jacobian block J_j must commute with L_a in every entry (i, b)."""
    n, m, L = cfg.n, cfg.m, cfg.mults

    def local_rows(nb, D):
        for j in range(m):
            Dslot = [D[cfg.coord(j, b)] for b in range(n)]
            for a in range(1, n):
                for i in range(n):
                    for b in range(n):
                        R = np.zeros((nb, n * nb))
                        for c in range(n):
                            if L[a][c, b]:
                                R[:, i * nb:(i + 1) * nb] += L[a][c, b] * Dslot[c]
                            if L[a][i, c]:
                                R[:, c * nb:(c + 1) * nb] -= L[a][i, c] * Dslot[b]
                        yield R

    return _dense(n, trig, local_rows)


def dense_form_constraints(cfg, trig):
    """Dense matrix of the 1-form constraints: A-linearity of every slot's
    value block, then closedness component by component."""
    n, m, N, L = cfg.n, cfg.m, cfg.ncoords, cfg.mults

    def local_rows(nb, D):
        eye = np.eye(nb)

        def unk(coord, comp):
            return slice((coord * n + comp) * nb, (coord * n + comp + 1) * nb)

        for j in range(m):
            for a in range(1, n):
                for i in range(n):
                    for b in range(n):
                        R = np.zeros((nb, N * n * nb))
                        for c in range(n):
                            if L[a][c, b]:
                                R[:, unk(cfg.coord(j, c), i)] += L[a][c, b] * eye
                            if L[a][i, c]:
                                R[:, unk(cfg.coord(j, b), c)] -= L[a][i, c] * eye
                        yield R
        for alpha in range(N):
            for beta in range(alpha + 1, N):
                for i in range(n):
                    R = np.zeros((nb, N * n * nb))
                    R[:, unk(beta, i)] += D[alpha]
                    R[:, unk(alpha, i)] -= D[beta]
                    yield R

    return _dense(N * n, trig, local_rows)


# -- reference minimizing-leaf check: one solution, design matrices evaluated directly


def reference_min_leaf(solution, cfg, trig, grid=32, leaf_grid=8, tol=1e-8,
                       system=None):
    """Locate the leaf minimizing the leaf-average of the e1-component and
    check the real part is critical there, evaluating every basis function
    on the points of that leaf itself. Ties go to the smallest row-major
    grid index."""
    n, m, N = cfg.n, cfg.m, cfg.ncoords
    B = trig.size
    U = np.asarray(solution, dtype=float).reshape(n, B)
    g, g1 = U[0], U[1] if n > 1 else U[0]

    tmask = trig.transversal_mask(m)
    trans_pts = np.zeros((grid**m, N))
    trans_pts[:, :m] = _lattice(grid, m)
    averages = trig.values(trans_pts) @ (g1 * tmask)
    qmin = int(np.argmin(averages))

    leaf_pts = np.zeros((leaf_grid ** (N - m), N))
    leaf_pts[:, :m] = trans_pts[qmin, :m]
    leaf_pts[:, m:] = _lattice(leaf_grid, N - m)
    leaf_vals = trig.values(leaf_pts)
    grad_max = 0.0
    for axis in range(N):
        d_g = trig.derivative(g, axis)
        grad_max = max(grad_max, float(np.abs(leaf_vals @ d_g).max()))

    g_all = np.concatenate([trig.values(trans_pts) @ g, leaf_vals @ g])
    variation = float(g_all.max() - g_all.min())

    rep = Report()
    rep.add("min_leaf_gradient", grad_max <= tol, grad_max)
    rep.add("real_part_variation", variation <= tol, variation)
    rep.put("MIN_LEAF_INDEX", qmin)
    rep.put("MIN_LEAF_AVG", float(averages[qmin]))
    rep.put("GRAD_MAX", grad_max)
    rep.put("G_VARIATION", variation)
    if system is not None:
        res = system.residual_inf(solution)
        rep.add("adiff_constraints", res <= tol, res)
        rep.put("ADIFF_RESIDUAL", res)
    return rep
