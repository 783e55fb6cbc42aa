"""The transcription's constraint and finite-difference derivative bodies
as they were before :meth:`~thermaldrift.trajopt._Transcription.steps`:
each builds its own stencil (repeat, perturb, scale) and calls the batched
RK4 step itself.  The tests pin the package's versions to these bit for
bit."""

import numpy as np

from thermaldrift.trajopt import (
    _CURVED,
    _H_SCALE,
    _U_SCALE,
    _X_SCALE,
    IX,
    _rk4_batch,
    _terminal_residual,
)


def constraints(tr, z):
    X, U, h = tr.unpack(z)
    phi = _rk4_batch(tr.p.params, np.ascontiguousarray(X[:-1].T),
                     np.ascontiguousarray(U.T), h)
    defects = (X[1:] - phi.T) / _X_SCALE
    return np.concatenate([defects.ravel(), _terminal_residual(tr.p, X[-1])])


def jacobian(tr, z):
    """(D, E, Fh, G) by central differences, step 1e-6 in scaled units."""
    X, U, h = tr.unpack(z)
    N = tr.N
    eps = 1e-6
    n_pert = 2 * IX.n + 2 * 2 + 2
    # components first: states (12, N, n_pert), inputs (2, N, n_pert)
    xb = np.repeat(X[:-1].T[:, :, None], n_pert, axis=2)
    ub = np.repeat(U.T[:, :, None], n_pert, axis=2)
    hb = np.full((N, n_pert), h)
    col = 0
    for j in range(IX.n):
        xb[j, :, col] += eps * _X_SCALE[j]
        xb[j, :, col + 1] -= eps * _X_SCALE[j]
        col += 2
    for j in range(2):
        ub[j, :, col] += eps * _U_SCALE[j]
        ub[j, :, col + 1] -= eps * _U_SCALE[j]
        col += 2
    hb[:, col] += eps * _H_SCALE
    hb[:, col + 1] -= eps * _H_SCALE
    phi = _rk4_batch(tr.p.params, xb, ub, hb) / _X_SCALE[:, None, None]
    D = np.empty((N, IX.n, IX.n))
    E = np.empty((N, IX.n, 2))
    col = 0
    for j in range(IX.n):
        D[:, :, j] = -(phi[:, :, col] - phi[:, :, col + 1]).T / (2.0 * eps)
        col += 2
    for j in range(2):
        E[:, :, j] = -(phi[:, :, col] - phi[:, :, col + 1]).T / (2.0 * eps)
        col += 2
    Fh = -(phi[:, :, col] - phi[:, :, col + 1]).T / (2.0 * eps)

    xN = X[-1]
    G = np.empty((tr.ng, IX.n))
    for j in range(IX.n):
        dx = eps * _X_SCALE[j]
        xp, xm = xN.copy(), xN.copy()
        xp[j] += dx
        xm[j] -= dx
        G[:, j] = (_terminal_residual(tr.p, xp)
                   - _terminal_residual(tr.p, xm)) / (2.0 * eps)
    return D, E, Fh, G


def lagrangian_hessian(tr, z, lam):
    """(stage blocks, terminal block) by second differences, step 1e-4."""
    X, U, h = tr.unpack(z)
    N = tr.N
    eps = 1e-4
    nv = _CURVED.size + 3
    iu, ju = np.triu_indices(nv, 1)
    E = np.eye(nv) * eps
    # stencil: centre, +e_i, -e_i, e_i + e_j (i < j)
    O = np.concatenate([np.zeros((1, nv)), E, -E, E[iu] + E[ju]])
    # components first: states (12, N, M), inputs (2, N, M)
    xb = np.repeat(X[:-1].T[:, :, None], O.shape[0], axis=2)
    xb[_CURVED] += (O[:, :_CURVED.size] * _X_SCALE[_CURVED]).T[:, None, :]
    ub = U.T[:, :, None] + (O[:, _CURVED.size:-1] * _U_SCALE).T[:, None, :]
    hb = h + O[:, -1] * _H_SCALE
    phi = np.ascontiguousarray(
        _rk4_batch(tr.p.params, xb, ub, hb).transpose(1, 2, 0)) / _X_SCALE
    psi = -np.einsum("kmi,ki->km", phi, lam[:N * IX.n].reshape(N, IX.n))
    c0 = psi[:, :1]
    plus, minus = psi[:, 1:1 + nv], psi[:, 1 + nv:1 + 2 * nv]
    H = np.empty((N, nv, nv))
    H[:, np.arange(nv), np.arange(nv)] = (plus - 2.0 * c0 + minus) / eps ** 2
    off = (psi[:, 1 + 2 * nv:] - plus[:, iu] - plus[:, ju] + c0) / eps ** 2
    H[:, iu, ju] = off
    H[:, ju, iu] = off

    xN = X[-1]
    nu_g = lam[N * IX.n:]

    def g(d):
        return nu_g @ _terminal_residual(tr.p, xN + d * _X_SCALE)
    Et = np.eye(IX.n) * eps
    Ht = np.empty((IX.n, IX.n))
    g0 = g(0.0)
    gp = [g(Et[i]) for i in range(IX.n)]
    for i in range(IX.n):
        Ht[i, i] = (gp[i] - 2.0 * g0 + g(-Et[i])) / eps ** 2
        for j in range(i):
            Ht[i, j] = Ht[j, i] = (g(Et[i] + Et[j]) - gp[i] - gp[j]
                                   + g0) / eps ** 2
    return H, Ht
