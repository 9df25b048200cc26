"""Dense references for small models.

The library reads every localiser block off a model's spectral windows
(``ModelInstance.window``).  Tests check those blocks against the dense
localiser of the whole box, laid out here with numpy alone and compressed
onto the same eigenvectors of D, and suspension paths, whose samples the
eigenvalue kernel may send to its banded route, against the same path
sampled dense.  Reference counts and gaps come from np.linalg.eigvalsh.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from speclocaliser import Inertia, OperatorPath, inertia


def dense_localiser(model, kappa, k_rep=None) -> np.ndarray:
    """kappa D + Gamma K (even) or [[kappa D, K], [K*, -kappa D]] (odd).

    k_rep replaces the model's K, e.g. by -I (even) or I (odd) for the
    t = -1 end of a suspension.
    """
    d = kappa * model.dirac.toarray()
    k = model.k_rep.toarray() if k_rep is None else k_rep
    if model.parity == "even":
        return d + model.grading[:, None] * k
    return np.block([[d, k], [k.conj().T, -d]])


def compress(op: np.ndarray, model, cols) -> np.ndarray:
    """op compressed onto the columns cols of D's ordered eigenvectors.

    Odd localisers act on the doubled space, so their basis is doubled
    blockwise.
    """
    v = model.dirac_eigensystem()[1][:, cols].toarray()
    basis = v if model.parity == "even" else sla.block_diag(v, v)
    sub = basis.conj().T @ op @ basis
    return (sub + sub.conj().T) / 2.0


def _eigvalsh(m) -> np.ndarray:
    return np.linalg.eigvalsh(m.toarray() if sp.issparse(m) else np.asarray(m))


def dense_inertia(m) -> Inertia:
    """The inertia of m, dense or sparse, from its np.linalg.eigvalsh eigenvalues."""
    return inertia(m, _eigvalsh(m))


def dense_gap(m) -> float:
    """min |eigenvalue| of m, dense or sparse, from np.linalg.eigvalsh."""
    return float(np.min(np.abs(_eigvalsh(m))))


def dense_endpoints(t0, t1) -> int:
    """Half the signature difference of two invertible Hermitian matrices,
    counted from np.linalg.eigvalsh with no tolerance."""
    return int(np.sum(np.sign(_eigvalsh(t1))) - np.sum(np.sign(_eigvalsh(t0)))) // 2


def dense_path(path: OperatorPath) -> OperatorPath:
    """path with every sample dense, so whatever sf_crossings diagonalises
    (its ends, and its grid when traced) goes to np.linalg.eigvalsh."""

    def evaluate(t):
        m = path.evaluate(t)
        return m.toarray() if sp.issparse(m) else m

    return OperatorPath(evaluate=evaluate, grid=path.grid)
