"""Dense references for small models.

The library reads every localiser block off a model's spectral windows
(``ModelInstance.window``).  Tests check those blocks against the dense
localiser of the whole box, compressed onto the same eigenvectors of D,
and banded-route suspension paths against the same path sampled dense.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from speclocaliser import HermitianOperator, OperatorPath
from speclocaliser.core import odd_block


def dense_localiser(model, kappa, k_rep=None) -> np.ndarray:
    """kappa D + Gamma K (even) or [[kappa D, K], [K*, -kappa D]] (odd).

    k_rep replaces the model's K, e.g. by -I (even) or I (odd) for the
    t = -1 end of a suspension.
    """
    d = kappa * model.dirac.toarray()
    k = model.k_rep.toarray() if k_rep is None else k_rep
    if model.parity == "even":
        return d + model.grading[:, None] * k
    return odd_block(d, k).toarray()


def compress(op: np.ndarray, model, cols) -> HermitianOperator:
    """op compressed onto the columns cols of D's ordered eigenvectors.

    Odd localisers act on the doubled space, so their basis is doubled
    blockwise.
    """
    v = model.dirac_eigensystem()[1][:, cols].toarray()
    basis = v if model.parity == "even" else sla.block_diag(v, v)
    sub = basis.conj().T @ op @ basis
    return HermitianOperator((sub + sub.conj().T) / 2.0)


def dense_path(path: OperatorPath) -> OperatorPath:
    """path with every sample dense and no eigenvalue route, so whatever
    sf_crossings diagonalises (its ends, and its grid when traced) goes to
    np.linalg.eigvalsh."""

    def evaluate(t):
        m = path.evaluate(t)
        return m.toarray() if sp.issparse(m) else m

    return OperatorPath(evaluate=evaluate, grid=path.grid)
