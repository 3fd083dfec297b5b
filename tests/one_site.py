"""A one-site calibration model for the Monte Carlo estimators.

Not part of the library: no document, subcommand or preset samples it.
Tests import it as `from one_site import OneSiteModel`.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from fracmom import model
from fracmom.model import DiscreteHamiltonian, GridSpec, disorder_law


@dataclass(frozen=True)
class OneSiteModel:
    """Multiplication by a single uniform coupling: H = [eta].

    The smallest disordered model.  Its fractional moments at z = e + i*0
    have the closed form E|eta - e|^{-s} = (e^{1-s} + (1-e)^{1-s})/(1-s)
    for e in (0, 1), which makes it the standard calibration target for
    the Monte Carlo estimator.  The coupling is drawn through
    model.sample_couplings, looked up at each call so that a test may
    patch it.
    """

    def hamiltonian_for_seed(self, seed) -> DiscreteHamiltonian:
        law = disorder_law(1.0, sites=np.array([[0]]))
        eta = model.sample_couplings(law, seed).eta[0]
        entries = scipy.sparse.csr_matrix(
            (np.array([eta]), np.array([0]), np.array([0, 1])), shape=(1, 1))
        grid = GridSpec(d=1, box=(4.0,), h=1.0)
        return DiscreteHamiltonian(grid=grid, entries=entries,
                                   mask=np.array([0]))
