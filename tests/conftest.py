import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from gramcode import aecc, codec, grams, lattice


@pytest.fixture(scope="session")
def headline_codebook():
    """The distance-3 mod-13 codebook among closed words of length 158.

    Enumerated once per session; both the size check and the sampled
    distance checks read from it.
    """
    code = aecc.build_code(13, (1, 2, 3, 5, 8, 10, 11, 12), 2)
    return codec.grc_intersect(code, 158, grams.full_gram_set(2, 3))


@pytest.fixture(scope="session")
def table_fits():
    """The four desk-scale count polynomials, fitted in both modes."""
    jobs = {
        "2,2": (grams.full_gram_set(2, 2), 2, 2),
        "2,3": (grams.full_gram_set(2, 3), 4, 12),
        "3,2": (grams.full_gram_set(3, 2), 6, 6),
        "2,4w": (grams.build_weight_set(2, 4, 1, 2, 3), 3, 60),
    }
    out = {}
    for key, (s, degree, lam) in jobs.items():
        out[key] = (
            lattice.fit_quasipolynomial(s, degree, lam, mode="F"),
            lattice.fit_quasipolynomial(s, degree, lam, mode="E"),
        )
    return out
