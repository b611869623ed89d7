"""Order-6 complex Hadamard matrices and mutually unbiased bases.

Families (m6, fourier_f6, b6, s6), equivalence transforms and lemma-form
normalization, structural predicates (real submatrices, 2x2 Hadamard
submatrix counts, H2-reducibility, product columns), a counterexample
pipeline for the lemma-form zero-entry claim, and a numerical MU-vector
search with parameter scans.
"""

from .core import *
from .errors import *
from .families import *
from .equivalence import *
from .analysis import *
from .refutation import *
from .musearch import *

__version__ = "0.1.0"
