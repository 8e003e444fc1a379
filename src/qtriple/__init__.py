"""qtriple: quantum SO(3) as the fixed-point geometry of quantum SU(2).

Canonical-form arithmetic for the q-deformed unitary generators, the
truncated faithful representation used as a numerical oracle, the Haar/GNS
construction with its little q-Jacobi matrix-coefficient basis, the
equivariant diagonal Dirac operator with its two-fold sign-flip covering,
and a finite clock-and-shift model of the torus twist calculus.
"""

from .ncpoly import (
    ALPHA, ALPHA_STAR, BETA, BETA_STAR, LETTERS,
    CanonicalMonomial, DegreeOverflowError, NCPolynomial, ParityError,
    QParam, Word, adjoint, module_decompose, monomials_up_to, mul,
    normalize, random_polynomial, random_word, z2_act, z2_project,
)
from .grammar import ParseError, parse
from .rep import (
    TruncationSpec, operator_norm, relation_residuals, represent,
)
from .gns import (
    GNSBasis, GNSVector, GramSingularError, HalfInt, gns_inner,
    gram_schmidt_basis, haar_exact, haar_numeric, halfint, little_jacobi,
    t_matrix,
)
from .triple import (
    CoveringCert, DiracSpec, assemble_unoriented_triple, certify_covering,
    check_parity, commutator_matrix, hilbert_module_product,
    spectrum_rows, summability_scan,
)
from .isodeform import (
    BigradedOp, GradingError, TorusModel, build_model, decompose,
    left_twist, right_twist, star_product, star_product_right,
    twisted_triple_check, verify_lemma_a, verify_lemma_b, z2_twist_project,
)

__version__ = "0.1.0"
