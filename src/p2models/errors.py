"""Exception types shared across the package."""


class P2ModelsError(Exception):
    """Base class for all package errors."""


class InputError(P2ModelsError, ValueError):
    """Out-of-range input, refused where it enters the library (the CLI
    exits 2 on it).  A ValueError too, but not every ValueError is one."""


class EisensteinError(P2ModelsError):
    """A supplied minimal polynomial is not Eisenstein."""


class ValuationError(P2ModelsError):
    """Division or inversion impossible at the given valuations."""


class PrecisionError(P2ModelsError):
    """Requested operation exceeds the stored absolute precision."""


class DivisibilityError(P2ModelsError):
    """An exact division required by a construction failed.

    Raised e.g. when the relation or cocycle of an extension is not
    divisible by the expected power of the uniformizer, which signals
    that the defining congruence does not hold.
    """


class LinearSolveError(P2ModelsError):
    """A polynomial identity has no solution at working precision.

    Raised by models.solve_target_hom when F^p (1+mu S)^(-j) is not a
    polynomial in P_{mu,1} mod pi^(pn): no target G exists, so (a, j) is
    not in Phi.
    """


class BudgetError(P2ModelsError):
    """A brute-force enumeration exceeded its candidate budget."""


class CertificationError(P2ModelsError):
    """A series failed its p-integrality / polynomiality certificate.

    This is a hard error: the certified series are also correctness
    oracles for the exact-rational layer, so a failure means a bug.
    """
