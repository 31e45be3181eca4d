"""Exact-arithmetic constructions and classification of the finite flat
models of the cyclic group of order p^2 over R = Z_p[zeta_{p^2}]."""

from .dvr import (IndeterminateAtPrecision, QuotElement, RingDescriptor,
                  RingElement, enumerate_quotient, eq_mod, eta,
                  make_custom_ring, make_ring, reduce_mod)
from .errors import (BudgetError, CertificationError, DivisibilityError,
                     EisensteinError, InputError, LinearSolveError,
                     P2ModelsError, PrecisionError, ValuationError)
from .witt import (WittVector, frobenius_w, ghost, ghosts,
                   is_frobenius_kernel, mult_by_p, psi_star_image,
                   scalar_teich, verschiebung, witt_add, witt_mul)
from .artin_hasse import (ah_series, deformed_ah, ep_poly_special, ep_witt,
                          specialize)
from .hopf import (AxiomReport, HopfMorphism, HopfPresentation,
                   check_hopf_axioms, check_morphism, is_isomorphism,
                   is_model_map, residue_fiber)
from .models import (HomClass, ModelDescriptor, ambient_isogeny,
                     build_extension, build_g, build_g_smooth,
                     enumerate_models, hom_brute, hom_closed, hom_gln,
                     hom_models, hom_models_brute, is_isomorphic,
                     isogeny_psi, ker_p2, neron_blowup_unit,
                     normal_form_model, phi_brute, phi_closed, rad_brute)
from .fiber import FiberClass, classify_fiber, verify_fiber

__version__ = "0.1.0"
