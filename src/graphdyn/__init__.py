"""graphdyn: non-Markovian dynamical systems on graphs.

Builds the edge group of a graph by string rewriting, checks the standard
axioms of edge-indexed operator/generator families, lifts such families to
the group by normal-form, interval-product and generator-sum extensions, and
dilates them to divisible families of isometries / automorphisms / unitaries
on finitely supported carrier spaces.
"""

from . import dilate, dynamics, extend, linops, rewrite, sampling
from .dilate import (Channel, DilatedSystem, FormalVector, KrausDilation,
                     ShiftDilation, VedDilation, dilate_cptp, dilate_discrete,
                     dilate_divisible, dilate_exponential, isometric_partition,
                     kraus_from_choi, kraus_ii_dilation,
                     one_param_factorization)
from .dynamics import (DagNetwork, GeneratorFamily, LengthFunction,
                       LinearOrderGraph, OperatorFamily, additivity_defect,
                       check_geometric_growth, check_identity_axiom,
                       check_schwarz_generator, dissipation_map,
                       divisibility_defect, example_indivisible,
                       integrate_generators, lindblad_generator,
                       lipschitz_check, network_defect, network_family)
from .errors import (AcyclicityError, ContextError, DegeneracyError,
                     DimensionError, GraphDynError, GraphError, InputError,
                     NotCPTPError, OrderError, PreconditionError,
                     StructureError)
from .extend import (CoverFunction, FirstCoverExtension, NormalFormExtension,
                     SecondCoverExtension, continuity_modulus_check,
                     cover_of_word, positive_intervals)
from .linops import SuperOp
from .reports import CheckReport
from .rewrite import (EdgeContext, GroupElement, Letter,
                      check_confluence_bruteforce, check_rule_axioms,
                      embed_edge, ginv, gmul, identity, is_irreducible,
                      normalize, reduce_once_all, word)

__version__ = "0.1.0"
