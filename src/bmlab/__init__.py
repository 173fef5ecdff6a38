"""bmlab: biased graphs, gain graphs, frame/lift matroids, and canonical
matrix representations over finite fields, with a verification harness for
the projective-equivalence and canonicity theorems at desk scale."""

from .bias import BiasedGraph, biased_minor, check_theta_property, classify_balance, is_tangled
from .canonical import (
    canonicalize_representation,
    complete_lift_matrix,
    enumerate_representations,
    frame_matrix,
    lift_matrix,
)
from .fields import QQ, gf
from .gains import (
    AdditiveGroup,
    CyclicGroup,
    GainGraph,
    MultiplicativeGroup,
    induced_bias,
    normalize,
    switch,
    switching_equivalent,
    switching_scaling_equivalent,
    walk_gain,
)
from .graph import Cycle, MultiGraph, OrientedEdge
from .linalg import FieldMatrix, projectively_equivalent, rref, vector_matroid
from .matroid import (
    MatroidOracle,
    complete_lift_matroid,
    frame_matroid,
    lift_matroid,
    matroids_equal,
    uniform_matroid,
)

__version__ = "0.1.0"
