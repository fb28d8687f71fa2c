"""Finite-field toolkit for explicit low-degree equations of universal
polynomial maps: non-rigid matrices, small linear circuits, low-rank tensors."""

from .field import PrimeField, is_prime
from .poly import (
    MultiPoly,
    PolyMap,
    determinant_poly,
    lagrange_basis,
    monomial_basis,
    poly_compose,
)
from .generators import (
    RigidityParams,
    SVParams,
    TensorParams,
    fixed_support_map,
    parse_map_spec,
    rank_map,
    rigidity_map,
    rigidity_witness,
    sv_input,
    sv_map,
    sv_selector,
    tensor_map,
    tensor_witness,
)
from .lincircuit import (
    LinearCircuit,
    UniversalGraph,
    circuit_matrix,
    embed_circuit,
    find_nonzero_point,
    universal_eval,
    universal_graph,
    universal_map,
)
from .annihilator import (
    ResourceLimitError,
    SolverConfig,
    composition_matrix_sampled,
    composition_matrix_symbolic,
    dimension_gap_holds,
    existence_degree_bound,
    find_annihilator,
    kernel,
)
from .oracle import (
    DenseMatrix,
    DenseTensor,
    is_rigid_bruteforce,
    rank,
    tensor_rank_bruteforce,
)
from .certify import (
    AnnihilatorCertificate,
    CircuitLowerBoundCertificate,
    PitReport,
    RigidityCertificate,
    certify_circuit_lower_bound,
    certify_rigid,
    verify_pit,
    verify_symbolic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
