"""Run-time lab for local search on majority plateau functions.

Simulates exact-cardinality bit-flip search on threshold/majority
objectives, evaluates the closed-form run-time bounds, and cross-checks
both against exact Markov-chain hitting-time oracles.
"""

from .core import (
    BitString,
    FixedOnes,
    Point,
    RngStream,
    Uniform,
    UniformNonOptimal,
    flip_bits,
    sample_bitstring,
    sample_uniform_subset,
)
from .ea import RlsMutation, RunConfig, RunResult, RestartStats, run
from .fitness import (
    BlockMajorityFitness,
    FitnessFunction,
    MajorityFitness,
    NeutralityFitness,
    OneMax,
    PlateauFitness,
    make_fitness,
)
from .theory import BoundSet

__all__ = [
    "BitString",
    "BlockMajorityFitness",
    "BoundSet",
    "FitnessFunction",
    "FixedOnes",
    "MajorityFitness",
    "NeutralityFitness",
    "OneMax",
    "PlateauFitness",
    "Point",
    "RestartStats",
    "RlsMutation",
    "RngStream",
    "RunConfig",
    "RunResult",
    "Uniform",
    "UniformNonOptimal",
    "flip_bits",
    "make_fitness",
    "run",
    "sample_bitstring",
    "sample_uniform_subset",
]

__version__ = "0.1.0"
