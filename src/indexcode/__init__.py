"""Analysis, construction and verification of scalar linear index codes."""

from .problem import (
    Problem,
    ProblemError,
    Receiver,
    parse_problem,
    problem_to_json,
    random_problem,
)
from .feasibility import FeasibilityReport, analyze
from .codec import ScalarLinearCode, construct_rate_half, construct_rate_third, verify
from .oracle import exists_code, min_length

__all__ = [
    "Problem",
    "ProblemError",
    "Receiver",
    "FeasibilityReport",
    "ScalarLinearCode",
    "analyze",
    "construct_rate_half",
    "construct_rate_third",
    "exists_code",
    "min_length",
    "parse_problem",
    "problem_to_json",
    "random_problem",
    "verify",
]

__version__ = "0.1.0"
