"""Exact-arithmetic search for perfect cuboids in the coprime p != q family,
with certified root-interval analysis of the underlying degree-10 equation.
The commands live in cuboidsearch.cli; the names below are the library API."""

from .cuboid_eqs import PQPair, build_qpq, reconstruct_cuboid
from .search import SearchConfig, run_search

__all__ = ["PQPair", "build_qpq", "reconstruct_cuboid", "SearchConfig", "run_search"]
