"""Lagrangian car-following laboratory for kinematic wave traffic models.

The package simulates platoons whose dynamics discretize the kinematic
wave (LWR) model in vehicle-number coordinates, plus second-order
relaxation variants, and measures the waves the simulations produce
against exact Riemann solutions.  Its public names are those in its
modules' ``__all__``.
"""
from . import analysis, cli, conditions, engine, fundamental, riemann, templates
from .analysis import *
from .cli import *
from .conditions import *
from .engine import *
from .fundamental import *
from .riemann import *
from .templates import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analysis, cli, conditions, engine, fundamental, riemann, templates)
    for name in module.__all__
] + ["__version__"]
