"""Existence checks, surgery planning, and numerics for McMullen-like maps.

The package decides, in exact arithmetic, whether a polynomial-with-pole-data
pair admits a McMullen-like perturbation; plans the quasiconformal-surgery
level structure when it does; verifies concrete rational families
numerically; and renders or symbolically simulates the resulting dynamics.
The package root re-exports nothing: import from the submodules.
"""

__version__ = "0.1.0"
