"""Numerical laboratory for tailored continuous-variable teleportation.

Implements the Heisenberg-picture variance algebra of a teleporter whose
measurement and displacement are tailored to prior knowledge of the target
alphabet, the one-shot and averaged fidelity formulas, a seeded Monte Carlo
engine over measurement outcomes that cross-validates the closed forms,
Gaussian-alphabet averaging, and the derivative-free optimisation used to
tune the protocol parameters.  Each public name is imported from its
defining module: the package re-exports none and imports nothing.
"""

__version__ = "0.1.0"
