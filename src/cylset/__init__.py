"""Finite-model workbench for cylindric set algebras.

Evaluates cylindric terms in full set algebras over finite-window units,
classifies units (Crs/D/G/Gs), and runs the witness and splitting
constructions that locate atoms in small-generator free algebras.

Each name is imported from its own module (`cylset.terms`, `cylset.units`,
`cylset.semantics`, `cylset.constructions`, `cylset.cli`); importing the
package itself loads none of them.
"""

__version__ = "0.1.0"
