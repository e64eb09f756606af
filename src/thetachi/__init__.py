"""Exact Mukai-lattice arithmetic and theta-bundle Euler characteristics
for moduli of sheaves on polarized abelian surfaces, with a mechanical
verification suite for the cohomological identities behind the formulas.

Names are imported from their modules, for example ``from thetachi import mukai``.
"""
