"""graphdyn: non-Markovian dynamical systems on graphs.

Builds the edge group of a graph by string rewriting, checks the standard
axioms of edge-indexed operator/generator families, lifts such families to
the group by normal-form, interval-product and generator-sum extensions, and
dilates them to divisible families of isometries / automorphisms / unitaries
on finitely supported carrier spaces.

The package exposes its submodules only (``from graphdyn import rewrite``,
``graphdyn.dilate.dilate_cptp``).  Importing the package loads none of them,
so the word commands of :mod:`graphdyn.cli` start without numpy.
"""

__version__ = "0.1.0"
