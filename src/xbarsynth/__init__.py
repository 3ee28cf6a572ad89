"""Partial crossbar synthesis from communication traces.

Pipeline: load or generate a trace, profile it over fixed windows, derive
the pairwise overlap and conflict matrices, search the minimum feasible
bus count, bind targets to buses minimizing worst per-bus overlap, and
validate the result with a cycle-level contention simulator.

Each stage lives in its own submodule (``trace``, ``gen``, ``analysis``,
``solver``, ``sim``, ``lpexport``) and ``cli`` wires them together;
import names from the submodule that defines them.
"""

__version__ = "0.1.0"
