"""tspbmc — bounded model checking of timed security protocols via SMT.

Pipeline: Alice-Bob protocol + JSON attack scenario -> timed interleaved
execution model with Dolev-Yao knowledge -> SMT-LIB2 bounded-reachability
script -> external solver -> replay-validated attack trace.

The package root imports nothing, so that the solver child
(``python -m tspbmc.smtlite``) loads only ``sexpr`` and ``smtlite``:
import names from their defining modules (``tspbmc.model``,
``tspbmc.encoder``, ...).
"""

__version__ = "1.0.0"
